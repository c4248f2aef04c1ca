//! Serial/parallel equivalence of the module driver: `optimize_jobs(N)`
//! must be **byte-identical** to the serial pipeline — same IR, same
//! fault handling — at every optimization level, over the whole
//! 50-routine suite (routine by routine and fused into one module) and
//! the harness's repro corpus.
//!
//! Determinism is a hard requirement of the parallel pass manager: worker
//! scheduling must never leak into the output (functions are reassembled
//! in module order) or into fault reports (the earliest function in
//! module order wins). These tests pin that contract end-to-end.

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_harness::{FaultPolicy, Harness};
use epre_ir::parse_module;

const ALL_LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

#[test]
fn suite_parallel_output_is_byte_identical_to_serial() {
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        for level in ALL_LEVELS {
            let opt = Optimizer::new(level);
            let serial = format!("{}", opt.optimize(&m));
            for jobs in [2, 4] {
                let parallel = format!("{}", opt.optimize_jobs(&m, jobs));
                assert_eq!(serial, parallel, "{} at {level:?}, jobs={jobs}", r.name);
            }
        }
    }
}

/// The fused 108-function suite module gives the parallel driver real
/// work to share out between workers.
#[test]
fn fused_suite_module_is_byte_identical_at_jobs_2_4_8() {
    let m = epre_suite::fused_module();
    for level in ALL_LEVELS {
        let opt = Optimizer::new(level);
        let serial = format!("{}", opt.optimize(&m));
        for jobs in [2, 4, 8] {
            let parallel = format!("{}", opt.optimize_jobs(&m, jobs));
            assert_eq!(serial, parallel, "fused suite at {level:?}, jobs={jobs}");
        }
    }
}

#[test]
fn fortran_repro_parallel_matches_serial() {
    let src = include_str!("../crates/harness/tests/repros/nested_do_shadowed_index.f");
    let m = epre_frontend::compile(src, NamingMode::Disciplined).unwrap();
    for level in ALL_LEVELS {
        let opt = Optimizer::new(level);
        let serial = format!("{}", opt.optimize(&m));
        let parallel = format!("{}", opt.optimize_jobs(&m, 4));
        assert_eq!(serial, parallel, "repro at {level:?}");
    }
}

/// The broken-input repro goes through the sandboxed harness (the plain
/// pipeline would fail its debug-build verification): parallel sandboxing
/// must contain the same faults and emit the same module as serial.
#[test]
fn broken_repro_sandboxed_parallel_matches_serial() {
    let text = include_str!("../crates/harness/tests/repros/use_before_def_min.iloc");
    let m = parse_module(text).unwrap();
    for level in [OptLevel::Baseline, OptLevel::Distribution] {
        let h = Harness::new(level, FaultPolicy::BestEffort);
        let serial = h.optimize(&m).unwrap();
        let parallel = h.optimize_jobs(&m, 4).unwrap();
        assert_eq!(
            format!("{}", serial.module),
            format!("{}", parallel.module),
            "sandboxed output at {level:?}"
        );
        let label = |o: &epre_harness::HardenedOutput| {
            o.faults.iter().map(|f| format!("{f}\n")).collect::<String>()
        };
        assert_eq!(label(&serial), label(&parallel), "fault reports at {level:?}");
    }
}
