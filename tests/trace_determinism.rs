//! Deterministic trace merging: the telemetry trace an optimization run
//! exports must be **byte-identical** across `--jobs` values — same
//! events, same order, same serialized bytes — at every optimization
//! level, over the whole 50-routine suite.
//!
//! This is the observability twin of `parallel_equivalence.rs`: worker
//! scheduling must never leak into the exported trace. Lanes are keyed by
//! module position and merged in module order, and every exported number
//! is virtual (derived from pass input sizes), so the JSON Lines and
//! Chrome `trace_event` renderings match byte for byte no matter how the
//! work was scheduled.

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;

const ALL_LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

#[test]
fn suite_traces_are_byte_identical_across_jobs() {
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        for level in ALL_LEVELS {
            let opt = Optimizer::new(level);
            let (serial_out, serial_trace) =
                opt.try_optimize_traced(&m, 1).unwrap_or_else(|f| panic!("{f}"));
            let serial_jsonl = serial_trace.to_jsonl();
            let serial_chrome = serial_trace.to_chrome();
            for jobs in [2, 8] {
                let (out, trace) =
                    opt.try_optimize_traced(&m, jobs).unwrap_or_else(|f| panic!("{f}"));
                assert_eq!(
                    format!("{serial_out}"),
                    format!("{out}"),
                    "{} at {level:?}, jobs={jobs}: traced module must match serial",
                    r.name
                );
                assert_eq!(
                    serial_jsonl,
                    trace.to_jsonl(),
                    "{} at {level:?}, jobs={jobs}: JSONL trace must be byte-identical",
                    r.name
                );
                assert_eq!(
                    serial_chrome,
                    trace.to_chrome(),
                    "{} at {level:?}, jobs={jobs}: Chrome trace must be byte-identical",
                    r.name
                );
            }
        }
    }
}

/// The exported streams carry the schema the CI sanity check greps for:
/// a dense `seq`, and a non-empty `pass` and `function` on every line.
#[test]
fn suite_trace_schema_is_well_formed() {
    let r = &epre_suite::all_routines()[0];
    let m = r.compile(NamingMode::Disciplined).unwrap();
    let opt = Optimizer::new(OptLevel::Distribution);
    let (_, trace) = opt.try_optimize_traced(&m, 2).unwrap_or_else(|f| panic!("{f}"));
    assert!(!trace.events.is_empty());
    for (i, e) in trace.events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "seq must be dense");
        assert!(!e.pass.is_empty(), "event {i} has an empty pass");
        assert!(!e.function.is_empty() || e.pass == "pipeline" || e.pass == "harness");
    }
    for (i, line) in trace.to_jsonl().lines().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{i},")), "line {i}: {line}");
        assert!(line.contains("\"pass\":"), "line {i}: {line}");
        assert!(line.contains("\"function\":"), "line {i}: {line}");
    }
    let chrome = trace.to_chrome();
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "chrome trace must carry spans");
    assert!(chrome.contains("\"ph\":\"M\""), "chrome trace must name its lanes");
    assert!(chrome.trim_end().ends_with("]}"), "chrome trace must close its array");
}
