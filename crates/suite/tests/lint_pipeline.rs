//! The deterministic pipeline-invariant gate: every routine of the
//! 50-routine suite, at every optimization level, must stay lint-clean
//! after **every single pass** — checked by the governed sandbox under
//! its fail-fast policy (the `epre opt --verify-each` driver), which
//! blames the offending pass by name if one broke an invariant — and the
//! checked run must emit exactly what the plain pipeline emits.

use epre::{Budget, OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_harness::{run_module_governed, CircuitBreaker, FaultPolicy};
use epre_lint::LintOptions;
use epre_suite::all_routines;

const ALL_LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

#[test]
fn every_pass_of_every_level_preserves_invariants_on_the_suite() {
    for r in all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        for level in ALL_LEVELS {
            let opt = Optimizer::new(level);
            let (checked, _) = run_module_governed(
                &m,
                &|| opt.passes(),
                FaultPolicy::FailFast,
                &LintOptions::invariants_only(),
                &Budget::UNLIMITED,
                CircuitBreaker::DEFAULT_THRESHOLD,
                1,
            )
            .unwrap_or_else(|e| panic!("{} at {}: {e}", r.name, level.label()));
            assert!(
                checked == opt.optimize(&m),
                "{} at {}: the checked run changed the output",
                r.name,
                level.label()
            );
        }
    }
}
