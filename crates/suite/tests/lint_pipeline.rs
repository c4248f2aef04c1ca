//! The deterministic pipeline-invariant gate: every routine of the
//! 50-routine suite, at every optimization level, must stay lint-clean
//! after **every single pass** — checked by the `verify_each` pipeline
//! mode, which would blame the offending pass by name if one broke an
//! invariant.

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;
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
            if let Err(e) = opt.optimize_verified(&m, 1) {
                panic!("{} at {}: {e}", r.name, level.label());
            }
        }
    }
}
