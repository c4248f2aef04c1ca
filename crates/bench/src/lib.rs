//! # epre-bench — harnesses regenerating the paper's tables and figures
//!
//! Run with `cargo bench -p epre-bench`:
//!
//! * `--bench table1` — Table 1: dynamic ILOC operation counts for all 50
//!   routines at `baseline` / `partial` / `reassociation` / `distribution`,
//!   with the paper's improvement percentages (`new`, `total`),
//! * `--bench table2` — Table 2: static code expansion from forward
//!   propagation (before / after / factor, with totals),
//! * `--bench hierarchy` — the §5.3 redundancy-elimination hierarchy
//!   (dominator CSE ⊂ available-expressions CSE ⊂ PRE), an ablation the
//!   paper discusses qualitatively.
//!
//! Helper functions live here so the benches stay thin and testable.

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_interp::Interpreter;
use epre_suite::Routine;

/// Dynamic operation count of `routine` at `level`.
///
/// # Panics
/// Panics if the routine fails to compile or execute — benchmark inputs
/// are fixed and must work.
pub fn dynamic_count(routine: &Routine, level: OptLevel) -> u64 {
    let module = routine.compile(NamingMode::Disciplined).unwrap();
    let optimized = Optimizer::new(level).optimize(&module);
    let mut interp = Interpreter::new(&optimized);
    interp.run(routine.entry, &[]).unwrap_or_else(|e| panic!("{}: {e}", routine.name));
    interp.counts().total
}

/// The paper's percentage-improvement convention: `(old - new) / old`,
/// rendered like Table 1 (empty for no change, `0%`/`-0%` for tiny ones).
/// The single implementation lives in `epre-telemetry` (it also renders
/// the `epre report` table); this re-export keeps the bench API stable.
pub use epre_telemetry::improvement;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_formatting_matches_table1_conventions() {
        assert_eq!(improvement(100, 100), "");
        assert_eq!(improvement(1000, 999), "0%");
        assert_eq!(improvement(1000, 1001), "-0%");
        assert_eq!(improvement(100, 80), "20%");
        assert_eq!(improvement(100, 112), "-12%");
    }

    #[test]
    fn dynamic_count_runs_a_routine() {
        let r = epre_suite::all_routines().into_iter().find(|r| r.name == "saxpy").unwrap();
        let base = dynamic_count(&r, OptLevel::Baseline);
        let part = dynamic_count(&r, OptLevel::Partial);
        assert!(base > 0 && part > 0);
        assert!(part <= base);
    }
}
