//! Differential equivalence campaign for the incremental coalescer.
//!
//! The Chaitin-style coalescing pass was rewritten from
//! one-merge-per-round (full liveness + all-pairs interference rebuild
//! between merges) to a batched formulation over bitset adjacency rows
//! and union-find copy classes. The old implementation is retained as
//! `epre_passes::coalesce::reference`; these tests drive both through the
//! full pipeline over the 50-routine suite at every level and require:
//!
//! * **semantic equivalence** — the differential-execution oracle finds
//!   zero divergences between old-pipeline and new-pipeline outputs;
//! * **fixed-point completeness** — immediately after the new pass runs,
//!   zero coalescable (non-self, type-compatible, non-param-pair,
//!   non-interfering) copies remain in any function.
//!
//! Byte-identity across `--jobs` on the fused suite module lives in
//! `tests/parallel_equivalence.rs`.

use epre::{run_pass_cached, Budget, BudgetExceeded, OptLevel, Optimizer};
use epre_analysis::AnalysisCache;
use epre_frontend::NamingMode;
use epre_harness::{compare_modules_detailed, OracleConfig};
use epre_ir::{Function, Module};
use epre_passes::{coalesce, Pass};

const ALL_LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

/// The pre-incremental coalescer as a drop-in `Pass`, so the reference
/// pipeline differs from the real one in exactly one slot.
struct ReferenceCoalesce;

impl Pass for ReferenceCoalesce {
    fn name(&self) -> &'static str {
        "coalesce"
    }
    fn run_budgeted(
        &self,
        f: &mut Function,
        cache: &mut AnalysisCache,
        _budget: &Budget,
    ) -> Result<bool, BudgetExceeded> {
        Ok(coalesce::reference::run_with_cache(f, cache))
    }
}

/// Run the level's full pipeline per function through `run_pass_cached`
/// (debug builds verify the IR and validate the analysis cache after
/// every pass). `reference_coalesce` swaps the coalesce slot for the old
/// implementation; `check_fixed_point` asserts the completeness property
/// right after the (new) coalescer runs.
fn optimize_with(
    module: &Module,
    level: OptLevel,
    reference_coalesce: bool,
    check_fixed_point: bool,
) -> Module {
    let opt = Optimizer::new(level);
    let mut out = module.clone();
    for f in &mut out.functions {
        let mut cache = AnalysisCache::new();
        for pass in opt.passes() {
            if pass.name() == "coalesce" && reference_coalesce {
                run_pass_cached(&ReferenceCoalesce, f, &mut cache)
                    .unwrap_or_else(|e| panic!("reference pipeline fault: {e}"));
            } else {
                run_pass_cached(pass.as_ref(), f, &mut cache)
                    .unwrap_or_else(|e| panic!("pipeline fault: {e}"));
            }
            if pass.name() == "coalesce" && check_fixed_point {
                assert_eq!(
                    coalesce::coalescable_copies(f),
                    0,
                    "coalescable copies left in {} at {level:?}",
                    f.name
                );
            }
        }
    }
    out
}

/// Old-vs-new coalescer over the whole suite × every level, through the
/// differential-execution oracle: zero mismatches allowed.
#[test]
fn old_vs_new_coalescer_suite_differential() {
    let config = OracleConfig::default();
    let mut comparisons = 0usize;
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap_or_else(|e| panic!("{}: {e}", r.name));
        for level in ALL_LEVELS {
            let new = optimize_with(&m, level, false, false);
            let old = optimize_with(&m, level, true, false);
            let outcome = compare_modules_detailed(&old, &new, &config);
            assert!(
                outcome.divergences.is_empty(),
                "{} at {level:?}: {:?}",
                r.name,
                outcome.divergences
            );
            comparisons += outcome.comparisons;
        }
    }
    assert!(comparisons > 0, "the oracle must actually have compared executions");
}

/// Property: the new coalescer's fixed point leaves **zero** remaining
/// coalescable copies, in every function of every routine at every level.
#[test]
fn coalescer_leaves_zero_coalescable_copies_suite_wide() {
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap_or_else(|e| panic!("{}: {e}", r.name));
        for level in ALL_LEVELS {
            let _ = optimize_with(&m, level, false, true);
        }
    }
}
