//! # epre-passes — the optimization passes of the Effective PRE pipeline
//!
//! Every transformation the paper uses or measures, each implemented as an
//! independent function-level pass (the paper structures its optimizer "as
//! a sequence of passes, where each pass is a Unix filter that consumes and
//! produces ILOC"; here each pass is a `&mut Function` filter):
//!
//! **The paper's contributions (§3):**
//!
//! * [`reassoc`] — global reassociation: ranks, forward propagation,
//!   associative-commutative sorting, optional distribution of multiply
//!   over add,
//! * [`gvn`] — partition-based global value numbering (Alpern, Wegman &
//!   Zadeck) followed by the global renaming that encodes value equivalence
//!   into the name space,
//! * [`pre`] — partial redundancy elimination in the Drechsler–Stadel
//!   edge-placement formulation.
//!
//! **The baseline optimizer (§4.1):**
//!
//! * [`sccp`] — sparse conditional constant propagation (Wegman–Zadeck),
//! * [`peephole`] — global peephole optimization (algebraic identities,
//!   constant folding, subtraction reconstruction, multiply-by-constant
//!   strength reduction — deliberately *after* reassociation, §5.2),
//! * [`dce`] — dead code elimination,
//! * [`coalesce`] — the coalescing phase of a Chaitin-style register
//!   allocator (removes copies),
//! * [`clean`] — empty-block elimination and CFG tidying.
//!
//! **Comparators and extensions (§5.3, §4.1 "missing passes"):**
//!
//! * [`cse`] — dominator-scoped CSE and AVAIL-based global CSE, the two
//!   weaker members of the redundancy-elimination hierarchy,
//! * [`lvn`] — hash-based local value numbering.
//!
//! All passes preserve the structural verifier and the interpreter-observable
//! semantics of the function. The suite gates check both on the 50
//! routines at every level (`crates/suite/tests/lint_pipeline.rs` and
//! `levels.rs`); the property tests over generated programs sit behind
//! the `prop-tests` feature and do not run in the default build.
//!
//! ## The pass contract
//!
//! Each pass module exports one transform,
//! `run(f, cache, budget) -> Result<Stats, BudgetExceeded>` (reassociation
//! also takes its [`reassoc::ReassocOptions`]), and its stats type offers
//! `changed()` and `report(counters)`. One macro generates the built-in
//! [`Pass`] impls from that entry point (`Reassociate`, which carries its
//! options, writes the same three methods out), so
//! [`Pass::run_budgeted`] (the pipelines) and [`Pass::run_instrumented`]
//! (for observers that read counters: trace spans, `--timings`) run the
//! same body and differ only in whether the stats are copied out.
//!
//! A pass's `run` leaves the pipeline's [`AnalysisCache`] consistent with
//! the function whenever it returns `Ok`: passes that edit in place (dce,
//! coalesce, clean, peephole, lvn) drop exactly what their edits break,
//! and passes that rebuild the function wholesale (the SSA round-trippers
//! `gvn`, `reassoc` and `sccp`, and `pre`) drop everything when they
//! changed it. The change flag is a report for trace spans and
//! `--timings`, never an invalidation signal; the pipeline's debug-build
//! cache validation catches a pass that leaves a stale entry and blames
//! it by name.

pub mod budget;
pub mod clean;
pub mod coalesce;
pub mod cse;
pub mod dce;
pub mod gvn;
pub mod lvn;
pub mod peephole;
pub mod pre;
pub mod reassoc;
pub mod sccp;

pub use budget::{Budget, BudgetExceeded, BudgetKind, Meter};
pub use epre_telemetry::PassCounters;

use epre_analysis::{AnalysisCache, PreservedAnalyses};
use epre_ir::Function;

/// A function-level optimization pass.
///
/// Passes are stateless filters; any analyses they need are computed
/// internally, mirroring the paper's pass structure ("each pass performs a
/// single optimization, including all the required control-flow and
/// data-flow analyses") — or borrowed from the pipeline's
/// [`AnalysisCache`].
pub trait Pass {
    /// Short, stable pass name (used in pipeline descriptions and logs).
    fn name(&self) -> &'static str;

    /// Transform `f` in place through the pipeline's analysis `cache`,
    /// under a resource [`Budget`]. Returns whether the function may have
    /// changed — a report for trace spans and `--timings` only. On `Ok`
    /// the pass MUST leave `cache` consistent with `f`; debug builds of
    /// the pipeline validate it after every pass.
    ///
    /// Fixed-point passes tick a [`Meter`] in every loop that could fail
    /// to converge, so an over-budget invocation stops mid-flight;
    /// single-sweep passes check the growth and deadline dimensions
    /// post-hoc. On `Err` the function and the cache may be left
    /// mid-transform: callers run on a clone and roll back.
    ///
    /// # Errors
    /// [`BudgetExceeded`] naming the first exhausted dimension.
    fn run_budgeted(
        &self,
        f: &mut Function,
        cache: &mut AnalysisCache,
        budget: &Budget,
    ) -> Result<bool, BudgetExceeded>;

    /// [`Pass::run_budgeted`], additionally reporting the pass's own
    /// work counters into `counters` (expressions hoisted, partitions
    /// found, ops folded, …) for the pass observers that read them:
    /// trace spans and `--timings`. The default ignores `counters`. Every
    /// built-in pass runs the same body as [`Pass::run_budgeted`] and only
    /// copies its stats into `counters`, so observing cannot change the
    /// optimization result.
    ///
    /// # Errors
    /// [`BudgetExceeded`] exactly as [`Pass::run_budgeted`].
    fn run_instrumented(
        &self,
        f: &mut Function,
        cache: &mut AnalysisCache,
        budget: &Budget,
        counters: &mut PassCounters,
    ) -> Result<bool, BudgetExceeded> {
        let _ = counters;
        self.run_budgeted(f, cache, budget)
    }

    /// [`Pass::run_budgeted`] with a fresh cache and no budget: the
    /// convenience entry for tests, examples and one-off filters.
    ///
    /// This method, [`Pass::run_cached`] and [`Pass::preserves`] remain
    /// on the trait only because the benchmark's timing decorator
    /// implements them; no built-in pass overrides them, and no driver
    /// consults `preserves` (each pass keeps the cache consistent itself).
    fn run(&self, f: &mut Function) -> bool {
        let fresh = &mut AnalysisCache::new();
        self.run_budgeted(f, fresh, &Budget::UNLIMITED).expect("an unlimited budget never trips")
    }

    /// [`Pass::run_budgeted`] with no budget.
    fn run_cached(&self, f: &mut Function, cache: &mut AnalysisCache) -> bool {
        self.run_budgeted(f, cache, &Budget::UNLIMITED).expect("an unlimited budget never trips")
    }

    /// The analyses this pass keeps valid when it changes the function.
    fn preserves(&self) -> PreservedAnalyses {
        PreservedAnalyses::none()
    }
}

/// The pass objects the driver crate sequences into pipelines.
pub mod passes {
    use super::*;
    use crate::reassoc::ReassocOptions;

    /// A unit pass object over the module `$module`, whose one entry
    /// point `run(f, cache, budget)` returns stats with `changed()` and
    /// `report(counters)`.
    macro_rules! pass {
        ($name:ident, $label:literal, $module:ident, $doc:literal) => {
            #[doc = $doc]
            #[derive(Debug, Clone, Copy, Default)]
            pub struct $name;

            impl Pass for $name {
                fn name(&self) -> &'static str {
                    $label
                }

                fn run_budgeted(
                    &self,
                    f: &mut Function,
                    cache: &mut AnalysisCache,
                    budget: &Budget,
                ) -> Result<bool, BudgetExceeded> {
                    Ok(crate::$module::run(f, cache, budget)?.changed())
                }

                fn run_instrumented(
                    &self,
                    f: &mut Function,
                    cache: &mut AnalysisCache,
                    budget: &Budget,
                    counters: &mut PassCounters,
                ) -> Result<bool, BudgetExceeded> {
                    let stats = crate::$module::run(f, cache, budget)?;
                    stats.report(counters);
                    Ok(stats.changed())
                }
            }
        };
    }

    pass!(ConstProp, "constprop", sccp, "Sparse conditional constant propagation.");
    pass!(Peephole, "peephole", peephole, "Global peephole optimization.");
    pass!(Dce, "dce", dce, "Dead code elimination.");
    pass!(Coalesce, "coalesce", coalesce, "Chaitin-style copy coalescing.");
    pass!(Clean, "clean", clean, "Empty-block elimination and CFG tidying.");
    pass!(Pre, "pre", pre, "Partial redundancy elimination (Drechsler–Stadel).");
    pass!(Gvn, "gvn", gvn, "Partition-based global value numbering + renaming.");
    pass!(Lvn, "lvn", lvn, "Hash-based local value numbering.");

    /// Global reassociation (rank + forward propagation + sorting), with or
    /// without distribution of multiplication over addition. Written out
    /// because it carries its options; the three methods are the macro's.
    #[derive(Debug, Clone, Copy)]
    pub struct Reassociate {
        /// Distribute low-ranked multipliers over higher-ranked sums
        /// (the paper's `distribution` level).
        pub distribute: bool,
    }

    impl Pass for Reassociate {
        fn name(&self) -> &'static str {
            if self.distribute {
                "reassociate+distribute"
            } else {
                "reassociate"
            }
        }

        fn run_budgeted(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
        ) -> Result<bool, BudgetExceeded> {
            let options = ReassocOptions { distribute: self.distribute };
            Ok(crate::reassoc::run(f, options, cache, budget)?.changed())
        }

        fn run_instrumented(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
            counters: &mut PassCounters,
        ) -> Result<bool, BudgetExceeded> {
            let options = ReassocOptions { distribute: self.distribute };
            let stats = crate::reassoc::run(f, options, cache, budget)?;
            stats.report(counters);
            Ok(stats.changed())
        }
    }
}
