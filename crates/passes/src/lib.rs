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
//! ## Change reporting and analysis preservation
//!
//! [`Pass::run`] returns whether the pass changed the function, and
//! [`Pass::preserves`] declares which cached analyses survive a change —
//! together they drive the pipeline's [`AnalysisCache`] so a pass boundary
//! no longer implies recomputing the CFG, dominators, and expression
//! universe from scratch. Passes that rebuild the function wholesale (the
//! SSA round-trippers `gvn` and `reassoc`, and `sccp`) report `true`
//! conservatively; over-reporting a change is always sound (it merely
//! costs a recomputation), while under-reporting is a bug that the
//! pipeline's debug-build cache validation catches and blames by name.

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
/// [`AnalysisCache`] via [`Pass::run_cached`].
pub trait Pass {
    /// Short, stable pass name (used in pipeline descriptions and logs).
    fn name(&self) -> &'static str;

    /// Transform `f` in place. Returns `true` if the function may have
    /// changed. Reporting `true` for an unchanged function is sound (it
    /// costs cached-analysis recomputation); reporting `false` for a
    /// changed function is a contract violation caught by the pipeline's
    /// debug-build cache validation.
    fn run(&self, f: &mut Function) -> bool;

    /// The analyses this pass keeps valid **when it reports a change**.
    /// (A pass reporting no change implicitly preserves everything.)
    /// The default is the safe minimum: nothing survives.
    fn preserves(&self) -> PreservedAnalyses {
        PreservedAnalyses::none()
    }

    /// Transform `f` with access to the pipeline's analysis cache.
    ///
    /// Implementations MUST leave `cache` consistent with the function they
    /// return: the default runs [`Pass::run`] and, on change, drops
    /// everything outside [`Pass::preserves`]. Overrides may use the cache
    /// during the transform and invalidate with finer grain.
    fn run_cached(&self, f: &mut Function, cache: &mut AnalysisCache) -> bool {
        let changed = self.run(f);
        if changed {
            cache.retain(self.preserves());
        }
        changed
    }

    /// Transform `f` under a resource [`Budget`].
    ///
    /// Fixed-point passes override this to place a cooperative checkpoint
    /// ([`Meter::tick`]) inside every loop that could fail to converge, so
    /// an over-budget invocation stops *mid-flight* with a typed
    /// [`BudgetExceeded`] instead of spinning. The default covers passes
    /// without such loops: it runs [`Pass::run_cached`] to completion and
    /// then holds the result to the growth and deadline dimensions
    /// post-hoc via [`Meter::finish`].
    ///
    /// On `Err` the function may be left mid-transform; callers that need
    /// all-or-nothing semantics (the sandbox, the pipeline driver) run on
    /// a clone and roll back, exactly as they do for panics.
    ///
    /// # Errors
    /// [`BudgetExceeded`] naming the first exhausted dimension.
    fn run_budgeted(
        &self,
        f: &mut Function,
        cache: &mut AnalysisCache,
        budget: &Budget,
    ) -> Result<bool, BudgetExceeded> {
        if !budget.is_limited() {
            return Ok(self.run_cached(f, cache));
        }
        let meter = budget.start(f);
        let changed = self.run_cached(f, cache);
        meter.finish(f)?;
        Ok(changed)
    }

    /// [`Pass::run_budgeted`], additionally reporting the pass's own
    /// work counters into `counters` (the telemetry layer's per-span
    /// payload: expressions hoisted, partitions found, ops folded, …).
    ///
    /// The default ignores `counters` and simply delegates, so a pass
    /// without instrumentation still runs correctly under tracing — its
    /// spans just carry an empty counter set. Implementations MUST leave
    /// the function and cache in exactly the state [`Pass::run_budgeted`]
    /// would: tracing may never change the optimization result.
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
}

/// The statistics-reporting pass objects used by the driver crate.
pub mod passes {
    use super::*;

    macro_rules! simple_pass {
        ($(#[$doc:meta])* $name:ident, $label:literal, $fun:path
         $(, preserves: $pres:expr)?
         $(, budgeted_uncached: $bud:path)?
         $(, instrumented_uncached: $ins:path)?) => {
            $(#[$doc])*
            #[derive(Debug, Clone, Copy, Default)]
            pub struct $name;
            impl Pass for $name {
                fn name(&self) -> &'static str {
                    $label
                }
                fn run(&self, f: &mut Function) -> bool {
                    $fun(f)
                }
                $(
                    fn preserves(&self) -> PreservedAnalyses {
                        $pres
                    }
                )?
                $(
                    // `budgeted_uncached`: the module's budgeted entry point
                    // takes no cache (the pass rebuilds SSA internally), so
                    // the cache is retained here exactly as the trait's
                    // run_cached default would.
                    fn run_budgeted(
                        &self,
                        f: &mut Function,
                        cache: &mut AnalysisCache,
                        budget: &Budget,
                    ) -> Result<bool, BudgetExceeded> {
                        let changed = $bud(f, budget)?;
                        if changed {
                            cache.retain(self.preserves());
                        }
                        Ok(changed)
                    }
                )?
                $(
                    // `instrumented_uncached`: the module's counted entry
                    // point takes no cache either; retention mirrors
                    // `budgeted_uncached` so tracing never changes the
                    // cache state the untraced pipeline would have.
                    fn run_instrumented(
                        &self,
                        f: &mut Function,
                        cache: &mut AnalysisCache,
                        budget: &Budget,
                        counters: &mut PassCounters,
                    ) -> Result<bool, BudgetExceeded> {
                        let changed = $ins(f, budget, counters)?;
                        if changed {
                            cache.retain(self.preserves());
                        }
                        Ok(changed)
                    }
                )?
            }
        };
    }

    simple_pass!(
        /// Sparse conditional constant propagation.
        ConstProp,
        "constprop",
        crate::sccp::run,
        budgeted_uncached: crate::sccp::run_budgeted,
        instrumented_uncached: crate::sccp::run_counted
    );
    /// Global peephole optimization. Instruction rewrites keep the CFG
    /// intact; only folding a conditional branch changes block shape, and
    /// `peephole::run_detailed` reports which happened, so `run_cached`
    /// invalidates with finer grain than the trait default.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Peephole;

    impl Pass for Peephole {
        fn name(&self) -> &'static str {
            "peephole"
        }
        fn run(&self, f: &mut Function) -> bool {
            crate::peephole::run(f)
        }
        fn run_cached(&self, f: &mut Function, cache: &mut AnalysisCache) -> bool {
            let outcome = crate::peephole::run_detailed(f);
            if outcome.changed() {
                if outcome.cfg_changed {
                    cache.invalidate_cfg();
                }
                cache.invalidate_universe();
                cache.invalidate_liveness();
            }
            outcome.changed()
        }
        fn run_instrumented(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
            counters: &mut PassCounters,
        ) -> Result<bool, BudgetExceeded> {
            // Mirrors the trait's default run_budgeted (single sweep,
            // growth/deadline held post-hoc) with run_cached inlined so
            // the detailed outcome feeds the counters.
            let meter = budget.is_limited().then(|| budget.start(f));
            let outcome = crate::peephole::run_detailed(f);
            if outcome.changed() {
                if outcome.cfg_changed {
                    cache.invalidate_cfg();
                }
                cache.invalidate_universe();
                cache.invalidate_liveness();
            }
            if let Some(meter) = meter {
                meter.finish(f)?;
            }
            counters.add("rewrites", outcome.rewrites);
            counters.add("branches_folded", outcome.branches_folded);
            Ok(outcome.changed())
        }
    }
    /// Dead code elimination. Deletes instructions only — never blocks
    /// or edges — so the control-flow family survives. `run_cached` hands
    /// the pipeline's cache straight to the pass: a CFG computed by an
    /// earlier pass feeds every liveness round, DCE's own invalidation
    /// (universe + liveness, per deleting round) keeps it consistent, and
    /// the quiescing round's liveness survives for coalescing next door.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Dce;

    impl Pass for Dce {
        fn name(&self) -> &'static str {
            "dce"
        }
        fn run(&self, f: &mut Function) -> bool {
            crate::dce::run(f)
        }
        fn preserves(&self) -> PreservedAnalyses {
            PreservedAnalyses::none().with_cfg()
        }
        fn run_cached(&self, f: &mut Function, cache: &mut AnalysisCache) -> bool {
            crate::dce::run_with_cache(f, cache)
        }
        fn run_budgeted(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
        ) -> Result<bool, BudgetExceeded> {
            crate::dce::run_budgeted(f, cache, budget)
        }
        fn run_instrumented(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
            counters: &mut PassCounters,
        ) -> Result<bool, BudgetExceeded> {
            crate::dce::run_counted(f, cache, budget, counters)
        }
    }

    /// Chaitin-style copy coalescing. Renames registers and drops copies
    /// within blocks; block structure is untouched, so `run_cached` shares
    /// the pipeline cache's CFG with its liveness rounds and invalidates
    /// only the expression universe on change.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Coalesce;

    impl Pass for Coalesce {
        fn name(&self) -> &'static str {
            "coalesce"
        }
        fn run(&self, f: &mut Function) -> bool {
            crate::coalesce::run(f)
        }
        fn preserves(&self) -> PreservedAnalyses {
            PreservedAnalyses::none().with_cfg()
        }
        fn run_cached(&self, f: &mut Function, cache: &mut AnalysisCache) -> bool {
            crate::coalesce::run_with_cache(f, cache)
        }
        fn run_budgeted(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
        ) -> Result<bool, BudgetExceeded> {
            crate::coalesce::run_budgeted(f, cache, budget)
        }
        fn run_instrumented(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
            counters: &mut PassCounters,
        ) -> Result<bool, BudgetExceeded> {
            crate::coalesce::run_counted(f, cache, budget, counters)
        }
    }

    /// Empty-block elimination / CFG tidying. `run_cached` shares the
    /// pipeline cache across the fixed point; the quiescing final round
    /// leaves a valid CFG behind for whatever runs next.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Clean;

    impl Pass for Clean {
        fn name(&self) -> &'static str {
            "clean"
        }
        fn run(&self, f: &mut Function) -> bool {
            crate::clean::run(f)
        }
        fn run_cached(&self, f: &mut Function, cache: &mut AnalysisCache) -> bool {
            crate::clean::run_with_cache(f, cache)
        }
        fn run_budgeted(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
        ) -> Result<bool, BudgetExceeded> {
            crate::clean::run_budgeted(f, cache, budget)
        }
        fn run_instrumented(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
            counters: &mut PassCounters,
        ) -> Result<bool, BudgetExceeded> {
            crate::clean::run_counted(f, cache, budget, counters)
        }
    }
    simple_pass!(
        /// Partial redundancy elimination (Drechsler–Stadel).
        Pre,
        "pre",
        crate::pre::run,
        budgeted_uncached: crate::pre::run_budgeted,
        instrumented_uncached: crate::pre::run_counted
    );
    simple_pass!(
        /// Partition-based global value numbering + renaming.
        Gvn,
        "gvn",
        crate::gvn::run,
        budgeted_uncached: crate::gvn::run_budgeted,
        instrumented_uncached: crate::gvn::run_counted
    );
    simple_pass!(
        /// Hash-based local value numbering. Rewrites and deletes
        /// instructions within blocks; the CFG is untouched.
        Lvn,
        "lvn",
        crate::lvn::run,
        preserves: PreservedAnalyses::none().with_cfg(),
        instrumented_uncached: crate::lvn::run_counted
    );

    /// Global reassociation (rank + forward propagation + sorting), with or
    /// without distribution of multiplication over addition.
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
        fn run(&self, f: &mut Function) -> bool {
            crate::reassoc::reassociate(
                f,
                crate::reassoc::ReassocOptions { distribute: self.distribute },
            );
            // The SSA round trip renames registers even when nothing
            // propagates; report a change conservatively.
            true
        }
        fn run_budgeted(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
        ) -> Result<bool, BudgetExceeded> {
            crate::reassoc::reassociate_budgeted(
                f,
                crate::reassoc::ReassocOptions { distribute: self.distribute },
                budget,
            )?;
            cache.retain(self.preserves());
            Ok(true)
        }
        fn run_instrumented(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            budget: &Budget,
            counters: &mut PassCounters,
        ) -> Result<bool, BudgetExceeded> {
            crate::reassoc::reassociate_counted(
                f,
                crate::reassoc::ReassocOptions { distribute: self.distribute },
                budget,
                counters,
            )?;
            cache.retain(self.preserves());
            Ok(true)
        }
    }
}
