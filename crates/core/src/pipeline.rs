//! The optimization pipelines of the paper's experimental study (§4.1).

use epre_analysis::{AnalysisCache, CacheStats};
use epre_ir::{Function, Module};
use epre_passes::passes::{Clean, Coalesce, ConstProp, Dce, Gvn, Lvn, Peephole, Pre, Reassociate};
use epre_passes::{Budget, Pass};

use crate::fault::PassFault;
use crate::shards::map_functions;

/// The paper's four measured optimization levels, plus extension levels
/// used by the ablation benchmarks.
///
/// | level | pipeline |
/// |-------|----------|
/// | `Baseline` | constprop → peephole → dce → coalesce → clean |
/// | `Partial` | **pre** → baseline |
/// | `Reassociation` | **reassociate** → **gvn** → pre → baseline |
/// | `Distribution` | **reassociate+distribute** → gvn → pre → baseline |
/// | `DistributionLvn` | distribution with local value numbering added (the §4.1 "missing pass") |
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum OptLevel {
    /// The paper's `baseline` column.
    Baseline,
    /// The paper's `partial` column: PRE alone.
    Partial,
    /// The paper's `reassociation` column: reassociation (no distribution)
    /// + GVN before PRE.
    Reassociation,
    /// The paper's `distribution` column: reassociation with distribution
    /// + GVN before PRE.
    Distribution,
    /// Extension: `Distribution` plus hash-based local value numbering,
    /// one of the passes §4.1 reports missing.
    DistributionLvn,
}

impl OptLevel {
    /// All levels in the order of the paper's Table 1 columns.
    pub const PAPER_LEVELS: [OptLevel; 4] =
        [OptLevel::Baseline, OptLevel::Partial, OptLevel::Reassociation, OptLevel::Distribution];

    /// The level's column label in the paper.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Baseline => "baseline",
            OptLevel::Partial => "partial",
            OptLevel::Reassociation => "reassociation",
            OptLevel::Distribution => "distribution",
            OptLevel::DistributionLvn => "distribution+lvn",
        }
    }
}

/// Runs a configured pass pipeline over modules.
#[derive(Debug, Clone, Copy)]
pub struct Optimizer {
    level: OptLevel,
    budget: Budget,
}

impl Optimizer {
    /// An optimizer for the given level, with an unlimited per-pass
    /// budget (the historical behavior).
    pub fn new(level: OptLevel) -> Self {
        Optimizer { level, budget: Budget::UNLIMITED }
    }

    /// This optimizer with a per-pass-invocation resource budget. Every
    /// pass of every function is held to `budget`; an over-budget pass
    /// stops at its next cooperative checkpoint and surfaces as a
    /// [`PassFault`] with kind `budget`.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// The pass sequence for this level, in execution order.
    pub fn passes(&self) -> Vec<Box<dyn Pass>> {
        let mut seq: Vec<Box<dyn Pass>> = Vec::new();
        match self.level {
            OptLevel::Baseline => {}
            OptLevel::Partial => seq.push(Box::new(Pre)),
            OptLevel::Reassociation => {
                seq.push(Box::new(Reassociate { distribute: false }));
                seq.push(Box::new(Gvn));
                seq.push(Box::new(Pre));
            }
            OptLevel::Distribution => {
                seq.push(Box::new(Reassociate { distribute: true }));
                seq.push(Box::new(Gvn));
                seq.push(Box::new(Pre));
            }
            OptLevel::DistributionLvn => {
                seq.push(Box::new(Reassociate { distribute: true }));
                seq.push(Box::new(Gvn));
                seq.push(Box::new(Pre));
                seq.push(Box::new(Lvn));
            }
        }
        // The baseline sequence closes every level (§4.1: "followed by the
        // sequence of optimizations used to establish the baseline").
        seq.push(Box::new(ConstProp));
        seq.push(Box::new(Peephole));
        seq.push(Box::new(Dce));
        seq.push(Box::new(Coalesce));
        seq.push(Box::new(Clean));
        seq
    }

    /// The one per-function loop: run `passes` (this level's sequence,
    /// built once per worker, observed or not) over `f` through one fresh
    /// [`AnalysisCache`], under this optimizer's budget, and return the
    /// cache's hit/miss totals.
    ///
    /// Debug builds verify the IR after every pass; a violation stops the
    /// pipeline with a [`PassFault`] naming the pass, the function, and the
    /// exact verifier error (release builds skip the verification but share
    /// the same error route).
    pub(crate) fn run_passes(
        &self,
        passes: &[Box<dyn Pass>],
        f: &mut Function,
    ) -> Result<CacheStats, PassFault> {
        let mut cache = AnalysisCache::new();
        for pass in passes {
            run_pass_budgeted(pass.as_ref(), f, &mut cache, &self.budget)?;
        }
        Ok(cache.stats())
    }

    /// Optimize a copy of the module, reporting a typed fault instead of
    /// panicking: [`Optimizer::try_optimize_jobs`] on the calling thread.
    ///
    /// # Errors
    /// The first [`PassFault`] found in any function.
    pub fn try_optimize(&self, module: &Module) -> Result<Module, PassFault> {
        self.try_optimize_jobs(module, 1)
    }

    /// Optimize a copy of the module on the calling thread.
    pub fn optimize(&self, module: &Module) -> Module {
        self.optimize_jobs(module, 1)
    }

    /// Optimize a copy of the module with up to `jobs` worker threads,
    /// reporting a typed fault instead of panicking.
    ///
    /// Functions are independent compilation units in this pipeline, so
    /// this is one [`map_functions`] call: each worker builds its own pass
    /// sequence and optimizes a clone of every function it takes. The
    /// output is **deterministic** — functions are reassembled in module
    /// order and the reported fault is the one belonging to the earliest
    /// function in that order, so every `jobs` value gives the serial
    /// result byte for byte. A panic anywhere in a function's pipeline
    /// is contained as a [`PassFault`] with kind `panic` (pass
    /// `pipeline`) at every `jobs`, so one bad function cannot take down
    /// its siblings or escape this `try_` API.
    ///
    /// # Errors
    /// The first [`PassFault`] in module function order.
    pub fn try_optimize_jobs(&self, module: &Module, jobs: usize) -> Result<Module, PassFault> {
        let functions = map_functions(
            module,
            jobs,
            || self.passes(),
            |passes, _, src| {
                let mut f = src.clone();
                self.run_passes(passes, &mut f).map(|_| f)
            },
        )?;
        Ok(Module { functions, data_words: module.data_words })
    }

    /// Optimize a copy of the module with up to `jobs` worker threads.
    ///
    /// See [`Optimizer::try_optimize_jobs`] for the determinism and fault
    /// containment guarantees.
    pub fn optimize_jobs(&self, module: &Module, jobs: usize) -> Module {
        match self.try_optimize_jobs(module, jobs) {
            Ok(out) => out,
            Err(fault) => panic!("{fault}"),
        }
    }
}

/// Run one pass over `f` through a shared [`AnalysisCache`], verifying
/// both the IR and the cache in debug builds: [`run_pass_budgeted`] with
/// no budget.
///
/// The pass keeps the cache consistent with `f` itself. Debug builds hold
/// it to that — [`AnalysisCache::validate`] recomputes every cached
/// analysis from scratch and compares; a stale entry becomes a
/// [`PassFault`] with kind `verify` naming the pass. Release builds skip
/// both checks and keep only the memoization.
///
/// # Errors
/// A [`PassFault`] with [`FaultKind::Verify`](crate::fault::FaultKind)
/// when the debug-build verifier rejects the pass's output, or when the
/// pass left a stale analysis in the cache.
pub fn run_pass_cached(
    pass: &dyn Pass,
    f: &mut Function,
    cache: &mut AnalysisCache,
) -> Result<bool, PassFault> {
    run_pass_budgeted(pass, f, cache, &Budget::UNLIMITED)
}

/// Run one pass over `f` through a shared [`AnalysisCache`], held to a
/// resource [`Budget`] — [`run_pass_cached`] plus the governance layer.
///
/// The pass runs via [`Pass::run_budgeted`], so fixed-point passes stop at
/// their cooperative checkpoints when over budget. A budget trip leaves
/// `f` mid-transform (possibly in SSA form) and is reported as a
/// [`PassFault`] with kind `budget`; the debug-build IR and cache
/// verification is skipped for that outcome, since the half-transformed
/// state is not a claim about correctness. Callers needing all-or-nothing
/// semantics (the `epre-harness` sandbox) run on a clone and roll back,
/// exactly as they do for panics.
///
/// # Errors
/// A [`PassFault`] with kind `budget` when the pass exhausted its budget,
/// or kind `verify` as in [`run_pass_cached`].
pub fn run_pass_budgeted(
    pass: &dyn Pass,
    f: &mut Function,
    cache: &mut AnalysisCache,
    budget: &Budget,
) -> Result<bool, PassFault> {
    let changed = pass
        .run_budgeted(f, cache, budget)
        .map_err(|e| PassFault::budget(pass.name(), &f.name, e))?;
    if cfg!(debug_assertions) {
        if let Err(e) = f.verify() {
            return Err(PassFault::verify(pass.name(), &f.name, e.to_string()));
        }
        if let Err(e) = cache.validate(f) {
            return Err(PassFault::verify(
                pass.name(),
                &f.name,
                format!("stale analysis cache after pass: {e}"),
            ));
        }
    }
    Ok(changed)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use epre_frontend::{compile, NamingMode};
    use epre_interp::{Interpreter, Value};
    use epre_passes::BudgetExceeded;

    /// The paper's running example (Figure 2), shared by the crate's tests.
    pub(crate) const FOO: &str = "function foo(y, z)\n\
                                  real y, z, s, x\n\
                                  integer i\n\
                                  begin\n\
                                  s = 0\n\
                                  x = y + z\n\
                                  do i = x, 100\n\
                                    s = i + s + x\n\
                                  enddo\n\
                                  return s\nend\n";

    /// Hold a module driver to fault containment: a module whose first
    /// function jumps to a block it does not have (the CFG constructor
    /// panics, index out of bounds, inside the first pass) must come back
    /// as a typed `panic` fault blamed on pass `pipeline` and function
    /// `corrupt`, at every `jobs`.
    pub(crate) fn assert_contains_worker_panics<T>(
        drive: impl Fn(&Module, usize) -> Result<T, PassFault>,
    ) {
        let module = compile(FOO, NamingMode::Disciplined).unwrap();
        let mut bad = module.clone();
        let mut f = Function::new("corrupt", None);
        f.add_block(epre_ir::Block::new(epre_ir::Terminator::Jump { target: epre_ir::BlockId(7) }));
        bad.functions.insert(0, f);
        bad.functions.push(module.functions[0].clone());
        bad.functions.last_mut().unwrap().name = "foo2".into();
        for jobs in [1, 2, 4, 8] {
            let Err(err) = drive(&bad, jobs) else {
                panic!("jobs {jobs}: the corrupt function must fault")
            };
            assert_eq!(err.function, "corrupt", "jobs {jobs}");
            assert_eq!(err.kind_label(), "panic", "jobs {jobs}");
            assert_eq!(err.pass, "pipeline", "jobs {jobs}");
        }
    }

    fn counts(level: OptLevel) -> (Option<Value>, u64) {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        let opt = Optimizer::new(level).optimize(&m);
        opt.verify().unwrap();
        let mut i = Interpreter::new(&opt);
        let r = i.run("foo", &[Value::Float(1.0), Value::Float(2.0)]).unwrap();
        (r, i.counts().total)
    }

    #[test]
    fn levels_agree_on_results_and_improve_counts() {
        let (r_base, c_base) = counts(OptLevel::Baseline);
        let (r_part, c_part) = counts(OptLevel::Partial);
        let (r_reas, c_reas) = counts(OptLevel::Reassociation);
        let (r_dist, c_dist) = counts(OptLevel::Distribution);
        assert_eq!(r_base, r_part);
        assert_eq!(r_base, r_reas);
        assert_eq!(r_base, r_dist);
        // PRE must help strictly on the running example.
        assert!(c_part < c_base, "partial {c_part} vs baseline {c_base}");
        // On this small scalar loop, reassociation pays φ-copy/jump
        // overhead the later passes cannot recover — the paper's §4.2
        // documents such degradations (Table 1 has −% entries). Bound the
        // regression; the array kernel below shows the winning case.
        assert!(c_reas as f64 <= c_part as f64 * 1.4, "reassociation {c_reas} vs partial {c_part}");
        assert!(
            c_dist as f64 <= c_reas as f64 * 1.05,
            "distribution {c_dist} vs reassociation {c_reas}"
        );
    }

    /// The paper's motivating case (§2.1): "this case is quite important,
    /// since it arises routinely in multi-dimensional array addressing
    /// computations". Reassociation must beat plain PRE strictly here.
    #[test]
    fn array_addressing_shows_reassociation_win() {
        let src = "function msum()\n\
                   real m(20, 20)\n\
                   integer i, j\n\
                   real s\n\
                   begin\n\
                   do j = 1, 20\n\
                     do i = 1, 20\n\
                       m(i, j) = i + j\n\
                     enddo\n\
                   enddo\n\
                   s = 0\n\
                   do j = 1, 20\n\
                     do i = 1, 20\n\
                       s = s + m(i, j)\n\
                     enddo\n\
                   enddo\n\
                   return s\nend\n";
        let m = compile(src, NamingMode::Disciplined).unwrap();
        let mut totals = Vec::new();
        let mut results = Vec::new();
        for level in OptLevel::PAPER_LEVELS {
            let opt = Optimizer::new(level).optimize(&m);
            opt.verify().unwrap();
            let mut i = Interpreter::new(&opt);
            results.push(i.run("msum", &[]).unwrap());
            totals.push(i.counts().total);
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
        let (base, part, reas, dist) = (totals[0], totals[1], totals[2], totals[3]);
        assert!(part < base, "PRE helps: {totals:?}");
        assert!(reas < part, "reassociation helps further: {totals:?}");
        assert!(dist <= part, "distribution stays ahead of partial: {totals:?}");
    }

    #[test]
    fn pass_sequences_match_paper() {
        let names: Vec<&str> =
            Optimizer::new(OptLevel::Distribution).passes().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "reassociate+distribute",
                "gvn",
                "pre",
                "constprop",
                "peephole",
                "dce",
                "coalesce",
                "clean"
            ]
        );
        let names: Vec<&str> =
            Optimizer::new(OptLevel::Baseline).passes().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["constprop", "peephole", "dce", "coalesce", "clean"]);
    }

    #[test]
    fn labels() {
        assert_eq!(OptLevel::Baseline.label(), "baseline");
        assert_eq!(OptLevel::Distribution.label(), "distribution");
        assert_eq!(OptLevel::PAPER_LEVELS.len(), 4);
    }

    /// Same module (the running example, replicated under distinct names),
    /// every level, every thread count: the parallel driver must be
    /// byte-identical to the serial one.
    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let mut module = compile(FOO, NamingMode::Disciplined).unwrap();
        let template = module.functions[0].clone();
        for i in 1..7 {
            let mut f = template.clone();
            f.name = format!("foo{i}");
            module.functions.push(f);
        }
        for level in [OptLevel::PAPER_LEVELS.as_slice(), &[OptLevel::DistributionLvn]].concat() {
            let opt = Optimizer::new(level);
            let serial = opt.optimize(&module);
            for jobs in [1, 2, 4, 8] {
                let parallel = opt.optimize_jobs(&module, jobs);
                assert_eq!(
                    format!("{serial}"),
                    format!("{parallel}"),
                    "level {level:?}, jobs {jobs}"
                );
            }
        }
    }

    /// A worker panic is contained as a typed fault; sibling functions are
    /// unaffected and the blamed function is deterministic.
    #[test]
    fn parallel_driver_contains_worker_panics() {
        let opt = Optimizer::new(OptLevel::Partial);
        assert_contains_worker_panics(|m, jobs| opt.try_optimize_jobs(m, jobs));
    }

    /// Cache soundness: a pass that rewires the CFG but leaves the cache
    /// untouched must be caught by the debug-build cache validation and
    /// blamed by name. Reporting the change does not excuse it: the flag
    /// is a report, not an invalidation signal.
    #[cfg(debug_assertions)]
    #[test]
    fn lying_pass_is_caught_by_cache_validation() {
        use epre_ir::Terminator;

        struct Liar;
        impl Pass for Liar {
            fn name(&self) -> &'static str {
                "liar"
            }
            fn run_budgeted(
                &self,
                f: &mut Function,
                _cache: &mut AnalysisCache,
                _budget: &Budget,
            ) -> Result<bool, BudgetExceeded> {
                // Rewire the entry to return directly: the IR still
                // verifies (the old successor is merely unreachable), but
                // any cached CFG is now stale.
                f.blocks[0].term = Terminator::Return { value: None };
                Ok(true)
            }
        }

        let mut b = epre_ir::FunctionBuilder::new("victim", None);
        let tail = b.new_block();
        b.jump(tail);
        b.switch_to(tail);
        b.ret(None);
        let mut f = b.finish();

        let mut cache = AnalysisCache::new();
        cache.cfg(&f); // warm the entry the rewrite makes stale
        let err =
            run_pass_cached(&Liar, &mut f, &mut cache).expect_err("stale cache must be detected");
        assert_eq!(err.pass, "liar");
        assert_eq!(err.kind_label(), "verify");
        assert!(format!("{err}").contains("stale analysis cache"), "{err}");
    }

    /// The honest version of the same rewrite drops the analyses it
    /// breaks, the cache validates, and the pipeline continues.
    #[test]
    fn honest_change_report_keeps_the_cache_consistent() {
        use epre_ir::Terminator;

        struct Honest;
        impl Pass for Honest {
            fn name(&self) -> &'static str {
                "honest"
            }
            fn run_budgeted(
                &self,
                f: &mut Function,
                cache: &mut AnalysisCache,
                _budget: &Budget,
            ) -> Result<bool, BudgetExceeded> {
                f.blocks[0].term = Terminator::Return { value: None };
                cache.invalidate_cfg();
                Ok(true)
            }
        }

        let mut b = epre_ir::FunctionBuilder::new("victim", None);
        let tail = b.new_block();
        b.jump(tail);
        b.switch_to(tail);
        b.ret(None);
        let mut f = b.finish();

        let mut cache = AnalysisCache::new();
        cache.cfg(&f);
        let changed =
            run_pass_cached(&Honest, &mut f, &mut cache).expect("an honest pass passes validation");
        assert!(changed);
        assert!(!cache.has_cfg(), "the pass must drop the cached CFG");
    }
}
