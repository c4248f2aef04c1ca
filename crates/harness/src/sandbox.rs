//! Pass sandboxing: run every pass on a clone under `catch_unwind` and a
//! resource [`Budget`], re-lint the result, and roll back on panic, new
//! invariant violation, or budget exhaustion.
//!
//! The plain pipeline trusts its passes; the sandbox distrusts them: a
//! pass that panics, emits invalid ILOC, spins past its iteration cap, or
//! explodes the code past its growth cap is caught and blamed by name.
//! The [`FaultPolicy`] decides what follows. Under fail-fast the first
//! fault ends the run as an error: that is `epre opt --verify-each`,
//! which lints after every pass and names the pass that broke an
//! invariant or panicked. Under best-effort the fault is *contained* —
//! the function rolls back to its pre-pass state, the incident is
//! recorded as a typed [`PassFault`], and the rest of the pipeline keeps
//! running (`epre opt --best-effort`); under retry-then-skip the second
//! attempt runs on a fresh clone under a [`Budget::relaxed`] budget, so a
//! pass that merely brushed a cap gets a real second chance. A per-pass
//! [`CircuitBreaker`] quarantines a pass that keeps faulting across the
//! functions of one module.

use std::collections::HashSet;

use epre::fault::PassFault;
use epre::{catch_quiet, map_functions, Budget};
use epre_analysis::AnalysisCache;
use epre_ir::{Function, Module};
use epre_lint::{lint_function, Diagnostic, LintOptions, Report, Severity};
use epre_passes::Pass;

use crate::breaker::{CircuitBreaker, Quarantine};

/// What to do when a pass faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Stop the pipeline and surface the fault as an error.
    FailFast,
    /// Roll the function back to its pre-pass state, record the fault, and
    /// continue with the next pass.
    BestEffort,
    /// Retry the pass once on a fresh clone under a [`Budget::relaxed`]
    /// budget (a safeguard for passes with internal state,
    /// allocation-dependent behaviour, or a merely-too-tight cap), then
    /// skip it as in [`FaultPolicy::BestEffort`].
    RetryThenSkip,
}

impl FaultPolicy {
    /// The policy's CLI label.
    pub fn label(self) -> &'static str {
        match self {
            FaultPolicy::FailFast => "fail-fast",
            FaultPolicy::BestEffort => "best-effort",
            FaultPolicy::RetryThenSkip => "retry-then-skip",
        }
    }
}

/// The outcome of a sandboxed pipeline run over one function or module.
#[derive(Debug, Clone, Default)]
pub struct SandboxReport {
    /// Every contained fault, in pipeline order. A pass that faulted was
    /// rolled back: its effect on the function is void.
    pub faults: Vec<PassFault>,
    /// How many faulting passes were re-run under
    /// [`FaultPolicy::RetryThenSkip`] (whether or not the retry helped).
    pub retries: usize,
    /// Pass invocations skipped because the pass's circuit was open.
    pub skipped: usize,
    /// Passes quarantined by the module's circuit breaker, in trip order.
    pub quarantined: Vec<Quarantine>,
}

impl SandboxReport {
    /// Fold another report's tallies into this one.
    pub fn merge(&mut self, other: SandboxReport) {
        self.faults.extend(other.faults);
        self.retries += other.retries;
        self.skipped += other.skipped;
        self.quarantined.extend(other.quarantined);
    }
}

fn fingerprints(report: &Report) -> HashSet<String> {
    report.diagnostics.iter().map(Diagnostic::fingerprint).collect()
}

/// Run `passes` over `f` in order, each invocation sandboxed and governed
/// by `budget`.
///
/// Every pass runs on a clone of `f` under `catch_unwind` via
/// [`Pass::run_budgeted`]; the clone is then re-linted and diffed (by
/// diagnostic fingerprint) against the pre-pass report. Only when the
/// pass neither panicked, nor exceeded the budget, nor introduced a new
/// error-severity finding is the clone committed back to `f` — otherwise
/// `f` keeps its pre-pass state (rollback) and a [`PassFault`] records
/// the incident, subject to `policy`. Under
/// [`FaultPolicy::RetryThenSkip`] the retry attempt runs on a fresh clone
/// under [`Budget::relaxed`].
///
/// When `breaker` is supplied, every recorded fault is counted against
/// its pass, and a pass whose circuit is open is skipped outright
/// (tallied in [`SandboxReport::skipped`]). Pre-existing lint findings
/// belong to the *input* and never fault a pass.
///
/// # Errors
/// Under [`FaultPolicy::FailFast`], the first fault. The other policies
/// always return the accumulated [`SandboxReport`].
pub fn run_passes_governed(
    f: &mut Function,
    passes: &[Box<dyn Pass>],
    policy: FaultPolicy,
    opts: &LintOptions,
    budget: &Budget,
    mut breaker: Option<&mut CircuitBreaker>,
) -> Result<SandboxReport, PassFault> {
    let mut seen = fingerprints(&lint_function(f, opts));
    let mut out = SandboxReport::default();
    for pass in passes {
        if breaker.as_ref().is_some_and(|b| b.is_open(pass.name())) {
            out.skipped += 1;
            continue;
        }
        let mut attempts = 0;
        loop {
            let attempt_budget = if attempts == 0 { *budget } else { budget.relaxed() };
            let base = &*f;
            let run = catch_quiet(|| {
                let mut candidate = base.clone();
                let mut cache = AnalysisCache::new();
                match pass.run_budgeted(&mut candidate, &mut cache, &attempt_budget) {
                    Err(exceeded) => Err(exceeded),
                    Ok(_changed) => {
                        let report = lint_function(&candidate, opts);
                        Ok((candidate, report))
                    }
                }
            });
            let fault = match run {
                Err(payload) => Some(PassFault::panic(pass.name(), &f.name, payload)),
                Ok(Err(exceeded)) => Some(PassFault::budget(pass.name(), &f.name, exceeded)),
                Ok(Ok((candidate, report))) => {
                    let new_errors: Vec<Diagnostic> = report
                        .diagnostics
                        .iter()
                        .filter(|d| {
                            d.severity() == Severity::Error && !seen.contains(&d.fingerprint())
                        })
                        .cloned()
                        .collect();
                    if new_errors.is_empty() {
                        seen = fingerprints(&report);
                        *f = candidate;
                        None
                    } else {
                        Some(PassFault::lint(pass.name(), &f.name, new_errors))
                    }
                }
            };
            match fault {
                None => break,
                Some(fault) => {
                    if let Some(b) = breaker.as_deref_mut() {
                        b.record(&fault.pass, &fault.function);
                    }
                    match policy {
                        FaultPolicy::FailFast => return Err(fault),
                        FaultPolicy::RetryThenSkip if attempts == 0 => {
                            attempts = 1;
                            out.retries += 1;
                            out.faults.push(fault);
                        }
                        _ => {
                            out.faults.push(fault);
                            break;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Run a whole module through governed sandboxed pipelines, one pass list
/// per worker (fresh-built via `passes_for`, so worker threads never
/// share non-`Sync` pass objects), with a module-wide per-pass
/// [`CircuitBreaker`].
///
/// With `jobs > 1` the functions are first optimized speculatively on
/// [`map_functions`] *as if every circuit were closed*, then reconciled
/// serially in module order: a function whose speculative run either
/// started after a circuit opened or would itself trip one is redone
/// serially under the true breaker state. `jobs <= 1` skips the
/// speculation, so the sweep runs every function under the true state.
/// Healthy modules take zero redos; the output — module, faults, skip
/// tally, quarantine list — is byte-identical to the serial run in every
/// case.
///
/// # Errors
/// Under [`FaultPolicy::FailFast`], the fault of the earliest faulting
/// function in module order.
pub fn run_module_governed(
    module: &Module,
    passes_for: &(dyn Fn() -> Vec<Box<dyn Pass>> + Sync),
    policy: FaultPolicy,
    opts: &LintOptions,
    budget: &Budget,
    breaker_threshold: usize,
    jobs: usize,
) -> Result<(Module, SandboxReport), PassFault> {
    let speculative = if jobs > 1 {
        map_functions(module, jobs, passes_for, |passes, _, src| {
            let mut f = src.clone();
            run_passes_governed(&mut f, passes, policy, opts, budget, None).map(|rep| (f, rep))
        })?
    } else {
        Vec::new()
    };
    let mut speculative = speculative.into_iter();
    let mut breaker = CircuitBreaker::new(breaker_threshold);
    let mut serial_passes: Option<Vec<Box<dyn Pass>>> = None;
    let mut functions = Vec::with_capacity(module.functions.len());
    let mut report = SandboxReport::default();
    for src in &module.functions {
        // The worker assumed every circuit was closed. That holds for this
        // function iff nothing was open at its entry and replaying its own
        // faults trips nothing; otherwise redo it under the true state.
        let accepted = speculative.next().filter(|(_, rep)| {
            let mut probe = breaker.clone();
            let holds = !breaker.any_open()
                && !rep.faults.iter().any(|ft| probe.record(&ft.pass, &ft.function));
            if holds {
                breaker = probe;
            }
            holds
        });
        let (f, rep) = match accepted {
            Some(done) => done,
            None => {
                let passes = serial_passes.get_or_insert_with(passes_for);
                let mut f = src.clone();
                let rep =
                    run_passes_governed(&mut f, passes, policy, opts, budget, Some(&mut breaker))?;
                (f, rep)
            }
        };
        functions.push(f);
        report.merge(rep);
    }
    report.quarantined = breaker.quarantined().to_vec();
    Ok((Module { functions, data_words: module.data_words }, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre::fault::FaultKind;
    use epre::{BudgetKind, OptLevel, Optimizer};
    use epre_ir::{BinOp, FunctionBuilder, Inst, Ty};
    use epre_passes::passes::{ConstProp, Dce};
    use epre_passes::BudgetExceeded;

    fn sample() -> Function {
        let mut b = FunctionBuilder::new("s", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.bin(BinOp::Add, Ty::Int, x, x);
        let z = b.bin(BinOp::Add, Ty::Int, y, x);
        b.ret(Some(z));
        b.finish()
    }

    fn named(name: &str) -> Function {
        let mut b = FunctionBuilder::new(name, Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.bin(BinOp::Add, Ty::Int, x, x);
        b.ret(Some(y));
        b.finish()
    }

    /// A pass that always panics.
    struct Bomb;
    impl Pass for Bomb {
        fn name(&self) -> &'static str {
            "bomb"
        }
        fn run_budgeted(
            &self,
            _f: &mut Function,
            _cache: &mut AnalysisCache,
            _budget: &Budget,
        ) -> Result<bool, BudgetExceeded> {
            panic!("deliberate detonation");
        }
    }

    /// A pass that introduces a use of a never-defined register.
    struct UseGhost;
    impl Pass for UseGhost {
        fn name(&self) -> &'static str {
            "use-ghost"
        }
        fn run_budgeted(
            &self,
            f: &mut Function,
            cache: &mut AnalysisCache,
            _budget: &Budget,
        ) -> Result<bool, BudgetExceeded> {
            let dst = f.new_reg(Ty::Int);
            let ghost = f.new_reg(Ty::Int);
            f.blocks[0].insts.push(Inst::Copy { dst, src: ghost });
            cache.invalidate_all();
            Ok(true)
        }
    }

    /// A fixed-point pass that needs exactly `need` cooperative ticks.
    struct Spinner {
        need: u64,
    }
    impl Pass for Spinner {
        fn name(&self) -> &'static str {
            "spinner"
        }
        fn run_budgeted(
            &self,
            f: &mut Function,
            _cache: &mut AnalysisCache,
            budget: &Budget,
        ) -> Result<bool, BudgetExceeded> {
            let mut meter = budget.start(f);
            for _ in 0..self.need {
                meter.tick(f)?;
            }
            Ok(false)
        }
    }

    #[test]
    fn panic_is_contained_and_rolled_back() {
        let mut f = sample();
        let before = f.clone();
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(Bomb), Box::new(ConstProp)];
        let rep = run_passes_governed(
            &mut f,
            &passes,
            FaultPolicy::BestEffort,
            &LintOptions::invariants_only(),
            &Budget::governed(),
            None,
        )
        .unwrap();
        assert_eq!(rep.faults.len(), 1);
        assert_eq!(rep.faults[0].pass, "bomb");
        assert!(matches!(&rep.faults[0].kind, FaultKind::Panic(p) if p.contains("detonation")));
        // The bomb's (nonexistent) effect was rolled back; constprop still ran.
        assert!(f.verify().is_ok());
        assert_eq!(f.params, before.params);
    }

    #[test]
    fn lint_violation_is_contained_and_rolled_back() {
        let mut f = sample();
        let before = f.clone();
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(UseGhost)];
        let rep = run_passes_governed(
            &mut f,
            &passes,
            FaultPolicy::BestEffort,
            &LintOptions::invariants_only(),
            &Budget::governed(),
            None,
        )
        .unwrap();
        assert_eq!(rep.faults.len(), 1);
        assert!(matches!(&rep.faults[0].kind, FaultKind::Lint(errs) if !errs.is_empty()));
        assert_eq!(f, before, "rollback must restore the pre-pass IR exactly");
    }

    #[test]
    fn budget_exhaustion_is_contained_and_rolled_back() {
        let mut f = sample();
        let before = f.clone();
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(Spinner { need: u64::MAX })];
        let budget = Budget { max_iters: Some(100), ..Budget::UNLIMITED };
        let rep = run_passes_governed(
            &mut f,
            &passes,
            FaultPolicy::BestEffort,
            &LintOptions::invariants_only(),
            &budget,
            None,
        )
        .unwrap();
        assert_eq!(rep.faults.len(), 1);
        assert_eq!(rep.faults[0].kind_label(), "budget");
        assert!(matches!(
            &rep.faults[0].kind,
            FaultKind::Budget(e) if e.kind == BudgetKind::Iterations
        ));
        assert_eq!(f, before, "over-budget attempt must be rolled back");
    }

    #[test]
    fn retry_runs_under_a_relaxed_budget() {
        // 150 ticks: over the 100-iteration budget, within the relaxed 200.
        let mut f = sample();
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(Spinner { need: 150 })];
        let budget = Budget { max_iters: Some(100), ..Budget::UNLIMITED };
        let rep = run_passes_governed(
            &mut f,
            &passes,
            FaultPolicy::RetryThenSkip,
            &LintOptions::invariants_only(),
            &budget,
            None,
        )
        .unwrap();
        assert_eq!(rep.retries, 1);
        assert_eq!(rep.faults.len(), 1, "first attempt faults; relaxed retry succeeds");
        assert_eq!(rep.faults[0].kind_label(), "budget");
    }

    #[test]
    fn fail_fast_surfaces_the_fault() {
        let bomb: Vec<Box<dyn Pass>> = vec![Box::new(Dce), Box::new(Bomb)];
        let ghost: Vec<Box<dyn Pass>> =
            vec![Box::new(ConstProp), Box::new(UseGhost), Box::new(Dce)];
        for (passes, culprit) in [(bomb, "bomb"), (ghost, "use-ghost")] {
            let mut f = sample();
            let e = run_passes_governed(
                &mut f,
                &passes,
                FaultPolicy::FailFast,
                &LintOptions::invariants_only(),
                &Budget::governed(),
                None,
            )
            .unwrap_err();
            assert_eq!(e.pass, culprit, "blame names the culprit: {e}");
            assert_eq!(e.function, "s");
            match &e.kind {
                FaultKind::Panic(p) => assert!(p.contains("detonation"), "{e}"),
                FaultKind::Lint(errors) => assert_eq!(errors[0].rule.code(), "L020", "{e}"),
                _ => panic!("expected a panic or lint fault: {e}"),
            }
        }
    }

    /// Under fail-fast the module run reports the earliest fault in module
    /// order at every `jobs`: the panic in `b`, blamed on the pass that
    /// panicked, not the invariant break the same pass makes in `c`.
    #[test]
    fn fail_fast_module_run_reports_the_earliest_fault_at_every_jobs() {
        /// Panics on function `b` and breaks an invariant in `c`.
        struct Saboteur;
        impl Pass for Saboteur {
            fn name(&self) -> &'static str {
                "saboteur"
            }
            fn run_budgeted(
                &self,
                f: &mut Function,
                cache: &mut AnalysisCache,
                budget: &Budget,
            ) -> Result<bool, BudgetExceeded> {
                match f.name.as_str() {
                    "b" => panic!("deliberate sabotage"),
                    "c" => UseGhost.run_budgeted(f, cache, budget),
                    _ => Ok(false),
                }
            }
        }
        let mut m = Module::new();
        for name in ["a", "b", "c"] {
            m.functions.push(named(name));
        }
        for jobs in [1, 2, 4, 8] {
            let e = run_module_governed(
                &m,
                &|| vec![Box::new(ConstProp) as Box<dyn Pass>, Box::new(Saboteur), Box::new(Dce)],
                FaultPolicy::FailFast,
                &LintOptions::invariants_only(),
                &Budget::UNLIMITED,
                CircuitBreaker::DEFAULT_THRESHOLD,
                jobs,
            )
            .unwrap_err();
            assert_eq!(e.function, "b", "jobs {jobs}: {e}");
            assert_eq!(e.pass, "saboteur", "jobs {jobs}: {e}");
            assert!(
                matches!(&e.kind, FaultKind::Panic(p) if p.contains("sabotage")),
                "jobs {jobs}: {e}"
            );
        }
    }

    #[test]
    fn retry_then_skip_counts_the_retry() {
        let mut f = sample();
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(Bomb)];
        let rep = run_passes_governed(
            &mut f,
            &passes,
            FaultPolicy::RetryThenSkip,
            &LintOptions::invariants_only(),
            &Budget::governed(),
            None,
        )
        .unwrap();
        assert_eq!(rep.retries, 1);
        assert_eq!(rep.faults.len(), 2, "one fault per attempt");
    }

    #[test]
    fn preexisting_violations_do_not_fault_passes() {
        // A function that is already broken on input: the fault belongs to
        // the input, and a well-behaved pass must not be blamed for it.
        let mut f = Function::new("broken", None);
        let dst = f.new_reg(Ty::Int);
        let ghost = f.new_reg(Ty::Int);
        let mut blk = epre_ir::Block::new(epre_ir::Terminator::Return { value: None });
        blk.insts.push(Inst::Copy { dst, src: ghost });
        f.add_block(blk);
        struct Nop;
        impl Pass for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn run_budgeted(
                &self,
                _f: &mut Function,
                _cache: &mut AnalysisCache,
                _budget: &Budget,
            ) -> Result<bool, BudgetExceeded> {
                Ok(false)
            }
        }
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(Nop)];
        let rep = run_passes_governed(
            &mut f,
            &passes,
            FaultPolicy::BestEffort,
            &LintOptions::invariants_only(),
            &Budget::governed(),
            None,
        )
        .unwrap();
        assert!(rep.faults.is_empty());
    }

    #[test]
    fn breaker_quarantines_a_repeatedly_faulting_pass() {
        let mut m = Module::new();
        for name in ["a", "b", "c", "d", "e"] {
            m.functions.push(named(name));
        }
        let (out, rep) = run_module_governed(
            &m,
            &|| vec![Box::new(Bomb) as Box<dyn Pass>, Box::new(ConstProp)],
            FaultPolicy::BestEffort,
            &LintOptions::invariants_only(),
            &Budget::governed(),
            2,
            1,
        )
        .unwrap();
        // The bomb faults in `a` and `b`, trips at 2, and is skipped for
        // the remaining three functions.
        assert_eq!(rep.faults.len(), 2, "{:?}", rep.faults);
        assert_eq!(rep.skipped, 3);
        assert_eq!(rep.quarantined.len(), 1);
        assert_eq!(rep.quarantined[0].pass, "bomb");
        assert_eq!(rep.quarantined[0].tripped_in, "b");
        assert_eq!(out.functions.len(), 5);
    }

    #[test]
    fn breaker_parallel_matches_serial_exactly() {
        let mut m = Module::new();
        for name in ["a", "b", "c", "d", "e", "f", "g"] {
            m.functions.push(named(name));
        }
        let passes_for =
            || vec![Box::new(Bomb) as Box<dyn Pass>, Box::new(ConstProp), Box::new(Dce)];
        let opts = LintOptions::invariants_only();
        let budget = Budget::governed();
        let (m1, r1) =
            run_module_governed(&m, &passes_for, FaultPolicy::BestEffort, &opts, &budget, 3, 1)
                .unwrap();
        for jobs in [2, 4, 8] {
            let (mj, rj) = run_module_governed(
                &m,
                &passes_for,
                FaultPolicy::BestEffort,
                &opts,
                &budget,
                3,
                jobs,
            )
            .unwrap();
            assert_eq!(format!("{m1}"), format!("{mj}"), "module differs at jobs={jobs}");
            assert_eq!(r1.faults.len(), rj.faults.len(), "fault count at jobs={jobs}");
            for (a, b) in r1.faults.iter().zip(&rj.faults) {
                assert_eq!(format!("{a}"), format!("{b}"), "fault order at jobs={jobs}");
            }
            assert_eq!(r1.skipped, rj.skipped, "skip tally at jobs={jobs}");
            assert_eq!(r1.quarantined, rj.quarantined, "quarantine list at jobs={jobs}");
        }
    }

    #[test]
    fn governed_module_matches_plain_pipeline_on_clean_input() {
        let mut m = Module::new();
        m.functions.push(sample());
        let (out, rep) = run_module_governed(
            &m,
            &|| Optimizer::new(OptLevel::Distribution).passes(),
            FaultPolicy::BestEffort,
            &LintOptions::invariants_only(),
            &Budget::governed(),
            CircuitBreaker::DEFAULT_THRESHOLD,
            1,
        )
        .unwrap();
        assert!(rep.faults.is_empty(), "{:?}", rep.faults);
        assert!(rep.quarantined.is_empty());
        let plain = Optimizer::new(OptLevel::Distribution).optimize(&m);
        assert_eq!(format!("{out}"), format!("{plain}"));
    }
}
