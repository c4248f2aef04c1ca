//! `verify_each` pipeline mode: run the lint suite after every pass and
//! attribute each new violation to the pass that introduced it.
//!
//! The paper's methodology treats every pass as a well-behaved ILOC
//! filter. The plain pipeline only checks that in debug builds, fail-fast,
//! after the fact. This mode makes it a contract: lint the function before
//! the pipeline starts (pre-existing findings belong to the *input*, not
//! to any pass), re-lint after each pass, and diff the reports by
//! diagnostic fingerprint. A pass that introduces a new **error**-severity
//! finding aborts the pipeline with a [`PassFault`] of kind `lint` naming
//! the pass, the function, and exactly the violations it introduced; new
//! warnings are collected per pass as [`PassBlame`] entries for quality
//! tracking.

use std::collections::HashSet;

use epre_ir::{Function, Module};
use epre_lint::{lint_function, Diagnostic, LintOptions, Severity};
use epre_passes::Pass;

use crate::fault::PassFault;
use crate::pipeline::Optimizer;
use crate::shards::map_functions;

/// New findings (any severity) first observed right after one pass ran.
#[derive(Debug, Clone)]
pub struct PassBlame {
    /// The pass that introduced the findings.
    pub pass: &'static str,
    /// The findings, in lint order.
    pub diagnostics: Vec<Diagnostic>,
}

/// Run `passes` over `f` in order, linting after every pass.
///
/// Returns the per-pass blame log of new non-error findings on success.
///
/// # Errors
/// A [`PassFault`] of kind `lint` naming the offending pass as soon as a
/// pass introduces an error-severity finding; `f` is left in the broken
/// state that pass produced, for inspection.
pub fn run_passes_verified(
    f: &mut Function,
    passes: &[Box<dyn Pass>],
    opts: &LintOptions,
) -> Result<Vec<PassBlame>, PassFault> {
    let mut seen: HashSet<String> =
        lint_function(f, opts).diagnostics.iter().map(Diagnostic::fingerprint).collect();
    let mut blames = Vec::new();
    for pass in passes {
        pass.run(f);
        let report = lint_function(f, opts);
        let new: Vec<Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| !seen.contains(&d.fingerprint()))
            .cloned()
            .collect();
        let errors: Vec<Diagnostic> =
            new.iter().filter(|d| d.severity() == Severity::Error).cloned().collect();
        if !errors.is_empty() {
            return Err(PassFault::lint(pass.name(), &f.name, errors));
        }
        if !new.is_empty() {
            blames.push(PassBlame { pass: pass.name(), diagnostics: new });
        }
        seen = report.diagnostics.iter().map(Diagnostic::fingerprint).collect();
    }
    Ok(blames)
}

impl Optimizer {
    /// [`Optimizer::optimize_function`] in `verify_each` mode: lint after
    /// every pass (invariant rules only — intermediate states legitimately
    /// carry critical edges, dead code, and remaining redundancy).
    ///
    /// # Errors
    /// A [`PassFault`] of kind `lint` blaming the first pass that
    /// introduces an invariant violation.
    pub fn optimize_function_verified(
        &self,
        f: &mut Function,
    ) -> Result<Vec<PassBlame>, PassFault> {
        run_passes_verified(f, &self.passes(), &LintOptions::invariants_only())
    }

    /// [`Optimizer::try_optimize_jobs`] in `verify_each` mode: one
    /// [`map_functions`] call, so the output and the reported fault are the
    /// same at every `jobs`, and a pass panic is contained as a
    /// [`PassFault`] with kind `panic` (pass `pipeline`).
    ///
    /// # Errors
    /// The first [`PassFault`] in module function order.
    pub fn optimize_verified(&self, module: &Module, jobs: usize) -> Result<Module, PassFault> {
        let lint = LintOptions::invariants_only();
        let functions = map_functions(
            module,
            jobs,
            || self.passes(),
            |passes, _, src| {
                let mut f = src.clone();
                run_passes_verified(&mut f, passes, &lint).map(|_| f)
            },
        )?;
        Ok(Module { functions, data_words: module.data_words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::pipeline::tests::{assert_contains_worker_panics, FOO};
    use crate::pipeline::OptLevel;
    use epre_analysis::AnalysisCache;
    use epre_frontend::{compile, NamingMode};
    use epre_ir::{Inst, Ty};
    use epre_passes::passes::{ConstProp, Dce};
    use epre_passes::{Budget, BudgetExceeded};

    #[test]
    fn every_level_is_invariant_clean_on_example() {
        for level in [OptLevel::PAPER_LEVELS.as_slice(), &[OptLevel::DistributionLvn]].concat() {
            let m = compile(FOO, NamingMode::Disciplined).unwrap();
            let opt = Optimizer::new(level);
            let verified = opt.optimize_verified(&m, 1).expect("no pass breaks invariants");
            // verify_each must not change what the pipeline produces.
            let plain = opt.optimize(&m);
            assert_eq!(format!("{verified}"), format!("{plain}"));
        }
    }

    /// A deliberately broken pass: introduces a read of a register that no
    /// path defines.
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

    #[test]
    fn injected_invariant_break_is_blamed_on_the_pass() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        let mut f = m.function("foo").unwrap().clone();
        let passes: Vec<Box<dyn Pass>> =
            vec![Box::new(ConstProp), Box::new(UseGhost), Box::new(Dce)];
        let e = run_passes_verified(&mut f, &passes, &LintOptions::invariants_only())
            .expect_err("the broken pass must be caught");
        assert_eq!(e.pass, "use-ghost", "blame names the culprit: {e}");
        assert_eq!(e.function, "foo");
        let FaultKind::Lint(errors) = &e.kind else { panic!("expected a lint fault: {e}") };
        assert_eq!(errors[0].rule.code(), "L020", "{e}");
    }

    /// A pass that does nothing; pre-existing input findings must not be
    /// blamed on it.
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

    /// A pass panic under `verify_each` is contained as a typed fault at
    /// every `jobs`, exactly as in the plain driver.
    #[test]
    fn verified_driver_contains_worker_panics() {
        let opt = Optimizer::new(OptLevel::Partial);
        assert_contains_worker_panics(|m, jobs| opt.optimize_verified(m, jobs));
    }

    #[test]
    fn preexisting_violations_belong_to_the_input() {
        // Build a function with a use-before-def already present.
        let mut f = Function::new("broken", None);
        let dst = f.new_reg(Ty::Int);
        let ghost = f.new_reg(Ty::Int);
        let mut blk = epre_ir::Block::new(epre_ir::Terminator::Return { value: None });
        blk.insts.push(Inst::Copy { dst, src: ghost });
        f.add_block(blk);
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(Nop)];
        let blames = run_passes_verified(&mut f, &passes, &LintOptions::invariants_only())
            .expect("nop introduced nothing new");
        assert!(blames.is_empty());
    }
}
