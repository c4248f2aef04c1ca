//! The `epre opt --verify-each` driver: the governed pass sandbox of
//! `epre-harness` under [`FaultPolicy::FailFast`], which lints after every
//! pass and stops at the first pass that introduces an error-severity
//! finding (a `lint` fault) or panics (a `panic` fault).

use epre::{Budget, PassFault};
use epre_harness::{run_module_governed, CircuitBreaker, FaultPolicy};
use epre_ir::Module;
use epre_lint::LintOptions;
use epre_passes::Pass;

/// Optimize a copy of `module` with the passes `passes_for` builds,
/// linting the invariant rules after every pass, on up to `jobs` threads;
/// on clean input the result is the plain pipeline's module.
///
/// # Errors
/// The earliest faulting function's fault in module order, at every `jobs`.
pub fn run(
    module: &Module,
    passes_for: &(dyn Fn() -> Vec<Box<dyn Pass>> + Sync),
    jobs: usize,
) -> Result<Module, PassFault> {
    run_module_governed(
        module,
        passes_for,
        FaultPolicy::FailFast,
        &LintOptions::invariants_only(),
        &Budget::UNLIMITED,
        CircuitBreaker::DEFAULT_THRESHOLD,
        jobs,
    )
    .map(|(m, _)| m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre::{FaultKind, OptLevel, Optimizer};
    use epre_analysis::AnalysisCache;
    use epre_frontend::{compile, NamingMode};
    use epre_ir::{Block, Function, Inst, Terminator, Ty};
    use epre_passes::passes::{ConstProp, Dce};
    use epre_passes::BudgetExceeded;

    const FOO: &str = "function foo(y, z)\n\
                       real y, z, s, x\n\
                       integer i\n\
                       begin\n\
                       s = 0\n\
                       x = y + z\n\
                       do i = x, 100\n\
                         s = i + s + x\n\
                       enddo\n\
                       return s\nend\n";

    #[test]
    fn every_level_is_invariant_clean_on_example() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        for level in [OptLevel::PAPER_LEVELS.as_slice(), &[OptLevel::DistributionLvn]].concat() {
            let opt = Optimizer::new(level);
            let plain = format!("{}", opt.optimize(&m));
            for jobs in [1, 2] {
                let verified = run(&m, &|| opt.passes(), jobs).expect("no pass breaks invariants");
                // --verify-each must not change what the pipeline produces.
                assert_eq!(format!("{verified}"), plain, "{level:?} at jobs {jobs}");
            }
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
        let passes = || -> Vec<Box<dyn Pass>> {
            vec![Box::new(ConstProp), Box::new(UseGhost), Box::new(Dce)]
        };
        let e = run(&m, &passes, 1).expect_err("the broken pass must be caught");
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

    #[test]
    fn preexisting_violations_belong_to_the_input() {
        // Build a function with a use-before-def already present.
        let mut f = Function::new("broken", None);
        let dst = f.new_reg(Ty::Int);
        let ghost = f.new_reg(Ty::Int);
        let mut blk = Block::new(Terminator::Return { value: None });
        blk.insts.push(Inst::Copy { dst, src: ghost });
        f.add_block(blk);
        let mut m = Module::new();
        m.functions.push(f);
        let passes = || -> Vec<Box<dyn Pass>> { vec![Box::new(Nop)] };
        let out = run(&m, &passes, 1).expect("nop introduced nothing new");
        assert_eq!(format!("{out}"), format!("{m}"));
    }
}
