//! The lint engine: decides which rule families apply to a function and
//! runs them in order, accumulating everything into one [`Report`].

use epre_cfg::Cfg;
use epre_ir::{Function, Module};

use crate::checks;
use crate::diag::Report;

/// Which optional rule families to run. The mandatory invariants
/// (structural, SSA / use-before-def) always run.
#[derive(Debug, Clone, Copy)]
pub struct LintOptions {
    /// Run the `L040` redundancy auditor (builds SSA and value numbers a
    /// clone of the function — the most expensive rule).
    pub audit_redundancy: bool,
    /// Run the CFG hygiene rules (`L030` unreachable blocks, `L031`
    /// critical edges).
    pub cfg_hygiene: bool,
    /// Run the `L032` dead-pure-value rule.
    pub dead_values: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions { audit_redundancy: true, cfg_hygiene: true, dead_values: true }
    }
}

impl LintOptions {
    /// Only the invariant rules — what the pass sandbox (`epre opt
    /// --verify-each`) runs between passes, where warnings about
    /// intermediate states (critical edges, not-yet-deleted dead code,
    /// remaining redundancy) are expected rather than suspicious.
    pub fn invariants_only() -> Self {
        LintOptions { audit_redundancy: false, cfg_hygiene: false, dead_values: false }
    }
}

/// Lint one function.
///
/// The structural rules run first; if any **fatal** structural violation
/// is found (missing blocks, dangling block ids, unallocated registers)
/// the deeper rules are skipped, since building a CFG or indexing
/// register tables would be unsound. Otherwise:
///
/// * functions carrying φ-nodes get the SSA rule family,
/// * plain ILOC gets the reaching-definitions use-before-def rule,
/// * the optional families follow per [`LintOptions`] (the redundancy
///   auditor only runs on non-SSA, error-free input; between-pass pipeline
///   states are non-SSA, and SSA-form functions are mid-transformation).
pub fn lint_function(f: &Function, opts: &LintOptions) -> Report {
    let mut report = Report::new();
    let fatal = checks::structural::check(f, &mut report);
    if fatal {
        return report;
    }
    let cfg = Cfg::new(f);
    // Any φ anywhere (not just in prefix position — a misplaced φ must
    // still put the function under the SSA discipline, not the non-SSA
    // reaching-definitions rule, which has no per-edge view of φ inputs).
    let has_phis =
        f.blocks.iter().any(|b| b.insts.iter().any(|i| matches!(i, epre_ir::Inst::Phi { .. })));
    if has_phis {
        checks::ssa::check(f, &mut report);
    } else {
        checks::defs::check(f, &cfg, &mut report);
    }
    if opts.cfg_hygiene {
        checks::hygiene::check_unreachable(f, &cfg, &mut report);
        checks::hygiene::check_critical_edges(f, &cfg, &mut report);
    }
    if opts.dead_values {
        checks::dead::check(f, &cfg, &mut report);
    }
    // The auditor rebuilds SSA on a clone, which is only sound on
    // invariant-clean input: a function with (say) a use-before-def has no
    // well-defined SSA form to value-number.
    if opts.audit_redundancy && !has_phis && !report.has_errors() {
        checks::redundancy::audit(f, &mut report);
    }
    report
}

/// Lint every function of a module into one combined report.
pub fn lint_module(m: &Module, opts: &LintOptions) -> Report {
    let mut report = Report::new();
    for f in &m.functions {
        report.merge(lint_function(f, opts));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;
    use epre_ir::{BinOp, FunctionBuilder, Ty};

    #[test]
    fn clean_function_is_clean() {
        let mut b = FunctionBuilder::new("ok", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.bin(BinOp::Add, Ty::Int, x, x);
        b.ret(Some(y));
        let r = lint_function(&b.finish(), &LintOptions::default());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn straight_line_redundancy_is_flagged() {
        // y = x + x; z = x + x; return y * z — the second add is fully
        // redundant and only the auditor can tell.
        let mut b = FunctionBuilder::new("red", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.bin(BinOp::Add, Ty::Int, x, x);
        let z = b.bin(BinOp::Add, Ty::Int, x, x);
        let m = b.bin(BinOp::Mul, Ty::Int, y, z);
        b.ret(Some(m));
        let f = b.finish();
        let r = lint_function(&f, &LintOptions::default());
        assert!(!r.has_errors(), "{r}");
        let red: Vec<_> = r.diagnostics.iter().filter(|d| d.rule == Rule::RedundantExpr).collect();
        assert_eq!(red.len(), 1, "{r}");
        assert_eq!(red[0].location.block, Some(epre_ir::BlockId::ENTRY));
        assert_eq!(red[0].location.inst, Some(1));
    }

    #[test]
    fn commutated_cross_block_redundancy_is_flagged() {
        // Both arms compute x+y (one as y+x); the join recomputes it.
        // Lexical availability sees nothing wrong with the two arms, but
        // every path to the join has produced the value.
        let mut b = FunctionBuilder::new("cross", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let v = b.new_reg(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(p, t, e);
        b.switch_to(t);
        let a1 = b.bin(BinOp::Add, Ty::Int, x, y);
        b.copy_to(v, a1);
        b.jump(j);
        b.switch_to(e);
        let a2 = b.bin(BinOp::Add, Ty::Int, y, x);
        b.copy_to(v, a2);
        b.jump(j);
        b.switch_to(j);
        let a3 = b.bin(BinOp::Add, Ty::Int, x, y);
        let s = b.bin(BinOp::Sub, Ty::Int, a3, v);
        b.ret(Some(s));
        let f = b.finish();
        let r = lint_function(&f, &LintOptions::default());
        assert!(!r.has_errors(), "{r}");
        let red: Vec<_> = r.diagnostics.iter().filter(|d| d.rule == Rule::RedundantExpr).collect();
        assert_eq!(red.len(), 1, "{r}");
        assert_eq!(red[0].location.block, Some(j));
        assert_eq!(red[0].location.inst, Some(0));
    }

    #[test]
    fn partial_redundancy_is_not_flagged() {
        // Only one arm computes x+y: at the join the value is partially,
        // not fully, redundant — the auditor must stay quiet.
        let mut b = FunctionBuilder::new("part", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let v = b.new_reg(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(p, t, e);
        b.switch_to(t);
        let a1 = b.bin(BinOp::Add, Ty::Int, x, y);
        b.copy_to(v, a1);
        b.jump(j);
        b.switch_to(e);
        let a2 = b.bin(BinOp::Mul, Ty::Int, x, y);
        b.copy_to(v, a2);
        b.jump(j);
        b.switch_to(j);
        let a3 = b.bin(BinOp::Add, Ty::Int, x, y);
        let s = b.bin(BinOp::Sub, Ty::Int, a3, v);
        b.ret(Some(s));
        let f = b.finish();
        let r = lint_function(&f, &LintOptions::default());
        let red = r.diagnostics.iter().filter(|d| d.rule == Rule::RedundantExpr).count();
        assert_eq!(red, 0, "{r}");
    }

    #[test]
    fn module_lint_merges_functions() {
        let mut m = epre_ir::Module::new();
        let mut b = FunctionBuilder::new("a", None);
        b.ret(None);
        m.functions.push(b.finish());
        let mut b = FunctionBuilder::new("b", None);
        b.ret(None);
        m.functions.push(b.finish());
        assert!(lint_module(&m, &LintOptions::default()).is_clean());
    }
}
