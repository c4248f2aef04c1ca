//! Integration test for the paper's running example (Figures 2–10).

use epre::stages::{try_run_staged, Stage};
use epre_frontend::{compile, NamingMode};
use epre_interp::{Interpreter, Value};
use epre_ir::{Inst, Module};

const FOO: &str = "function foo(y, z)\n\
                   real y, z, s, x\n\
                   integer i\n\
                   begin\n\
                   s = 0\n\
                   x = y + z\n\
                   do i = x, 100\n\
                     s = i + s + x\n\
                   enddo\n\
                   return s\n\
                   end\n";

fn run_foo(f: &epre_ir::Function, y: f64, z: f64) -> (Option<Value>, u64) {
    let mut m = Module::new();
    m.functions.push(f.clone());
    let mut i = Interpreter::new(&m);
    let r = i.run("foo", &[Value::Float(y), Value::Float(z)]).unwrap();
    (r, i.counts().total)
}

#[test]
fn figure_2_to_10_walkthrough() {
    let module = compile(FOO, NamingMode::Simple).unwrap();
    let staged = try_run_staged(module.function("foo").unwrap(), true)
        .expect("the walkthrough stages verify");

    // Every stage is printable, verifiable IR.
    for (stage, _, f) in &staged.snapshots {
        f.verify().unwrap_or_else(|e| panic!("{stage:?}: {e}"));
        assert!(!format!("{f}").is_empty());
    }

    // Figure 4: pruned SSA has φs for s and i at the loop header (and the
    // return value), with copies folded.
    let ssa = staged.stage(Stage::PrunedSsa);
    let phis: usize = ssa.blocks.iter().map(|b| b.phi_count()).sum();
    assert!(phis >= 2, "loop variables s and i need φs, got {phis}");
    let copies =
        ssa.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i, Inst::Copy { .. })).count();
    assert_eq!(copies, 0, "copies folded into φs (§3.1)");

    // Figure 8: after value numbering, `y + z` has a single name even
    // though forward propagation duplicated it.
    let vn = staged.stage(Stage::ValueNumbered);
    let yz_names: std::collections::HashSet<_> = vn
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| {
            matches!(i, Inst::Bin { op: epre_ir::BinOp::Add, lhs, rhs, .. }
                     if (*lhs == vn.params[0] && *rhs == vn.params[1])
                     || (*lhs == vn.params[1] && *rhs == vn.params[0]))
        })
        .map(|i| i.dst())
        .collect();
    assert!(yz_names.len() <= 1, "GVN gives y+z one name, got {yz_names:?}");

    // Figure 9: after PRE, y + z is computed at most once.
    let pre = staged.stage(Stage::AfterPre);
    let yz_count = pre
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| {
            matches!(i, Inst::Bin { op: epre_ir::BinOp::Add, lhs, rhs, .. }
                     if (*lhs == pre.params[0] && *rhs == pre.params[1])
                     || (*lhs == pre.params[1] && *rhs == pre.params[0]))
        })
        .count();
    assert_eq!(yz_count, 1, "the invariant y+z hoisted to a single site");

    // End-to-end: semantics preserved, and no path lengthened — including
    // the zero-trip path (y + z > 100).
    let before = staged.stage(Stage::Intermediate);
    let after = staged.stage(Stage::Final);
    for (y, z) in [(1.0, 2.0), (60.0, 60.0), (99.0, 1.0), (0.0, 0.0)] {
        let (r0, c0) = run_foo(before, y, z);
        let (r1, c1) = run_foo(after, y, z);
        assert_eq!(r0, r1, "result differs at ({y},{z})");
        assert!(c1 <= c0, "path lengthened at ({y},{z}): {c1} > {c0}");
    }
    // And a strict improvement on the loopy input.
    let (_, c0) = run_foo(before, 1.0, 2.0);
    let (_, c1) = run_foo(after, 1.0, 2.0);
    assert!(c1 < c0, "the transformations must shorten the loop: {c1} vs {c0}");
}

#[test]
fn disciplined_and_simple_naming_converge_after_gvn() {
    // §3.2: GVN "constructs the name space required by PRE", so the final
    // optimized code quality must not depend on the front end's naming.
    let m_simple = compile(FOO, NamingMode::Simple).unwrap();
    let m_disc = compile(FOO, NamingMode::Disciplined).unwrap();
    let opt = epre::Optimizer::new(epre::OptLevel::Distribution);
    let o_simple = opt.optimize(&m_simple);
    let o_disc = opt.optimize(&m_disc);
    let args = [Value::Float(1.0), Value::Float(2.0)];
    let mut i1 = Interpreter::new(&o_simple);
    let mut i2 = Interpreter::new(&o_disc);
    let r1 = i1.run("foo", &args).unwrap();
    let r2 = i2.run("foo", &args).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(
        i1.counts().total,
        i2.counts().total,
        "the optimizer isolates PRE from the front end's naming (§1)"
    );
}
