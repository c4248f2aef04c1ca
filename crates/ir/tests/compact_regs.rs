//! `Function::compact_regs` renames registers and nothing else: the
//! compacted function computes the same result with the same dynamic
//! operation count.

use epre_interp::{Interpreter, Value};
use epre_ir::{BinOp, Const, Function, FunctionBuilder, Module, Ty, UnOp};

/// `s = 0.0; i = 0; do { s = s + x * float(i); i = i + 1 } while (i < n);
/// return int(s)`, with an unreferenced register allocated after every
/// referenced one.
fn loop_with_holes() -> Function {
    let mut b = FunctionBuilder::new("h", Some(Ty::Int));
    let n = b.param(Ty::Int);
    b.new_reg(Ty::Int);
    let x = b.param(Ty::Float);
    b.new_reg(Ty::Float);
    let s = b.new_reg(Ty::Float);
    let i = b.new_reg(Ty::Int);
    let body = b.new_block();
    let exit = b.new_block();
    let zero_f = b.loadi(Const::Float(0.0));
    b.new_reg(Ty::Float);
    b.copy_to(s, zero_f);
    let zero = b.loadi(Const::Int(0));
    b.copy_to(i, zero);
    b.jump(body);
    b.switch_to(body);
    let fi = b.un(UnOp::I2F, Ty::Int, i);
    b.new_reg(Ty::Int);
    let term = b.bin(BinOp::Mul, Ty::Float, x, fi);
    let s2 = b.bin(BinOp::Add, Ty::Float, s, term);
    b.copy_to(s, s2);
    let one = b.loadi(Const::Int(1));
    b.new_reg(Ty::Float);
    let i2 = b.bin(BinOp::Add, Ty::Int, i, one);
    b.copy_to(i, i2);
    let more = b.bin(BinOp::CmpLt, Ty::Int, i, n);
    b.branch(more, body, exit);
    b.switch_to(exit);
    let r = b.un(UnOp::F2I, Ty::Float, s);
    b.new_reg(Ty::Int);
    b.ret(Some(r));
    b.finish()
}

fn run(f: &Function, args: &[Value]) -> (Option<Value>, u64) {
    let mut m = Module::new();
    m.functions.push(f.clone());
    let mut it = Interpreter::new(&m);
    let out = it.run(&f.name, args).unwrap();
    (out, it.counts().total)
}

#[test]
fn compaction_keeps_results_and_dynamic_counts() {
    let f = loop_with_holes();
    assert!(f.verify().is_ok());
    let mut g = f.clone();
    assert_eq!(g.compact_regs(), 6);
    assert!(g.verify().is_ok(), "{g}");
    assert_eq!(g.params.len(), 2);
    for n in [1i64, 5, 40] {
        let args = [Value::Int(n), Value::Float(1.5)];
        assert_eq!(run(&f, &args), run(&g, &args), "n = {n}");
    }
}
