//! Shared proptest generator for well-formed ILOC functions: a step list
//! is interpreted deterministically so every operand pick indexes the
//! registers of the right type produced so far, and the result always
//! type-checks (straight-line or diamond-shaped CFG).

use proptest::prelude::*;

use epre_ir::{BinOp, Const, Function, FunctionBuilder, Reg, Ty, UnOp};

/// One step of straight-line code generation: which instruction to append.
#[derive(Debug, Clone)]
pub enum Step {
    Bin(u8, u8, u8), // op selector, lhs pick, rhs pick
    Un(u8, u8),
    LoadI(i64),
    LoadF(i64), // float constant from an integer grid (exact)
    Copy(u8),
    Load(u8),
    Store(u8, u8),
    Call(u8),
}

pub fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| Step::Bin(o, a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(o, a)| Step::Un(o, a)),
        (-100i64..100).prop_map(Step::LoadI),
        (-100i64..100).prop_map(Step::LoadF),
        any::<u8>().prop_map(Step::Copy),
        any::<u8>().prop_map(Step::Load),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Store(a, b)),
        any::<u8>().prop_map(Step::Call),
    ]
}

/// Deterministically build a verified function from the step list.
pub fn build(steps: &[Step], diamond: bool) -> Function {
    let mut b = FunctionBuilder::new("gen", Some(Ty::Int));
    let p0 = b.param(Ty::Int);
    let p1 = b.param(Ty::Float);
    let mut ints: Vec<Reg> = vec![p0];
    let mut floats: Vec<Reg> = vec![p1];

    let int_ops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::CmpLt,
        BinOp::CmpEq,
    ];
    let float_ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max];

    let emit =
        |b: &mut FunctionBuilder, ints: &mut Vec<Reg>, floats: &mut Vec<Reg>, s: &Step| match s {
            Step::Bin(o, x, y) => {
                if *o % 2 == 0 {
                    let op = int_ops[(*o as usize / 2) % int_ops.len()];
                    let l = ints[*x as usize % ints.len()];
                    let r = ints[*y as usize % ints.len()];
                    ints.push(b.bin(op, Ty::Int, l, r));
                } else {
                    let op = float_ops[(*o as usize / 2) % float_ops.len()];
                    let l = floats[*x as usize % floats.len()];
                    let r = floats[*y as usize % floats.len()];
                    let d = b.bin(op, Ty::Float, l, r);
                    if op.is_comparison() {
                        ints.push(d);
                    } else {
                        floats.push(d);
                    }
                }
            }
            Step::Un(o, x) => match o % 4 {
                0 => {
                    let s = ints[*x as usize % ints.len()];
                    ints.push(b.un(UnOp::Neg, Ty::Int, s));
                }
                1 => {
                    let s = ints[*x as usize % ints.len()];
                    ints.push(b.un(UnOp::Not, Ty::Int, s));
                }
                2 => {
                    let s = ints[*x as usize % ints.len()];
                    floats.push(b.un(UnOp::I2F, Ty::Int, s));
                }
                _ => {
                    let s = floats[*x as usize % floats.len()];
                    ints.push(b.un(UnOp::F2I, Ty::Float, s));
                }
            },
            Step::LoadI(v) => ints.push(b.loadi(Const::Int(*v))),
            Step::LoadF(v) => floats.push(b.loadi(Const::Float(*v as f64 / 4.0))),
            Step::Copy(x) => {
                let s = ints[*x as usize % ints.len()];
                ints.push(b.copy(s));
            }
            Step::Load(x) => {
                let a = ints[*x as usize % ints.len()];
                floats.push(b.load(Ty::Float, a));
            }
            Step::Store(x, y) => {
                let a = ints[*x as usize % ints.len()];
                let v = floats[*y as usize % floats.len()];
                b.store(Ty::Float, a, v);
            }
            Step::Call(x) => {
                let v = floats[*x as usize % floats.len()];
                floats.push(b.call("sqrt", vec![v], Ty::Float));
            }
        };

    if diamond && steps.len() >= 2 {
        let half = steps.len() / 2;
        for s in &steps[..half] {
            emit(&mut b, &mut ints, &mut floats, s);
        }
        let cond = *ints.last().unwrap();
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(cond, t, e);
        let join_var = b.new_reg(Ty::Int);
        b.switch_to(t);
        let mut ti = ints.clone();
        let mut tf = floats.clone();
        for s in &steps[half..] {
            emit(&mut b, &mut ti, &mut tf, s);
        }
        b.copy_to(join_var, *ti.last().unwrap());
        b.jump(j);
        b.switch_to(e);
        b.copy_to(join_var, *ints.last().unwrap());
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(join_var));
    } else {
        for s in steps {
            emit(&mut b, &mut ints, &mut floats, s);
        }
        let out = *ints.last().unwrap();
        b.ret(Some(out));
    }
    b.finish()
}
