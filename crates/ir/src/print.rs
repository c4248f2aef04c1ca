//! Textual ILOC output.
//!
//! The format round-trips through [`crate::parse`]; each optimization pass
//! can therefore be run as a filter over text, matching the paper's
//! Unix-filter pass structure. Example:
//!
//! ```text
//! function foo(r0:i, r1:i) -> i
//! block b0:
//!   r2 <- loadi 0:i
//!   r3 <- add.i r0, r1
//!   cbr r3 -> b1, b2
//! block b1:
//!   ret r3
//! block b2:
//!   ret r2
//! end
//! ```

use std::fmt;

use crate::function::{Function, Module, Terminator};
use crate::inst::Inst;
use crate::types::BlockId;

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Bin { op, ty, dst, lhs, rhs } => {
                write!(f, "{dst} <- {}.{ty} {lhs}, {rhs}", op.mnemonic())
            }
            Inst::Un { op, ty, dst, src } => write!(f, "{dst} <- {}.{ty} {src}", op.mnemonic()),
            Inst::LoadI { dst, value } => write!(f, "{dst} <- loadi {value}"),
            Inst::Copy { dst, src } => write!(f, "{dst} <- copy {src}"),
            Inst::Load { ty, dst, addr } => write!(f, "{dst} <- load.{ty} [{addr}]"),
            Inst::Store { ty, addr, value } => write!(f, "store.{ty} [{addr}] <- {value}"),
            Inst::Call { dst, callee, args } => {
                if let Some((r, ty)) = dst {
                    write!(f, "{r} <- call {callee}(")?;
                    write_list(f, args)?;
                    write!(f, "):{ty}")
                } else {
                    write!(f, "call {callee}(")?;
                    write_list(f, args)?;
                    write!(f, ")")
                }
            }
            Inst::Phi { dst, args } => {
                write!(f, "{dst} <- phi [")?;
                for (i, (b, r)) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}: {r}")?;
                }
                write!(f, "]")
            }
        }
    }
}

fn write_list<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump { target } => write!(f, "jump {target}"),
            Terminator::Branch { cond, then_to, else_to } => {
                write!(f, "cbr {cond} -> {then_to}, {else_to}")
            }
            Terminator::Return { value: Some(v) } => write!(f, "ret {v}"),
            Terminator::Return { value: None } => write!(f, "ret"),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "function {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}:{}", self.ty_of(*p))?;
        }
        write!(f, ")")?;
        if let Some(ty) = self.ret_ty {
            write!(f, " -> {ty}")?;
        }
        writeln!(f)?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "block {}:", BlockId(i as u32))?;
            for inst in &b.insts {
                writeln!(f, "  {inst}")?;
            }
            writeln!(f, "  {}", b.term)?;
        }
        write!(f, "end")
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "module data {}", self.data_words)?;
        for (i, func) in self.functions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Inst, UnOp};
    use crate::types::{BlockId, Const, Reg, Ty};

    #[test]
    fn inst_display_forms() {
        let cases: Vec<(Inst, &str)> = vec![
            (
                Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) },
                "r2 <- add.i r0, r1",
            ),
            (Inst::Un { op: UnOp::Neg, ty: Ty::Float, dst: Reg(1), src: Reg(0) }, "r1 <- neg.f r0"),
            (Inst::LoadI { dst: Reg(0), value: Const::Int(42) }, "r0 <- loadi 42:i"),
            (Inst::Copy { dst: Reg(1), src: Reg(0) }, "r1 <- copy r0"),
            (Inst::Load { ty: Ty::Float, dst: Reg(1), addr: Reg(0) }, "r1 <- load.f [r0]"),
            (Inst::Store { ty: Ty::Int, addr: Reg(0), value: Reg(1) }, "store.i [r0] <- r1"),
            (
                Inst::Call {
                    dst: Some((Reg(2), Ty::Float)),
                    callee: "sqrt".into(),
                    args: vec![Reg(1)],
                },
                "r2 <- call sqrt(r1):f",
            ),
            (Inst::Call { dst: None, callee: "trace".into(), args: vec![] }, "call trace()"),
            (
                Inst::Phi { dst: Reg(3), args: vec![(BlockId(0), Reg(1)), (BlockId(2), Reg(2))] },
                "r3 <- phi [b0: r1, b2: r2]",
            ),
        ];
        for (inst, expect) in cases {
            assert_eq!(format!("{inst}"), expect);
        }
    }

    #[test]
    fn function_display_shape() {
        let mut b = FunctionBuilder::new("foo", Some(Ty::Int));
        let x = b.param(Ty::Int);
        b.ret(Some(x));
        let f = b.finish();
        let text = format!("{f}");
        assert!(text.starts_with("function foo(r0:i) -> i\n"));
        assert!(text.contains("block b0:"));
        assert!(text.contains("  ret r0"));
        assert!(text.ends_with("end"));
    }
}
