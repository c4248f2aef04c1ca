//! Structural verification of functions.
//!
//! The verifier checks invariants that every pass must preserve:
//!
//! * every block terminator targets an existing block,
//! * every register named anywhere was allocated (`reg_ty` covers it),
//! * operand and result types are consistent with each instruction's
//!   declared type,
//! * φ-nodes appear only as a prefix of their block,
//! * φ-node incoming blocks are actual CFG predecessors (checked only when
//!   the function contains φs, i.e. is in SSA form),
//! * a branch condition has `Int` type.
//!
//! It does **not** check SSA single-assignment (that is `epre-ssa`'s
//! verifier) because most of the pipeline operates on non-SSA ILOC.
//!
//! Two entry points share one walk: [`verify_function_all`] accumulates
//! **every** violation (the lint engine's preferred form), while
//! [`verify_function`] keeps the historical fail-fast `Result` contract by
//! returning the first accumulated error.

use std::collections::HashSet;
use std::fmt;

use crate::function::{Function, Terminator};
use crate::inst::Inst;
use crate::types::{BlockId, Reg, Ty};

/// Classification of a structural invariant violation, so downstream
/// tooling (the lint engine) can map each error onto a stable rule code
/// without parsing the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyErrorKind {
    /// The function has no basic blocks at all.
    NoBlocks,
    /// A terminator or φ names a block id outside the function.
    DanglingTarget,
    /// A register appears that was never allocated in `reg_ty`.
    UnallocatedRegister,
    /// Operand or result type disagrees with the instruction's declared type.
    TypeMismatch,
    /// A φ-node appears after a non-φ instruction in its block.
    PhiNotPrefix,
    /// A φ-node input names a block that is not a CFG predecessor.
    PhiNonPredecessor,
    /// A `cbr` condition register is not of `Int` type.
    BranchCondNotInt,
    /// A `ret` disagrees with the function signature (wrong type, or a
    /// value returned from a subroutine).
    ReturnMismatch,
}

/// A structural invariant violation found by [`verify_function`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub function: String,
    /// Block where the violation was found.
    pub block: BlockId,
    /// Which invariant was broken.
    pub kind: VerifyErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}: {}", self.function, self.block, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Check the structural invariants of `f`. See the module docs for the list.
///
/// # Errors
/// Returns the first violation found ([`verify_function_all`] collects all
/// of them).
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    match verify_function_all(f).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Check the structural invariants of `f`, accumulating **every** violation
/// instead of stopping at the first. An empty vector means the function is
/// structurally sound.
///
/// Checks that would be meaningless (or would panic) once an earlier
/// violation is known are skipped: type checks are suppressed for
/// instructions naming unallocated registers, and nothing beyond the
/// "no blocks" error is reported for an empty function.
pub fn verify_function_all(f: &Function) -> Vec<VerifyError> {
    let mut errs: Vec<VerifyError> = Vec::new();
    let fail =
        |errs: &mut Vec<VerifyError>, block: BlockId, kind: VerifyErrorKind, message: String| {
            errs.push(VerifyError { function: f.name.clone(), block, kind, message });
        };
    let reg_ok = |r: Reg| r.index() < f.reg_ty.len();

    if f.blocks.is_empty() {
        fail(&mut errs, BlockId::ENTRY, VerifyErrorKind::NoBlocks, "function has no blocks".into());
        return errs;
    }
    for &p in &f.params {
        if !reg_ok(p) {
            fail(
                &mut errs,
                BlockId::ENTRY,
                VerifyErrorKind::UnallocatedRegister,
                format!("parameter {p} not allocated"),
            );
        }
    }

    // Dangling targets are reported and skipped so the remaining checks
    // still run. Only φ checks read predecessors, so a function without φs
    // builds none.
    let has_phis = f.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i, Inst::Phi { .. }));
    let mut preds: Vec<HashSet<BlockId>> =
        if has_phis { vec![HashSet::new(); f.blocks.len()] } else { Vec::new() };
    for (id, b) in f.iter_blocks() {
        for s in b.term.successors() {
            if s.index() >= f.blocks.len() {
                fail(
                    &mut errs,
                    id,
                    VerifyErrorKind::DanglingTarget,
                    format!("terminator targets missing block {s}"),
                );
            } else if has_phis {
                preds[s.index()].insert(id);
            }
        }
    }

    for (id, b) in f.iter_blocks() {
        let mut seen_non_phi = false;
        for inst in &b.insts {
            // Registers of this instruction all allocated? Type checks
            // would panic on out-of-range registers, so they are gated.
            let mut inst_regs_ok = true;
            match inst {
                Inst::Phi { dst, args } => {
                    if seen_non_phi {
                        fail(
                            &mut errs,
                            id,
                            VerifyErrorKind::PhiNotPrefix,
                            format!("φ for {dst} after non-φ instruction"),
                        );
                    }
                    for &(pb, r) in args {
                        if pb.index() >= f.blocks.len() {
                            fail(
                                &mut errs,
                                id,
                                VerifyErrorKind::DanglingTarget,
                                format!("φ names missing block {pb}"),
                            );
                        } else if !preds[id.index()].contains(&pb) {
                            fail(
                                &mut errs,
                                id,
                                VerifyErrorKind::PhiNonPredecessor,
                                format!("φ input block {pb} is not a predecessor"),
                            );
                        }
                        if !reg_ok(r) {
                            inst_regs_ok = false;
                            fail(
                                &mut errs,
                                id,
                                VerifyErrorKind::UnallocatedRegister,
                                format!("φ uses unallocated register {r}"),
                            );
                        }
                    }
                    if !reg_ok(*dst) {
                        inst_regs_ok = false;
                        fail(
                            &mut errs,
                            id,
                            VerifyErrorKind::UnallocatedRegister,
                            format!("φ defines unallocated register {dst}"),
                        );
                    }
                }
                _ => {
                    seen_non_phi = true;
                    for u in inst.uses() {
                        if !reg_ok(u) {
                            inst_regs_ok = false;
                            fail(
                                &mut errs,
                                id,
                                VerifyErrorKind::UnallocatedRegister,
                                format!("use of unallocated register {u} in `{inst}`"),
                            );
                        }
                    }
                    if let Some(d) = inst.dst() {
                        if !reg_ok(d) {
                            inst_regs_ok = false;
                            fail(
                                &mut errs,
                                id,
                                VerifyErrorKind::UnallocatedRegister,
                                format!("def of unallocated register {d} in `{inst}`"),
                            );
                        }
                    }
                }
            }
            if inst_regs_ok {
                if let Some(msg) = type_check(f, inst) {
                    fail(&mut errs, id, VerifyErrorKind::TypeMismatch, msg);
                }
            }
        }
        match &b.term {
            Terminator::Branch { cond, .. } => {
                if !reg_ok(*cond) {
                    fail(
                        &mut errs,
                        id,
                        VerifyErrorKind::UnallocatedRegister,
                        format!("branch condition {cond} not allocated"),
                    );
                } else if f.ty_of(*cond) != Ty::Int {
                    fail(
                        &mut errs,
                        id,
                        VerifyErrorKind::BranchCondNotInt,
                        format!("branch condition {cond} must be Int"),
                    );
                }
            }
            Terminator::Return { value: Some(v) } => {
                if !reg_ok(*v) {
                    fail(
                        &mut errs,
                        id,
                        VerifyErrorKind::UnallocatedRegister,
                        format!("return of unallocated register {v}"),
                    );
                } else {
                    match f.ret_ty {
                        None => fail(
                            &mut errs,
                            id,
                            VerifyErrorKind::ReturnMismatch,
                            "value returned from subroutine".into(),
                        ),
                        Some(rt) => {
                            if f.ty_of(*v) != rt {
                                fail(
                                    &mut errs,
                                    id,
                                    VerifyErrorKind::ReturnMismatch,
                                    format!("return type mismatch on {v}"),
                                );
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    errs
}

/// Whether the reported kinds make further CFG- or type-based analysis of
/// the function unsafe (block ids may be out of range, registers may have
/// no entry in `reg_ty`). The lint engine consults this before building a
/// CFG or running dataflow over a function with structural errors.
pub fn is_fatal(kind: VerifyErrorKind) -> bool {
    matches!(
        kind,
        VerifyErrorKind::NoBlocks
            | VerifyErrorKind::DanglingTarget
            | VerifyErrorKind::UnallocatedRegister
    )
}

/// Type-check one instruction against the function's register types.
fn type_check(f: &Function, inst: &Inst) -> Option<String> {
    let bad = |r: Reg, want: Ty| {
        Some(format!("`{inst}`: register {r} has type {}, expected {want}", f.ty_of(r)))
    };
    match inst {
        Inst::Bin { op, ty, dst, lhs, rhs } => {
            if f.ty_of(*lhs) != *ty {
                return bad(*lhs, *ty);
            }
            if f.ty_of(*rhs) != *ty {
                return bad(*rhs, *ty);
            }
            let want = op.result_ty(*ty);
            if f.ty_of(*dst) != want {
                return bad(*dst, want);
            }
            None
        }
        Inst::Un { op, ty, dst, src } => {
            if f.ty_of(*src) != *ty {
                return bad(*src, *ty);
            }
            let want = op.result_ty(*ty);
            if f.ty_of(*dst) != want {
                return bad(*dst, want);
            }
            None
        }
        Inst::LoadI { dst, value } => {
            if f.ty_of(*dst) != value.ty() {
                return bad(*dst, value.ty());
            }
            None
        }
        Inst::Copy { dst, src } => {
            if f.ty_of(*dst) != f.ty_of(*src) {
                return bad(*dst, f.ty_of(*src));
            }
            None
        }
        Inst::Load { ty, dst, addr } => {
            if f.ty_of(*addr) != Ty::Int {
                return bad(*addr, Ty::Int);
            }
            if f.ty_of(*dst) != *ty {
                return bad(*dst, *ty);
            }
            None
        }
        Inst::Store { ty, addr, value } => {
            if f.ty_of(*addr) != Ty::Int {
                return bad(*addr, Ty::Int);
            }
            if f.ty_of(*value) != *ty {
                return bad(*value, *ty);
            }
            None
        }
        Inst::Call { dst, .. } => {
            if let Some((r, ty)) = dst {
                if f.ty_of(*r) != *ty {
                    return bad(*r, *ty);
                }
            }
            None
        }
        Inst::Phi { dst, args } => {
            let want = f.ty_of(*dst);
            for &(_, r) in args {
                if f.ty_of(r) != want {
                    return bad(r, want);
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Block;
    use crate::inst::BinOp;
    use crate::types::Const;

    #[test]
    fn accepts_well_formed() {
        let mut b = FunctionBuilder::new("ok", Some(Ty::Float));
        let x = b.param(Ty::Float);
        let y = b.bin(BinOp::Add, Ty::Float, x, x);
        b.ret(Some(y));
        assert!(b.finish().verify().is_ok());
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut f = Function::new("bad", None);
        let a = f.new_reg(Ty::Int);
        let b = f.new_reg(Ty::Float);
        let d = f.new_reg(Ty::Int);
        let mut blk = Block::new(Terminator::Return { value: None });
        blk.insts.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: d, lhs: a, rhs: b });
        f.add_block(blk);
        let e = f.verify().unwrap_err();
        assert!(e.message.contains("expected i"));
        assert_eq!(e.kind, VerifyErrorKind::TypeMismatch);
    }

    #[test]
    fn rejects_float_branch_condition() {
        let mut f = Function::new("bad", None);
        let c = f.new_reg(Ty::Float);
        f.add_block(Block::new(Terminator::Branch {
            cond: c,
            then_to: BlockId(1),
            else_to: BlockId(1),
        }));
        f.add_block(Block::new(Terminator::Return { value: None }));
        assert!(f.verify().is_err());
    }

    #[test]
    fn rejects_dangling_block_target() {
        let mut f = Function::new("bad", None);
        f.add_block(Block::new(Terminator::Jump { target: BlockId(9) }));
        let e = f.verify().unwrap_err();
        assert!(e.message.contains("missing block"));
        assert_eq!(e.kind, VerifyErrorKind::DanglingTarget);
    }

    #[test]
    fn rejects_unallocated_register() {
        let mut f = Function::new("bad", None);
        let mut blk = Block::new(Terminator::Return { value: None });
        blk.insts.push(Inst::Copy { dst: Reg(5), src: Reg(6) });
        f.add_block(blk);
        assert!(f.verify().is_err());
    }

    #[test]
    fn rejects_phi_after_non_phi() {
        let mut f = Function::new("bad", None);
        let a = f.new_reg(Ty::Int);
        let b = f.new_reg(Ty::Int);
        let mut blk = Block::new(Terminator::Return { value: None });
        blk.insts.push(Inst::LoadI { dst: a, value: Const::Int(0) });
        blk.insts.push(Inst::Phi { dst: b, args: vec![] });
        f.add_block(blk);
        let e = f.verify().unwrap_err();
        assert!(e.message.contains("after non-φ"));
        assert_eq!(e.kind, VerifyErrorKind::PhiNotPrefix);
    }

    #[test]
    fn rejects_phi_from_non_predecessor() {
        let mut f = Function::new("bad", None);
        let a = f.new_reg(Ty::Int);
        let b = f.new_reg(Ty::Int);
        let mut b0 = Block::new(Terminator::Jump { target: BlockId(1) });
        b0.insts.push(Inst::LoadI { dst: a, value: Const::Int(0) });
        f.add_block(b0);
        let mut b1 = Block::new(Terminator::Return { value: None });
        // b1's only predecessor is b0; claiming b1 is wrong.
        b1.insts.push(Inst::Phi { dst: b, args: vec![(BlockId(1), a)] });
        f.add_block(b1);
        let e = f.verify().unwrap_err();
        assert!(e.message.contains("not a predecessor"));
    }

    #[test]
    fn rejects_return_type_mismatch() {
        let mut f = Function::new("bad", Some(Ty::Float));
        let a = f.new_reg(Ty::Int);
        let mut blk = Block::new(Terminator::Return { value: Some(a) });
        blk.insts.push(Inst::LoadI { dst: a, value: Const::Int(0) });
        f.add_block(blk);
        assert!(f.verify().is_err());
    }

    #[test]
    fn rejects_value_return_from_subroutine() {
        let mut f = Function::new("bad", None);
        let a = f.new_reg(Ty::Int);
        let mut blk = Block::new(Terminator::Return { value: Some(a) });
        blk.insts.push(Inst::LoadI { dst: a, value: Const::Int(0) });
        f.add_block(blk);
        let e = f.verify().unwrap_err();
        assert!(e.message.contains("subroutine"));
    }

    #[test]
    fn collects_multiple_violations() {
        // Dangling target in b0 AND a type mismatch in b1: fail-fast
        // reports one, collect-all reports both.
        let mut f = Function::new("multi", None);
        let a = f.new_reg(Ty::Int);
        let b = f.new_reg(Ty::Float);
        let d = f.new_reg(Ty::Int);
        f.add_block(Block::new(Terminator::Jump { target: BlockId(9) }));
        let mut b1 = Block::new(Terminator::Return { value: None });
        b1.insts.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: d, lhs: a, rhs: b });
        f.add_block(b1);
        let all = verify_function_all(&f);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].kind, VerifyErrorKind::DanglingTarget);
        assert_eq!(all[1].kind, VerifyErrorKind::TypeMismatch);
        // The wrapper still reports exactly the first of them.
        assert_eq!(f.verify().unwrap_err(), all[0]);
    }

    #[test]
    fn unallocated_register_suppresses_type_check() {
        // `r5 <- copy r6` with neither allocated must report the register
        // errors without panicking inside the type checker.
        let mut f = Function::new("bad", None);
        let mut blk = Block::new(Terminator::Return { value: None });
        blk.insts.push(Inst::Copy { dst: Reg(5), src: Reg(6) });
        f.add_block(blk);
        let all = verify_function_all(&f);
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|e| e.kind == VerifyErrorKind::UnallocatedRegister));
    }
}
