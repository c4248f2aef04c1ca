//! Side-effect / purity classification of instructions.
//!
//! Several consumers need to know what an instruction may observe or
//! change: the redundancy auditor only reasons about [`Effect::Pure`]
//! computations, the dead-value rule flags unused results of
//! [removable](is_removable) instructions, and future schedulers can use
//! the classification to decide what may move across what.

use epre_ir::Inst;

/// What an instruction may observe or change beyond its register result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Effect {
    /// A function of its register operands alone: arithmetic, constants,
    /// copies, φ-nodes. Safe to re-order, duplicate, or delete (when the
    /// result is dead).
    Pure,
    /// Reads memory (`load`): the result depends on the store; deletable
    /// when dead, but not a value-numbering candidate across stores.
    ReadsMemory,
    /// Writes memory (`store`): observable; never deletable.
    WritesMemory,
    /// A call: may read and write memory and perform I/O; opaque to every
    /// analysis here.
    Opaque,
}

/// Classify one instruction.
pub fn effect_of(inst: &Inst) -> Effect {
    match inst {
        Inst::Bin { .. }
        | Inst::Un { .. }
        | Inst::LoadI { .. }
        | Inst::Copy { .. }
        | Inst::Phi { .. } => Effect::Pure,
        Inst::Load { .. } => Effect::ReadsMemory,
        Inst::Store { .. } => Effect::WritesMemory,
        Inst::Call { .. } => Effect::Opaque,
    }
}

/// Whether the instruction can be deleted when its result is unused: true
/// for [`Effect::Pure`] and [`Effect::ReadsMemory`] (a dead load observes
/// nothing), false for writes and calls.
pub fn is_removable(inst: &Inst) -> bool {
    matches!(effect_of(inst), Effect::Pure | Effect::ReadsMemory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, Const, Reg, Ty};

    #[test]
    fn classification_matches_ir_side_effect_flag() {
        // The IR's own `has_side_effects` must be exactly the
        // non-removable set.
        let samples = vec![
            Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: Reg(0), lhs: Reg(1), rhs: Reg(2) },
            Inst::LoadI { dst: Reg(0), value: Const::Int(1) },
            Inst::Copy { dst: Reg(0), src: Reg(1) },
            Inst::Load { ty: Ty::Int, dst: Reg(0), addr: Reg(1) },
            Inst::Store { ty: Ty::Int, addr: Reg(0), value: Reg(1) },
            Inst::Call { dst: None, callee: "t".into(), args: vec![] },
        ];
        for inst in samples {
            assert_eq!(inst.has_side_effects(), !is_removable(&inst), "{inst}");
        }
    }

    #[test]
    fn loads_read_but_do_not_write() {
        let load = Inst::Load { ty: Ty::Int, dst: Reg(0), addr: Reg(1) };
        assert_eq!(effect_of(&load), Effect::ReadsMemory);
        assert!(is_removable(&load));
    }
}
