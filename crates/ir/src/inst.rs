//! Three-address instructions: [`Inst`], [`BinOp`], [`UnOp`].

use crate::types::{BlockId, Const, Reg, Ty};

/// A binary ILOC operator.
///
/// Comparison operators produce an `Int` 0/1 regardless of the operand type
/// carried by the instruction. The *associative* operators — `Add`, `Mul`,
/// `Min`, `Max`, `And`, `Or`, `Xor` — are the ones global reassociation may
/// reorder (paper §2.1: "the choice of expression ordering occurs with
/// associative operations such as add, multiply, and, or, min, and max").
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction. Rewritten as `x + (-y)` by reassociation (Frailey).
    Sub,
    /// Multiplication.
    Mul,
    /// Division. Deliberately **not** rewritten as `x * 1/y` (paper §3.1,
    /// precision).
    Div,
    /// Remainder (integer only in practice).
    Rem,
    /// Minimum — associative and commutative.
    Min,
    /// Maximum — associative and commutative.
    Max,
    /// Bitwise/logical and.
    And,
    /// Bitwise/logical or.
    Or,
    /// Bitwise/logical xor.
    Xor,
    /// Left shift. Not associative — see paper §5.2 on why multiplies must
    /// not be turned into shifts before reassociation.
    Shl,
    /// Arithmetic right shift.
    Shr,
    /// Compare equal (result Int 0/1).
    CmpEq,
    /// Compare not-equal.
    CmpNe,
    /// Compare less-than.
    CmpLt,
    /// Compare less-or-equal.
    CmpLe,
    /// Compare greater-than.
    CmpGt,
    /// Compare greater-or-equal.
    CmpGe,
}

impl BinOp {
    /// Is the operator associative (and commutative), i.e. a candidate for
    /// global reassociation?
    pub fn is_associative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Is the operator commutative? (Associativity implies commutativity for
    /// every operator in this IR; `CmpEq`/`CmpNe` are commutative too.)
    pub fn is_commutative(self) -> bool {
        self.is_associative() || matches!(self, BinOp::CmpEq | BinOp::CmpNe)
    }

    /// Is this a comparison operator (producing an `Int` 0/1)?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::CmpEq | BinOp::CmpNe | BinOp::CmpLt | BinOp::CmpLe | BinOp::CmpGt | BinOp::CmpGe
        )
    }

    /// The type of the result, given the operand type carried by the
    /// instruction.
    pub fn result_ty(self, operand_ty: Ty) -> Ty {
        if self.is_comparison() {
            Ty::Int
        } else {
            operand_ty
        }
    }

    /// The textual mnemonic (matches the parser).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::CmpEq => "cmpeq",
            BinOp::CmpNe => "cmpne",
            BinOp::CmpLt => "cmplt",
            BinOp::CmpLe => "cmple",
            BinOp::CmpGt => "cmpgt",
            BinOp::CmpGe => "cmpge",
        }
    }

    /// All binary operators, for exhaustive testing.
    pub const ALL: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Min,
        BinOp::Max,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::CmpEq,
        BinOp::CmpNe,
        BinOp::CmpLt,
        BinOp::CmpLe,
        BinOp::CmpGt,
        BinOp::CmpGe,
    ];
}

/// A unary ILOC operator.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum UnOp {
    /// Arithmetic negation. Introduced by reassociation when it rewrites
    /// `x - y` as `x + (-y)`; the peephole pass reconstructs subtractions.
    Neg,
    /// Bitwise/logical not.
    Not,
    /// Integer → float conversion (FORTRAN `FLOAT`).
    I2F,
    /// Float → integer conversion, truncating (FORTRAN `INT`).
    F2I,
}

impl UnOp {
    /// The type of the result, given the operand type carried by the
    /// instruction.
    pub fn result_ty(self, operand_ty: Ty) -> Ty {
        match self {
            UnOp::Neg | UnOp::Not => operand_ty,
            UnOp::I2F => Ty::Float,
            UnOp::F2I => Ty::Int,
        }
    }

    /// The textual mnemonic (matches the parser).
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::I2F => "i2f",
            UnOp::F2I => "f2i",
        }
    }

    /// All unary operators, for exhaustive testing.
    pub const ALL: [UnOp; 4] = [UnOp::Neg, UnOp::Not, UnOp::I2F, UnOp::F2I];
}

/// A single three-address instruction.
///
/// Every instruction except `Store` defines at most one register. The `ty`
/// fields record the *operand* type; result types derive from it (see
/// [`BinOp::result_ty`]).
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// `dst <- op.ty lhs, rhs`
    Bin {
        /// The operator.
        op: BinOp,
        /// Operand type.
        ty: Ty,
        /// Target register.
        dst: Reg,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst <- op.ty src`
    Un {
        /// The operator.
        op: UnOp,
        /// Operand type.
        ty: Ty,
        /// Target register.
        dst: Reg,
        /// Operand.
        src: Reg,
    },
    /// `dst <- loadi value` — materialize a constant.
    LoadI {
        /// Target register.
        dst: Reg,
        /// The constant.
        value: Const,
    },
    /// `dst <- copy src` — a register-to-register copy. Copies are the
    /// defining instruction of *variable names* in the paper's terminology.
    Copy {
        /// Target register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst <- load.ty [addr]` — read one word of memory.
    Load {
        /// Type of the loaded value.
        ty: Ty,
        /// Target register.
        dst: Reg,
        /// Address register (Int).
        addr: Reg,
    },
    /// `store.ty [addr] <- value` — write one word of memory.
    Store {
        /// Type of the stored value.
        ty: Ty,
        /// Address register (Int).
        addr: Reg,
        /// Value register.
        value: Reg,
    },
    /// `dst <- call f(args...)` or `call f(args...)` — invoke a function or
    /// intrinsic. Calls are opaque to all value-based optimizations.
    Call {
        /// Target register and its type, if the callee returns a value.
        dst: Option<(Reg, Ty)>,
        /// Callee name (user function or intrinsic such as `sqrt`).
        callee: String,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// `dst <- phi [b1: r1, b2: r2, ...]` — SSA φ-node. Only present while a
    /// function is in SSA form; the interpreter rejects it.
    Phi {
        /// Target register.
        dst: Reg,
        /// One `(predecessor, value)` pair per CFG predecessor.
        args: Vec<(BlockId, Reg)>,
    },
}

/// The intrinsic library functions an [`Inst::Call`] may name in place of
/// a module function: the FORTRAN library calls of the benchmark suite.
/// The front end types calls to them and the interpreter evaluates them.
pub const INTRINSICS: [&str; 13] = [
    "sqrt", "exp", "log", "log10", "sin", "cos", "tan", "atan", "atan2", "pow", "abs", "sign",
    "mod",
];

/// Is `callee` one of the [`INTRINSICS`]?
pub fn is_intrinsic(callee: &str) -> bool {
    INTRINSICS.contains(&callee)
}

/// Is `callee` an intrinsic whose arguments and result keep the type of
/// its first argument (`abs`, `sign`, `mod`)? The other intrinsics take
/// and return floats.
pub fn is_polymorphic_intrinsic(callee: &str) -> bool {
    matches!(callee, "abs" | "sign" | "mod")
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::LoadI { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Phi { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => dst.map(|(r, _)| r),
            Inst::Store { .. } => None,
        }
    }

    /// Replace the defined register, if any.
    pub fn set_dst(&mut self, new: Reg) {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::LoadI { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Phi { dst, .. } => *dst = new,
            Inst::Call { dst, .. } => {
                if let Some((r, _)) = dst {
                    *r = new;
                }
            }
            Inst::Store { .. } => {}
        }
    }

    /// The registers used (read) by this instruction, in operand order.
    /// Iterating allocates nothing; collect when a `Vec` is needed.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + Clone + '_ {
        let fixed = match *self {
            Inst::Bin { lhs, rhs, .. } => [Some(lhs), Some(rhs)],
            Inst::Store { addr, value, .. } => [Some(addr), Some(value)],
            Inst::Un { src, .. } | Inst::Copy { src, .. } => [Some(src), None],
            Inst::Load { addr, .. } => [Some(addr), None],
            Inst::LoadI { .. } | Inst::Call { .. } | Inst::Phi { .. } => [None, None],
        };
        let args: &[Reg] = match self {
            Inst::Call { args, .. } => args,
            _ => &[],
        };
        let inputs: &[(BlockId, Reg)] = match self {
            Inst::Phi { args, .. } => args,
            _ => &[],
        };
        let inputs = inputs.iter().map(|&(_, r)| r);
        fixed.into_iter().flatten().chain(args.iter().copied()).chain(inputs)
    }

    /// Apply `f` to every used (read) register in place.
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Inst::Bin { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Un { src, .. } => *src = f(*src),
            Inst::LoadI { .. } => {}
            Inst::Copy { src, .. } => *src = f(*src),
            Inst::Load { addr, .. } => *addr = f(*addr),
            Inst::Store { addr, value, .. } => {
                *addr = f(*addr);
                *value = f(*value);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Phi { args, .. } => {
                for (_, r) in args {
                    *r = f(*r);
                }
            }
        }
    }

    /// Is this a *pure expression* — a computation with no side effects whose
    /// value depends only on its register operands (and constants)?
    ///
    /// Pure expressions are the candidates for value numbering, forward
    /// propagation and PRE. Loads are excluded (memory may change), calls are
    /// excluded (opaque), copies and φs are *variable names*, not
    /// expressions.
    pub fn is_expression(&self) -> bool {
        matches!(self, Inst::Bin { .. } | Inst::Un { .. } | Inst::LoadI { .. })
    }

    /// Does the instruction have side effects that forbid deleting it even
    /// when its result is unused?
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Call { .. })
    }

    /// The operand type carried by the instruction, if meaningful.
    pub fn ty(&self) -> Option<Ty> {
        match self {
            Inst::Bin { ty, .. }
            | Inst::Un { ty, .. }
            | Inst::Load { ty, .. }
            | Inst::Store { ty, .. } => Some(*ty),
            Inst::LoadI { value, .. } => Some(value.ty()),
            Inst::Call { dst, .. } => dst.map(|(_, t)| t),
            Inst::Copy { .. } | Inst::Phi { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn associativity_classification() {
        assert!(BinOp::Add.is_associative());
        assert!(BinOp::Mul.is_associative());
        assert!(BinOp::Min.is_associative());
        assert!(BinOp::Max.is_associative());
        assert!(BinOp::And.is_associative());
        assert!(BinOp::Or.is_associative());
        assert!(BinOp::Xor.is_associative());
        assert!(!BinOp::Sub.is_associative());
        assert!(!BinOp::Div.is_associative());
        assert!(!BinOp::Shl.is_associative());
        assert!(!BinOp::CmpLt.is_associative());
    }

    #[test]
    fn commutativity_includes_eq_ne() {
        assert!(BinOp::CmpEq.is_commutative());
        assert!(BinOp::CmpNe.is_commutative());
        assert!(!BinOp::CmpLt.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
    }

    #[test]
    fn comparison_results_are_int() {
        for op in BinOp::ALL {
            if op.is_comparison() {
                assert_eq!(op.result_ty(Ty::Float), Ty::Int);
            } else {
                assert_eq!(op.result_ty(Ty::Float), Ty::Float);
                assert_eq!(op.result_ty(Ty::Int), Ty::Int);
            }
        }
    }

    #[test]
    fn unop_result_types() {
        assert_eq!(UnOp::Neg.result_ty(Ty::Float), Ty::Float);
        assert_eq!(UnOp::Not.result_ty(Ty::Int), Ty::Int);
        assert_eq!(UnOp::I2F.result_ty(Ty::Int), Ty::Float);
        assert_eq!(UnOp::F2I.result_ty(Ty::Float), Ty::Int);
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in BinOp::ALL {
            assert!(seen.insert(op.mnemonic()));
        }
        for op in UnOp::ALL {
            assert!(seen.insert(op.mnemonic()));
        }
    }

    #[test]
    fn inst_dst_and_uses() {
        let i = Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        assert_eq!(i.dst(), Some(Reg(2)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg(0), Reg(1)]);
        assert!(i.is_expression());
        assert!(!i.has_side_effects());

        let s = Inst::Store { ty: Ty::Float, addr: Reg(3), value: Reg(4) };
        assert_eq!(s.dst(), None);
        assert_eq!(s.uses().collect::<Vec<_>>(), vec![Reg(3), Reg(4)]);
        assert!(!s.is_expression());
        assert!(s.has_side_effects());

        let c = Inst::Call {
            dst: Some((Reg(5), Ty::Float)),
            callee: "sqrt".into(),
            args: vec![Reg(4)],
        };
        assert_eq!(c.dst(), Some(Reg(5)));
        assert!(c.has_side_effects());
        assert!(!c.is_expression());
    }

    #[test]
    fn map_uses_rewrites_operands() {
        let mut i =
            Inst::Phi { dst: Reg(9), args: vec![(BlockId(0), Reg(1)), (BlockId(1), Reg(2))] };
        i.map_uses(|r| Reg(r.0 + 10));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Reg(11), Reg(12)]);
        assert_eq!(i.dst(), Some(Reg(9)));
    }

    #[test]
    fn set_dst_replaces_target() {
        let mut i = Inst::Copy { dst: Reg(1), src: Reg(0) };
        i.set_dst(Reg(7));
        assert_eq!(i.dst(), Some(Reg(7)));
        let mut s = Inst::Store { ty: Ty::Int, addr: Reg(0), value: Reg(1) };
        s.set_dst(Reg(9)); // no-op
        assert_eq!(s.dst(), None);
    }

    #[test]
    fn ty_of_insts() {
        assert_eq!(Inst::LoadI { dst: Reg(0), value: Const::Float(1.0) }.ty(), Some(Ty::Float));
        assert_eq!(Inst::Copy { dst: Reg(0), src: Reg(1) }.ty(), None);
    }
}
