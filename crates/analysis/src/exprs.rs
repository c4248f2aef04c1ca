//! The lexical expression universe — PRE's problem domain.
//!
//! PRE, as Morel and Renvoise defined it and as the paper uses it, works on
//! **lexically identical expressions**: occurrences of the same operator
//! applied to the same register names. Under the naming discipline of §2.2
//! every lexical expression also has a single canonical *expression name*
//! (its target register), which is what makes deletion and insertion simple
//! register operations.
//!
//! [`ExprUniverse`] enumerates the distinct pure expressions of a function
//! and assigns each a dense [`ExprId`] used to index PRE's bit sets.
//! Operands of commutative operators are stored in canonical (sorted)
//! order so `a + b` and `b + a` denote the same expression.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use epre_cfg::Csr;
use epre_ir::{BinOp, BlockId, Const, Function, Inst, MixMap, Reg, Ty, UnOp};

/// Dense identifier of an expression in a function's [`ExprUniverse`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ExprId(pub u32);

impl ExprId {
    /// The id's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A lexical expression: operator plus operand register names (or the
/// constant, for `loadi`). Constants are expressions too — the paper's
/// naming example treats `1` as the expression named `r1`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExprKey {
    /// A binary expression. For commutative operators the operands are
    /// stored with `lhs <= rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Operand type.
        ty: Ty,
        /// Left operand (canonicalized).
        lhs: Reg,
        /// Right operand (canonicalized).
        rhs: Reg,
    },
    /// A unary expression.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand type.
        ty: Ty,
        /// Operand.
        src: Reg,
    },
    /// A constant (`loadi`).
    Const(Const),
}

impl Hash for ExprKey {
    /// Feeds the hasher one packed 128-bit word: the universe hashes every
    /// instruction, and a hasher costs per call.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let head =
            |tag: u128, op: u8, ty: Ty| tag << 80 | u128::from(op) << 72 | (ty as u128) << 64;
        state.write_u128(match *self {
            ExprKey::Bin { op, ty, lhs, rhs } => {
                head(0, op as u8, ty) | u128::from(lhs.0) << 32 | u128::from(rhs.0)
            }
            ExprKey::Un { op, ty, src } => head(1, op as u8, ty) | u128::from(src.0),
            ExprKey::Const(Const::Int(v)) => head(2, 0, Ty::Int) | u128::from(v as u64),
            ExprKey::Const(Const::Float(v)) => head(2, 0, Ty::Float) | u128::from(v.to_bits()),
        });
    }
}

impl ExprKey {
    /// Build the canonical key for an instruction, or `None` if the
    /// instruction is not a pure expression (copy, φ, load, store, call).
    pub fn of_inst(inst: &Inst) -> Option<ExprKey> {
        match inst {
            Inst::Bin { op, ty, lhs, rhs, .. } => {
                let (lhs, rhs) =
                    if op.is_commutative() && rhs < lhs { (*rhs, *lhs) } else { (*lhs, *rhs) };
                Some(ExprKey::Bin { op: *op, ty: *ty, lhs, rhs })
            }
            Inst::Un { op, ty, src, .. } => Some(ExprKey::Un { op: *op, ty: *ty, src: *src }),
            Inst::LoadI { value, .. } => Some(ExprKey::Const(*value)),
            _ => None,
        }
    }

    /// The register operands of the expression, in operand order (none for
    /// constants). Allocates nothing.
    pub fn operands(&self) -> impl Iterator<Item = Reg> + Clone {
        match *self {
            ExprKey::Bin { lhs, rhs, .. } => [Some(lhs), Some(rhs)],
            ExprKey::Un { src, .. } => [Some(src), None],
            ExprKey::Const(_) => [None, None],
        }
        .into_iter()
        .flatten()
    }
}

/// The set of distinct pure expressions of one function, densely numbered.
///
/// Also records, for each expression, the destination register of its first
/// occurrence. Under the §2.2 naming discipline every occurrence has the
/// same destination; [`ExprUniverse::is_disciplined`] reports whether that
/// held, and PRE refuses to transform expressions for which it did not.
///
/// A universe may also hold only some of the function's expressions (see
/// [`ExprUniverse::rebuild`]); the others then read as non-expressions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExprUniverse {
    by_key: MixMap<ExprKey, ExprId>,
    keys: Vec<ExprKey>,
    /// Canonical destination register per expression.
    names: Vec<Reg>,
    /// Whether every occurrence of the expression targets `names[e]`.
    disciplined: Vec<bool>,
    /// Row `r` lists the expressions that use register `r` as an operand,
    /// in id order.
    used_by: Csr<ExprId>,
    /// The expression of every instruction, block by block in program
    /// order (`None` for copies, φs, loads, stores, calls and
    /// non-members).
    inst_exprs: Vec<Option<ExprId>>,
    /// Where each block's run starts in `inst_exprs`, plus the end.
    block_starts: Vec<usize>,
}

impl ExprUniverse {
    /// Scan `f` and build its expression universe: [`ExprUniverse::rebuild`]
    /// with every key a member. Every table is sized up front from the
    /// instruction count, so the number of allocations does not grow with
    /// the function.
    pub fn new(f: &Function) -> Self {
        let mut universe = ExprUniverse::default();
        universe.rebuild(f, |_| true);
        universe
    }

    /// Rescan `f` into `self`, keeping only the expressions whose key
    /// `member` accepts. Members are numbered in order of first occurrence,
    /// so the ids of a restricted universe keep the relative order they
    /// have in the full one, and each member's name and discipline are what
    /// the full universe records for it; [`ExprUniverse::used_by`] lists
    /// member readers only. Instructions whose key is no member map to
    /// `None`, like non-expressions. The tables keep their storage, so a
    /// rescan that fits allocates nothing.
    pub fn rebuild(&mut self, f: &Function, mut member: impl FnMut(&ExprKey) -> bool) {
        let n = f.inst_count();
        let ExprUniverse { by_key, keys, names, disciplined, used_by, inst_exprs, block_starts } =
            self;
        by_key.clear();
        by_key.reserve(n);
        keys.clear();
        keys.reserve(n);
        names.clear();
        names.reserve(n);
        disciplined.clear();
        disciplined.reserve(n);
        inst_exprs.clear();
        inst_exprs.reserve(n);
        block_starts.clear();
        block_starts.reserve(f.blocks.len() + 1);
        for block in &f.blocks {
            block_starts.push(inst_exprs.len());
            for inst in &block.insts {
                let id = ExprKey::of_inst(inst).filter(&mut member).map(|key| {
                    let dst = inst.dst().expect("expressions define a register");
                    match by_key.entry(key) {
                        Entry::Occupied(e) => {
                            let id = *e.get();
                            if names[id.index()] != dst {
                                disciplined[id.index()] = false;
                            }
                            id
                        }
                        Entry::Vacant(e) => {
                            let id = ExprId(keys.len() as u32);
                            keys.push(e.key().clone());
                            e.insert(id);
                            names.push(dst);
                            disciplined.push(true);
                            id
                        }
                    }
                });
                inst_exprs.push(id);
            }
        }
        block_starts.push(inst_exprs.len());
        let operand_of = keys
            .iter()
            .enumerate()
            .flat_map(|(e, key)| key.operands().map(move |r| (r.index(), ExprId(e as u32))));
        used_by.refill(f.reg_count(), operand_of);
    }

    /// Number of distinct expressions.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the function contains no pure expressions.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Look up the id of an instruction's expression.
    pub fn id_of_inst(&self, inst: &Inst) -> Option<ExprId> {
        ExprKey::of_inst(inst).and_then(|k| self.id(&k))
    }

    /// Look up the id of an expression by its key.
    pub fn id(&self, key: &ExprKey) -> Option<ExprId> {
        self.by_key.get(key).copied()
    }

    /// The key of expression `e`.
    pub fn key(&self, e: ExprId) -> &ExprKey {
        &self.keys[e.index()]
    }

    /// The canonical destination register of `e` (its *expression name*).
    pub fn name(&self, e: ExprId) -> Reg {
        self.names[e.index()]
    }

    /// Did every occurrence of `e` target the same register? PRE may only
    /// move disciplined expressions.
    pub fn is_disciplined(&self, e: ExprId) -> bool {
        self.disciplined[e.index()]
    }

    /// Expressions that read register `r`.
    pub fn used_by(&self, r: Reg) -> &[ExprId] {
        if r.index() < self.used_by.rows() {
            self.used_by.row(r.index())
        } else {
            &[]
        }
    }

    /// The expression of each instruction of block `b` of the scanned
    /// function, parallel to its `insts` (`None` where the instruction is
    /// not a pure expression). Only valid while the block is unchanged.
    pub fn block_exprs(&self, b: BlockId) -> &[Option<ExprId>] {
        &self.inst_exprs[self.block_starts[b.index()]..self.block_starts[b.index() + 1]]
    }

    /// Iterate all `(id, key)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ExprId, &ExprKey)> {
        self.keys.iter().enumerate().map(|(i, k)| (ExprId(i as u32), k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::FunctionBuilder;

    #[test]
    fn commutative_operands_canonicalize() {
        let a = Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: Reg(2), lhs: Reg(1), rhs: Reg(0) };
        let b = Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: Reg(3), lhs: Reg(0), rhs: Reg(1) };
        assert_eq!(ExprKey::of_inst(&a), ExprKey::of_inst(&b));
        // Subtraction is not commutative.
        let c = Inst::Bin { op: BinOp::Sub, ty: Ty::Int, dst: Reg(2), lhs: Reg(1), rhs: Reg(0) };
        let d = Inst::Bin { op: BinOp::Sub, ty: Ty::Int, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        assert_ne!(ExprKey::of_inst(&c), ExprKey::of_inst(&d));
    }

    #[test]
    fn non_expressions_have_no_key() {
        assert_eq!(ExprKey::of_inst(&Inst::Copy { dst: Reg(0), src: Reg(1) }), None);
        assert_eq!(ExprKey::of_inst(&Inst::Load { ty: Ty::Int, dst: Reg(0), addr: Reg(1) }), None);
        assert_eq!(
            ExprKey::of_inst(&Inst::Call { dst: None, callee: "f".into(), args: vec![] }),
            None
        );
    }

    #[test]
    fn universe_enumerates_distinct_expressions() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s1 = b.bin(BinOp::Add, Ty::Int, x, y);
        let _s2 = b.bin(BinOp::Add, Ty::Int, y, x); // same expression, new name
        let p = b.bin(BinOp::Mul, Ty::Int, x, y);
        let _c = b.loadi(Const::Int(5));
        let q = b.bin(BinOp::Add, Ty::Int, s1, p);
        b.ret(Some(q));
        let f = b.finish();
        let u = ExprUniverse::new(&f);
        // add(x,y), mul(x,y), const 5, add(s1,p) — the commuted add merges.
        assert_eq!(u.len(), 4);
        assert!(!u.is_empty());
        // The commuted duplicate broke the naming discipline for add(x,y).
        let add_id = u
            .iter()
            .find(|(_, k)| matches!(k, ExprKey::Bin { op: BinOp::Add, lhs, .. } if *lhs == x))
            .unwrap()
            .0;
        assert!(!u.is_disciplined(add_id));
        assert_eq!(u.name(add_id), s1);
        // mul is disciplined (single occurrence).
        let mul_id =
            u.iter().find(|(_, k)| matches!(k, ExprKey::Bin { op: BinOp::Mul, .. })).unwrap().0;
        assert!(u.is_disciplined(mul_id));
    }

    #[test]
    fn used_by_maps_operands_to_expressions() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s = b.bin(BinOp::Add, Ty::Int, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let u = ExprUniverse::new(&f);
        assert_eq!(u.used_by(x).len(), 1);
        assert_eq!(u.used_by(y).len(), 1);
        assert_eq!(u.used_by(s).len(), 0);
        let id = u.used_by(x)[0];
        assert_eq!(u.key(id).operands().collect::<Vec<_>>(), vec![x, y]);
    }

    #[test]
    fn id_of_inst_round_trips() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let s = b.bin(BinOp::Add, Ty::Int, x, x);
        b.ret(Some(s));
        let f = b.finish();
        let u = ExprUniverse::new(&f);
        let inst = &f.block(epre_ir::BlockId::ENTRY).insts[0];
        let id = u.id_of_inst(inst).unwrap();
        assert_eq!(u.name(id), s);
    }
}
