//! Basic blocks, terminators, functions and modules.

use crate::inst::Inst;
use crate::types::{BlockId, Reg, Ty};

/// The control-flow-transfer instruction closing a basic block.
///
/// Terminators count toward the dynamic operation count: the paper reports
/// "dynamic operation count, **including branches**".
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch: transfers to `then_to` when `cond` is non-zero,
    /// else to `else_to`.
    Branch {
        /// Condition register (Int 0/1).
        cond: Reg,
        /// Target when true.
        then_to: BlockId,
        /// Target when false.
        else_to: BlockId,
    },
    /// Return from the function, optionally with a value.
    Return {
        /// The returned register, if the function returns a value.
        value: Option<Reg>,
    },
}

impl Terminator {
    /// The CFG successors named by this terminator, in order (a branch
    /// with equal targets names its target twice). Allocates nothing.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + Clone {
        let (first, second) = match *self {
            Terminator::Jump { target } => (Some(target), None),
            Terminator::Branch { then_to, else_to, .. } => (Some(then_to), Some(else_to)),
            Terminator::Return { .. } => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// The registers read by this terminator (at most one). Allocates
    /// nothing.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + Clone {
        match *self {
            Terminator::Branch { cond, .. } => Some(cond),
            Terminator::Return { value } => value,
            Terminator::Jump { .. } => None,
        }
        .into_iter()
    }

    /// Apply `f` to every used register in place.
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Terminator::Branch { cond, .. } => *cond = f(*cond),
            Terminator::Return { value: Some(v) } => *v = f(*v),
            _ => {}
        }
    }

    /// Redirect every successor edge equal to `from` to `to`.
    pub fn retarget(&mut self, from: BlockId, to: BlockId) {
        match self {
            Terminator::Jump { target } => {
                if *target == from {
                    *target = to;
                }
            }
            Terminator::Branch { then_to, else_to, .. } => {
                if *then_to == from {
                    *then_to = to;
                }
                if *else_to == from {
                    *else_to = to;
                }
            }
            Terminator::Return { .. } => {}
        }
    }
}

/// A basic block: a label, straight-line instructions, one terminator.
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    /// The instructions, in execution order. φ-nodes, when present, must
    /// form a prefix of this vector.
    pub insts: Vec<Inst>,
    /// The closing control transfer.
    pub term: Terminator,
}

impl Block {
    /// A new empty block ending in `term`.
    pub fn new(term: Terminator) -> Self {
        Block { insts: Vec::new(), term }
    }

    /// Iterator over the φ-nodes at the head of the block.
    pub fn phis(&self) -> impl Iterator<Item = &Inst> {
        self.insts.iter().take_while(|i| matches!(i, Inst::Phi { .. }))
    }

    /// Number of φ-nodes at the head of the block.
    pub fn phi_count(&self) -> usize {
        self.insts.iter().take_while(|i| matches!(i, Inst::Phi { .. })).count()
    }
}

/// A function: parameters, typed virtual registers, and a block vector whose
/// index 0 is the entry block.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Function name (unique within a [`Module`]).
    pub name: String,
    /// Parameter registers, defined on entry, in call order.
    pub params: Vec<Reg>,
    /// Return type, or `None` for subroutines.
    pub ret_ty: Option<Ty>,
    /// The basic blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Type of every register, indexed by [`Reg::index`].
    pub reg_ty: Vec<Ty>,
}

impl Function {
    /// Create an empty function with no blocks (use [`crate::FunctionBuilder`]
    /// for convenient construction).
    pub fn new(name: impl Into<String>, ret_ty: Option<Ty>) -> Self {
        Function {
            name: name.into(),
            params: Vec::new(),
            ret_ty,
            blocks: Vec::new(),
            reg_ty: Vec::new(),
        }
    }

    /// Allocate a fresh virtual register of type `ty`.
    pub fn new_reg(&mut self, ty: Ty) -> Reg {
        let r = Reg(self.reg_ty.len() as u32);
        self.reg_ty.push(ty);
        r
    }

    /// Number of virtual registers allocated so far.
    pub fn reg_count(&self) -> usize {
        self.reg_ty.len()
    }

    /// The type of register `r`.
    ///
    /// # Panics
    /// Panics if `r` was not allocated by this function.
    pub fn ty_of(&self, r: Reg) -> Ty {
        self.reg_ty[r.index()]
    }

    /// Append a new block and return its id.
    pub fn add_block(&mut self, block: Block) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(block);
        id
    }

    /// Shared access to a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterator over `(BlockId, &Block)` pairs in index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> + Clone {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Static operation count: instructions plus terminators, the metric of
    /// the paper's Table 2 (code expansion from forward propagation).
    pub fn static_op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }

    /// Total number of (non-terminator) instructions.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Run the structural verifier; see [`crate::verify`].
    pub fn verify(&self) -> Result<(), crate::VerifyError> {
        crate::verify::verify_function(self)
    }

    /// Renumber the registers densely, dropping every register that no
    /// parameter, instruction or terminator mentions. Returns how many
    /// were dropped.
    ///
    /// The renumbering is monotone: `a < b` holds after it exactly when it
    /// held before, so every decision a pass takes by comparing register
    /// numbers (a lowest-numbered representative, a canonical operand
    /// order) comes out the same on the compacted function. SSA
    /// construction and the passes that rebuild SSA allocate a fresh
    /// register per definition and call this before they return, so later
    /// register-indexed tables are sized by the registers in use rather
    /// than by every register ever allocated.
    ///
    /// # Panics
    /// Panics if the function names a register it never allocated.
    pub fn compact_regs(&mut self) -> usize {
        const DROPPED: u32 = u32::MAX;
        let n = self.reg_ty.len();
        let mut map = vec![DROPPED; n];
        let mut mark = |r: Reg| {
            map[r.index()] = 0;
            r
        };
        for &p in &self.params {
            mark(p);
        }
        for block in &mut self.blocks {
            for inst in &mut block.insts {
                if let Some(d) = inst.dst() {
                    mark(d);
                }
                inst.map_uses(&mut mark);
            }
            block.term.map_uses(&mut mark);
        }
        // Slide the kept types down in place: a register's new number is
        // never above its old one.
        let mut kept = 0;
        for (old, slot) in map.iter_mut().enumerate() {
            if *slot != DROPPED {
                *slot = kept as u32;
                self.reg_ty[kept] = self.reg_ty[old];
                kept += 1;
            }
        }
        let dropped = n - kept;
        if dropped == 0 {
            return 0;
        }
        self.reg_ty.truncate(kept);
        let new = |r: Reg| Reg(map[r.index()]);
        for p in &mut self.params {
            *p = new(*p);
        }
        for block in &mut self.blocks {
            for inst in &mut block.insts {
                if let Some(d) = inst.dst() {
                    inst.set_dst(new(d));
                }
                inst.map_uses(new);
            }
            block.term.map_uses(new);
        }
        dropped
    }
}

/// A compilation unit: functions plus the size of the statically-allocated
/// data segment (arrays), in words.
///
/// Mini-FORTRAN arrays are laid out by the front end at fixed addresses, so
/// the interpreter only needs `data_words` to size its memory.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Module {
    /// The functions of the unit. The entry point for execution is chosen by
    /// the caller (the interpreter takes a function name).
    pub functions: Vec<Function>,
    /// Words of statically allocated array storage.
    pub data_words: usize,
}

impl Module {
    /// An empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Total static operation count over all functions.
    pub fn static_op_count(&self) -> usize {
        self.functions.iter().map(Function::static_op_count).sum()
    }

    /// Verify every function in the module.
    pub fn verify(&self) -> Result<(), crate::VerifyError> {
        for f in &self.functions {
            f.verify()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Inst};
    use crate::types::Const;

    fn sample_function() -> Function {
        let mut f = Function::new("t", Some(Ty::Int));
        let a = f.new_reg(Ty::Int);
        f.params.push(a);
        let one = f.new_reg(Ty::Int);
        let sum = f.new_reg(Ty::Int);
        let mut b = Block::new(Terminator::Return { value: Some(sum) });
        b.insts.push(Inst::LoadI { dst: one, value: Const::Int(1) });
        b.insts.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: sum, lhs: a, rhs: one });
        f.add_block(b);
        f
    }

    #[test]
    fn function_accounting() {
        let f = sample_function();
        assert_eq!(f.reg_count(), 3);
        assert_eq!(f.inst_count(), 2);
        assert_eq!(f.static_op_count(), 3); // 2 insts + 1 terminator
        assert_eq!(f.ty_of(Reg(0)), Ty::Int);
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(
            Terminator::Jump { target: BlockId(3) }.successors().collect::<Vec<_>>(),
            vec![BlockId(3)]
        );
        let b = Terminator::Branch { cond: Reg(0), then_to: BlockId(1), else_to: BlockId(2) };
        assert_eq!(b.successors().collect::<Vec<_>>(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(b.uses().collect::<Vec<_>>(), vec![Reg(0)]);
        assert_eq!(Terminator::Return { value: None }.successors().collect::<Vec<_>>(), vec![]);
    }

    #[test]
    fn terminator_retarget() {
        let mut t = Terminator::Branch { cond: Reg(0), then_to: BlockId(1), else_to: BlockId(1) };
        t.retarget(BlockId(1), BlockId(5));
        assert_eq!(t.successors().collect::<Vec<_>>(), vec![BlockId(5), BlockId(5)]);
    }

    #[test]
    fn phi_prefix_counting() {
        let mut b = Block::new(Terminator::Return { value: None });
        b.insts.push(Inst::Phi { dst: Reg(0), args: vec![] });
        b.insts.push(Inst::Phi { dst: Reg(1), args: vec![] });
        b.insts.push(Inst::Copy { dst: Reg(2), src: Reg(0) });
        assert_eq!(b.phi_count(), 2);
        assert_eq!(b.phis().count(), 2);
    }

    /// Parameters r2 and r0, in that call order, around the unreferenced
    /// r1, r3 and r5.
    fn sparse_function() -> Function {
        let mut f = Function::new("s", Some(Ty::Int));
        let a = f.new_reg(Ty::Int);
        f.new_reg(Ty::Float);
        let b = f.new_reg(Ty::Int);
        f.new_reg(Ty::Int);
        let d = f.new_reg(Ty::Int);
        f.new_reg(Ty::Float);
        let p = f.new_reg(Ty::Int);
        f.params = vec![b, a];
        let mut entry =
            Block::new(Terminator::Branch { cond: d, then_to: BlockId(1), else_to: BlockId(1) });
        entry.insts.push(Inst::Bin { op: BinOp::Sub, ty: Ty::Int, dst: d, lhs: b, rhs: a });
        f.add_block(entry);
        let mut exit = Block::new(Terminator::Return { value: Some(p) });
        exit.insts.push(Inst::Bin { op: BinOp::Mul, ty: Ty::Int, dst: p, lhs: d, rhs: a });
        f.add_block(exit);
        f
    }

    #[test]
    fn compact_regs_drops_unreferenced_registers_monotonically() {
        let mut f = sparse_function();
        assert!(f.verify().is_ok());
        assert_eq!(f.compact_regs(), 3);
        assert_eq!(f.reg_count(), 4);
        assert!(f.verify().is_ok(), "{f}");
        // r0, r2, r4, r6 become r0..r3 in the same order; parameters keep
        // their call order and every type travels with its register.
        assert_eq!(f.params, vec![Reg(1), Reg(0)]);
        assert_eq!(f.reg_ty, vec![Ty::Int; 4]);
        assert_eq!(
            format!("{f}"),
            "function s(r1:i, r0:i) -> i\n\
             block b0:\n  r2 <- sub.i r1, r0\n  cbr r2 -> b1, b1\n\
             block b1:\n  r3 <- mul.i r2, r0\n  ret r3\nend"
        );
    }

    #[test]
    fn compact_regs_is_idempotent_and_keeps_dense_functions() {
        let mut f = sparse_function();
        f.compact_regs();
        let once = f.clone();
        assert_eq!(f.compact_regs(), 0);
        assert_eq!(f, once);
        let mut dense = sample_function();
        let before = dense.clone();
        assert_eq!(dense.compact_regs(), 0);
        assert_eq!(dense, before);
    }

    #[test]
    fn compact_regs_keeps_unused_parameters() {
        let mut f = Function::new("p", None);
        f.new_reg(Ty::Int);
        let unused = f.new_reg(Ty::Float);
        f.params.push(unused);
        f.add_block(Block::new(Terminator::Return { value: None }));
        assert_eq!(f.compact_regs(), 1);
        assert_eq!(f.params, vec![Reg(0)]);
        assert_eq!(f.ty_of(Reg(0)), Ty::Float);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        m.functions.push(sample_function());
        assert!(m.function("t").is_some());
        assert!(m.function("missing").is_none());
        assert_eq!(m.static_op_count(), 3);
        m.function_mut("t").unwrap().name = "u".into();
        assert!(m.function("u").is_some());
    }
}
