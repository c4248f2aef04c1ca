//! SSA destruction: φ-nodes become copies in predecessor blocks.
//!
//! This is the conventional Briggs-style out-of-SSA translation:
//!
//! 1. split every critical edge (a φ input arriving along a critical edge
//!    would otherwise be copied on a path that doesn't reach the φ),
//! 2. for each block with φs and each predecessor, gather the *parallel*
//!    copy set `{dst_i <- arg_i}` and sequentialize it, inserting a cycle-
//!    breaking temporary when the copies permute registers (the classic
//!    "swap problem"),
//! 3. append the sequentialized copies to the predecessor, before its
//!    terminator, and delete the φs.
//!
//! The paper's forward-propagation step performs the same replacement as
//! its first action ("we first remove each φ-node x <- φ(y, z) by inserting
//! the copies x <- y and z <- z at the end of the appropriate predecessor
//! blocks", §3.1), so this module is shared between the reassociation pass
//! and the generic out-of-SSA epilogue used after SCCP, GVN, and DCE.

use epre_cfg::edit::split_critical_edges;
use epre_cfg::Csr;
use epre_ir::{Function, Inst, Reg};

/// Replace all φ-nodes of `f` with copies; on return the function contains
/// no φ-nodes and is executable by the interpreter.
pub fn destroy_ssa(f: &mut Function) {
    if f.blocks.iter().all(|b| b.phi_count() == 0) {
        return;
    }
    split_critical_edges(f);

    // Collect the parallel copy set per predecessor, indexed by block so
    // the copies (and any cycle-breaking temporaries) are emitted in
    // block order on every run.
    let phis = f.blocks.iter().flat_map(|block| {
        block.insts.iter().map_while(|inst| match inst {
            Inst::Phi { dst, args } => Some((*dst, args)),
            _ => None,
        })
    });
    let copies =
        phis.flat_map(|(dst, args)| args.iter().map(move |&(pb, src)| (pb.index(), (dst, src))));
    let edge_copies = Csr::from_pairs(f.blocks.len(), copies);
    for block in &mut f.blocks {
        let n = block.phi_count();
        block.insts.drain(..n);
    }

    // Insert sequentialized copies at the end of each predecessor.
    let mut parallel = ParallelCopies::default();
    for pb in 0..edge_copies.rows() {
        let copies = edge_copies.row(pb);
        if copies.is_empty() {
            continue;
        }
        let seq = parallel.sequentialize(copies, |ty_src| f.new_reg(f.ty_of(ty_src)));
        f.blocks[pb].insts.extend(seq.iter().map(|&(dst, src)| Inst::Copy { dst, src }));
    }
}

/// Sequentializes parallel copy sets, reusing its buffers from one set to
/// the next.
#[derive(Default)]
struct ParallelCopies {
    /// Copies not emitted yet: destination, source, and the register that
    /// holds the source's value now. Copy sets are small, so finding the
    /// copies of one source is a scan.
    pending: Vec<(Reg, Reg, Reg)>,
    /// The sequential copies, `(dst, src)`.
    out: Vec<(Reg, Reg)>,
}

impl ParallelCopies {
    /// Order a parallel copy set so sequential execution computes the
    /// parallel semantics, inserting a temporary to break each register
    /// cycle.
    ///
    /// `fresh(reg)` must return a new register with the same type as `reg`.
    fn sequentialize(
        &mut self,
        copies: &[(Reg, Reg)],
        mut fresh: impl FnMut(Reg) -> Reg,
    ) -> &[(Reg, Reg)] {
        // Drop no-op copies.
        self.pending.clear();
        self.pending.reserve(copies.len());
        self.pending.extend(copies.iter().filter(|(d, s)| d != s).map(|&(d, s)| (d, s, s)));
        // Each temporary breaks a cycle of at least two copies.
        self.out.clear();
        self.out.reserve(self.pending.len() * 3 / 2);
        while !self.pending.is_empty() {
            // A copy is safe when its destination holds no pending value.
            let pending = &self.pending;
            if let Some(i) =
                pending.iter().position(|&(d, ..)| pending.iter().all(|&(.., at)| at != d))
            {
                let (d, _, at) = self.pending.remove(i);
                self.out.push((d, at));
                continue;
            }
            // Every destination also holds a pending value: a cycle. Break
            // it by parking one source's value in a temporary.
            let (_, s, at) = self.pending[0];
            let t = fresh(s);
            self.out.push((t, at));
            for copy in self.pending.iter_mut().filter(|copy| copy.1 == s) {
                copy.2 = t;
            }
        }
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_ssa, SsaOptions};
    use epre_ir::{BinOp, BlockId, Const, FunctionBuilder, Terminator, Ty};
    use std::collections::HashMap;

    fn sequentialize(copies: &[(Reg, Reg)], fresh: impl FnMut(Reg) -> Reg) -> Vec<(Reg, Reg)> {
        ParallelCopies::default().sequentialize(copies, fresh).to_vec()
    }

    #[test]
    fn sequentialize_acyclic() {
        // a <- b, c <- a must emit c <- a before a <- b.
        let a = Reg(0);
        let b = Reg(1);
        let c = Reg(2);
        let seq = sequentialize(&[(a, b), (c, a)], |_| unreachable!("no cycle"));
        assert_eq!(seq, vec![(c, a), (a, b)]);
    }

    #[test]
    fn sequentialize_swap_uses_temp() {
        // a <- b, b <- a: the swap problem.
        let a = Reg(0);
        let b = Reg(1);
        let t = Reg(9);
        let seq = sequentialize(&[(a, b), (b, a)], |_| t);
        // Must produce: t <- src; then the two copies reading the right
        // locations. Simulate to check semantics.
        let mut vals: HashMap<Reg, i64> = HashMap::from([(a, 1), (b, 2)]);
        for (d, s) in seq {
            let v = vals[&s];
            vals.insert(d, v);
        }
        assert_eq!(vals[&a], 2);
        assert_eq!(vals[&b], 1);
    }

    #[test]
    fn sequentialize_three_cycle() {
        // a <- b, b <- c, c <- a.
        let a = Reg(0);
        let b = Reg(1);
        let c = Reg(2);
        let mut next = 10;
        let seq = sequentialize(&[(a, b), (b, c), (c, a)], |_| {
            next += 1;
            Reg(next)
        });
        let mut vals: HashMap<Reg, i64> = HashMap::from([(a, 1), (b, 2), (c, 3)]);
        for (d, s) in seq {
            let v = vals[&s];
            vals.insert(d, v);
        }
        assert_eq!((vals[&a], vals[&b], vals[&c]), (2, 3, 1));
    }

    #[test]
    fn sequentialize_drops_noops() {
        let a = Reg(0);
        assert!(sequentialize(&[(a, a)], |_| unreachable!()).is_empty());
    }

    #[test]
    fn round_trip_through_ssa() {
        // x = 1; if p { x = 2 }; return x — build SSA then destroy it; the
        // result must be φ-free and verifier-clean.
        let mut b = FunctionBuilder::new("rt", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let x = b.new_reg(Ty::Int);
        let one = b.loadi(Const::Int(1));
        b.copy_to(x, one);
        let t = b.new_block();
        let j = b.new_block();
        b.branch(p, t, j);
        b.switch_to(t);
        let two = b.loadi(Const::Int(2));
        b.copy_to(x, two);
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(x));
        let mut f = b.finish();
        build_ssa(&mut f, SsaOptions { fold_copies: true });
        destroy_ssa(&mut f);
        assert!(f.verify().is_ok());
        assert!(f.blocks.iter().all(|b| b.phi_count() == 0));
        // The critical edge entry->join was split; copies landed there and
        // in the then-arm.
        let copies: usize = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Copy { .. }))
            .count();
        assert_eq!(copies, 2);
    }

    #[test]
    fn loop_round_trip() {
        // i = 0; while (i < n) i = i + 1; return i
        let mut b = FunctionBuilder::new("lrt", Some(Ty::Int));
        let n = b.param(Ty::Int);
        let i = b.new_reg(Ty::Int);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(Const::Int(0));
        b.copy_to(i, z);
        b.jump(head);
        b.switch_to(head);
        let c = b.bin(BinOp::CmpLt, Ty::Int, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let one = b.loadi(Const::Int(1));
        let i2 = b.bin(BinOp::Add, Ty::Int, i, one);
        b.copy_to(i, i2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut f = b.finish();
        build_ssa(&mut f, SsaOptions { fold_copies: true });
        crate::verify::verify_ssa(&f).unwrap();
        destroy_ssa(&mut f);
        assert!(f.verify().is_ok());
        assert!(f.blocks.iter().all(|b| b.phi_count() == 0));
    }

    #[test]
    fn no_phis_is_a_noop() {
        let mut b = FunctionBuilder::new("n", Some(Ty::Int));
        let x = b.param(Ty::Int);
        b.ret(Some(x));
        let mut f = b.finish();
        let before = f.clone();
        destroy_ssa(&mut f);
        assert_eq!(f, before);
    }

    #[test]
    fn phi_swap_at_join_is_correct() {
        // Swapping φs at a loop header: a,b = b,a each iteration.
        // Build directly in SSA form.
        use epre_ir::Block;
        let mut f = Function::new("swap", None);
        let a0 = f.new_reg(Ty::Int);
        let b0 = f.new_reg(Ty::Int);
        let a1 = f.new_reg(Ty::Int);
        let b1 = f.new_reg(Ty::Int);
        let c = f.new_reg(Ty::Int);
        let mut entry = Block::new(Terminator::Jump { target: BlockId(1) });
        entry.insts.push(Inst::LoadI { dst: a0, value: Const::Int(1) });
        entry.insts.push(Inst::LoadI { dst: b0, value: Const::Int(2) });
        entry.insts.push(Inst::LoadI { dst: c, value: Const::Int(0) });
        f.add_block(entry);
        let mut head =
            Block::new(Terminator::Branch { cond: c, then_to: BlockId(1), else_to: BlockId(2) });
        head.insts.push(Inst::Phi { dst: a1, args: vec![(BlockId(0), a0), (BlockId(1), b1)] });
        head.insts.push(Inst::Phi { dst: b1, args: vec![(BlockId(0), b0), (BlockId(1), a1)] });
        f.add_block(head);
        f.add_block(Block::new(Terminator::Return { value: None }));
        assert!(f.verify().is_ok());
        destroy_ssa(&mut f);
        assert!(f.verify().is_ok());
        // The back-edge copy set {a1 <- b1, b1 <- a1} needed a temp: find 3
        // copies on the back-edge block.
        let max_copies = f
            .blocks
            .iter()
            .map(|b| b.insts.iter().filter(|i| matches!(i, Inst::Copy { .. })).count())
            .max()
            .unwrap();
        assert_eq!(max_copies, 3, "swap requires a cycle-breaking temp");
    }

    /// `n` self-loops in a row, each swapping two values through φs, so
    /// every back edge needs its own cycle-breaking temporary.
    fn swap_loops(n: u32) -> Function {
        use epre_ir::Block;
        let mut f = Function::new("swaps", None);
        let a0 = f.new_reg(Ty::Int);
        let b0 = f.new_reg(Ty::Int);
        let c = f.new_reg(Ty::Int);
        let mut entry = Block::new(Terminator::Jump { target: BlockId(1) });
        entry.insts.push(Inst::LoadI { dst: a0, value: Const::Int(1) });
        entry.insts.push(Inst::LoadI { dst: b0, value: Const::Int(2) });
        entry.insts.push(Inst::LoadI { dst: c, value: Const::Int(0) });
        f.add_block(entry);
        for k in 1..=n {
            let (a, b) = (f.new_reg(Ty::Int), f.new_reg(Ty::Int));
            let (prev, head) = (BlockId(k - 1), BlockId(k));
            let mut block =
                Block::new(Terminator::Branch { cond: c, then_to: head, else_to: BlockId(k + 1) });
            block.insts.push(Inst::Phi { dst: a, args: vec![(prev, a0), (head, b)] });
            block.insts.push(Inst::Phi { dst: b, args: vec![(prev, b0), (head, a)] });
            f.add_block(block);
        }
        f.add_block(Block::new(Terminator::Return { value: None }));
        f
    }

    #[test]
    fn destruction_numbers_temporaries_the_same_on_every_run() {
        let f = swap_loops(8);
        assert!(f.verify().is_ok());
        let texts: std::collections::HashSet<String> = (0..20)
            .map(|_| {
                let mut g = f.clone();
                destroy_ssa(&mut g);
                assert!(g.verify().is_ok());
                g.to_string()
            })
            .collect();
        assert_eq!(texts.len(), 1, "destroy_ssa output depends on the run");
    }
}
