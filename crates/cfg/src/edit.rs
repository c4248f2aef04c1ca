//! CFG surgery: edge splitting.
//!
//! Two parts of the pipeline place code "on an edge": forward propagation
//! inserts the copies that replace φ-nodes at the end of predecessor blocks
//! ("if necessary, the entering edges are split and appropriate predecessor
//! blocks are created", §3.1), and PRE inserts computations on `INSERT`
//! edges (the Drechsler–Stadel edge-placement formulation). Both need a
//! *landing block* on the edge when the edge is critical.

use epre_ir::{Block, BlockId, Function, Inst, Terminator};

/// Split the edge `from -> to`: insert a fresh block containing only a jump
/// to `to`, retarget `from`'s terminator, and rewrite any φ-nodes in `to`
/// that named `from` so they name the new block instead.
///
/// Returns the new block's id. The caller's [`Cfg`](crate::Cfg) snapshot is stale after
/// this and must be rebuilt.
///
/// # Panics
/// Panics if `from -> to` is not an edge of the function.
pub fn split_edge(f: &mut Function, from: BlockId, to: BlockId) -> BlockId {
    assert!(f.block(from).term.successors().any(|s| s == to), "{from} -> {to} is not an edge");
    let nb = f.add_block(Block::new(Terminator::Jump { target: to }));
    f.block_mut(from).term.retarget(to, nb);
    for inst in &mut f.block_mut(to).insts {
        if let Inst::Phi { args, .. } = inst {
            for (pb, _) in args {
                if *pb == from {
                    *pb = nb;
                }
            }
        } else {
            break; // φs are a prefix
        }
    }
    nb
}

/// Split every critical edge of `f` (edges from a multi-successor block to a
/// multi-predecessor block), in block order and each block's successors in
/// terminator order. Returns the number of edges split.
///
/// After this, code can be inserted "on" any edge by appending to the edge's
/// source block (if it has one successor) or prepending to the target (if it
/// has one predecessor).
pub fn split_critical_edges(f: &mut Function) -> usize {
    // Predecessor counts, a two-way branch to one block counting once (as
    // in `Cfg`). Splitting an edge keeps its source's successor count and
    // its target's predecessor count, so the counts hold as edges split.
    let mut preds = vec![0u32; f.blocks.len()];
    for block in &f.blocks {
        for s in distinct_successors(&block.term).into_iter().flatten() {
            preds[s.index()] += 1;
        }
    }
    let mut split = 0;
    for b in 0..preds.len() {
        let [first, second] = distinct_successors(&f.blocks[b].term);
        if second.is_none() {
            continue;
        }
        for s in [first, second].into_iter().flatten() {
            if preds[s.index()] > 1 {
                split_edge(f, BlockId(b as u32), s);
                split += 1;
            }
        }
    }
    split
}

/// The successors of a terminator in order, each listed once.
fn distinct_successors(term: &Terminator) -> [Option<BlockId>; 2] {
    let mut succs = term.successors();
    let first = succs.next();
    [first, succs.next().filter(|&s| Some(s) != first)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Cfg;
    use epre_ir::{BinOp, Const, FunctionBuilder, Ty};

    /// entry branches to {a, join}; a jumps to join. (entry, join) critical.
    fn critical_fixture() -> (Function, BlockId, BlockId) {
        let mut b = FunctionBuilder::new("c", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let a = b.new_block();
        let join = b.new_block();
        let z = b.loadi(Const::Int(0));
        let c = b.bin(BinOp::CmpLt, Ty::Int, x, z);
        b.branch(c, a, join);
        b.switch_to(a);
        b.jump(join);
        b.switch_to(join);
        b.ret(Some(x));
        (b.finish(), a, join)
    }

    #[test]
    fn splits_named_edge() {
        let (mut f, _a, join) = critical_fixture();
        let before = f.blocks.len();
        let nb = split_edge(&mut f, BlockId::ENTRY, join);
        assert_eq!(f.blocks.len(), before + 1);
        assert!(f.verify().is_ok());
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(nb), &[join]);
        assert!(cfg.preds(join).contains(&nb));
        assert!(!cfg.preds(join).contains(&BlockId::ENTRY));
    }

    #[test]
    fn split_updates_phis() {
        let (mut f, a, join) = critical_fixture();
        // Add a φ in join naming both preds.
        let r1 = f.new_reg(Ty::Int);
        let phi =
            Inst::Phi { dst: r1, args: vec![(BlockId::ENTRY, f.params[0]), (a, f.params[0])] };
        f.block_mut(join).insts.insert(0, phi);
        let nb = split_edge(&mut f, BlockId::ENTRY, join);
        match &f.block(join).insts[0] {
            Inst::Phi { args, .. } => {
                assert!(args.iter().any(|&(b, _)| b == nb));
                assert!(!args.iter().any(|&(b, _)| b == BlockId::ENTRY));
                assert!(args.iter().any(|&(b, _)| b == a));
            }
            _ => panic!("expected φ"),
        }
        assert!(f.verify().is_ok());
    }

    #[test]
    fn split_critical_edges_only_splits_critical() {
        let (mut f, _, _) = critical_fixture();
        let n = split_critical_edges(&mut f);
        assert_eq!(n, 1); // only (entry, join) is critical
        assert!(f.verify().is_ok());
        let cfg = Cfg::new(&f);
        assert!(cfg.edges().iter().all(|&(x, y)| !cfg.is_critical(x, y)));
    }

    #[test]
    fn loop_backedge_split() {
        // while-style loop: head -> {body, exit}; body -> head. Edge
        // (body, head) is critical iff head has ≥2 preds (it does: entry
        // and body) and body has ≥2 succs (it doesn't). Entry->head IS
        // critical? entry has 1 succ. So only (head,exit)... exit has 1
        // pred. Nothing critical here.
        let mut b = FunctionBuilder::new("l", None);
        let c = b.loadi(Const::Int(1));
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(head);
        b.switch_to(head);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.jump(head);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        assert_eq!(split_critical_edges(&mut f), 0);

        // Now make the back edge critical: body conditionally exits too.
        let mut b = FunctionBuilder::new("l2", None);
        let c = b.loadi(Const::Int(1));
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(head);
        b.switch_to(head);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.branch(c, head, exit);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        // Critical: (body,head) [2 succ, 2 pred], (head,exit) and
        // (body,exit) [exit has 2 preds].
        assert_eq!(split_critical_edges(&mut f), 3);
        assert!(f.verify().is_ok());
    }

    #[test]
    #[should_panic(expected = "is not an edge")]
    fn split_nonexistent_edge_panics() {
        let (mut f, a, _join) = critical_fixture();
        split_edge(&mut f, a, BlockId::ENTRY);
    }

    #[test]
    fn branch_with_same_targets_splits_once_per_retarget() {
        let mut b = FunctionBuilder::new("dup", None);
        let c = b.loadi(Const::Int(1));
        let t = b.new_block();
        b.branch(c, t, t);
        b.switch_to(t);
        b.ret(None);
        let mut f = b.finish();
        let nb = split_edge(&mut f, BlockId::ENTRY, t);
        // Both arms retargeted to the new block: still one logical edge.
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId::ENTRY), &[nb]);
        assert_eq!(cfg.preds(t), &[nb]);
        assert!(f.verify().is_ok());
    }
}
