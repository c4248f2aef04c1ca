//! Predecessor/successor maps: [`Cfg`].

use crate::csr::Csr;
use epre_ir::{BlockId, Function};

/// The control-flow graph of a function, as dense predecessor and successor
/// lists.
///
/// A `Cfg` is a snapshot: any pass that adds, removes or retargets blocks
/// must rebuild it. Duplicate edges (a conditional branch whose two targets
/// coincide) are collapsed to a single edge, so a block appears at most once
/// in another block's predecessor list — which is what φ-node placement and
/// PRE edge placement require.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    preds: Csr<BlockId>,
    succs: Csr<BlockId>,
}

impl Cfg {
    /// Build the CFG snapshot of `f`.
    pub fn new(f: &Function) -> Self {
        let n = f.blocks.len();
        let edges = f.iter_blocks().flat_map(|(b, block)| {
            // A two-way branch to the same block yields one edge; skipping
            // a repeat suffices because successors() lists at most two.
            let mut prev = None;
            let ss = block.term.successors().filter(move |&s| prev.replace(s) != Some(s));
            ss.map(move |s| (b.index(), s))
        });
        let succs = Csr::from_pairs(n, edges);
        let preds = Csr::from_pairs(n, succs.pairs().map(|(b, s)| (s.index(), BlockId(b as u32))));
        Cfg { preds, succs }
    }

    /// Number of blocks the snapshot covers.
    pub fn len(&self) -> usize {
        self.succs.rows()
    }

    /// True if the function had no blocks (never the case for verified IR).
    pub fn is_empty(&self) -> bool {
        self.succs.rows() == 0
    }

    /// The predecessors of `b`, each listed once, in discovery order.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        self.preds.row(b.index())
    }

    /// The successors of `b`, each listed once, in terminator order.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        self.succs.row(b.index())
    }

    /// All `(from, to)` edges, in block order.
    pub fn edges(&self) -> Vec<(BlockId, BlockId)> {
        let mut out = Vec::with_capacity(self.succs.items().len());
        out.extend(self.succs.pairs().map(|(b, s)| (BlockId(b as u32), s)));
        out
    }

    /// Is `(from, to)` a *critical* edge — one from a block with several
    /// successors to a block with several predecessors?
    ///
    /// Critical edges must be split before code can be placed "on" an edge
    /// (PRE insertion, φ destruction).
    pub fn is_critical(&self, from: BlockId, to: BlockId) -> bool {
        self.succs(from).len() > 1 && self.preds(to).len() > 1
    }

    /// Blocks reachable from the entry, as a dense bool map.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        if self.is_empty() {
            return seen;
        }
        let mut stack = Vec::with_capacity(self.len());
        stack.push(BlockId::ENTRY);
        seen[BlockId::ENTRY.index()] = true;
        while let Some(b) = stack.pop() {
            for &s in self.succs(b) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Blocks whose terminator is a return (the CFG exits).
    pub fn exits(&self) -> Vec<BlockId> {
        (0..self.len()).map(|i| BlockId(i as u32)).filter(|b| self.succs(*b).is_empty()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, Const, FunctionBuilder, Ty};

    /// entry -> {then, else} -> join -> ret, plus a self-loop on `then`.
    fn diamond_with_loop() -> (epre_ir::Function, [BlockId; 4]) {
        let mut b = FunctionBuilder::new("d", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let z = b.loadi(Const::Int(0));
        let c = b.bin(BinOp::CmpLt, Ty::Int, x, z);
        b.branch(c, t, e);
        b.switch_to(t);
        b.branch(c, t, j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(x));
        (b.finish(), [BlockId(0), t, e, j])
    }

    #[test]
    fn preds_and_succs() {
        let (f, [entry, t, e, j]) = diamond_with_loop();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(entry), &[t, e]);
        assert_eq!(cfg.succs(t), &[t, j]);
        assert_eq!(cfg.preds(j), &[t, e]);
        assert_eq!(cfg.preds(entry), &[] as &[BlockId]);
        assert_eq!(cfg.len(), 4);
        assert!(!cfg.is_empty());
    }

    #[test]
    fn duplicate_branch_targets_collapse() {
        let mut b = FunctionBuilder::new("dup", None);
        let c = b.loadi(Const::Int(1));
        let t = b.new_block();
        b.branch(c, t, t);
        b.switch_to(t);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)).len(), 1);
        assert_eq!(cfg.preds(t).len(), 1);
    }

    #[test]
    fn critical_edge_detection() {
        let (f, [entry, t, _e, j]) = diamond_with_loop();
        let cfg = Cfg::new(&f);
        // t has two successors; j has two predecessors: (t, j) is critical.
        assert!(cfg.is_critical(t, j));
        // entry->t: t has preds {entry, t}... t also self-loops so (entry,t)
        // is critical too (entry has 2 succs, t has 2 preds).
        assert!(cfg.is_critical(entry, t));
    }

    #[test]
    fn reachability_and_exits() {
        let (f, [_, _, _, j]) = diamond_with_loop();
        let cfg = Cfg::new(&f);
        assert!(cfg.reachable().iter().all(|&r| r));
        assert_eq!(cfg.exits(), vec![j]);
    }

    #[test]
    fn unreachable_block_detected() {
        let mut b = FunctionBuilder::new("u", None);
        b.ret(None);
        let dead = b.new_block();
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let r = cfg.reachable();
        assert!(r[0]);
        assert!(!r[dead.index()]);
    }

    #[test]
    fn edges_enumeration() {
        let (f, [entry, t, e, j]) = diamond_with_loop();
        let cfg = Cfg::new(&f);
        let edges = cfg.edges();
        assert!(edges.contains(&(entry, t)));
        assert!(edges.contains(&(t, t)));
        assert!(edges.contains(&(e, j)));
        assert_eq!(edges.len(), 5);
    }
}
