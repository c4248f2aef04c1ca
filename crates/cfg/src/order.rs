//! Depth-first traversal orders over the CFG.
//!
//! The paper's rank computation (§3.1) visits blocks in **reverse
//! postorder**: every block is visited after all its forward-edge
//! predecessors, so operand ranks are available when an expression is
//! ranked (back edges — loops — are the exception, and φ-results take the
//! block rank precisely to break that cycle).

use crate::graph::Cfg;
use epre_ir::BlockId;

/// Postorder over the blocks reachable from the entry.
///
/// Children are visited in terminator order, matching the deterministic
/// traversal used throughout the crate.
pub fn postorder(cfg: &Cfg) -> Vec<BlockId> {
    let mut out = Vec::with_capacity(cfg.len());
    if cfg.is_empty() {
        return out;
    }
    let mut visited = vec![false; cfg.len()];
    // Iterative DFS with an explicit child cursor so postorder matches the
    // recursive definition exactly. Each block is pushed at most once.
    let mut stack: Vec<(BlockId, usize)> = Vec::with_capacity(cfg.len());
    stack.push((BlockId::ENTRY, 0));
    visited[BlockId::ENTRY.index()] = true;
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        let succs = cfg.succs(b);
        if *next < succs.len() {
            let s = succs[*next];
            *next += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            out.push(b);
            stack.pop();
        }
    }
    out
}

/// Reverse postorder over the blocks reachable from the entry.
/// The entry block is always first.
pub fn reverse_postorder(cfg: &Cfg) -> Vec<BlockId> {
    let mut po = postorder(cfg);
    po.reverse();
    po
}

/// Dense reverse-postorder numbering of reachable blocks.
///
/// `number(b)` is 1-based (the entry block is 1), matching the paper's block
/// ranks: "the first block visited is given rank 1, the second block is
/// given rank 2, and so forth". Unreachable blocks have no number.
#[derive(Debug, Clone)]
pub struct RpoNumbers {
    order: Vec<BlockId>,
    number: Vec<Option<u32>>,
}

impl RpoNumbers {
    /// Compute the numbering for `cfg`.
    pub fn new(cfg: &Cfg) -> Self {
        let order = reverse_postorder(cfg);
        let mut number = vec![None; cfg.len()];
        for (i, &b) in order.iter().enumerate() {
            number[b.index()] = Some(i as u32 + 1);
        }
        RpoNumbers { order, number }
    }

    /// The blocks in reverse postorder.
    pub fn order(&self) -> &[BlockId] {
        &self.order
    }

    /// The 1-based RPO number of `b`, or `None` if `b` is unreachable.
    pub fn number(&self, b: BlockId) -> Option<u32> {
        self.number[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, Const, FunctionBuilder, Ty};

    fn loop_function() -> (epre_ir::Function, [BlockId; 4]) {
        // entry -> head; head -> {body, exit}; body -> head
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let n = b.param(Ty::Int);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(head);
        b.switch_to(head);
        let z = b.loadi(Const::Int(0));
        let c = b.bin(BinOp::CmpLt, Ty::Int, z, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(n));
        (b.finish(), [BlockId(0), head, body, exit])
    }

    #[test]
    fn rpo_starts_at_entry() {
        let (f, [entry, head, body, exit]) = loop_function();
        let cfg = Cfg::new(&f);
        let rpo = reverse_postorder(&cfg);
        assert_eq!(rpo[0], entry);
        assert_eq!(rpo.len(), 4);
        // head precedes both body and exit.
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(head) < pos(body));
        assert!(pos(head) < pos(exit));
    }

    #[test]
    fn postorder_is_reverse_of_rpo() {
        let (f, _) = loop_function();
        let cfg = Cfg::new(&f);
        let mut po = postorder(&cfg);
        po.reverse();
        assert_eq!(po, reverse_postorder(&cfg));
    }

    #[test]
    fn numbers_are_one_based_and_dense() {
        let (f, [entry, head, body, exit]) = loop_function();
        let cfg = Cfg::new(&f);
        let rpo = RpoNumbers::new(&cfg);
        assert_eq!(rpo.number(entry), Some(1));
        assert_eq!(rpo.number(head), Some(2));
        let mut nums: Vec<u32> =
            [entry, head, body, exit].iter().map(|&b| rpo.number(b).unwrap()).collect();
        nums.sort_unstable();
        assert_eq!(nums, vec![1, 2, 3, 4]);
        assert_eq!(rpo.order().len(), 4);
    }

    #[test]
    fn unreachable_blocks_have_no_number() {
        let mut b = FunctionBuilder::new("u", None);
        b.ret(None);
        let dead = b.new_block();
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let rpo = RpoNumbers::new(&cfg);
        assert_eq!(rpo.number(dead), None);
        assert_eq!(rpo.order().len(), 1);
    }

    #[test]
    fn straight_line_order() {
        let mut b = FunctionBuilder::new("s", None);
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.jump(b2);
        b.switch_to(b2);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert_eq!(reverse_postorder(&cfg), vec![BlockId(0), b1, b2]);
    }
}
