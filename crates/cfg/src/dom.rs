//! Dominators and dominance frontiers.
//!
//! Immediate dominators are computed with the Cooper–Harvey–Kennedy
//! iterative algorithm ("A Simple, Fast Dominance Algorithm"), which the
//! Rice group — the paper's authors — developed for exactly this kind of
//! pass-structured optimizer. Dominance frontiers follow Cytron et al.
//! (TOPLAS 1991), the paper's reference \[11\], and drive φ-placement in
//! `epre-ssa` as well as the dominator-based CSE of §5.3.

use crate::csr::Csr;
use crate::graph::Cfg;
use crate::order::RpoNumbers;
use epre_ir::{BlockId, Function};

/// Immediate-dominator tree plus dominance frontiers for one function.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `idom[b]` — immediate dominator; entry's idom is itself; unreachable
    /// blocks have `None`.
    idom: Vec<Option<BlockId>>,
    /// Children in the dominator tree, in reverse postorder.
    children: Csr<BlockId>,
    /// Dominance frontier of each block.
    frontier: Csr<BlockId>,
    rpo: RpoNumbers,
}

impl Dominators {
    /// Compute dominators for `f` given its CFG snapshot.
    pub fn new(f: &Function, cfg: &Cfg) -> Self {
        let n = f.blocks.len();
        let rpo = RpoNumbers::new(cfg);
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[BlockId::ENTRY.index()] = Some(BlockId::ENTRY);

        // Iterate to a fixed point in reverse postorder (CHK).
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.order().iter().skip(1) {
                // First processed predecessor (one with an idom already).
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        let order = rpo.order();
        let children = Csr::from_pairs(
            n,
            order.iter().skip(1).filter_map(|&b| idom[b.index()].map(|d| (d.index(), b))),
        );

        // Dominance frontiers (Cytron et al., fig. 10 — the "two-finger"
        // formulation from CHK): each predecessor of a join block `b` walks
        // up to `idom(b)`, adding `b` to the frontier of every block it
        // passes. Two walks for the same `b` can pass the same block, and
        // those repeats are adjacent in its row.
        let idom_ref = &idom;
        let walks = order.iter().filter(|&&b| cfg.preds(b).len() >= 2).flat_map(|&b| {
            let stop = idom_ref[b.index()];
            cfg.preds(b).iter().filter(|p| idom_ref[p.index()].is_some()).flat_map(move |&p| {
                std::iter::successors(Some(p), |r| {
                    Some(idom_ref[r.index()].expect("runner is reachable"))
                })
                .take_while(move |&r| Some(r) != stop)
                .map(move |r| (r.index(), b))
            })
        });
        let mut frontier = Csr::from_pairs(n, walks);
        frontier.dedup_rows();

        Dominators { idom, children, frontier, rpo }
    }

    /// The immediate dominator of `b`; `None` for the entry block and for
    /// unreachable blocks.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        if b == BlockId::ENTRY {
            None
        } else {
            self.idom[b.index()]
        }
    }

    /// Does `a` dominate `b`? (Reflexive: every block dominates itself.)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }

    /// Does `a` strictly dominate `b`?
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// The children of `b` in the dominator tree.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        self.children.row(b.index())
    }

    /// The dominance frontier of `b`.
    pub fn frontier(&self, b: BlockId) -> &[BlockId] {
        self.frontier.row(b.index())
    }

    /// Is `b` reachable from the entry?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        b == BlockId::ENTRY || self.idom[b.index()].is_some()
    }

    /// The reverse-postorder numbering computed alongside the dominators.
    pub fn rpo(&self) -> &RpoNumbers {
        &self.rpo
    }

    /// Dominator-tree preorder (entry first), visiting children in RPO
    /// order. Useful for renaming walks and dominator-based CSE.
    pub fn preorder(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        let mut stack = vec![BlockId::ENTRY];
        while let Some(b) = stack.pop() {
            out.push(b);
            for &c in self.children(b).iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo: &RpoNumbers,
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    // Walk the two candidates up the (partial) dominator tree until they
    // meet; RPO numbers give the direction.
    let num = |x: BlockId| rpo.number(x).expect("reachable");
    while a != b {
        while num(a) > num(b) {
            a = idom[a.index()].expect("processed");
        }
        while num(b) > num(a) {
            b = idom[b.index()].expect("processed");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, Const, FunctionBuilder, Ty};

    /// The classic CHK paper example is a diamond; build a diamond with a
    /// loop around the join block.
    ///
    /// entry(0) -> {t(1), e(2)}; t,e -> j(3); j -> {head? no}: j -> exit(4)
    fn diamond() -> (epre_ir::Function, [BlockId; 5]) {
        let mut b = FunctionBuilder::new("d", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(Const::Int(0));
        let c = b.bin(BinOp::CmpLt, Ty::Int, x, z);
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.jump(exit);
        b.switch_to(exit);
        b.ret(Some(x));
        (b.finish(), [BlockId(0), t, e, j, exit])
    }

    #[test]
    fn diamond_idoms() {
        let (f, [entry, t, e, j, exit]) = diamond();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        assert_eq!(dom.idom(entry), None);
        assert_eq!(dom.idom(t), Some(entry));
        assert_eq!(dom.idom(e), Some(entry));
        assert_eq!(dom.idom(j), Some(entry)); // join dominated by the fork
        assert_eq!(dom.idom(exit), Some(j));
    }

    #[test]
    fn diamond_frontiers() {
        let (f, [entry, t, e, j, _]) = diamond();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        assert_eq!(dom.frontier(t), &[j]);
        assert_eq!(dom.frontier(e), &[j]);
        assert_eq!(dom.frontier(entry), &[] as &[BlockId]);
        assert_eq!(dom.frontier(j), &[] as &[BlockId]);
    }

    #[test]
    fn dominates_relation() {
        let (f, [entry, t, _e, j, exit]) = diamond();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        assert!(dom.dominates(entry, exit));
        assert!(dom.dominates(j, exit));
        assert!(!dom.dominates(t, j));
        assert!(dom.dominates(t, t));
        assert!(!dom.strictly_dominates(t, t));
        assert!(dom.strictly_dominates(entry, j));
    }

    #[test]
    fn loop_header_dominates_body() {
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
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        assert!(dom.dominates(head, body));
        assert!(dom.dominates(head, exit));
        // The back edge's source has the header in its frontier.
        assert!(dom.frontier(body).contains(&head));
        assert!(dom.frontier(head).contains(&head));
    }

    #[test]
    fn matches_naive_dominators_on_irreducible_graph() {
        // Irreducible: entry -> a, b; a -> b; b -> a; a -> exit.
        let mut bld = FunctionBuilder::new("irr", None);
        let c = bld.loadi(Const::Int(1));
        let a = bld.new_block();
        let b = bld.new_block();
        let exit = bld.new_block();
        bld.branch(c, a, b);
        bld.switch_to(a);
        bld.branch(c, b, exit);
        bld.switch_to(b);
        bld.jump(a);
        bld.switch_to(exit);
        bld.ret(None);
        let f = bld.finish();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        let naive = naive_dominators(&cfg);
        for x in f.block_ids() {
            for y in f.block_ids() {
                assert_eq!(
                    dom.dominates(x, y),
                    naive[y.index()].contains(&x),
                    "dominates({x},{y})"
                );
            }
        }
    }

    /// O(n²) reference: iterate Dom(b) = {b} ∪ ∩ Dom(p).
    fn naive_dominators(cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let n = cfg.len();
        let all: Vec<BlockId> = (0..n as u32).map(BlockId).collect();
        let mut dom: Vec<Vec<BlockId>> = vec![all.clone(); n];
        dom[0] = vec![BlockId::ENTRY];
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..n {
                let id = BlockId(b as u32);
                let mut new: Option<Vec<BlockId>> = None;
                for &p in cfg.preds(id) {
                    let pd = &dom[p.index()];
                    new = Some(match new {
                        None => pd.clone(),
                        Some(cur) => cur.into_iter().filter(|x| pd.contains(x)).collect(),
                    });
                }
                let mut new = new.unwrap_or_default();
                if !new.contains(&id) {
                    new.push(id);
                }
                new.sort_unstable();
                if new != dom[b] {
                    dom[b] = new;
                    changed = true;
                }
            }
        }
        dom
    }

    #[test]
    fn preorder_visits_parents_first() {
        let (f, _) = diamond();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        let pre = dom.preorder();
        assert_eq!(pre[0], BlockId::ENTRY);
        let pos = |b: BlockId| pre.iter().position(|&x| x == b).unwrap();
        for b in f.block_ids() {
            if let Some(d) = dom.idom(b) {
                assert!(pos(d) < pos(b));
            }
        }
    }
}
