//! A gen/kill data-flow solver over the CFG.
//!
//! Every global system in the pipeline is a classic "rapid" gen/kill
//! problem:
//!
//! | problem            | direction | meet | gen    | kill     |
//! |--------------------|-----------|------|--------|----------|
//! | available exprs    | forward   | ∩    | COMP   | ¬TRANSP  |
//! | anticipatable exprs| backward  | ∩    | ANTLOC | ¬TRANSP  |
//! | live variables     | backward  | ∪    | USE    | DEF      |
//!
//! Live variables are solved by [`LiveIn`](crate::LiveIn)'s flat bit
//! matrix, since pruned SSA construction asks for them on every rebuild;
//! this solver takes the others.
//!
//! The solver iterates `out = gen ∪ (in − kill)` (or the mirrored form for
//! backward problems) to a fixed point using a worklist seeded in reverse
//! postorder (postorder for backward problems), which converges in a few
//! sweeps for reducible FORTRAN-shaped CFGs.
//!
//! Boundary conditions: for ∩-problems the boundary block (entry for
//! forward, each exit for backward) starts from ∅ and interior blocks from
//! the full set; for ∪-problems everything starts from ∅.

use crate::bitset::BitSet;
use epre_cfg::{order, Cfg};
use epre_ir::BlockId;

/// Direction of a data-flow problem.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Facts flow from predecessors to successors (e.g. availability).
    Forward,
    /// Facts flow from successors to predecessors (e.g. liveness).
    Backward,
}

/// Meet operator combining facts at control-flow confluences.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Meet {
    /// Set union — "along *some* path" problems.
    Union,
    /// Set intersection — "along *every* path" problems.
    Intersection,
}

/// The fixed point of a gen/kill problem: one `(in, out)` pair per block.
///
/// For forward problems `ins[b]` is the meet over predecessors and
/// `outs[b] = gen[b] ∪ (ins[b] − kill[b])`. For backward problems the roles
/// mirror: `outs[b]` is the meet over successors and
/// `ins[b] = gen[b] ∪ (outs[b] − kill[b])`.
#[derive(Debug, Clone, Default)]
pub struct Solution {
    /// Fact at block entry.
    pub ins: Vec<BitSet>,
    /// Fact at block exit.
    pub outs: Vec<BitSet>,
}

/// Solve a gen/kill problem to its maximal (∩) or minimal (∪) fixed point.
///
/// `gen` and `kill` are indexed by block; all sets must share one capacity
/// (the universe size).
///
/// # Panics
/// Panics if `gen`/`kill` lengths disagree with the CFG block count.
pub fn solve(cfg: &Cfg, dir: Direction, meet: Meet, gen: &[BitSet], kill: &[BitSet]) -> Solution {
    // Process order: RPO for forward, postorder for backward.
    let order = match dir {
        Direction::Forward => order::reverse_postorder(cfg),
        Direction::Backward => order::postorder(cfg),
    };
    let mut solution = Solution::default();
    solution.solve_ordered(cfg, &order, dir, meet, gen, kill);
    solution
}

impl Solution {
    /// [`solve`] into `self`, reusing its storage, visiting the blocks in
    /// `order`: the reverse postorder of `cfg` for a forward problem, its
    /// postorder for a backward one. A caller that solves several problems
    /// on one CFG computes the orders once.
    ///
    /// # Panics
    /// Panics if `gen`/`kill` lengths disagree with the CFG block count.
    pub fn solve_ordered(
        &mut self,
        cfg: &Cfg,
        order: &[BlockId],
        dir: Direction,
        meet: Meet,
        gen: &[BitSet],
        kill: &[BitSet],
    ) {
        let n = cfg.len();
        assert_eq!(gen.len(), n, "gen sets per block");
        assert_eq!(kill.len(), n, "kill sets per block");
        let universe = gen.first().map_or(0, BitSet::capacity);

        let empty = BitSet::new(universe);
        let top = match meet {
            Meet::Union => BitSet::new(universe),
            Meet::Intersection => BitSet::full(universe),
        };

        let Solution { ins, outs } = self;
        ins.clear();
        ins.resize(n, top.clone());
        outs.clear();
        outs.resize(n, top);

        // Unreachable blocks keep ⊤ (they impose no constraints); we simply
        // never visit them. The two scratch sets below are the only buffers
        // the whole fixed-point iteration touches: every sweep computes the
        // meet and the transfer in place and swaps, so no per-iteration
        // allocation.
        let mut scratch_meet = BitSet::new(universe);
        let mut scratch_flow = BitSet::new(universe);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order {
                let bi = b.index();
                let neighbors = match dir {
                    Direction::Forward => cfg.preds(b),
                    Direction::Backward => cfg.succs(b),
                };
                {
                    let facts = match dir {
                        Direction::Forward => &*outs,
                        Direction::Backward => &*ins,
                    };
                    meet_into(&mut scratch_meet, neighbors, facts, meet, &empty);
                }
                // Transfer: flow = gen ∪ (meet − kill).
                scratch_flow.assign_from(&gen[bi]);
                scratch_flow.union_with_minus(&scratch_meet, &kill[bi]);
                let (block_in, block_out) = match dir {
                    Direction::Forward => (&mut ins[bi], &mut outs[bi]),
                    Direction::Backward => (&mut outs[bi], &mut ins[bi]),
                };
                if scratch_meet != *block_in || scratch_flow != *block_out {
                    std::mem::swap(block_in, &mut scratch_meet);
                    std::mem::swap(block_out, &mut scratch_flow);
                    changed = true;
                }
            }
        }
    }
}

/// Meet the neighbors' facts into `acc` (overwriting it) without
/// allocating. Boundary blocks (no neighbors in the meet direction) get ∅:
/// nothing is available on entry, nothing anticipated after an exit,
/// nothing live after an exit.
fn meet_into(
    acc: &mut BitSet,
    neighbors: &[BlockId],
    facts: &[BitSet],
    meet: Meet,
    empty: &BitSet,
) {
    let Some(&first) = neighbors.first() else {
        acc.assign_from(empty);
        return;
    };
    acc.assign_from(&facts[first.index()]);
    for &p in &neighbors[1..] {
        match meet {
            Meet::Union => {
                acc.union_with(&facts[p.index()]);
            }
            Meet::Intersection => {
                acc.intersect_with(&facts[p.index()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, Const, FunctionBuilder, Ty};

    /// Diamond: b0 -> {b1, b2} -> b3.
    fn diamond_cfg() -> Cfg {
        let mut b = FunctionBuilder::new("d", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let z = b.loadi(Const::Int(0));
        let c = b.bin(BinOp::CmpLt, Ty::Int, x, z);
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(x));
        Cfg::new(&b.finish())
    }

    fn set(cap: usize, elems: &[usize]) -> BitSet {
        let mut s = BitSet::new(cap);
        for &e in elems {
            s.insert(e);
        }
        s
    }

    #[test]
    fn forward_intersection_availability() {
        let cfg = diamond_cfg();
        let cap = 2;
        // Expression 0 computed in both arms; expression 1 only in b1.
        let gen = vec![set(cap, &[]), set(cap, &[0, 1]), set(cap, &[0]), set(cap, &[])];
        let kill = vec![BitSet::new(cap); 4];
        let sol = solve(&cfg, Direction::Forward, Meet::Intersection, &gen, &kill);
        // At the join, only expr 0 is available on every path.
        assert!(sol.ins[3].contains(0));
        assert!(!sol.ins[3].contains(1));
        assert!(sol.ins[0].is_empty()); // entry boundary
    }

    #[test]
    fn forward_kill_stops_facts() {
        let cfg = diamond_cfg();
        let cap = 1;
        let gen = vec![set(cap, &[0]), set(cap, &[]), set(cap, &[]), set(cap, &[])];
        // b2 kills expr 0.
        let kill = vec![set(cap, &[]), set(cap, &[]), set(cap, &[0]), set(cap, &[])];
        let sol = solve(&cfg, Direction::Forward, Meet::Intersection, &gen, &kill);
        assert!(sol.ins[1].contains(0));
        assert!(sol.ins[2].contains(0));
        assert!(sol.outs[2].is_empty());
        assert!(!sol.ins[3].contains(0)); // one path killed it
    }

    #[test]
    fn backward_union_liveness() {
        let cfg = diamond_cfg();
        let cap = 2;
        // Variable 0 used in b3; variable 1 used in b1; b0 defines 0.
        let gen = vec![set(cap, &[]), set(cap, &[1]), set(cap, &[]), set(cap, &[0])];
        let kill = vec![set(cap, &[0]), set(cap, &[]), set(cap, &[]), set(cap, &[])];
        let sol = solve(&cfg, Direction::Backward, Meet::Union, &gen, &kill);
        // 0 live out of both arms, killed across b0.
        assert!(sol.outs[0].contains(0));
        assert!(sol.outs[0].contains(1));
        assert!(!sol.ins[0].contains(0)); // defined in b0
        assert!(sol.ins[0].contains(1)); // 1 not defined anywhere upstream
        assert!(sol.outs[3].is_empty()); // exit boundary
    }

    #[test]
    fn backward_intersection_anticipability() {
        let cfg = diamond_cfg();
        let cap = 1;
        // Expr 0 anticipated in both arms -> anticipated at end of b0.
        let gen = vec![set(cap, &[]), set(cap, &[0]), set(cap, &[0]), set(cap, &[])];
        let kill = vec![BitSet::new(cap); 4];
        let sol = solve(&cfg, Direction::Backward, Meet::Intersection, &gen, &kill);
        assert!(sol.outs[0].contains(0));
        // If only one arm computes it, not anticipated.
        let gen2 = vec![set(cap, &[]), set(cap, &[0]), set(cap, &[]), set(cap, &[])];
        let sol2 = solve(&cfg, Direction::Backward, Meet::Intersection, &gen2, &kill);
        assert!(!sol2.outs[0].contains(0));
    }

    #[test]
    fn loop_fixed_point_converges() {
        // entry -> head; head -> {body, exit}; body -> head.
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
        let cfg = Cfg::new(&b.finish());
        let cap = 1;
        // Fact generated in body, never killed: available at head only via
        // the back edge, so NOT available at head (entry path lacks it).
        let gen = vec![set(cap, &[]), set(cap, &[]), set(cap, &[0]), set(cap, &[])];
        let kill = vec![BitSet::new(cap); 4];
        let sol = solve(&cfg, Direction::Forward, Meet::Intersection, &gen, &kill);
        assert!(!sol.ins[head.index()].contains(0));
        assert!(sol.ins[head.index()].is_empty());
        // But with gen in entry it IS available everywhere.
        let gen2 = vec![set(cap, &[0]), set(cap, &[]), set(cap, &[]), set(cap, &[])];
        let sol2 = solve(&cfg, Direction::Forward, Meet::Intersection, &gen2, &kill);
        assert!(sol2.ins[head.index()].contains(0));
        assert!(sol2.ins[exit.index()].contains(0));
    }
}
