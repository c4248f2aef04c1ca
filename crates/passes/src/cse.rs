//! The two weaker redundancy eliminators of the §5.3 hierarchy.
//!
//! The paper compares three approaches (assuming reassociation and GVN
//! have already canonicalized the name space):
//!
//! 1. **Dominator CSE** — Alpern, Wegman & Zadeck's suggestion: "if a
//!    value x is computed at two points p and q, and p dominates q, then
//!    the computation at q is redundant and may be deleted". It cannot
//!    remove the if-then-else redundancy of §2's first example.
//! 2. **AVAIL CSE** — classic global common-subexpression elimination on
//!    available expressions: removes *all* full redundancies.
//! 3. **PRE** — removes full and many partial redundancies (module
//!    [`crate::pre`]).
//!
//! The `hierarchy` benchmark regenerates the containment experimentally:
//! on every suite routine, dynamic counts satisfy
//! `dominator ≥ avail ≥ pre`.
//!
//! Both implementations here are kill-aware and lexical, operating on the
//! same [`ExprUniverse`] as PRE, and both delete only *disciplined*
//! expressions (single canonical target name) — deletion without a
//! replacement copy is then sound exactly as in PRE.

use epre_analysis::{solve, BitSet, Direction, ExprUniverse, LocalPredicates, Meet};
use epre_cfg::{Cfg, Dominators};
use epre_ir::{BlockId, Function};

/// Which availability evidence the CSE pass may use.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CseScope {
    /// Evidence restricted to dominating computations (hierarchy level 1).
    Dominators,
    /// Full available-expressions data flow (hierarchy level 2).
    Available,
}

/// Run global CSE with the given evidence scope. Returns true if any
/// instruction was deleted.
pub fn run(f: &mut Function, scope: CseScope) -> bool {
    debug_assert!(f.blocks.iter().all(|b| b.phi_count() == 0), "cse expects φ-free code");
    let cfg = Cfg::new(f);
    let universe = ExprUniverse::new(f);
    if universe.is_empty() {
        return false;
    }
    let cap = universe.len();
    let lp = LocalPredicates::new(f, &universe);

    let mut disciplined = BitSet::new(cap);
    for (e, _) in universe.iter() {
        if universe.is_disciplined(e) {
            disciplined.insert(e.index());
        }
    }

    let kill: Vec<BitSet> = lp
        .transp
        .iter()
        .map(|t| {
            let mut k = BitSet::full(cap);
            k.difference_with(t);
            k
        })
        .collect();
    let avail = solve(&cfg, Direction::Forward, Meet::Intersection, &lp.comp, &kill);

    // For the dominator variant, availability evidence must additionally
    // come from a dominating computation: restrict AVIN(b) to expressions
    // downward-exposed in some strict dominator of b (conservatively, with
    // the data-flow fact already ensuring no kill on any path).
    let dom = Dominators::new(f, &cfg);
    let avin_at = |b: BlockId| -> BitSet {
        let mut s = avail.ins[b.index()].clone();
        if scope == CseScope::Dominators {
            let mut from_dominator = BitSet::new(cap);
            let mut d = dom.idom(b);
            while let Some(dd) = d {
                from_dominator.union_with(&lp.comp[dd.index()]);
                if dd == BlockId::ENTRY {
                    break;
                }
                d = dom.idom(dd);
            }
            s.intersect_with(&from_dominator);
        }
        s
    };

    let mut changed = false;
    for bi in 0..f.blocks.len() {
        let bid = BlockId(bi as u32);
        if !dom.is_reachable(bid) {
            continue;
        }
        // Walk the block with the set of currently-available expressions.
        let mut have = avin_at(bid);
        have.intersect_with(&disciplined);
        let block = &mut f.blocks[bi];
        let mut keep = vec![true; block.insts.len()];
        for (i, (inst, &id)) in block.insts.iter().zip(universe.block_exprs(bid)).enumerate() {
            if let Some(e) = id {
                if universe.is_disciplined(e) {
                    if have.contains(e.index()) {
                        keep[i] = false; // value already in its register
                        changed = true;
                    } else {
                        have.insert(e.index());
                    }
                }
            }
            if let Some(d) = inst.dst() {
                for &e in universe.used_by(d) {
                    have.remove(e.index());
                }
            }
        }
        let mut it = keep.iter();
        block.insts.retain(|_| *it.next().unwrap());
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, FunctionBuilder, Inst, Reg, Ty};

    fn count_adds(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .count()
    }

    /// §2's first example: x+y in both arms of an if and after the join.
    /// AVAIL CSE removes the join copy; dominator CSE cannot.
    fn branchy() -> (Function, Reg) {
        let mut b = FunctionBuilder::new("h", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let n = b.new_reg(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(p, t, e);
        b.switch_to(t);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(j);
        b.switch_to(e);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(j);
        b.switch_to(j);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.ret(Some(n));
        (b.finish(), n)
    }

    #[test]
    fn avail_handles_if_then_else_dominator_does_not() {
        let (mut f1, _) = branchy();
        run(&mut f1, CseScope::Dominators);
        assert_eq!(count_adds(&f1), 3, "no arm dominates the join");

        let (mut f2, _) = branchy();
        run(&mut f2, CseScope::Available);
        assert_eq!(count_adds(&f2), 2, "available on both paths: join copy deleted");
    }

    /// Straight-line redundancy: both variants handle it.
    #[test]
    fn dominator_handles_straight_line() {
        let mk = || {
            let mut b = FunctionBuilder::new("s", Some(Ty::Int));
            let x = b.param(Ty::Int);
            let y = b.param(Ty::Int);
            let n = b.new_reg(Ty::Int);
            let b2 = b.new_block();
            b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
            b.jump(b2);
            b.switch_to(b2);
            b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
            b.ret(Some(n));
            b.finish()
        };
        let mut f = mk();
        run(&mut f, CseScope::Dominators);
        assert_eq!(count_adds(&f), 1);
        let mut f = mk();
        run(&mut f, CseScope::Available);
        assert_eq!(count_adds(&f), 1);
    }

    /// Neither variant may delete across a kill.
    #[test]
    fn kills_respected() {
        let mut b = FunctionBuilder::new("k", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let n = b.new_reg(Ty::Int);
        let b2 = b.new_block();
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(b2);
        b.switch_to(b2);
        let z = b.loadi(epre_ir::Const::Int(0));
        b.copy_to(x, z);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.ret(Some(n));
        let mut f = b.finish();
        run(&mut f, CseScope::Available);
        assert_eq!(count_adds(&f), 2);
    }

    /// Neither variant hoists loop invariants (that is PRE's domain):
    /// containment is strict.
    #[test]
    fn no_loop_invariant_motion() {
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let i = b.new_reg(Ty::Int);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(epre_ir::Const::Int(0));
        b.copy_to(i, z);
        b.jump(head);
        b.switch_to(head);
        let c = b.bin(BinOp::CmpLt, Ty::Int, i, x);
        b.branch(c, body, exit);
        b.switch_to(body);
        let n = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        let i2 = b.bin(BinOp::Add, Ty::Int, i, n);
        b.copy_to(i, i2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut f = b.finish();
        let before = count_adds(&f);
        run(&mut f, CseScope::Available);
        assert_eq!(count_adds(&f), before, "x+y stays in the loop under AVAIL CSE");
    }

    #[test]
    fn undisciplined_left_alone() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s1 = b.bin(BinOp::Add, Ty::Int, x, y); // fresh targets
        let s2 = b.bin(BinOp::Add, Ty::Int, x, y);
        let m = b.bin(BinOp::Mul, Ty::Int, s1, s2);
        b.ret(Some(m));
        let mut f = b.finish();
        run(&mut f, CseScope::Available);
        assert_eq!(count_adds(&f), 2);
    }
}
