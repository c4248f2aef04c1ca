//! Partial redundancy elimination (Morel–Renvoise, in the Drechsler–Stadel
//! edge-placement formulation the paper uses — §2, §4: "Our implementation
//! of PRE uses a variation described by Drechsler and Stadel. Their
//! formulation supports edge placement for enhanced optimization and
//! simplifies the data-flow equations … avoiding the bidirectional
//! equations typical of some other approaches").
//!
//! The pass works over the function's lexical [`ExprUniverse`]:
//!
//! ```text
//! ANTOUT(b) = ∩ ANTIN(succ)          ANTIN(b) = ANTLOC(b) ∪ (ANTOUT(b) ∩ TRANSP(b))
//! AVIN(b)   = ∩ AVOUT(pred)          AVOUT(b) = COMP(b)   ∪ (AVIN(b)  ∩ TRANSP(b))
//! EARLIEST(i,j) = ANTIN(j) ∩ ¬AVOUT(i) ∩ (¬TRANSP(i) ∪ ¬ANTOUT(i))   [i ≠ entry]
//! EARLIEST(entry,j) = ANTIN(j) ∩ ¬AVOUT(entry)
//! LATER(i,j)   = EARLIEST(i,j) ∪ (LATERIN(i) ∩ ¬ANTLOC(i))
//! LATERIN(j)   = ∩ LATER(i,j)        LATERIN(entry) = ∅
//! INSERT(i,j)  = LATER(i,j) ∩ ¬LATERIN(j)
//! DELETE(b)    = ANTLOC(b) ∩ ¬LATERIN(b)                              [b ≠ entry]
//! ```
//!
//! Insertions land on edges; all critical edges are split up front so each
//! insertion has a landing site. Deletion removes the upward-exposed
//! occurrences of the expression; because the §2.2 naming discipline gives
//! every lexical expression a single target register, a deleted occurrence
//! needs no replacement copy — the register already holds the value. PRE
//! therefore refuses to touch expressions whose occurrences target
//! different registers ([`ExprUniverse::is_disciplined`]); global value
//! numbering's renaming (the paper's §3.2) is what makes that rare.
//!
//! A key property, used by the paper's argument and our property tests:
//! **PRE never lengthens an execution path** — the dynamic operation count
//! of the transformed function never exceeds the original on any input.

use epre_analysis::{solve, BitSet, Direction, ExprId, ExprKey, ExprUniverse, LocalPredicates, Meet};
use epre_cfg::edit::split_critical_edges;
use epre_cfg::{reverse_postorder, Cfg, Csr};
use epre_ir::{BlockId, Function, Inst};

use crate::budget::{Budget, BudgetExceeded, Meter};
use epre_telemetry::PassCounters;

/// What one [`run_budgeted_stats`] invocation did, in the paper's own
/// vocabulary: how many critical edges were split, how many expression
/// computations were hoisted onto edges, and how many upward-exposed
/// occurrences were deleted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreStats {
    /// Outer application rounds that changed the function.
    pub rounds: u64,
    /// Critical edges split to create insertion landing sites.
    pub edges_split: u64,
    /// Expression computations inserted on edges (the paper's "hoisted").
    pub exprs_hoisted: u64,
    /// Upward-exposed occurrences deleted as redundant.
    pub occurrences_deleted: u64,
    /// Cooperative-checkpoint ticks consumed.
    pub ticks: u64,
}

impl PreStats {
    /// Did the invocation change the function at all?
    pub fn changed(&self) -> bool {
        self.edges_split + self.exprs_hoisted + self.occurrences_deleted > 0
    }
}

/// Run PRE to a fixed point. Returns true if any round changed the
/// function (including critical-edge splitting, which edits the CFG).
///
/// A single application exposes *second-order* opportunities: hoisting a
/// `loadi` out of a block un-kills the expressions that consumed the
/// constant, so they become hoistable on the next application (Morel &
/// Renvoise already observed that their transformation benefits from
/// repetition). Each round only deletes or moves computations, so the
/// iteration converges; a generous bound guards against pathological
/// inputs.
pub fn run(f: &mut Function) -> bool {
    match run_budgeted(f, &Budget::UNLIMITED) {
        Ok(any) => any,
        Err(_) => unreachable!("unlimited budget cannot be exceeded"),
    }
}

/// [`run`] under a resource [`Budget`]: cooperative checkpoints per outer
/// application round *and* per LATER/LATERIN sweep inside each round —
/// both loops are fixed points, and the growth dimension also polices
/// edge-split and insertion blowup between rounds.
///
/// # Errors
/// [`BudgetExceeded`] when a round or sweep starts over budget; completed
/// rounds stay applied (callers needing atomicity run a clone).
pub fn run_budgeted(f: &mut Function, budget: &Budget) -> Result<bool, BudgetExceeded> {
    run_budgeted_stats(f, budget).map(|s| s.changed())
}

/// [`run_budgeted`], additionally reporting what the invocation did as a
/// [`PreStats`].
///
/// # Errors
/// [`BudgetExceeded`] exactly as [`run_budgeted`].
pub fn run_budgeted_stats(f: &mut Function, budget: &Budget) -> Result<PreStats, BudgetExceeded> {
    let mut meter = budget.start(f);
    let mut stats = PreStats::default();
    for _ in 0..10 {
        meter.tick(f)?;
        if !run_once_metered(f, &mut meter, &mut stats)? {
            break;
        }
        stats.rounds += 1;
    }
    stats.ticks = meter.ticks();
    Ok(stats)
}

/// Instrumented entry point for the pipeline: [`run_budgeted_stats`] with
/// the stats folded into `counters`.
///
/// # Errors
/// [`BudgetExceeded`] exactly as [`run_budgeted`].
pub fn run_counted(
    f: &mut Function,
    budget: &Budget,
    counters: &mut PassCounters,
) -> Result<bool, BudgetExceeded> {
    let stats = run_budgeted_stats(f, budget)?;
    counters.add("rounds", stats.rounds);
    counters.add("edges_split", stats.edges_split);
    counters.add("exprs_hoisted", stats.exprs_hoisted);
    counters.add("occurrences_deleted", stats.occurrences_deleted);
    counters.add("ticks", stats.ticks);
    Ok(stats.changed())
}

/// One application of Drechsler–Stadel PRE; returns true if anything
/// changed (edges split, insertions, or deletions).
pub fn run_once(f: &mut Function) -> bool {
    let mut meter = Budget::UNLIMITED.start(f);
    match run_once_metered(f, &mut meter, &mut PreStats::default()) {
        Ok(changed) => changed,
        Err(_) => unreachable!("unlimited budget cannot be exceeded"),
    }
}

/// [`run_once`] charging its LATER/LATERIN sweeps to a caller-owned
/// [`Meter`], so the budget spans all rounds of an outer fixed point.
fn run_once_metered(
    f: &mut Function,
    meter: &mut Meter,
    stats: &mut PreStats,
) -> Result<bool, BudgetExceeded> {
    debug_assert!(f.blocks.iter().all(|b| b.phi_count() == 0), "PRE expects φ-free code");
    let splits = split_critical_edges(f);
    stats.edges_split += splits as u64;
    let cfg = Cfg::new(f);
    let universe = ExprUniverse::new(f);
    if universe.is_empty() {
        return Ok(splits > 0);
    }
    let sys = Earliest::new(f, &cfg, &universe);
    let (later, laterin) = later_laterin(&cfg, &sys, || meter.tick(f))?;
    #[cfg(test)]
    tests::assert_round_robin_agrees(&sys, &later, &laterin);
    let cap = universe.len();

    // INSERT / DELETE.
    let mut any_change = splits > 0;
    let mut scratch = BitSet::new(cap);
    let mut insert: Vec<(BlockId, BlockId, Vec<ExprId>)> = Vec::new();
    for (k, &(i, j)) in sys.edges.iter().enumerate() {
        scratch.assign_from(&later[k]);
        scratch.difference_with(&laterin[j.index()]);
        if !scratch.is_empty() {
            insert.push((i, j, scratch.iter().map(|x| ExprId(x as u32)).collect()));
        }
    }

    // Deletions first (they index the original instruction streams).
    let mut killed = BitSet::new(cap);
    for (b, (antloc, laterin)) in sys.antloc.iter().zip(&laterin).enumerate().skip(1) {
        let del = &mut scratch;
        del.assign_from(antloc);
        del.difference_with(laterin);
        if del.is_empty() {
            continue;
        }
        killed.clear();
        let mut exprs = universe.block_exprs(BlockId(b as u32)).iter();
        f.blocks[b].insts.retain(|inst| {
            let mut keep = true;
            if let Some(e) = *exprs.next().expect("one entry per instruction") {
                if del.contains(e.index()) && !killed.contains(e.index()) {
                    keep = false;
                    any_change = true;
                    stats.occurrences_deleted += 1;
                }
            }
            if let Some(d) = inst.dst() {
                for &e in universe.used_by(d) {
                    killed.insert(e.index());
                }
            }
            keep
        });
    }

    // Insertions.
    for (i, j, exprs) in insert {
        any_change = true;
        stats.exprs_hoisted += exprs.len() as u64;
        let insts = materialize(&universe, &exprs);
        if cfg.succs(i).len() == 1 {
            let block = &mut f.blocks[i.index()];
            block.insts.extend(insts);
        } else {
            debug_assert_eq!(cfg.preds(j).len(), 1, "critical edges were split");
            f.blocks[j.index()].insts.splice(0..0, insts);
        }
    }

    debug_assert!(f.verify().is_ok(), "PRE broke the verifier: {f}");
    Ok(any_change)
}

/// PRE's systems for one round, solved up to EARLIEST: the inputs of the
/// LATER/LATERIN fixed point.
struct Earliest {
    /// Every CFG edge, in [`Cfg::edges`] order; edge `k` is `edges[k]`.
    edges: Vec<(BlockId, BlockId)>,
    /// EARLIEST per edge.
    earliest: Vec<BitSet>,
    /// ANTLOC per block, restricted to disciplined expressions.
    antloc: Vec<BitSet>,
}

impl Earliest {
    /// Solve AVAIL and ANTIC over `universe` and derive EARLIEST on every
    /// edge of `cfg`, the snapshot of φ-free `f` with critical edges split.
    fn new(f: &Function, cfg: &Cfg, universe: &ExprUniverse) -> Self {
        let cap = universe.len();
        // Only disciplined expressions participate (see module docs).
        let mut disciplined = BitSet::new(cap);
        for (e, _) in universe.iter() {
            if universe.is_disciplined(e) {
                disciplined.insert(e.index());
            }
        }
        // Take the local predicates apart rather than cloning them: ANTLOC
        // and COMP are masked in place.
        let LocalPredicates { transp, mut antloc, mut comp } = LocalPredicates::new(f, universe);
        for (a, c) in antloc.iter_mut().zip(&mut comp) {
            a.intersect_with(&disciplined);
            c.intersect_with(&disciplined);
        }
        // kill = ¬TRANSP.
        let kill: Vec<BitSet> = transp
            .iter()
            .map(|t| {
                let mut k = BitSet::full(cap);
                k.difference_with(t);
                k
            })
            .collect();

        let avail = solve(cfg, Direction::Forward, Meet::Intersection, &comp, &kill);
        let antic = solve(cfg, Direction::Backward, Meet::Intersection, &antloc, &kill);

        // EARLIEST per edge, rewritten from the textbook form into pure set
        // subtraction:
        //   EARLIEST(i,j) = ANTIN(j) − AVOUT(i) − (TRANSP(i) ∩ ANTOUT(i))
        // (the last term is dropped for the entry block, whose AVOUT
        // boundary already handles it).
        let edges = cfg.edges();
        let mut scratch = BitSet::new(cap);
        let earliest = edges
            .iter()
            .map(|&(i, j)| {
                let mut e = antic.ins[j.index()].clone();
                e.difference_with(&avail.outs[i.index()]);
                if i != BlockId::ENTRY {
                    scratch.assign_from(&transp[i.index()]);
                    scratch.intersect_with(&antic.outs[i.index()]);
                    e.difference_with(&scratch);
                }
                e
            })
            .collect();
        Earliest { edges, earliest, antloc }
    }
}

/// LATER per edge and LATERIN per block, at their greatest fixed point,
/// with one `tick` per sweep.
///
/// Each sweep visits the blocks one by one, the reachable ones in reverse
/// postorder and then the unreachable ones in index order, and updates
/// LATERIN of the block from its in-edges and then LATER on its
/// out-edges, so most facts flow forward within one sweep. Both systems
/// start at ⊤: the sweep reads LATER on back edges before it writes them,
/// and starting LATER at EARLIEST would settle on a smaller fixed point.
/// Unreachable blocks must be swept too, or their sets stay at ⊤.
/// LATERIN is ∅ at the entry and at any other block without in-edges.
fn later_laterin(
    cfg: &Cfg,
    sys: &Earliest,
    mut tick: impl FnMut() -> Result<(), BudgetExceeded>,
) -> Result<(Vec<BitSet>, Vec<BitSet>), BudgetExceeded> {
    let n = cfg.len();
    let cap = sys.antloc.first().map_or(0, BitSet::capacity);
    let edge_ids = || sys.edges.iter().enumerate();
    let out_edges = Csr::from_pairs(n, edge_ids().map(|(k, &(i, _))| (i.index(), k)));
    let in_edges = Csr::from_pairs(n, edge_ids().map(|(k, &(_, j))| (j.index(), k)));
    let mut order = reverse_postorder(cfg);
    let mut listed = vec![false; n];
    for &b in &order {
        listed[b.index()] = true;
    }
    order.extend((0..n).filter(|&b| !listed[b]).map(|b| BlockId(b as u32)));

    let mut later = vec![BitSet::full(cap); sys.edges.len()];
    let mut laterin = vec![BitSet::full(cap); n];
    if let Some(entry) = laterin.first_mut() {
        entry.clear();
    }
    // Each set is recomputed into one scratch buffer and swapped in on
    // change: no allocation per sweep.
    let mut scratch = BitSet::new(cap);
    loop {
        tick()?;
        let mut changed = false;
        for &b in &order {
            let bi = b.index();
            if b != BlockId::ENTRY {
                // LATERIN(b) = ∩ LATER over the in-edges of b.
                match in_edges.row(bi).split_first() {
                    None => scratch.clear(),
                    Some((&first, rest)) => {
                        scratch.assign_from(&later[first]);
                        for &k in rest {
                            scratch.intersect_with(&later[k]);
                        }
                    }
                }
                if scratch != laterin[bi] {
                    std::mem::swap(&mut laterin[bi], &mut scratch);
                    changed = true;
                }
            }
            for &k in out_edges.row(bi) {
                // LATER(b,j) = EARLIEST(b,j) ∪ (LATERIN(b) − ANTLOC(b))
                scratch.assign_from(&sys.earliest[k]);
                scratch.union_with_minus(&laterin[bi], &sys.antloc[bi]);
                if scratch != later[k] {
                    std::mem::swap(&mut later[k], &mut scratch);
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok((later, laterin));
        }
    }
}

/// Build the instructions for a set of expressions inserted on one edge,
/// in dependency order (an expression whose operand is another inserted
/// expression's name comes after it).
fn materialize(universe: &ExprUniverse, exprs: &[ExprId]) -> Vec<Inst> {
    let mut pending: Vec<ExprId> = exprs.to_vec();
    let mut out = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let pick = pending
            .iter()
            .position(|&e| {
                let mut ops = universe.key(e).operands();
                !ops.any(|r| pending.iter().any(|&o| o != e && universe.name(o) == r))
            })
            .unwrap_or(0); // cycle cannot arise from hash-table naming
        let e = pending.remove(pick);
        out.push(inst_of(universe, e));
    }
    out
}

fn inst_of(universe: &ExprUniverse, e: ExprId) -> Inst {
    let dst = universe.name(e);
    match *universe.key(e) {
        ExprKey::Bin { op, ty, lhs, rhs } => Inst::Bin { op, ty, dst, lhs, rhs },
        ExprKey::Un { op, ty, src } => Inst::Un { op, ty, dst, src },
        ExprKey::Const(value) => Inst::LoadI { dst, value },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, Const, FunctionBuilder, Terminator, Ty};
    use std::cell::Cell;

    thread_local! {
        /// PRE rounds on this thread whose sweep was checked.
        static SWEEPS_CHECKED: Cell<usize> = const { Cell::new(0) };
    }

    /// The LATER/LATERIN solve as this module first wrote it: edge-order
    /// round robin, LATER recomputed for every edge and then LATERIN for
    /// every block but the entry, from LATERIN at ⊤ and LATER at EARLIEST.
    /// Kept as the reference the block sweep must agree with.
    fn round_robin_later(sys: &Earliest, n: usize) -> (Vec<BitSet>, Vec<BitSet>) {
        let cap = sys.antloc.first().map_or(0, BitSet::capacity);
        let (edges, earliest, antloc) = (&sys.edges, &sys.earliest, &sys.antloc);
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, &(_, to)) in edges.iter().enumerate() {
            in_edges[to.index()].push(k);
        }
        let mut scratch = BitSet::new(cap);
        let mut laterin: Vec<BitSet> =
            (0..n).map(|b| if b == 0 { BitSet::new(cap) } else { BitSet::full(cap) }).collect();
        let mut later: Vec<BitSet> = earliest.clone();
        loop {
            let mut changed = false;
            for (k, &(i, _)) in edges.iter().enumerate() {
                scratch.assign_from(&earliest[k]);
                scratch.union_with_minus(&laterin[i.index()], &antloc[i.index()]);
                if scratch != later[k] {
                    std::mem::swap(&mut later[k], &mut scratch);
                    changed = true;
                }
            }
            for j in 1..n {
                match in_edges[j].split_first() {
                    None => scratch.clear(),
                    Some((&first, rest)) => {
                        scratch.assign_from(&later[first]);
                        for &k in rest {
                            scratch.intersect_with(&later[k]);
                        }
                    }
                }
                if scratch != laterin[j] {
                    std::mem::swap(&mut laterin[j], &mut scratch);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (later, laterin)
    }

    /// INSERT per edge and DELETE per block (empty at the entry).
    fn insert_delete(sys: &Earliest, later: &[BitSet], laterin: &[BitSet]) -> [Vec<BitSet>; 2] {
        let insert = sys.edges.iter().zip(later).map(|(&(_, j), l)| {
            let mut s = l.clone();
            s.difference_with(&laterin[j.index()]);
            s
        });
        let delete = sys.antloc.iter().zip(laterin).enumerate().map(|(b, (a, l))| {
            let mut s = a.clone();
            s.difference_with(l);
            if b == 0 {
                s.clear();
            }
            s
        });
        [insert.collect(), delete.collect()]
    }

    /// Called on every PRE round of this crate's tests: the block sweep
    /// must place exactly what the round robin places.
    pub(super) fn assert_round_robin_agrees(sys: &Earliest, later: &[BitSet], laterin: &[BitSet]) {
        let (rr_later, rr_laterin) = round_robin_later(sys, laterin.len());
        let [insert, delete] = insert_delete(sys, later, laterin);
        let [rr_insert, rr_delete] = insert_delete(sys, &rr_later, &rr_laterin);
        assert_eq!(insert, rr_insert, "INSERT differs from the round robin's");
        assert_eq!(delete, rr_delete, "DELETE differs from the round robin's");
        SWEEPS_CHECKED.with(|c| c.set(c.get() + 1));
    }

    /// Run PRE on `f` and check that at least one round compared the
    /// block sweep with the round robin.
    fn run_checked(f: &mut Function) {
        let before = SWEEPS_CHECKED.with(Cell::get);
        run(f);
        assert!(f.verify().is_ok(), "{f}");
        assert!(SWEEPS_CHECKED.with(Cell::get) > before, "no PRE round solved LATER: {f}");
    }

    /// Count computations of `add x, y` in the whole function.
    fn count_adds(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .count()
    }

    /// The paper's §2 if-join example: x+y on one path and after the join.
    /// PRE must insert on the other path and delete the join's copy.
    #[test]
    fn if_join_partial_redundancy() {
        let mut b = FunctionBuilder::new("j", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(p, t, e);
        // then-arm computes x+y into the canonical name n.
        let n = b.new_reg(Ty::Int);
        b.switch_to(t);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        // join recomputes x+y into the same name.
        b.switch_to(j);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.ret(Some(n));
        let mut f = b.finish();
        assert_eq!(count_adds(&f), 2);
        run(&mut f);
        assert!(f.verify().is_ok());
        // Still two adds (one per path), but none at the join: the join's
        // occurrence was deleted and one was inserted on the else path.
        assert_eq!(count_adds(&f), 2);
        let join_adds = f
            .block(j)
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(join_adds, 0, "{f}");
    }

    /// The §2 loop example: a loop-invariant x+y is hoisted out. The loop
    /// uses the paper's Figure 3 rotated shape (zero-trip guard at the
    /// top, test at the bottom) — PRE cannot and must not hoist out of a
    /// top-test `while` shape because that would lengthen the zero-trip
    /// path.
    #[test]
    fn hoists_loop_invariant() {
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let i = b.new_reg(Ty::Int);
        let body = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(Const::Int(0));
        b.copy_to(i, z);
        let g = b.bin(BinOp::CmpGe, Ty::Int, i, x);
        b.branch(g, exit, body);
        b.switch_to(body);
        let n = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        let i2 = b.bin(BinOp::Add, Ty::Int, i, n);
        b.copy_to(i, i2);
        let c = b.bin(BinOp::CmpLt, Ty::Int, i, x);
        b.branch(c, body, exit);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut f = b.finish();
        run(&mut f);
        assert!(f.verify().is_ok());
        // x+y no longer computed in the loop body.
        let body_has_xy = f
            .block(body)
            .insts
            .iter()
            .any(|inst| matches!(inst, Inst::Bin { op: BinOp::Add, lhs, rhs, .. } if *lhs == x && *rhs == y));
        assert!(!body_has_xy, "{f}");
        // It is computed exactly once, on the guarded preheader edge (a
        // split landing block between the entry and the body).
        let total_xy = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|inst| matches!(inst, Inst::Bin { op: BinOp::Add, lhs, rhs, .. } if *lhs == x && *rhs == y))
            .count();
        assert_eq!(total_xy, 1, "{f}");
        // And never on the exit path: run both trip counts.
        for xv in [0i64, 5] {
            let mut m = epre_ir::Module::new();
            m.functions.push(f.clone());
            let mut it = epre_interp::Interpreter::new(&m);
            let r = it
                .run("l", &[epre_interp::Value::Int(xv), epre_interp::Value::Int(1)])
                .unwrap();
            assert!(r.is_some());
        }
    }

    /// Fully redundant expression (computed in both arms and after the
    /// join): handled like global CSE — deleted at the join with no
    /// insertion.
    #[test]
    fn full_redundancy_needs_no_insertion() {
        let mut b = FunctionBuilder::new("c", Some(Ty::Int));
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
        let mut f = b.finish();
        assert_eq!(count_adds(&f), 3);
        run(&mut f);
        assert_eq!(count_adds(&f), 2, "{f}");
    }

    /// PRE must NOT hoist an expression past a redefinition of its operand.
    #[test]
    fn respects_kills() {
        // x = ...; n = x + y; x = 0; n2 = x + y — the second x+y (same
        // lexical names) is NOT redundant because x changed.
        let mut b = FunctionBuilder::new("k", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let n = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        let z = b.loadi(Const::Int(0));
        b.copy_to(x, z);
        let n2 = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n2, lhs: x, rhs: y });
        let s = b.bin(BinOp::Mul, Ty::Int, n, n2);
        b.ret(Some(s));
        let mut f = b.finish();
        let before = f.static_op_count();
        run(&mut f);
        assert_eq!(f.static_op_count(), before, "nothing to remove");
    }

    /// Undisciplined expressions (same computation, different targets) are
    /// left alone — the §2.2 example before GVN renaming.
    #[test]
    fn skips_undisciplined_names() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let t = b.new_block();
        let j = b.new_block();
        b.branch(p, t, j);
        b.switch_to(t);
        let _n1 = b.bin(BinOp::Add, Ty::Int, x, y); // fresh name
        b.jump(j);
        b.switch_to(j);
        let n2 = b.bin(BinOp::Add, Ty::Int, x, y); // different fresh name
        b.ret(Some(n2));
        let mut f = b.finish();
        let before = count_adds(&f);
        run(&mut f);
        assert_eq!(count_adds(&f), before, "undisciplined: PRE must not touch");
    }

    /// PRE never lengthens any path: dynamic counts do not increase.
    #[test]
    fn never_lengthens_paths() {
        // The §2 if-join shape, measured with the interpreter on both
        // branch outcomes.
        let build = || {
            let mut b = FunctionBuilder::new("m", Some(Ty::Int));
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
            b.jump(j);
            b.switch_to(j);
            b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
            b.ret(Some(n));
            b.finish()
        };
        let mut opt = build();
        run(&mut opt);
        let orig = build();
        for p in [0i64, 1] {
            let mut m1 = epre_ir::Module::new();
            m1.functions.push(orig.clone());
            let mut m2 = epre_ir::Module::new();
            m2.functions.push(opt.clone());
            let args =
                [epre_interp::Value::Int(3), epre_interp::Value::Int(4), epre_interp::Value::Int(p)];
            let mut i1 = epre_interp::Interpreter::new(&m1);
            let mut i2 = epre_interp::Interpreter::new(&m2);
            let r1 = i1.run("m", &args).unwrap();
            let r2 = i2.run("m", &args).unwrap();
            assert_eq!(r1, r2);
            assert!(i2.counts().total <= i1.counts().total, "path lengthened for p={p}");
        }
    }

    /// Expression anticipated from the entry is placed once, not once per
    /// use (checks the LATER postponement chain and the entry special
    /// case in EARLIEST).
    #[test]
    fn entry_anticipated_expression_single_placement() {
        let mut b = FunctionBuilder::new("e", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let n = b.new_reg(Ty::Int);
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(b2);
        b.switch_to(b2);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.ret(Some(n));
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(count_adds(&f), 1, "{f}");
        // And it is placed no earlier than needed: lazy placement keeps it
        // in b1 (the first use), not hoisted to the entry block.
        assert_eq!(
            f.block(b1).insts.len() + f.blocks[0].insts.len(),
            1,
            "exactly one computation at or before first use: {f}"
        );
        let _ = Terminator::Return { value: None };
    }

    /// `n <- x + y` in the entry, in a block with no predecessors, and in
    /// the join of the two. The unreachable block's LATERIN is ∅, so it
    /// deletes its occurrence; a sweep over reverse postorder alone would
    /// leave it at ⊤.
    #[test]
    fn sweep_agrees_on_predecessor_less_block() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let n = b.new_reg(Ty::Int);
        let dead = b.new_block();
        let join = b.new_block();
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(join);
        b.switch_to(dead);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(join);
        b.switch_to(join);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.ret(Some(n));
        let mut f = b.finish();
        run_checked(&mut f);
        assert!(f.block(dead).insts.is_empty(), "{f}");
        assert_eq!(count_adds(&f), 1, "{f}");
    }

    /// A block reachable only from another unreachable block computes the
    /// expression; its LATERIN comes from the unreachable edge alone.
    #[test]
    fn sweep_agrees_on_block_reached_only_from_unreachable_code() {
        let mut b = FunctionBuilder::new("v", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let n = b.new_reg(Ty::Int);
        let dead = b.new_block();
        let inner = b.new_block();
        let join = b.new_block();
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(join);
        b.switch_to(dead);
        b.jump(inner);
        b.switch_to(inner);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        let m = b.bin(BinOp::Mul, Ty::Int, n, y);
        b.copy_to(n, m);
        b.jump(join);
        b.switch_to(join);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.ret(Some(n));
        let mut f = b.finish();
        run_checked(&mut f);
        let inner_adds = f
            .block(inner)
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(inner_adds, 0, "{f}");
    }

    /// Two-entry loop: the entry branches into both `a` and `b`, which
    /// branch to each other, so neither dominates the other and reverse
    /// postorder meets a retreating edge that is no back edge.
    #[test]
    fn sweep_agrees_on_irreducible_loop() {
        let mut bld = FunctionBuilder::new("irr", Some(Ty::Int));
        let x = bld.param(Ty::Int);
        let y = bld.param(Ty::Int);
        let n = bld.new_reg(Ty::Int);
        let a = bld.new_block();
        let b = bld.new_block();
        let exit = bld.new_block();
        let c = bld.bin(BinOp::CmpLt, Ty::Int, x, y);
        bld.branch(c, a, b);
        bld.switch_to(a);
        bld.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        bld.branch(c, b, exit);
        bld.switch_to(b);
        bld.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        let k = bld.bin(BinOp::Mul, Ty::Int, n, x);
        bld.copy_to(x, k);
        bld.jump(a);
        bld.switch_to(exit);
        bld.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        bld.ret(Some(n));
        let mut f = bld.finish();
        run_checked(&mut f);
    }

    /// Mini-FORTRAN routines through the front end, in both naming
    /// disciplines, and after GVN renaming: loops, nests, guards, while
    /// loops and a loop-carried redefinition.
    #[test]
    fn sweep_agrees_on_fortran_routines() {
        let sources = [
            "function sum(n, a)\n integer n, i\n real sum, a(*), s, t\n begin\n s = 0\n \
             t = 0\n do i = 1, n\n s = s + a(i) * 2.0\n t = t + a(i) * 2.0\n enddo\n \
             return s + t\n end\n",
            "function nest(n, m)\n integer nest, n, m, i, j, k\n begin\n k = 0\n \
             do i = 1, n\n do j = 1, m\n k = k + (n + m) * j + i * m\n enddo\n \
             k = k + n * m\n enddo\n return k\n end\n",
            "function pick(x, y)\n integer pick, x, y, z\n begin\n z = 0\n \
             if x > y then\n z = x * y + 1\n elseif x < 0 then\n z = x - y\n else\n \
             z = x + y\n endif\n return z + x * y + (x - y)\n end\n",
            "function digits(num)\n integer digits, num, n, s\n begin\n n = num\n s = 0\n \
             while n > 0 do\n s = s * 10 + mod(n, 10)\n n = n / 10\n endwhile\n \
             return s + num * 10\n end\n",
        ];
        use epre_frontend::NamingMode;
        for src in sources {
            for mode in [NamingMode::Disciplined, NamingMode::Simple] {
                let m = epre_frontend::compile(src, mode).unwrap_or_else(|e| panic!("{e}\n{src}"));
                for f in &m.functions {
                    run_checked(&mut f.clone());
                    let mut renamed = f.clone();
                    crate::gvn::run(&mut renamed);
                    run_checked(&mut renamed);
                }
            }
        }
    }
}
