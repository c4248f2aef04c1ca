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
//! A key property, used by the paper's argument: **PRE never lengthens an
//! execution path** — the dynamic operation count of the transformed
//! function never exceeds the original on any input.
//!
//! Rounds after the first are incremental (`Rounds`): they keep the
//! first round's CFG and solve only the expressions the previous round
//! can have affected. Every system above is solved bit by bit, so the
//! other expressions keep the empty INSERT and DELETE they had.

use epre_analysis::{
    AnalysisCache, BitSet, Direction, ExprId, ExprKey, ExprUniverse, LocalPredicates, Meet,
    Solution,
};
use epre_cfg::edit::split_critical_edges;
use epre_cfg::{postorder, Cfg, Csr};
use epre_ir::{BlockId, Function, Inst};

use crate::budget::{Budget, BudgetExceeded, Meter};
use epre_telemetry::PassCounters;

/// What one [`run`] invocation did, in the paper's own
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

    /// Fold the stats into a trace span's counters.
    pub fn report(&self, counters: &mut PassCounters) {
        counters.add("rounds", self.rounds);
        counters.add("edges_split", self.edges_split);
        counters.add("exprs_hoisted", self.exprs_hoisted);
        counters.add("occurrences_deleted", self.occurrences_deleted);
        counters.add("ticks", self.ticks);
    }
}

/// Run PRE to a fixed point under a resource [`Budget`]. PRE builds its
/// own CFG and universe, so a changing run drops every entry of the
/// pipeline's `cache`.
///
/// A single application exposes *second-order* opportunities: hoisting a
/// `loadi` out of a block un-kills the expressions that consumed the
/// constant, so they become hoistable on the next application (Morel &
/// Renvoise already observed that their transformation benefits from
/// repetition). Each round only deletes or moves computations, so the
/// iteration converges; a generous bound guards against pathological
/// inputs. There are cooperative checkpoints per outer application round
/// *and* per LATER/LATERIN sweep inside each round — both loops are fixed
/// points, and the growth dimension also polices edge-split and insertion
/// blowup between rounds.
///
/// # Errors
/// [`BudgetExceeded`] when a round or sweep starts over budget; completed
/// rounds stay applied (callers needing atomicity run a clone).
pub fn run(
    f: &mut Function,
    cache: &mut AnalysisCache,
    budget: &Budget,
) -> Result<PreStats, BudgetExceeded> {
    let mut meter = budget.start(f);
    let mut stats = PreStats::default();
    let mut rounds = Rounds::default();
    for _ in 0..10 {
        meter.tick(f)?;
        if !rounds.run(f, &mut meter, &mut stats)? {
            break;
        }
        stats.rounds += 1;
    }
    stats.ticks = meter.ticks();
    if stats.changed() {
        cache.invalidate_all();
    }
    Ok(stats)
}

/// One application of Drechsler–Stadel PRE; returns true if anything
/// changed (edges split, insertions, or deletions).
pub fn run_once(f: &mut Function) -> bool {
    let mut meter = Budget::UNLIMITED.start(f);
    match Rounds::default().run(f, &mut meter, &mut PreStats::default()) {
        Ok(changed) => changed,
        Err(_) => unreachable!("unlimited budget cannot be exceeded"),
    }
}

/// The state one invocation carries from round to round.
///
/// The first round splits the critical edges and solves over the full
/// universe. After that split no edge is critical, and a round only
/// deletes and inserts instructions inside blocks: it adds no block and
/// touches no terminator. So every later round keeps the first round's
/// [`Shape`], and solves over a universe restricted to what the previous
/// round can have affected (see [`Rounds::restrict`]).
#[derive(Default)]
struct Rounds {
    /// Rounds run so far.
    done: u32,
    /// The CFG after the first round's split, and what the solves derive
    /// from it.
    shape: Option<Shape>,
    /// The first round's universe. No later round meets a key it lacks:
    /// rounds insert only expressions of their own universe.
    first: ExprUniverse,
    /// The universe of the latest round after the first.
    restricted: ExprUniverse,
    /// The expressions the latest round inserted or deleted, as ids of its
    /// universe.
    moved: BitSet,
    /// The next round's members, as ids of `first`.
    members: BitSet,
    /// The bit-set systems, kept for their storage.
    systems: Systems,
}

impl Rounds {
    /// Run one round; returns true if it changed the function.
    fn run(
        &mut self,
        f: &mut Function,
        meter: &mut Meter,
        stats: &mut PreStats,
    ) -> Result<bool, BudgetExceeded> {
        debug_assert!(f.blocks.iter().all(|b| b.phi_count() == 0), "PRE expects φ-free code");
        #[cfg(test)]
        let reference = (self.done > 0).then(|| f.clone());
        let splits = if self.done == 0 {
            let splits = split_critical_edges(f);
            self.shape = Some(Shape::new(f));
            self.first.rebuild(f, |_| true);
            self.members = BitSet::new(self.first.len());
            splits
        } else {
            self.restrict(f);
            0
        };
        stats.edges_split += splits as u64;
        self.done += 1;
        let universe = if self.done == 1 { &self.first } else { &self.restricted };
        let shape = self.shape.as_ref().expect("the first round sets the shape");
        self.moved = if universe.is_empty() {
            BitSet::default()
        } else {
            let systems = &mut self.systems;
            systems.solve(f, shape, universe, || meter.tick(f))?;
            #[cfg(test)]
            tests::assert_round_robin_agrees(shape, systems);
            systems.apply(f, shape, universe, stats)
        };
        let changed = splits > 0 || !self.moved.is_empty();
        #[cfg(test)]
        if let Some(reference) = reference {
            tests::assert_full_round_agrees(reference, f, changed);
        }
        Ok(changed)
    }

    /// Restrict the round about to run to the expressions the previous
    /// round moved, and every expression that reads the name of one. A
    /// move changes only the occurrences of the moved expressions and the
    /// definitions of their names, so every other expression keeps its
    /// TRANSP, ANTLOC, COMP and discipline on an unchanged CFG, and with
    /// them its empty INSERT and DELETE.
    ///
    /// Members are matched by key, not by destination register: a register
    /// may be the name of several keys, and an undisciplined expression has
    /// occurrences with several destinations. Readers come from the first
    /// round's `used_by`, disciplined or not. An undisciplined expression
    /// is never deleted, but LATER can still place it wherever LATERIN
    /// meets an edge whose LATER holds it and one whose LATER does not:
    /// out of an unreachable cycle, where LATERIN stays ⊤, or into a loop
    /// that never exits, where ANTIN is ⊤ once the loop is transparent for
    /// it. A move that changes its TRANSP can thus change its placement.
    fn restrict(&mut self, f: &Function) {
        let last = if self.done == 1 { &self.first } else { &self.restricted };
        self.members.clear();
        for m in self.moved.iter().map(|m| ExprId(m as u32)) {
            let id = self.first.id(last.key(m)).expect("the first round met every key");
            self.members.insert(id.index());
            for reader in self.first.used_by(last.name(m)) {
                self.members.insert(reader.index());
            }
        }
        let (first, members) = (&self.first, &self.members);
        self.restricted
            .rebuild(f, |key| first.id(key).is_some_and(|id| members.contains(id.index())));
    }
}

/// The CFG of the function after the first round's split, with the edge
/// lists and block orders the solves need.
struct Shape {
    cfg: Cfg,
    /// Every CFG edge, in [`Cfg::edges`] order; edge `k` is `edges[k]`.
    edges: Vec<(BlockId, BlockId)>,
    /// The ids of the edges leaving and entering each block.
    out_edges: Csr<usize>,
    in_edges: Csr<usize>,
    /// The reachable blocks in reverse postorder, then the unreachable ones
    /// in index order: the LATER sweep. Its first `reachable` entries are
    /// the reverse postorder AVAIL visits.
    sweep: Vec<BlockId>,
    reachable: usize,
    /// The postorder ANTIC visits.
    postorder: Vec<BlockId>,
}

impl Shape {
    fn new(f: &Function) -> Self {
        let cfg = Cfg::new(f);
        let n = cfg.len();
        let edges = cfg.edges();
        let edge_ids = || edges.iter().enumerate();
        let out_edges = Csr::from_pairs(n, edge_ids().map(|(k, &(i, _))| (i.index(), k)));
        let in_edges = Csr::from_pairs(n, edge_ids().map(|(k, &(_, j))| (j.index(), k)));
        let postorder = postorder(&cfg);
        let mut sweep: Vec<BlockId> = Vec::with_capacity(n);
        sweep.extend(postorder.iter().rev());
        let reachable = sweep.len();
        let mut listed = vec![false; n];
        for &b in &sweep {
            listed[b.index()] = true;
        }
        sweep.extend((0..n).filter(|&b| !listed[b]).map(|b| BlockId(b as u32)));
        Shape { cfg, edges, out_edges, in_edges, sweep, reachable, postorder }
    }
}

/// PRE's bit-set systems for one round. Each round overwrites them, so
/// later rounds reuse their storage.
#[derive(Default)]
struct Systems {
    /// TRANSP, and ANTLOC and COMP restricted to disciplined expressions.
    local: LocalPredicates,
    /// ¬TRANSP per block.
    kill: Vec<BitSet>,
    avail: Solution,
    antic: Solution,
    /// EARLIEST per edge.
    earliest: Vec<BitSet>,
    /// LATER per edge and LATERIN per block.
    later: Vec<BitSet>,
    laterin: Vec<BitSet>,
    /// Scratch for [`materialize`]: the expressions still to place on an
    /// edge, and the instructions placed.
    pending: Vec<ExprId>,
    placed: Vec<Inst>,
}

impl Systems {
    /// Solve the systems for φ-free `f` over `universe`, on `shape`, with
    /// one `tick` per LATER/LATERIN sweep.
    fn solve(
        &mut self,
        f: &Function,
        shape: &Shape,
        universe: &ExprUniverse,
        tick: impl FnMut() -> Result<(), BudgetExceeded>,
    ) -> Result<(), BudgetExceeded> {
        let cap = universe.len();
        // Only disciplined expressions participate (see module docs).
        let mut disciplined = BitSet::new(cap);
        for (e, _) in universe.iter() {
            if universe.is_disciplined(e) {
                disciplined.insert(e.index());
            }
        }
        self.local.recompute(f, universe);
        let LocalPredicates { transp, antloc, comp } = &mut self.local;
        for (a, c) in antloc.iter_mut().zip(comp.iter_mut()) {
            a.intersect_with(&disciplined);
            c.intersect_with(&disciplined);
        }
        self.kill.clear();
        self.kill.extend(transp.iter().map(|t| {
            let mut k = BitSet::full(cap);
            k.difference_with(t);
            k
        }));

        let (cfg, kill) = (&shape.cfg, &self.kill);
        let rpo = &shape.sweep[..shape.reachable];
        self.avail.solve_ordered(cfg, rpo, Direction::Forward, Meet::Intersection, comp, kill);
        let po = &shape.postorder;
        self.antic.solve_ordered(cfg, po, Direction::Backward, Meet::Intersection, antloc, kill);

        // EARLIEST per edge, rewritten from the textbook form into pure set
        // subtraction:
        //   EARLIEST(i,j) = ANTIN(j) − AVOUT(i) − (TRANSP(i) ∩ ANTOUT(i))
        // (the last term is dropped for the entry block, whose AVOUT
        // boundary already handles it).
        let (avail, antic) = (&self.avail, &self.antic);
        let mut scratch = BitSet::new(cap);
        self.earliest.clear();
        self.earliest.extend(shape.edges.iter().map(|&(i, j)| {
            let mut e = antic.ins[j.index()].clone();
            e.difference_with(&avail.outs[i.index()]);
            if i != BlockId::ENTRY {
                scratch.assign_from(&transp[i.index()]);
                scratch.intersect_with(&antic.outs[i.index()]);
                e.difference_with(&scratch);
            }
            e
        }));
        self.later_laterin(shape, cap, tick)
    }

    /// LATER per edge and LATERIN per block, at their greatest fixed point,
    /// with one `tick` per sweep.
    ///
    /// Each sweep visits the blocks in [`Shape::sweep`] order, the
    /// reachable ones in reverse postorder and then the unreachable ones in
    /// index order, and updates LATERIN of the block from its in-edges and
    /// then LATER on its out-edges, so most facts flow forward within one
    /// sweep. Both systems start at ⊤: the sweep reads LATER on back edges
    /// before it writes them, and starting LATER at EARLIEST would settle
    /// on a smaller fixed point. Unreachable blocks must be swept too, or
    /// their sets stay at ⊤. LATERIN is ∅ at the entry and at any other
    /// block without in-edges.
    fn later_laterin(
        &mut self,
        shape: &Shape,
        cap: usize,
        mut tick: impl FnMut() -> Result<(), BudgetExceeded>,
    ) -> Result<(), BudgetExceeded> {
        let Systems { local, earliest, later, laterin, .. } = self;
        later.clear();
        later.resize(shape.edges.len(), BitSet::full(cap));
        laterin.clear();
        laterin.resize(shape.cfg.len(), BitSet::full(cap));
        if let Some(entry) = laterin.first_mut() {
            entry.clear();
        }
        // Each set is recomputed into one scratch buffer and swapped in on
        // change: no allocation per sweep.
        let mut scratch = BitSet::new(cap);
        loop {
            tick()?;
            let mut changed = false;
            for &b in &shape.sweep {
                let bi = b.index();
                if b != BlockId::ENTRY {
                    // LATERIN(b) = ∩ LATER over the in-edges of b.
                    match shape.in_edges.row(bi).split_first() {
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
                for &k in shape.out_edges.row(bi) {
                    // LATER(b,j) = EARLIEST(b,j) ∪ (LATERIN(b) − ANTLOC(b))
                    scratch.assign_from(&earliest[k]);
                    scratch.union_with_minus(&laterin[bi], &local.antloc[bi]);
                    if scratch != later[k] {
                        std::mem::swap(&mut later[k], &mut scratch);
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(());
            }
        }
    }

    /// Apply DELETE and INSERT to `f`, the function the systems were solved
    /// for, and return the expressions moved, as ids of `universe`.
    fn apply(
        &mut self,
        f: &mut Function,
        shape: &Shape,
        universe: &ExprUniverse,
        stats: &mut PreStats,
    ) -> BitSet {
        let Systems { local, later, laterin, pending, placed, .. } = self;
        let cap = universe.len();
        let mut moved = BitSet::new(cap);
        let mut scratch = BitSet::new(cap);

        // Deletions first (they index the instruction streams the universe
        // scanned).
        let mut killed = BitSet::new(cap);
        for (b, (antloc, laterin)) in local.antloc.iter().zip(&*laterin).enumerate().skip(1) {
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
                        moved.insert(e.index());
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

        // Insertions: INSERT(i,j) = LATER(i,j) − LATERIN(j), edge by edge.
        for (k, &(i, j)) in shape.edges.iter().enumerate() {
            let insert = &mut scratch;
            insert.assign_from(&later[k]);
            insert.difference_with(&laterin[j.index()]);
            if insert.is_empty() {
                continue;
            }
            moved.union_with(insert);
            stats.exprs_hoisted += insert.len() as u64;
            materialize(universe, insert, pending, placed);
            if shape.cfg.succs(i).len() == 1 {
                f.blocks[i.index()].insts.append(placed);
            } else {
                debug_assert_eq!(shape.cfg.preds(j).len(), 1, "critical edges were split");
                f.blocks[j.index()].insts.splice(0..0, placed.drain(..));
            }
        }

        debug_assert!(f.verify().is_ok(), "PRE broke the verifier: {f}");
        moved
    }
}

/// Build into `placed` the instructions for a set of expressions inserted
/// on one edge, in dependency order (an expression whose operand is
/// another inserted expression's name comes after it).
fn materialize(
    universe: &ExprUniverse,
    exprs: &BitSet,
    pending: &mut Vec<ExprId>,
    placed: &mut Vec<Inst>,
) {
    pending.clear();
    pending.extend(exprs.iter().map(|x| ExprId(x as u32)));
    while !pending.is_empty() {
        let pick = pending
            .iter()
            .position(|&e| {
                let mut ops = universe.key(e).operands();
                !ops.any(|r| pending.iter().any(|&o| o != e && universe.name(o) == r))
            })
            .unwrap_or(0); // cycle cannot arise from hash-table naming
        let e = pending.remove(pick);
        placed.push(inst_of(universe, e));
    }
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
    use crate::{passes::Pre, Pass};
    use epre_ir::{BinOp, Const, FunctionBuilder, Terminator, Ty};
    use std::cell::Cell;

    thread_local! {
        /// PRE rounds on this thread whose sweep was checked.
        static SWEEPS_CHECKED: Cell<usize> = const { Cell::new(0) };
        /// Restricted rounds on this thread checked against a full round.
        static ROUNDS_CHECKED: Cell<usize> = const { Cell::new(0) };
    }

    /// The LATER/LATERIN solve as this module first wrote it: edge-order
    /// round robin, LATER recomputed for every edge and then LATERIN for
    /// every block but the entry, from LATERIN at ⊤ and LATER at EARLIEST.
    /// Kept as the reference the block sweep must agree with.
    fn round_robin_later(shape: &Shape, sys: &Systems) -> (Vec<BitSet>, Vec<BitSet>) {
        let n = shape.cfg.len();
        let (edges, earliest, antloc) = (&shape.edges, &sys.earliest, &sys.local.antloc);
        let cap = antloc.first().map_or(0, BitSet::capacity);
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
    fn insert_delete(
        shape: &Shape,
        antloc: &[BitSet],
        later: &[BitSet],
        laterin: &[BitSet],
    ) -> [Vec<BitSet>; 2] {
        let insert = shape.edges.iter().zip(later).map(|(&(_, j), l)| {
            let mut s = l.clone();
            s.difference_with(&laterin[j.index()]);
            s
        });
        let delete = antloc.iter().zip(laterin).enumerate().map(|(b, (a, l))| {
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
    pub(super) fn assert_round_robin_agrees(shape: &Shape, sys: &Systems) {
        let (rr_later, rr_laterin) = round_robin_later(shape, sys);
        let antloc = &sys.local.antloc;
        let [insert, delete] = insert_delete(shape, antloc, &sys.later, &sys.laterin);
        let [rr_insert, rr_delete] = insert_delete(shape, antloc, &rr_later, &rr_laterin);
        assert_eq!(insert, rr_insert, "INSERT differs from the round robin's");
        assert_eq!(delete, rr_delete, "DELETE differs from the round robin's");
        SWEEPS_CHECKED.with(|c| c.set(c.get() + 1));
    }

    /// Called after every restricted round of this crate's tests, with the
    /// function as the round found it: a full round ([`run_once`]) on that
    /// function must leave exactly what the restricted round left, and
    /// report the same change.
    pub(super) fn assert_full_round_agrees(mut reference: Function, f: &Function, changed: bool) {
        let before = reference.clone();
        let full_changed = run_once(&mut reference);
        assert_eq!(*f, reference, "a restricted round differs from a full round on\n{before}");
        assert_eq!(changed, full_changed, "a restricted round reports another change on\n{before}");
        ROUNDS_CHECKED.with(|c| c.set(c.get() + 1));
    }

    /// Run PRE on `f` and check that at least one round compared the
    /// block sweep with the round robin.
    fn run_checked(f: &mut Function) {
        let before = SWEEPS_CHECKED.with(Cell::get);
        Pre.run(f);
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
        Pre.run(&mut f);
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
        Pre.run(&mut f);
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
            let r =
                it.run("l", &[epre_interp::Value::Int(xv), epre_interp::Value::Int(1)]).unwrap();
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
        Pre.run(&mut f);
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
        Pre.run(&mut f);
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
        Pre.run(&mut f);
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
        Pre.run(&mut opt);
        let orig = build();
        for p in [0i64, 1] {
            let mut m1 = epre_ir::Module::new();
            m1.functions.push(orig.clone());
            let mut m2 = epre_ir::Module::new();
            m2.functions.push(opt.clone());
            let args = [
                epre_interp::Value::Int(3),
                epre_interp::Value::Int(4),
                epre_interp::Value::Int(p),
            ];
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
        Pre.run(&mut f);
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

    /// Run PRE on `f` and return how many restricted rounds were checked
    /// against a full round.
    fn restricted_rounds_checked(f: &mut Function) -> usize {
        let before = ROUNDS_CHECKED.with(Cell::get);
        Pre.run(f);
        assert!(f.verify().is_ok(), "{f}");
        ROUNDS_CHECKED.with(Cell::get) - before
    }

    /// A second-order chain in a rotated loop: each round hoists one more
    /// link, the `loadi` first, so five restricted rounds follow the first:
    /// four that hoist a multiplication and a closing one.
    #[test]
    fn restricted_rounds_follow_a_hoisting_chain() {
        let mut b = FunctionBuilder::new("chain", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let body = b.new_block();
        let exit = b.new_block();
        let acc = b.new_reg(Ty::Int);
        let z = b.loadi(Const::Int(0));
        b.copy_to(acc, z);
        let g = b.bin(BinOp::CmpGe, Ty::Int, acc, x);
        b.branch(g, exit, body);
        b.switch_to(body);
        let mut link = b.loadi(Const::Int(3));
        for _ in 0..4 {
            link = b.bin(BinOp::Mul, Ty::Int, link, x);
        }
        let t = b.bin(BinOp::Add, Ty::Int, acc, link);
        b.copy_to(acc, t);
        let c = b.bin(BinOp::CmpLt, Ty::Int, acc, x);
        b.branch(c, body, exit);
        b.switch_to(exit);
        b.ret(Some(acc));
        let mut f = b.finish();
        assert_eq!(restricted_rounds_checked(&mut f), 5, "{f}");
        let stats = run(&mut f.clone(), &mut AnalysisCache::new(), &Budget::UNLIMITED).unwrap();
        assert_eq!(stats.rounds, 0, "the fixed point needs no further round");
    }

    /// The front end's `inideb` with its entry branch made `cbr r9 -> b2,
    /// b2`, which leaves the loop `b1` reachable only from itself, and the
    /// second `r21 <- loadi 0.1:f` in `b1` retargeted to `r13`. LATERIN
    /// stays ⊤ in the unreachable loop, so every round places its
    /// undisciplined expressions on the loop's exit edge again, and `r13`
    /// names two keys: a restricted round must match its members by key.
    /// PRE runs all 10 rounds and grows the function from 51 to 113
    /// instructions; the expected text is what full rounds produce.
    #[test]
    fn unreachable_loop_moves_undisciplined_expressions() {
        let input = include_str!("../testdata/inideb_unreachable_loop.iloc");
        let expected = include_str!("../testdata/inideb_unreachable_loop.pre.iloc");
        let mut m = epre_ir::parse_module(input).unwrap();
        let f = &mut m.functions[0];
        assert_eq!(f.inst_count(), 51);
        let before = ROUNDS_CHECKED.with(Cell::get);
        let stats = run(f, &mut AnalysisCache::new(), &Budget::UNLIMITED).unwrap();
        assert_eq!(ROUNDS_CHECKED.with(Cell::get) - before, 9);
        assert_eq!(
            (stats.rounds, stats.edges_split, stats.exprs_hoisted, stats.occurrences_deleted),
            (10, 1, 93, 31)
        );
        assert_eq!(f.inst_count(), 113);
        assert_eq!(m.to_string(), expected);
    }

    /// A loop that never exits, entered from the entry and from a block
    /// without predecessors, computes `loadi 7` and two copies of `c + x`
    /// into different registers: `c + x` is undisciplined. The first round
    /// hoists the constant onto the loop's entry edge. That makes the loop
    /// transparent for `c + x`, so ANTIN holds it there, while LATERIN is
    /// ∅ along the edge from the predecessor-less block: the second round
    /// inserts `c + x` on the entry edge, though the first moved no `c +
    /// x`. A restricted round must therefore follow undisciplined readers
    /// too.
    #[test]
    fn restricted_rounds_follow_undisciplined_readers() {
        let mut b = FunctionBuilder::new("r", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let body = b.new_block();
        let dead = b.new_block();
        let exit = b.new_block();
        b.branch(p, body, exit);
        b.switch_to(body);
        let c = b.loadi(Const::Int(7));
        b.bin(BinOp::Add, Ty::Int, c, x);
        b.bin(BinOp::Add, Ty::Int, c, x);
        b.jump(body);
        b.switch_to(dead);
        b.jump(body);
        b.switch_to(exit);
        b.ret(Some(x));
        let mut f = b.finish();
        let mut once = f.clone();
        run_once(&mut once);
        assert_eq!(count_adds(&once), 2, "{once}");
        assert!(restricted_rounds_checked(&mut f) > 0);
        assert!(count_adds(&f) > 2, "the second round inserts `c + x`: {f}");
    }

    /// The suite's 50 routines in both naming modes, as the front end
    /// emits them and after reassociation (with and without distribution)
    /// and GVN: every restricted round equals a full round.
    #[test]
    fn restricted_rounds_equal_full_rounds_on_the_suite() {
        use crate::passes::{Gvn, Reassociate};
        use epre_frontend::NamingMode;
        let mut checked = 0;
        for r in epre_suite::all_routines() {
            for mode in [NamingMode::Disciplined, NamingMode::Simple] {
                let m = r.compile(mode).unwrap_or_else(|e| panic!("{}: {e}", r.name));
                for f in &m.functions {
                    checked += restricted_rounds_checked(&mut f.clone());
                    for distribute in [false, true] {
                        let mut g = f.clone();
                        Reassociate { distribute }.run(&mut g);
                        Gvn.run(&mut g);
                        checked += restricted_rounds_checked(&mut g);
                    }
                }
            }
        }
        assert!(checked > 1_000, "only {checked} restricted rounds");
    }

    /// 1,000 seeded mutants of the suite (dropped, duplicated and swapped
    /// instructions, retargeted branches, clobbered definitions), each
    /// mutated function that passes the verifier run through PRE: every
    /// restricted round equals a full round.
    #[test]
    fn restricted_rounds_equal_full_rounds_on_mutants() {
        use epre_frontend::NamingMode;
        use epre_harness::{mutate_module, SplitMix64};
        let modules: Vec<epre_ir::Module> = epre_suite::all_routines()
            .iter()
            .map(|r| r.compile(NamingMode::Disciplined).unwrap())
            .collect();
        let mut rng = SplitMix64::new(0x5eed_0024);
        let (mut mutants, mut checked) = (0, 0);
        for i in 0..5_000 {
            if mutants == 1_000 {
                break;
            }
            let Some((mutant, what)) = mutate_module(&modules[i % modules.len()], &mut rng) else {
                continue;
            };
            let f = mutant.functions.iter().find(|f| f.name == what.function).unwrap();
            if f.verify().is_ok() {
                mutants += 1;
                checked += restricted_rounds_checked(&mut f.clone());
            }
        }
        assert_eq!(mutants, 1_000);
        assert!(checked > 500, "only {checked} restricted rounds");
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
                    crate::passes::Gvn.run(&mut renamed);
                    run_checked(&mut renamed);
                }
            }
        }
    }
}
