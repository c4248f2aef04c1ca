//! Copy coalescing — "the coalescing phase of a Chaitin-style global
//! register allocator" (§3.2, §4.1, reference \[6\]).
//!
//! The paper's pipeline creates many copies (assignments, φ-destruction,
//! the variable names targeted during reassociation); coalescing removes
//! every copy whose source and destination do not interfere, by merging
//! the two names. Figure 10 of the paper shows the effect on the running
//! example: all copies disappear.
//!
//! Interference is the classic definition-against-live rule, computed from
//! block liveness with a backwards scan; for a copy `d <- s`, `s` is
//! excluded from the interference of `d` (they may share a register if
//! nothing else conflicts).
//!
//! # Incremental interference representation
//!
//! The original formulation merged exactly one copy per round and then
//! recomputed liveness plus an all-pairs `HashSet<(Reg, Reg)>` graph from
//! scratch — quadratic rebuilds that dominated the whole pipeline. This
//! implementation builds the graph **once per batch** as bitset adjacency
//! rows ([`epre_analysis::BitSet`], one row per register index) and keeps
//! **union-find copy classes** so every non-interfering copy found in one
//! scan merges in the same round:
//!
//! * on a merge, the two adjacency rows are unioned and the class
//!   representative remapped — no liveness recomputation. The union
//!   over-approximates true post-merge interference (removing a copy only
//!   ever *shrinks* live ranges), so merging eagerly against the updated
//!   graph is conservative and therefore sound;
//! * the **invalidation condition** is "this batch merged at least one
//!   copy": the rename sweep edits instructions, so the cached liveness
//!   and expression universe are dropped and the next batch rebuilds a
//!   fresh, exact graph. A batch that merges nothing is a fixed point
//!   (unions only ever *add* conservative edges, so a rescan of the same
//!   graph cannot find new candidates) and terminates the pass;
//! * cooperative [`Budget`] checkpoints fire once per merged **batch**,
//!   not per single-copy round — the unit of progress is now "one scan
//!   plus one rename sweep";
//! * the graph is **candidate-restricted**: only registers appearing as an
//!   operand of some copy get adjacency edges, because those are the only
//!   nodes ever queried (class representatives are always copy operands).
//!   The def-against-live inner loop visits live *candidates*, not all
//!   live registers, and a function with no copies proves its fixed point
//!   without computing liveness at all.
//!
//! Liveness itself is served by the [`AnalysisCache`] (a quiesced `dce`
//! immediately before coalescing leaves a valid entry behind, so the first
//! batch usually rides a cache hit).

use epre_analysis::{AnalysisCache, BitSet, Liveness};
use epre_ir::{Function, Inst, Reg};

use crate::budget::{Budget, BudgetExceeded};
use epre_telemetry::PassCounters;

/// What one coalescing invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Trivial `d <- d` self-copies dropped up front.
    pub self_copies_removed: u64,
    /// Non-trivial copies merged away (possibly many per round).
    pub copies_coalesced: u64,
    /// Interference scans performed, including the final empty one that
    /// proves the fixed point. Always ≥ 1 per invocation.
    pub rounds: u64,
    /// Rounds whose liveness had to be computed fresh (the rest were
    /// served from the [`AnalysisCache`]).
    pub liveness_builds: u64,
}

impl CoalesceStats {
    /// Did the invocation change the function at all?
    pub fn changed(&self) -> bool {
        self.self_copies_removed + self.copies_coalesced > 0
    }

    /// Fold the stats into a trace span's counters.
    pub fn report(&self, counters: &mut PassCounters) {
        counters.add("copies_coalesced", self.copies_coalesced);
        counters.add("self_copies_removed", self.self_copies_removed);
        counters.add("rounds", self.rounds);
        counters.add("liveness_builds", self.liveness_builds);
    }
}

/// Run coalescing rounds until no copy can be merged, against the
/// pipeline's [`AnalysisCache`], under a resource [`Budget`].
///
/// Coalescing renames registers and deletes copies but never touches
/// block structure: every round's liveness shares one cached CFG, which
/// also survives the pass. The renames make any cached expression
/// universe and liveness stale, so each changing step invalidates both.
/// There is one cooperative checkpoint per merged batch (each batch scans
/// the function once, merges every non-interfering copy it finds, and
/// applies one rename sweep — batches are the unit of progress, and of
/// divergence if a broken interference rule kept re-introducing copies).
///
/// # Errors
/// [`BudgetExceeded`] when a batch starts over budget; merges already
/// performed stay performed (callers needing atomicity run a clone).
pub fn run(
    f: &mut Function,
    cache: &mut AnalysisCache,
    budget: &Budget,
) -> Result<CoalesceStats, BudgetExceeded> {
    debug_assert!(f.blocks.iter().all(|b| b.phi_count() == 0), "coalesce expects φ-free code");
    let mut meter = budget.start(f);
    let mut stats = CoalesceStats::default();
    // Drop trivial self-copies first.
    for b in &mut f.blocks {
        let before = b.insts.len();
        b.insts.retain(|i| !matches!(i, Inst::Copy { dst, src } if dst == src));
        stats.self_copies_removed += (before - b.insts.len()) as u64;
    }
    if stats.self_copies_removed > 0 {
        // A deleted `x <- x` was both a def and a use of `x`: the universe
        // and upward-exposed-use sets may have changed.
        cache.invalidate_universe();
        cache.invalidate_liveness();
    }
    loop {
        meter.tick(f)?;
        stats.rounds += 1;
        let merged = coalesce_batch(f, cache, &mut stats);
        if merged == 0 {
            break;
        }
        stats.copies_coalesced += merged;
        // Invalidation condition: the rename sweep rewrote instructions,
        // so the batch's conservative graph no longer matches a fresh
        // computation. Drop liveness and universe; the next batch rebuilds
        // an exact graph and either finds the copies the conservative
        // unions suppressed or proves the fixed point.
        cache.invalidate_universe();
        cache.invalidate_liveness();
    }
    Ok(stats)
}

/// Union-find over register indices tracking which classes contain a
/// parameter. Path-halving keeps finds near-constant.
struct CopyClasses {
    parent: Vec<u32>,
    is_param: Vec<bool>,
}

impl CopyClasses {
    fn new(f: &Function) -> Self {
        let n = f.reg_count();
        let mut classes = CopyClasses { parent: (0..n as u32).collect(), is_param: vec![false; n] };
        for p in &f.params {
            classes.is_param[p.index()] = true;
        }
        classes
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] as usize != i {
            let grand = self.parent[self.parent[i] as usize];
            self.parent[i] = grand;
            i = grand as usize;
        }
        i
    }

    fn union_into(&mut self, keep: usize, gone: usize) {
        self.parent[gone] = keep as u32;
        if self.is_param[gone] {
            self.is_param[keep] = true;
        }
    }
}

/// The registers that appear as an operand of some non-self copy: the only
/// nodes the interference graph is ever queried about. Class
/// representatives stay inside this set (a merge keeps one of the two copy
/// operands), so [`build_interference`] can skip edges touching any other
/// register entirely.
fn copy_candidates(f: &Function) -> BitSet {
    let mut candidates = BitSet::new(f.reg_count());
    for block in &f.blocks {
        for inst in &block.insts {
            if let Inst::Copy { dst, src } = inst {
                if dst != src {
                    candidates.insert(dst.index());
                    candidates.insert(src.index());
                }
            }
        }
    }
    candidates
}

/// One batch: build the bitset interference graph from (cached) liveness,
/// merge every non-interfering copy in a single scan — updating the graph
/// by unioning adjacency rows — then apply all merges in one rename sweep.
/// Returns the number of copies merged.
fn coalesce_batch(f: &mut Function, cache: &mut AnalysisCache, stats: &mut CoalesceStats) -> u64 {
    let candidates = copy_candidates(f);
    if candidates.is_empty() {
        // No copies left: the fixed point is proven without consulting
        // liveness at all.
        return 0;
    }
    if !cache.has_liveness() {
        stats.liveness_builds += 1;
    }
    let mut rows = {
        let live = cache.liveness(f);
        build_interference(f, live, &candidates)
    };
    let mut classes = CopyClasses::new(f);
    let mut merged = 0u64;

    for block in &f.blocks {
        for inst in &block.insts {
            let Inst::Copy { dst, src } = inst else { continue };
            let d = classes.find(dst.index());
            let s = classes.find(src.index());
            if d == s {
                continue;
            }
            if f.ty_of(Reg(d as u32)) != f.ty_of(Reg(s as u32)) {
                continue;
            }
            // Two parameters hold distinct incoming values: never merge.
            if classes.is_param[d] && classes.is_param[s] {
                continue;
            }
            if rows[d].contains(s) {
                continue;
            }
            // Keep parameter registers as the surviving name; otherwise
            // the source survives (matching the reference coalescer).
            let (keep, gone) = if classes.is_param[d] { (d, s) } else { (s, d) };
            classes.union_into(keep, gone);
            // Union the adjacency rows: the merged class conservatively
            // interferes with both neighborhoods. `gone`'s row cannot
            // contain `keep` (they were just proven non-interfering).
            let row_gone = std::mem::replace(&mut rows[gone], BitSet::new(0));
            for n in row_gone.iter() {
                rows[n].remove(gone);
                if n != keep {
                    rows[n].insert(keep);
                    rows[keep].insert(n);
                }
            }
            merged += 1;
        }
    }

    if merged > 0 {
        // One rename sweep applies every merge of the batch; copies whose
        // operands landed in the same class become self-copies and die.
        for block in &mut f.blocks {
            for inst in &mut block.insts {
                inst.map_uses(|r| Reg(classes.find(r.index()) as u32));
                if let Some(d) = inst.dst() {
                    let nd = classes.find(d.index()) as u32;
                    if nd != d.0 {
                        inst.set_dst(Reg(nd));
                    }
                }
            }
            block.term.map_uses(|r| Reg(classes.find(r.index()) as u32));
            block.insts.retain(|i| !matches!(i, Inst::Copy { dst, src } if dst == src));
        }
    }
    merged
}

/// Definition-against-live interference as bitset adjacency rows (one row
/// per register index, capacity `f.reg_count()`), **restricted to the
/// candidate registers** — the copy operands the graph is ever queried
/// about. The backward walk tracks only the live candidates (`live_now` is
/// the true live set intersected with `candidates`), and a definition of a
/// non-candidate register records no edges: such a register can never be a
/// class representative, and row unions on merge only propagate candidate
/// neighborhoods, so the restricted graph answers every query the full one
/// would. This turns the per-definition inner loop from O(live registers)
/// into O(live *copy operands*) — usually a handful — which is what moved
/// the pass off the top of the profile.
fn build_interference(f: &Function, live: &Liveness, candidates: &BitSet) -> Vec<BitSet> {
    let cap = f.reg_count();
    let mut rows = vec![BitSet::new(cap); cap];
    let mut live_now = BitSet::new(cap);
    for (bid, block) in f.iter_blocks() {
        live_now.assign_from(&live.live_out[bid.index()]);
        live_now.intersect_with(candidates);
        for u in block.term.uses() {
            if candidates.contains(u.index()) {
                live_now.insert(u.index());
            }
        }
        for inst in block.insts.iter().rev() {
            if let Some(d) = inst.dst() {
                let di = d.index();
                if candidates.contains(di) {
                    let exclude = match inst {
                        Inst::Copy { src, .. } => src.index(),
                        _ => usize::MAX,
                    };
                    for l in live_now.iter() {
                        if l != di && l != exclude {
                            rows[di].insert(l);
                            rows[l].insert(di);
                        }
                    }
                }
                live_now.remove(di);
            }
            for u in inst.uses() {
                if candidates.contains(u.index()) {
                    live_now.insert(u.index());
                }
            }
        }
    }
    // Parameters are all "defined" simultaneously at the entry: pairwise
    // edges plus edges against everything live into the entry block.
    // Hoisted out of the per-block scan — what the old per-block version
    // saw as `live_now` after walking block 0 is exactly `live_in[0]` —
    // and restricted to candidates like every other edge.
    for (i, &p) in f.params.iter().enumerate() {
        let pi = p.index();
        if !candidates.contains(pi) {
            continue;
        }
        for &q in &f.params[i + 1..] {
            if candidates.contains(q.index()) {
                rows[pi].insert(q.index());
                rows[q.index()].insert(pi);
            }
        }
        for l in live.live_in[0].iter() {
            if l != pi && candidates.contains(l) {
                rows[pi].insert(l);
                rows[l].insert(pi);
            }
        }
    }
    rows
}

/// Count the copies a correct coalescer must have merged: non-self,
/// type-compatible, not parameter-vs-parameter, and with non-interfering
/// operands under a fresh liveness computation. The pass's fixed point
/// leaves exactly zero of these (the property the differential campaign
/// asserts suite-wide).
pub fn coalescable_copies(f: &Function) -> usize {
    let cfg = epre_cfg::Cfg::new(f);
    let live = Liveness::new(f, &cfg);
    let candidates = copy_candidates(f);
    let rows = build_interference(f, &live, &candidates);
    let mut is_param = vec![false; f.reg_count()];
    for p in &f.params {
        is_param[p.index()] = true;
    }
    f.blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| match i {
            Inst::Copy { dst, src } => {
                dst != src
                    && f.ty_of(*dst) == f.ty_of(*src)
                    && !(is_param[dst.index()] && is_param[src.index()])
                    && !rows[dst.index()].contains(src.index())
            }
            _ => false,
        })
        .count()
}

pub mod reference {
    //! The pre-incremental coalescer — one copy merged per round, full
    //! liveness plus an all-pairs `HashSet<(Reg, Reg)>` interference
    //! rebuild between rounds — retained verbatim as the differential
    //! testing reference for the incremental implementation above.

    use std::collections::HashSet;

    use epre_analysis::{AnalysisCache, Liveness};
    use epre_ir::{Function, Inst, Reg};

    /// Run reference coalescing rounds until no copy can be merged.
    /// Returns true if any copy was removed.
    pub fn run(f: &mut Function) -> bool {
        run_with_cache(f, &mut AnalysisCache::new())
    }

    /// [`run`] with a caller-owned cache (CFG shared across rounds;
    /// universe and liveness invalidated when the function changed).
    pub fn run_with_cache(f: &mut Function, cache: &mut AnalysisCache) -> bool {
        let mut any = false;
        for b in &mut f.blocks {
            let before = b.insts.len();
            b.insts.retain(|i| !matches!(i, Inst::Copy { dst, src } if dst == src));
            any |= b.insts.len() != before;
        }
        while coalesce_round(f, cache) {
            any = true;
        }
        if any {
            cache.invalidate_universe();
            cache.invalidate_liveness();
        }
        any
    }

    fn coalesce_round(f: &mut Function, cache: &mut AnalysisCache) -> bool {
        let live = Liveness::new(f, cache.cfg(f));
        let interference = build_interference(f, &live);

        // Find one coalescable copy per round (liveness is invalidated by
        // the merge, so a fresh round recomputes it).
        let params: HashSet<Reg> = f.params.iter().copied().collect();
        let mut target: Option<(Reg, Reg)> = None; // (kept, merged-away)
        'outer: for block in &f.blocks {
            for inst in &block.insts {
                if let Inst::Copy { dst, src } = inst {
                    if dst == src {
                        continue;
                    }
                    if f.ty_of(*dst) != f.ty_of(*src) {
                        continue;
                    }
                    if interference.contains(&key(*dst, *src)) {
                        continue;
                    }
                    let (keep, gone) = match (params.contains(dst), params.contains(src)) {
                        (true, true) => continue,
                        (true, false) => (*dst, *src),
                        _ => (*src, *dst),
                    };
                    target = Some((keep, gone));
                    break 'outer;
                }
            }
        }

        let Some((keep, gone)) = target else { return false };
        for block in &mut f.blocks {
            for inst in &mut block.insts {
                inst.map_uses(|r| if r == gone { keep } else { r });
                if inst.dst() == Some(gone) {
                    inst.set_dst(keep);
                }
            }
            block.term.map_uses(|r| if r == gone { keep } else { r });
            block.insts.retain(|i| !matches!(i, Inst::Copy { dst, src } if dst == src));
        }
        true
    }

    fn key(a: Reg, b: Reg) -> (Reg, Reg) {
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Definition-against-live interference over all blocks.
    fn build_interference(f: &Function, live: &Liveness) -> HashSet<(Reg, Reg)> {
        let mut edges = HashSet::new();
        for (bid, block) in f.iter_blocks() {
            let mut live_now: HashSet<Reg> =
                live.live_out[bid.index()].iter().map(|i| Reg(i as u32)).collect();
            for u in block.term.uses() {
                live_now.insert(u);
            }
            for inst in block.insts.iter().rev() {
                if let Some(d) = inst.dst() {
                    let exclude = match inst {
                        Inst::Copy { src, .. } => Some(*src),
                        _ => None,
                    };
                    for &l in &live_now {
                        if l != d && Some(l) != exclude {
                            edges.insert(key(d, l));
                        }
                    }
                    live_now.remove(&d);
                }
                for u in inst.uses() {
                    live_now.insert(u);
                }
            }
            // Parameters are all "defined" simultaneously at the entry.
            if bid.index() == 0 {
                for (i, &p) in f.params.iter().enumerate() {
                    for &q in &f.params[i + 1..] {
                        edges.insert(key(p, q));
                    }
                    for &l in &live_now {
                        if l != p {
                            edges.insert(key(p, l));
                        }
                    }
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{passes::Coalesce, Pass};
    use epre_ir::{BinOp, Const, FunctionBuilder, Ty};

    #[test]
    fn merges_simple_copy() {
        // t = x + x; v = copy t; return v  — the copy disappears.
        let mut b = FunctionBuilder::new("c", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let t = b.bin(BinOp::Add, Ty::Int, x, x);
        let v = b.copy(t);
        b.ret(Some(v));
        let mut f = b.finish();
        Coalesce.run(&mut f);
        assert_eq!(f.inst_count(), 1);
        assert!(f.verify().is_ok());
    }

    #[test]
    fn keeps_interfering_copy() {
        // v = copy x; x = x + 1; return v + x — v and x interfere.
        let mut b = FunctionBuilder::new("k", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let v = b.copy(x);
        let one = b.loadi(Const::Int(1));
        let x2 = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: x2, lhs: x, rhs: one });
        b.copy_to(x, x2);
        let s = b.bin(BinOp::Add, Ty::Int, v, x);
        b.ret(Some(s));
        let mut f = b.finish();
        let before_copies =
            f.blocks[0].insts.iter().filter(|i| matches!(i, Inst::Copy { .. })).count();
        assert_eq!(before_copies, 2);
        Coalesce.run(&mut f);
        // v = copy x must stay (x redefined while v lives); x = copy x2 can
        // merge (x2 dies at the copy... x2 defined while x lives? x is used
        // after, via s = v + x — but that is the NEW x. x's old value dies
        // at the copy; x2 <-> x do not interfere).
        let after_copies = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Copy { .. }))
            .count();
        assert_eq!(after_copies, 1);
        assert!(f.verify().is_ok());
    }

    #[test]
    fn never_merges_two_params() {
        let mut b = FunctionBuilder::new("p", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        b.copy_to(x, y); // x = y, then return x
        b.ret(Some(x));
        let mut f = b.finish();
        Coalesce.run(&mut f);
        // The copy must survive: params cannot merge.
        assert_eq!(f.inst_count(), 1);
        assert_eq!(f.params, vec![x, y]);
    }

    #[test]
    fn type_mismatch_blocks_merge() {
        let mut b = FunctionBuilder::new("t", Some(Ty::Int));
        let x = b.param(Ty::Int);
        b.ret(Some(x));
        let mut f = b.finish();
        // Hand-build an ill-typed copy is rejected by the verifier, so just
        // check run() is a no-op on a copy-free function.
        let before = f.clone();
        Coalesce.run(&mut f);
        assert_eq!(f, before);
    }

    #[test]
    fn removes_self_copies() {
        let mut b = FunctionBuilder::new("s", Some(Ty::Int));
        let x = b.param(Ty::Int);
        b.copy_to(x, x);
        b.ret(Some(x));
        let mut f = b.finish();
        Coalesce.run(&mut f);
        assert_eq!(f.inst_count(), 0);
    }

    #[test]
    fn coalesces_across_blocks() {
        // Paper Figure 9 -> 10: copies feeding a loop variable merge away.
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
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
        Coalesce.run(&mut f);
        // i2/i copy merges (i's old value dead at the copy); z/i copy
        // merges as well once i2 is renamed.
        let copies = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Copy { .. }))
            .count();
        assert_eq!(copies, 0);
        assert!(f.verify().is_ok());
    }

    /// Two params + a long-lived temp: pins the hoisted entry-block
    /// parameter handling (param-vs-param and param-vs-live edges built
    /// outside the per-block scan) against the reference coalescer.
    #[test]
    fn entry_param_edges_two_params_and_long_lived_temp() {
        fn build() -> Function {
            let mut b = FunctionBuilder::new("pe", Some(Ty::Int));
            let x = b.param(Ty::Int);
            let y = b.param(Ty::Int);
            // t is live from the entry to the last add: a long-lived temp
            // defined while both params are live (def-against-live edges
            // t–x and t–y).
            let t = b.loadi(Const::Int(5));
            b.copy_to(x, y); // param-vs-param: must never merge
            let a = b.bin(BinOp::Add, Ty::Int, x, y);
            let v = b.copy(t); // t dies later; v–t may merge
            let w = b.bin(BinOp::Add, Ty::Int, a, v);
            let r = b.bin(BinOp::Add, Ty::Int, w, t);
            b.ret(Some(r));
            b.finish()
        }
        let mut f = build();
        let mut fr = build();
        let params = f.params.clone();
        Coalesce.run(&mut f);
        reference::run(&mut fr);
        assert_eq!(f, fr, "incremental and reference coalescers must agree");
        // The param-param copy survives, params keep their registers.
        let copies = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Copy { .. }))
            .count();
        assert_eq!(copies, 1);
        assert_eq!(f.params, params);
        // Fixed point: nothing coalescable remains.
        assert_eq!(coalescable_copies(&f), 0);
        assert!(f.verify().is_ok());
    }

    /// The batch coalescer merges a whole copy chain in few rounds and
    /// reports round/liveness-build counts.
    #[test]
    fn batch_merges_copy_chain_and_reports_rounds() {
        let mut b = FunctionBuilder::new("chain", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let t = b.bin(BinOp::Add, Ty::Int, x, x);
        let c1 = b.copy(t);
        let c2 = b.copy(c1);
        let c3 = b.copy(c2);
        let c4 = b.copy(c3);
        b.ret(Some(c4));
        let mut f = b.finish();
        let mut cache = AnalysisCache::new();
        let stats = run(&mut f, &mut cache, &Budget::UNLIMITED).unwrap();
        assert_eq!(stats.copies_coalesced, 4);
        // All four merge in the first batch (a chain never interferes),
        // plus one empty scan proving the fixed point.
        assert_eq!(stats.rounds, 2);
        assert!(stats.liveness_builds <= stats.rounds);
        assert!(stats.rounds >= 1);
        assert_eq!(f.inst_count(), 1);
        assert!(f.verify().is_ok());
    }

    /// The suite-wide property, in miniature: after the pass, zero
    /// coalescable copies remain.
    #[test]
    fn fixed_point_leaves_no_coalescable_copies() {
        let mut b = FunctionBuilder::new("fp", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let v = b.copy(x);
        let one = b.loadi(Const::Int(1));
        let x2 = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: x2, lhs: x, rhs: one });
        b.copy_to(x, x2);
        let s = b.bin(BinOp::Add, Ty::Int, v, x);
        b.ret(Some(s));
        let mut f = b.finish();
        assert!(coalescable_copies(&f) > 0);
        Coalesce.run(&mut f);
        assert_eq!(coalescable_copies(&f), 0);
    }
}
