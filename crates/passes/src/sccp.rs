//! Sparse conditional constant propagation (Wegman–Zadeck).
//!
//! The baseline's "global constant propagation \[26\]". The pass builds SSA
//! internally (with copy folding), runs the classic two-worklist SCCP over
//! the lattice ⊤ → constant → ⊥, rewrites registers proven constant into
//! `loadi`s, folds conditional branches whose condition is constant, and
//! destroys SSA again — a self-contained filter like every pass in the
//! paper's optimizer.
//!
//! Constant folding here mirrors the interpreter exactly (including *not*
//! folding integer division by zero, which must still trap at run time).

use epre_analysis::AnalysisCache;
use epre_cfg::Csr;
use epre_ir::{BlockId, Const, Function, Inst, Reg, Terminator};
use epre_ssa::{build_ssa, destroy_ssa, SsaOptions};

use crate::budget::{Budget, BudgetExceeded};
use crate::peephole::{fold_bin_const, fold_un_const};
use epre_telemetry::PassCounters;

/// What one SCCP invocation proved: operations rewritten to `loadi` and
/// conditional branches folded to jumps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SccpStats {
    /// Instructions rewritten into `loadi` of a proven constant.
    pub ops_folded: u64,
    /// Conditional branches folded into unconditional jumps.
    pub branches_folded: u64,
    /// Worklist pops consumed.
    pub ticks: u64,
}

impl SccpStats {
    /// Did the invocation change the function? Always: the SSA round trip
    /// renames registers even when no constant propagates.
    pub fn changed(&self) -> bool {
        true
    }

    /// Fold the stats into a trace span's counters.
    pub fn report(&self, counters: &mut PassCounters) {
        counters.add("ops_folded", self.ops_folded);
        counters.add("branches_folded", self.branches_folded);
        counters.add("ticks", self.ticks);
    }
}

/// Lattice value for one SSA name.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Lattice {
    /// No evidence yet (optimistic).
    Top,
    /// Proven constant.
    Val(Const),
    /// Proven varying.
    Bottom,
}

impl Lattice {
    fn meet(self, other: Lattice) -> Lattice {
        match (self, other) {
            (Lattice::Top, x) | (x, Lattice::Top) => x,
            (Lattice::Val(a), Lattice::Val(b)) if a == b => Lattice::Val(a),
            _ => Lattice::Bottom,
        }
    }
}

/// Run SCCP on `f` under a resource [`Budget`]. The pass rebuilds SSA
/// internally, so it drops every entry of the pipeline's `cache`.
///
/// There is one cooperative checkpoint per worklist pop of the
/// two-worklist propagation (the only part of the pass whose trip count
/// depends on lattice convergence).
///
/// # Errors
/// [`BudgetExceeded`] when a pop starts over budget; the function is left
/// mid-transform, possibly still in SSA form (callers needing atomicity
/// run a clone).
pub fn run(
    f: &mut Function,
    cache: &mut AnalysisCache,
    budget: &Budget,
) -> Result<SccpStats, BudgetExceeded> {
    let mut stats = SccpStats::default();
    build_ssa(f, SsaOptions { fold_copies: true });
    let mut meter = budget.start(f);

    let nregs = f.reg_count();
    let mut value: Vec<Lattice> = vec![Lattice::Top; nregs];
    for &p in &f.params {
        value[p.index()] = Lattice::Bottom;
    }

    // Use sites per register: the instructions, and the blocks whose
    // terminator reads it.
    let inst_uses = f.iter_blocks().flat_map(|(bid, block)| {
        block
            .insts
            .iter()
            .enumerate()
            .flat_map(move |(i, inst)| inst.uses().map(move |u| (u.index(), (bid, i))))
    });
    let uses_of = Csr::from_pairs(nregs, inst_uses);
    let term_uses =
        f.iter_blocks().flat_map(|(bid, block)| block.term.uses().map(move |u| (u.index(), bid)));
    let term_users = Csr::from_pairs(nregs, term_uses);

    // Executable edges and visited blocks.
    let n = f.blocks.len();
    let mut edge_exec = ExecEdges::new(n);
    let mut block_visited = vec![false; n];
    let mut flow_work: Vec<(BlockId, BlockId)> = Vec::new();
    let mut ssa_work: Vec<Reg> = Vec::new();

    // Virtual entry edge.
    let entry = BlockId::ENTRY;
    block_visited[entry.index()] = true;
    let eval_block = |f: &Function,
                      b: BlockId,
                      value: &mut Vec<Lattice>,
                      ssa_work: &mut Vec<Reg>,
                      flow_work: &mut Vec<(BlockId, BlockId)>,
                      edge_exec: &ExecEdges| {
        for inst in &f.block(b).insts {
            visit_inst(b, inst, value, ssa_work, edge_exec);
        }
        visit_terminator(f, b, value, flow_work, edge_exec);
    };
    eval_block(f, entry, &mut value, &mut ssa_work, &mut flow_work, &edge_exec);

    while !flow_work.is_empty() || !ssa_work.is_empty() {
        while let Some((from, to)) = flow_work.pop() {
            meter.tick(f)?;
            if !edge_exec.insert(from, to) {
                continue;
            }
            if !block_visited[to.index()] {
                block_visited[to.index()] = true;
                eval_block(f, to, &mut value, &mut ssa_work, &mut flow_work, &edge_exec);
            } else {
                // Re-evaluate only the φs (a new incoming edge).
                for inst in f.block(to).phis() {
                    visit_inst(to, inst, &mut value, &mut ssa_work, &edge_exec);
                }
            }
        }
        while let Some(r) = ssa_work.pop() {
            meter.tick(f)?;
            for &(b, i) in uses_of.row(r.index()) {
                if block_visited[b.index()] {
                    visit_inst(b, &f.block(b).insts[i], &mut value, &mut ssa_work, &edge_exec);
                }
            }
            // The register may also feed a terminator.
            for &b in term_users.row(r.index()) {
                if block_visited[b.index()] {
                    visit_terminator(f, b, &mut value, &mut flow_work, &edge_exec);
                }
            }
        }
    }

    // Rewrite: constant definitions become loadi; constant branches fold.
    for block in &mut f.blocks {
        for inst in &mut block.insts {
            if matches!(inst, Inst::Call { .. } | Inst::Store { .. } | Inst::Load { .. }) {
                continue; // side effects / memory stay
            }
            if let Some(d) = inst.dst() {
                if let Lattice::Val(c) = value[d.index()] {
                    let folded = Inst::LoadI { dst: d, value: c };
                    if *inst != folded {
                        stats.ops_folded += 1;
                    }
                    *inst = folded;
                }
            }
        }
        if let Terminator::Branch { cond, then_to, else_to } = block.term {
            if let Lattice::Val(c) = value[cond.index()] {
                let target = if c.is_zero() { else_to } else { then_to };
                block.term = Terminator::Jump { target };
                stats.branches_folded += 1;
            }
        }
    }
    stats.ticks = meter.ticks();

    // Unreachable blocks may now contain φs naming removed edges; drop
    // unreachable blocks before SSA destruction. Both cleanups need the
    // post-folding CFG of the SSA form; a cache of their own (the
    // pipeline's is dropped below) builds it at most twice (and only once
    // when nothing was unreachable) instead of three times.
    let mut ssa_cache = AnalysisCache::new();
    drop_unreachable_with_phis(f, &mut ssa_cache);
    prune_phi_args_of_removed_edges(f, &mut ssa_cache);
    destroy_ssa(f);
    f.compact_regs();
    cache.invalidate_all();
    Ok(stats)
}

/// The CFG edges proven executable, kept per source block: a terminator
/// has at most two successors, so two slots replace a hashed edge set.
struct ExecEdges(Vec<[Option<BlockId>; 2]>);

impl ExecEdges {
    fn new(n_blocks: usize) -> Self {
        ExecEdges(vec![[None, None]; n_blocks])
    }

    fn contains(&self, from: BlockId, to: BlockId) -> bool {
        self.0[from.index()].contains(&Some(to))
    }

    /// Mark `from -> to` executable; false if it already was.
    fn insert(&mut self, from: BlockId, to: BlockId) -> bool {
        let slots = &mut self.0[from.index()];
        if slots.contains(&Some(to)) {
            return false;
        }
        let free = slots.iter_mut().find(|s| s.is_none()).expect("at most two successors");
        *free = Some(to);
        true
    }
}

fn visit_inst(
    b: BlockId,
    inst: &Inst,
    value: &mut [Lattice],
    ssa_work: &mut Vec<Reg>,
    edge_exec: &ExecEdges,
) {
    let Some(d) = inst.dst() else { return };
    let old = value[d.index()];
    if old == Lattice::Bottom {
        return;
    }
    let new = match inst {
        Inst::LoadI { value: c, .. } => Lattice::Val(*c),
        Inst::Copy { src, .. } => value[src.index()],
        Inst::Bin { op, ty, lhs, rhs, .. } => {
            match (value[lhs.index()], value[rhs.index()]) {
                (Lattice::Val(a), Lattice::Val(bb)) => match fold_bin_const(*op, *ty, a, bb) {
                    Some(c) => Lattice::Val(c),
                    None => Lattice::Bottom, // e.g. division by zero: varying
                },
                (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
                _ => Lattice::Top,
            }
        }
        Inst::Un { op, src, .. } => match value[src.index()] {
            Lattice::Val(c) => match fold_un_const(*op, c) {
                Some(v) => Lattice::Val(v),
                None => Lattice::Bottom,
            },
            x => x,
        },
        Inst::Load { .. } | Inst::Call { .. } => Lattice::Bottom,
        Inst::Store { .. } => return, // no destination

        Inst::Phi { args, .. } => {
            let mut acc = Lattice::Top;
            for &(pb, r) in args {
                if edge_exec.contains(pb, b) {
                    acc = acc.meet(value[r.index()]);
                }
            }
            acc
        }
    };
    let met = old.meet(new);
    // Monotone only downwards: Top -> Val -> Bottom.
    let final_v = match (old, met) {
        (Lattice::Top, x) => x,
        (Lattice::Val(_), Lattice::Val(_)) if old == met => old,
        (Lattice::Val(_), _) => Lattice::Bottom,
        (Lattice::Bottom, _) => Lattice::Bottom,
    };
    if final_v != old {
        value[d.index()] = final_v;
        ssa_work.push(d);
    }
}

fn visit_terminator(
    f: &Function,
    b: BlockId,
    value: &mut [Lattice],
    flow_work: &mut Vec<(BlockId, BlockId)>,
    edge_exec: &ExecEdges,
) {
    match &f.block(b).term {
        Terminator::Jump { target } => {
            if !edge_exec.contains(b, *target) {
                flow_work.push((b, *target));
            }
        }
        Terminator::Branch { cond, then_to, else_to } => {
            let push = |flow_work: &mut Vec<(BlockId, BlockId)>, t: BlockId| {
                if !edge_exec.contains(b, t) {
                    flow_work.push((b, t));
                }
            };
            match value[cond.index()] {
                Lattice::Val(c) => {
                    if c.is_zero() {
                        push(flow_work, *else_to);
                    } else {
                        push(flow_work, *then_to);
                    }
                }
                Lattice::Bottom => {
                    push(flow_work, *then_to);
                    push(flow_work, *else_to);
                }
                Lattice::Top => {} // not yet known; revisited when it lowers
            }
        }
        Terminator::Return { .. } => {}
    }
}

/// Remove unreachable blocks (in SSA form, so φ inputs from removed blocks
/// must also be pruned — done separately).
fn drop_unreachable_with_phis(f: &mut Function, cache: &mut AnalysisCache) {
    let reach = cache.cfg(f).reachable();
    if reach.iter().all(|&r| r) {
        return;
    }
    let mut remap: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    let mut kept = Vec::new();
    for (i, block) in f.blocks.drain(..).enumerate() {
        if reach[i] {
            remap[i] = Some(BlockId(kept.len() as u32));
            kept.push(block);
        }
    }
    for block in &mut kept {
        match &mut block.term {
            Terminator::Jump { target } => *target = remap[target.index()].expect("reachable"),
            Terminator::Branch { then_to, else_to, .. } => {
                *then_to = remap[then_to.index()].expect("reachable");
                *else_to = remap[else_to.index()].expect("reachable");
            }
            Terminator::Return { .. } => {}
        }
        for inst in &mut block.insts {
            if let Inst::Phi { args, .. } = inst {
                args.retain(|(pb, _)| remap[pb.index()].is_some());
                for (pb, _) in args {
                    *pb = remap[pb.index()].expect("retained");
                }
            }
        }
    }
    f.blocks = kept;
    cache.invalidate_all();
}

/// After branch folding, a φ may name a predecessor that no longer reaches
/// it; drop those inputs, and collapse single-input φs into copies.
fn prune_phi_args_of_removed_edges(f: &mut Function, cache: &mut AnalysisCache) {
    let cfg = cache.cfg(f);
    for bi in 0..f.blocks.len() {
        let bid = BlockId(bi as u32);
        let preds: Vec<BlockId> = cfg.preds(bid).to_vec();
        for inst in &mut f.blocks[bi].insts {
            if let Inst::Phi { dst, args } = inst {
                args.retain(|(pb, _)| preds.contains(pb));
                if args.len() == 1 {
                    *inst = Inst::Copy { dst: *dst, src: args[0].1 };
                }
            } else {
                break;
            }
        }
        // A collapsed copy may now precede remaining φs; restore the φ
        // prefix by stable-sorting φs first.
        f.blocks[bi].insts.sort_by_key(|i| !matches!(i, Inst::Phi { .. }));
    }
    // Instructions changed (φ→copy rewrites) but block structure did not:
    // the cached CFG stays valid for any later user of this cache. The
    // universe and liveness do not survive instruction edits.
    cache.invalidate_universe();
    cache.invalidate_liveness();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{passes::ConstProp, Pass};
    use epre_ir::{BinOp, FunctionBuilder, Ty};

    #[test]
    fn propagates_through_straight_line() {
        let mut b = FunctionBuilder::new("s", Some(Ty::Int));
        let two = b.loadi(Const::Int(2));
        let three = b.loadi(Const::Int(3));
        let s = b.bin(BinOp::Add, Ty::Int, two, three);
        let p = b.bin(BinOp::Mul, Ty::Int, s, s);
        b.ret(Some(p));
        let mut f = b.finish();
        ConstProp.run(&mut f);
        // p proven 25.
        let last = f.blocks[0].insts.last().unwrap();
        assert!(matches!(last, Inst::LoadI { value: Const::Int(25), .. }));
    }

    #[test]
    fn folds_constant_branch_and_kills_dead_arm() {
        // if (1) return 10 else return 20
        let mut b = FunctionBuilder::new("c", Some(Ty::Int));
        let one = b.loadi(Const::Int(1));
        let t = b.new_block();
        let e = b.new_block();
        b.branch(one, t, e);
        b.switch_to(t);
        let ten = b.loadi(Const::Int(10));
        b.ret(Some(ten));
        b.switch_to(e);
        let twenty = b.loadi(Const::Int(20));
        b.ret(Some(twenty));
        let mut f = b.finish();
        ConstProp.run(&mut f);
        assert!(f.verify().is_ok());
        // The else-arm is unreachable and dropped.
        assert_eq!(f.blocks.len(), 2);
        assert!(matches!(f.blocks[0].term, Terminator::Jump { .. }));
    }

    #[test]
    fn conditional_constantness_through_phi() {
        // x = 1; if (p) { x = 1 } ; return x + 1  — φ(1,1) = 1, so x+1 = 2.
        let mut b = FunctionBuilder::new("p", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let x = b.new_reg(Ty::Int);
        let one = b.loadi(Const::Int(1));
        b.copy_to(x, one);
        let t = b.new_block();
        let j = b.new_block();
        b.branch(p, t, j);
        b.switch_to(t);
        let one2 = b.loadi(Const::Int(1));
        b.copy_to(x, one2);
        b.jump(j);
        b.switch_to(j);
        let s = b.bin(BinOp::Add, Ty::Int, x, one);
        b.ret(Some(s));
        let mut f = b.finish();
        ConstProp.run(&mut f);
        // The add became loadi 2 somewhere.
        let found = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::LoadI { value: Const::Int(2), .. }));
        assert!(found, "{f}");
    }

    #[test]
    fn sccp_beats_pessimistic_on_loop_constant() {
        // x = 0; while (p) { x = 0 }; return x — optimistically x = 0.
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let x = b.new_reg(Ty::Int);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(Const::Int(0));
        b.copy_to(x, z);
        b.jump(head);
        b.switch_to(head);
        b.branch(p, body, exit);
        b.switch_to(body);
        let z2 = b.loadi(Const::Int(0));
        b.copy_to(x, z2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(x));
        let mut f = b.finish();
        ConstProp.run(&mut f);
        // Return feeds a register proven zero: either ret of a loadi-0 reg.
        assert!(f.verify().is_ok());
        let zero_regs: Vec<Reg> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::LoadI { dst, value: Const::Int(0) } => Some(*dst),
                _ => None,
            })
            .collect();
        let ret_reg = f
            .blocks
            .iter()
            .find_map(|b| match b.term {
                Terminator::Return { value } => value,
                _ => None,
            })
            .unwrap();
        // After destruction + copies the value flows from a zero constant;
        // just check semantics with the interpreter instead of structure.
        let _ = (zero_regs, ret_reg);
        let mut m = epre_ir::Module::new();
        m.functions.push(f);
        let mut i = epre_interp::Interpreter::new(&m);
        assert_eq!(
            i.run("l", &[epre_interp::Value::Int(0)]).unwrap(),
            Some(epre_interp::Value::Int(0))
        );
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let mut b = FunctionBuilder::new("d", Some(Ty::Int));
        let one = b.loadi(Const::Int(1));
        let zero = b.loadi(Const::Int(0));
        let q = b.bin(BinOp::Div, Ty::Int, one, zero);
        b.ret(Some(q));
        let mut f = b.finish();
        ConstProp.run(&mut f);
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Bin { op: BinOp::Div, .. })));
    }

    #[test]
    fn params_are_varying() {
        let mut b = FunctionBuilder::new("v", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let one = b.loadi(Const::Int(1));
        let s = b.bin(BinOp::Add, Ty::Int, x, one);
        b.ret(Some(s));
        let mut f = b.finish();
        ConstProp.run(&mut f);
        assert!(f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. })));
    }
}
