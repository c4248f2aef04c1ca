//! CFG tidying: the paper's "final pass to eliminate empty basic blocks".
//!
//! Four transformations iterated to a fixed point:
//!
//! 1. drop unreachable blocks,
//! 2. fold conditional branches whose two targets coincide into jumps,
//! 3. bypass *empty* blocks (blocks holding only a `jump`), retargeting
//!    their predecessors,
//! 4. merge a block into its unique successor when that successor has a
//!    unique predecessor (straight-line concatenation).
//!
//! The pass requires φ-free code (it runs in the non-SSA parts of the
//! pipeline) and renumbers blocks densely afterwards.

use epre_analysis::AnalysisCache;
use epre_ir::{Block, BlockId, Function, Terminator};

use crate::budget::{Budget, BudgetExceeded};
use epre_telemetry::PassCounters;

/// What one clean invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanStats {
    /// Tidying rounds that changed the function.
    pub rounds: u64,
    /// Net basic blocks removed (clean only ever shrinks the block list).
    pub blocks_removed: u64,
}

impl CleanStats {
    /// Did the invocation change the function at all?
    pub fn changed(&self) -> bool {
        self.rounds > 0
    }

    /// Fold the stats into a trace span's counters.
    pub fn report(&self, counters: &mut PassCounters) {
        counters.add("rounds", self.rounds);
        counters.add("blocks_removed", self.blocks_removed);
    }
}

/// Run the clean pass to a fixed point against the pipeline's
/// [`AnalysisCache`], under a resource [`Budget`].
///
/// One cache serves the whole fixed point: a quiescing round (the common
/// case — the last round, and for already-clean functions the only one)
/// builds the CFG once and the sub-passes that follow reuse it — and
/// leave it for the pipeline. Each structural edit invalidates precisely
/// what it breaks, so the cache is consistent on return. There is one
/// cooperative checkpoint per tidying round (each round applies all four
/// transformations once; a round that changes nothing ends the fixed
/// point).
///
/// # Errors
/// [`BudgetExceeded`] when a round starts over budget; edits already made
/// stay made (callers needing atomicity run a clone).
pub fn run(
    f: &mut Function,
    cache: &mut AnalysisCache,
    budget: &Budget,
) -> Result<CleanStats, BudgetExceeded> {
    debug_assert!(f.blocks.iter().all(|b| b.phi_count() == 0), "clean expects φ-free code");
    let mut meter = budget.start(f);
    let blocks_at_entry = f.blocks.len() as u64;
    let mut stats = CleanStats::default();
    loop {
        meter.tick(f)?;
        let mut changed = false;
        changed |= fold_redundant_branches(f, cache);
        changed |= remove_unreachable(f, cache);
        changed |= bypass_empty_blocks(f, cache);
        changed |= merge_straight_lines(f, cache);
        if !changed {
            break;
        }
        stats.rounds += 1;
    }
    stats.blocks_removed = blocks_at_entry.saturating_sub(f.blocks.len() as u64);
    Ok(stats)
}

/// `cbr c -> x, x` becomes `jump x`.
fn fold_redundant_branches(f: &mut Function, cache: &mut AnalysisCache) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        if let Terminator::Branch { then_to, else_to, .. } = b.term {
            if then_to == else_to {
                b.term = Terminator::Jump { target: then_to };
                changed = true;
            }
        }
    }
    if changed {
        cache.invalidate_cfg();
    }
    changed
}

/// Remove blocks unreachable from the entry, renumbering the rest.
fn remove_unreachable(f: &mut Function, cache: &mut AnalysisCache) -> bool {
    let reach = cache.cfg(f).reachable();
    if reach.iter().all(|&r| r) {
        return false;
    }
    // Dense renumbering of surviving blocks.
    let mut remap: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    let mut kept: Vec<Block> = Vec::new();
    for (i, block) in f.blocks.drain(..).enumerate() {
        if reach[i] {
            remap[i] = Some(BlockId(kept.len() as u32));
            kept.push(block);
        }
    }
    for block in &mut kept {
        block.term.retarget_map(|t| remap[t.index()].expect("reachable target"));
    }
    f.blocks = kept;
    cache.invalidate_all();
    true
}

/// Bypass blocks that contain nothing but a jump.
fn bypass_empty_blocks(f: &mut Function, cache: &mut AnalysisCache) -> bool {
    let n = f.blocks.len();
    // forward[b] = ultimate destination following chains of empty jumps.
    let mut forward: Vec<BlockId> = (0..n as u32).map(BlockId).collect();
    for (fwd, block) in forward.iter_mut().zip(&f.blocks) {
        if block.insts.is_empty() {
            if let Terminator::Jump { target } = block.term {
                if target != *fwd {
                    *fwd = target;
                }
            }
        }
    }
    // Path-compress (bounded by n to survive cycles of empty blocks).
    for _ in 0..n {
        let mut moved = false;
        for i in 0..n {
            let t = forward[i];
            let tt = forward[t.index()];
            if tt != t && tt != BlockId(i as u32) {
                forward[i] = tt;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    let mut changed = false;
    for b in &mut f.blocks {
        b.term.retarget_map(|t| {
            let nt = forward[t.index()];
            if nt != t {
                changed = true;
            }
            nt
        });
    }
    // Entry itself being an empty jump is handled by the merge step.
    if changed {
        cache.invalidate_cfg();
    }
    changed
}

/// Merge `a -> b` when `a` jumps to `b` and `b` has exactly one predecessor.
fn merge_straight_lines(f: &mut Function, cache: &mut AnalysisCache) -> bool {
    let cfg = cache.cfg(f);
    let mut changed = false;
    let mut merge: Option<(usize, BlockId)> = None;
    for i in 0..f.blocks.len() {
        let a = BlockId(i as u32);
        let Terminator::Jump { target: b } = f.blocks[i].term else { continue };
        if b == a || cfg.preds(b).len() != 1 {
            continue;
        }
        merge = Some((i, b));
        break; // one merge per round; the fixed-point loop re-runs us
    }
    if let Some((i, b)) = merge {
        // Concatenate b into a; b becomes unreachable and is swept by the
        // next remove_unreachable round.
        let mut moved = std::mem::take(&mut f.blocks[b.index()].insts);
        let term = f.blocks[b.index()].term.clone();
        f.blocks[b.index()].term = Terminator::Jump { target: b }; // self-loop tombstone
        f.blocks[i].insts.append(&mut moved);
        f.blocks[i].term = term;
        changed = true;
        cache.invalidate_all();
    }
    changed
}

/// Helper: retarget every successor through a map.
trait RetargetMap {
    fn retarget_map(&mut self, f: impl FnMut(BlockId) -> BlockId);
}

impl RetargetMap for Terminator {
    fn retarget_map(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump { target } => *target = f(*target),
            Terminator::Branch { then_to, else_to, .. } => {
                *then_to = f(*then_to);
                *else_to = f(*else_to);
            }
            Terminator::Return { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{passes::Clean, Pass};
    use epre_ir::{Const, FunctionBuilder, Inst, Ty};

    #[test]
    fn removes_unreachable_blocks() {
        let mut b = FunctionBuilder::new("u", None);
        b.ret(None);
        let dead = b.new_block();
        b.switch_to(dead);
        b.ret(None);
        let mut f = b.finish();
        Clean.run(&mut f);
        assert_eq!(f.blocks.len(), 1);
        assert!(f.verify().is_ok());
    }

    #[test]
    fn folds_same_target_branch() {
        let mut b = FunctionBuilder::new("s", None);
        let c = b.loadi(Const::Int(1));
        let t = b.new_block();
        b.branch(c, t, t);
        b.switch_to(t);
        b.ret(None);
        let mut f = b.finish();
        Clean.run(&mut f);
        // Branch folded to jump, then merged: one block remains.
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.blocks[0].term, Terminator::Return { .. }));
        assert!(f.verify().is_ok());
    }

    #[test]
    fn bypasses_empty_chains() {
        let mut b = FunctionBuilder::new("e", None);
        let e1 = b.new_block();
        let e2 = b.new_block();
        let end = b.new_block();
        let c = b.loadi(Const::Int(1));
        b.branch(c, e1, e2);
        b.switch_to(e1);
        b.jump(end);
        b.switch_to(e2);
        b.jump(end);
        b.switch_to(end);
        b.ret(None);
        let mut f = b.finish();
        Clean.run(&mut f);
        // Both empty arms bypassed; branch targets coincide and fold; all
        // merges leave a single block.
        assert_eq!(f.blocks.len(), 1);
        assert!(f.verify().is_ok());
    }

    #[test]
    fn merges_straight_line_chain() {
        let mut b = FunctionBuilder::new("m", Some(Ty::Int));
        let b1 = b.new_block();
        let b2 = b.new_block();
        let x = b.loadi(Const::Int(1));
        b.jump(b1);
        b.switch_to(b1);
        let y = b.bin(epre_ir::BinOp::Add, Ty::Int, x, x);
        b.jump(b2);
        b.switch_to(b2);
        let z = b.bin(epre_ir::BinOp::Mul, Ty::Int, y, y);
        b.ret(Some(z));
        let mut f = b.finish();
        Clean.run(&mut f);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 3);
        assert!(f.verify().is_ok());
    }

    #[test]
    fn preserves_loops() {
        let mut b = FunctionBuilder::new("l", None);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let c = b.loadi(Const::Int(1));
        b.jump(head);
        b.switch_to(head);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.jump(head);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        Clean.run(&mut f);
        assert!(f.verify().is_ok());
        // entry merges into head; body and exit survive: 3 blocks.
        assert_eq!(f.blocks.len(), 3);
        // Still a loop: some block targets an earlier block.
        let cfg = epre_cfg::Cfg::new(&f);
        assert!(cfg.edges().iter().any(|&(a, bb)| bb <= a));
    }

    #[test]
    fn empty_infinite_loop_does_not_hang() {
        let mut b = FunctionBuilder::new("spin", None);
        let l1 = b.new_block();
        let l2 = b.new_block();
        b.jump(l1);
        b.switch_to(l1);
        b.jump(l2);
        b.switch_to(l2);
        b.jump(l1);
        let mut f = b.finish();
        Clean.run(&mut f);
        assert!(f.verify().is_ok());
        // The self-loop shape survives in some form.
        let cfg = epre_cfg::Cfg::new(&f);
        assert!(!cfg.edges().is_empty());
    }

    #[test]
    fn idempotent() {
        let mut b = FunctionBuilder::new("i", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(x, t, e);
        b.switch_to(t);
        let one = b.loadi(Const::Int(1));
        b.copy_to(x, one);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(x));
        let mut f = b.finish();
        Clean.run(&mut f);
        let once = f.clone();
        Clean.run(&mut f);
        assert_eq!(f, once);
        let _ = Inst::Copy { dst: x, src: x };
    }
}
