//! Dead code elimination.
//!
//! The baseline sequence (§4.1) includes "global dead code elimination
//! [11, Section 7.1]". This implementation works directly on (φ-free)
//! ILOC with a liveness-based sweep iterated to a fixed point: an
//! instruction is deleted when it has no side effects and its result is
//! dead at the program point just after it. Iteration handles chains
//! (removing a use can kill the definition feeding it).
//!
//! Calls and stores always survive; so do instructions feeding terminators
//! transitively.

use epre_analysis::AnalysisCache;
use epre_ir::Function;

use crate::budget::{Budget, BudgetExceeded};
use epre_telemetry::PassCounters;

/// What one DCE invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DceStats {
    /// Dead instructions deleted.
    pub ops_killed: u64,
    /// Liveness rounds that deleted something.
    pub rounds: u64,
}

impl DceStats {
    /// Did the invocation change the function at all?
    pub fn changed(&self) -> bool {
        self.ops_killed > 0
    }

    /// Fold the stats into a trace span's counters.
    pub fn report(&self, counters: &mut PassCounters) {
        counters.add("ops_killed", self.ops_killed);
        counters.add("rounds", self.rounds);
    }
}

/// Run DCE to a fixed point against the pipeline's [`AnalysisCache`],
/// under a resource [`Budget`].
///
/// DCE deletes instructions but never blocks or edges: a cached CFG is
/// reused across every liveness round of the fixed point — and survives
/// the pass for its successors. Liveness itself is served through the
/// cache too: each deleting round invalidates it (plus the expression
/// universe), and the final quiescing round leaves a valid entry behind
/// for the next liveness consumer (coalescing, which runs immediately
/// after DCE at every level). There is one cooperative checkpoint per
/// liveness round.
///
/// # Errors
/// [`BudgetExceeded`] when a round starts over budget; instructions
/// already deleted stay deleted (callers needing atomicity run a clone).
pub fn run(
    f: &mut Function,
    cache: &mut AnalysisCache,
    budget: &Budget,
) -> Result<DceStats, BudgetExceeded> {
    debug_assert!(f.blocks.iter().all(|b| b.phi_count() == 0), "dce expects φ-free code");
    let mut meter = budget.start(f);
    let mut stats = DceStats::default();
    loop {
        meter.tick(f)?;
        let live = cache.liveness(f);
        let mut changed = false;
        for (bid, block) in f.blocks.iter_mut().enumerate() {
            // Walk backwards maintaining the live set.
            let mut live_now = live.live_out[bid].clone();
            for u in block.term.uses() {
                live_now.insert(u.index());
            }
            let mut keep = vec![true; block.insts.len()];
            for (i, inst) in block.insts.iter().enumerate().rev() {
                let dead = match inst.dst() {
                    Some(d) => !live_now.contains(d.index()),
                    None => false,
                };
                if dead && !inst.has_side_effects() {
                    keep[i] = false;
                    changed = true;
                    stats.ops_killed += 1;
                    continue;
                }
                if let Some(d) = inst.dst() {
                    live_now.remove(d.index());
                }
                for u in inst.uses() {
                    live_now.insert(u.index());
                }
            }
            if keep.iter().any(|k| !k) {
                let mut it = keep.iter();
                block.insts.retain(|_| *it.next().unwrap());
            }
        }
        if !changed {
            break;
        }
        stats.rounds += 1;
        cache.invalidate_universe();
        cache.invalidate_liveness();
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use crate::{passes::Dce, Pass};
    use epre_ir::{BinOp, Const, FunctionBuilder, Inst, Ty};

    #[test]
    fn removes_dead_chain() {
        let mut b = FunctionBuilder::new("d", Some(Ty::Int));
        let x = b.param(Ty::Int);
        // Dead chain: c -> y -> z (z unused).
        let c = b.loadi(Const::Int(3));
        let y = b.bin(BinOp::Add, Ty::Int, x, c);
        let _z = b.bin(BinOp::Mul, Ty::Int, y, y);
        b.ret(Some(x));
        let mut f = b.finish();
        Dce.run(&mut f);
        assert_eq!(f.inst_count(), 0);
        assert!(f.verify().is_ok());
    }

    #[test]
    fn keeps_live_code() {
        let mut b = FunctionBuilder::new("k", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let c = b.loadi(Const::Int(3));
        let y = b.bin(BinOp::Add, Ty::Int, x, c);
        b.ret(Some(y));
        let mut f = b.finish();
        Dce.run(&mut f);
        assert_eq!(f.inst_count(), 2);
    }

    #[test]
    fn keeps_side_effects() {
        let mut b = FunctionBuilder::new("s", None);
        let p = b.param(Ty::Int);
        let v = b.loadi(Const::Int(1));
        b.store(Ty::Int, p, v);
        let _unused = b.call("sqrt", vec![], Ty::Float);
        b.ret(None);
        let mut f = b.finish();
        Dce.run(&mut f);
        // store, its operand loadi, and the call survive.
        assert_eq!(f.inst_count(), 3);
    }

    #[test]
    fn dead_store_value_is_not_removed_but_dead_copy_is() {
        let mut b = FunctionBuilder::new("c", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let dead = b.copy(x);
        let _ = dead;
        b.ret(Some(x));
        let mut f = b.finish();
        Dce.run(&mut f);
        assert_eq!(f.inst_count(), 0);
    }

    #[test]
    fn loop_carried_liveness_keeps_induction() {
        // i updated in loop and tested: must survive.
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
        // Dead inside loop:
        let _dead = b.bin(BinOp::Mul, Ty::Int, i2, i2);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut f = b.finish();
        let before = f.inst_count();
        Dce.run(&mut f);
        assert_eq!(f.inst_count(), before - 1);
    }

    #[test]
    fn overwritten_definition_dies() {
        // x <- 1 (dead, overwritten); x <- 2; return x
        let mut b = FunctionBuilder::new("o", Some(Ty::Int));
        let x = b.new_reg(Ty::Int);
        b.push(Inst::LoadI { dst: x, value: Const::Int(1) });
        b.push(Inst::LoadI { dst: x, value: Const::Int(2) });
        b.ret(Some(x));
        let mut f = b.finish();
        Dce.run(&mut f);
        assert_eq!(f.inst_count(), 1);
        assert!(matches!(f.blocks[0].insts[0], Inst::LoadI { value: Const::Int(2), .. }));
    }
}
