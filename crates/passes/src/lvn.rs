//! Hash-based local value numbering.
//!
//! §4.1 lists "hash-based value numbering" among the optimizer's *missing*
//! passes ("it may be that our results understate the eventual benefits …
//! hash-based value numbering should also benefit from reassociation").
//! This module supplies it as an extension: within each block, pure
//! expressions are numbered by `(op, ty, operand value numbers)` — with
//! commutative operand canonicalization — and a recomputation of an
//! already-available value becomes a copy. The ablation benchmark
//! `hierarchy` measures its marginal effect on top of each optimization
//! level.

use std::collections::HashMap;

use epre_analysis::{AnalysisCache, PreservedAnalyses};
use epre_ir::{Const, Function, Inst, Reg};

use crate::budget::{Budget, BudgetExceeded};
use epre_telemetry::PassCounters;

/// Value number.
type Vn = u32;

/// What one LVN invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LvnStats {
    /// Redundant recomputations deleted outright (value already in its
    /// canonical home register).
    pub redundant_deleted: u64,
    /// Recomputations rewritten into copies from the canonical home.
    pub copies_rewritten: u64,
}

impl LvnStats {
    /// Did the invocation change the function at all?
    pub fn changed(&self) -> bool {
        self.redundant_deleted + self.copies_rewritten > 0
    }

    /// Fold the stats into a trace span's counters.
    pub fn report(&self, counters: &mut PassCounters) {
        counters.add("redundant_deleted", self.redundant_deleted);
        counters.add("copies_rewritten", self.copies_rewritten);
    }
}

/// Run local value numbering over every block. LVN rewrites and deletes
/// instructions within blocks but leaves the CFG alone, so a changing run
/// keeps only the CFG family of the pipeline's `cache`.
///
/// LVN is a single bounded sweep — there is no loop to checkpoint
/// cooperatively — so a limited `budget` holds it to the growth and
/// deadline dimensions post-hoc.
///
/// # Errors
/// [`BudgetExceeded`] when the post-hoc check finds the sweep over
/// budget.
pub fn run(
    f: &mut Function,
    cache: &mut AnalysisCache,
    budget: &Budget,
) -> Result<LvnStats, BudgetExceeded> {
    debug_assert!(f.blocks.iter().all(|b| b.phi_count() == 0), "lvn expects φ-free code");
    let meter = budget.is_limited().then(|| budget.start(f));
    let mut stats = LvnStats::default();
    for block in &mut f.blocks {
        number_block(block, &mut stats);
    }
    if stats.changed() {
        cache.retain(PreservedAnalyses::none().with_cfg());
    }
    if let Some(meter) = meter {
        meter.finish(f)?;
    }
    Ok(stats)
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum VnKey {
    Const(Const),
    Bin(epre_ir::BinOp, epre_ir::Ty, Vn, Vn),
    Un(epre_ir::UnOp, epre_ir::Ty, Vn),
}

fn number_block(block: &mut epre_ir::Block, stats: &mut LvnStats) {
    let mut next: Vn = 0;
    // Value number currently held by each register.
    let mut vn_of_reg: HashMap<Reg, Vn> = HashMap::new();
    // First register still holding each computed value.
    let mut reg_of_vn: HashMap<Vn, Reg> = HashMap::new();
    let mut vn_of_key: HashMap<VnKey, Vn> = HashMap::new();

    let fresh = |vn_of_reg: &mut HashMap<Reg, Vn>, r: Reg, next: &mut Vn| {
        let vn = *next;
        *next += 1;
        vn_of_reg.insert(r, vn);
        vn
    };

    // Instructions to delete: redundant recomputations into the register
    // that already canonically holds the value (the common shape after
    // GVN renaming gives every occurrence of an expression one name).
    let mut keep = vec![true; block.insts.len()];

    for (idx, inst) in block.insts.iter_mut().enumerate() {
        // Value-number the operands (unknown registers get fresh numbers).
        let mut vn_of = |r: Reg, vn_of_reg: &mut HashMap<Reg, Vn>, next: &mut Vn| -> Vn {
            if let Some(&v) = vn_of_reg.get(&r) {
                v
            } else {
                let v = *next;
                *next += 1;
                vn_of_reg.insert(r, v);
                // The register itself canonically holds this unknown value.
                reg_of_vn.entry(v).or_insert(r);
                v
            }
        };

        let key = match inst {
            Inst::LoadI { value, .. } => Some(VnKey::Const(*value)),
            Inst::Bin { op, ty, lhs, rhs, .. } => {
                let mut a = vn_of(*lhs, &mut vn_of_reg, &mut next);
                let mut b = vn_of(*rhs, &mut vn_of_reg, &mut next);
                if op.is_commutative() && b < a {
                    std::mem::swap(&mut a, &mut b);
                }
                Some(VnKey::Bin(*op, *ty, a, b))
            }
            Inst::Un { op, ty, src, .. } => {
                let s = vn_of(*src, &mut vn_of_reg, &mut next);
                Some(VnKey::Un(*op, *ty, s))
            }
            Inst::Copy { dst, src } => {
                let s = vn_of(*src, &mut vn_of_reg, &mut next);
                let d = *dst;
                vn_of_reg.insert(d, s);
                // Do not make d canonical; the source stays.
                continue;
            }
            _ => None,
        };

        match (key, inst.dst()) {
            (Some(key), Some(d)) => {
                if let Some(&vn) = vn_of_key.get(&key) {
                    // Redundant: the value already lives in a register.
                    if let Some(&home) = reg_of_vn.get(&vn) {
                        if home == d {
                            // Recomputation into its own canonical home:
                            // a pure no-op, delete it.
                            keep[idx] = false;
                            stats.redundant_deleted += 1;
                        } else {
                            *inst = Inst::Copy { dst: d, src: home };
                            stats.copies_rewritten += 1;
                        }
                        vn_of_reg.insert(d, vn);
                        continue;
                    }
                }
                let vn = fresh(&mut vn_of_reg, d, &mut next);
                vn_of_key.insert(key, vn);
                reg_of_vn.insert(vn, d);
            }
            _ => {
                // Loads, calls: result is a new unknown value.
                if let Some(d) = inst.dst() {
                    let vn = fresh(&mut vn_of_reg, d, &mut next);
                    reg_of_vn.insert(vn, d);
                }
            }
        }

        // A redefined register invalidates canonical homes pointing at it.
        if let Some(d) = inst.dst() {
            for (vn, home) in reg_of_vn.clone() {
                if home == d && vn_of_reg.get(&d) != Some(&vn) {
                    reg_of_vn.remove(&vn);
                }
            }
        }
    }
    let mut it = keep.iter();
    block.insts.retain(|_| *it.next().unwrap());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{passes::Lvn, Pass};
    use epre_ir::{BinOp, FunctionBuilder, Ty};

    #[test]
    fn second_computation_becomes_copy() {
        let mut b = FunctionBuilder::new("v", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s1 = b.bin(BinOp::Add, Ty::Int, x, y);
        let s2 = b.bin(BinOp::Add, Ty::Int, x, y);
        let m = b.bin(BinOp::Mul, Ty::Int, s1, s2);
        b.ret(Some(m));
        let mut f = b.finish();
        Lvn.run(&mut f);
        assert!(matches!(f.blocks[0].insts[1], Inst::Copy { .. }));
    }

    #[test]
    fn commutativity_recognized() {
        let mut b = FunctionBuilder::new("c", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s1 = b.bin(BinOp::Add, Ty::Int, x, y);
        let s2 = b.bin(BinOp::Add, Ty::Int, y, x);
        let m = b.bin(BinOp::Mul, Ty::Int, s1, s2);
        b.ret(Some(m));
        let mut f = b.finish();
        Lvn.run(&mut f);
        assert!(matches!(f.blocks[0].insts[1], Inst::Copy { .. }));
    }

    #[test]
    fn copies_extend_value_tracking() {
        // t = x + y; c = copy t; u = x + y — u sees the value through c.
        let mut b = FunctionBuilder::new("k", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let t = b.bin(BinOp::Add, Ty::Int, x, y);
        let _c = b.copy(t);
        let u = b.bin(BinOp::Add, Ty::Int, x, y);
        b.ret(Some(u));
        let mut f = b.finish();
        Lvn.run(&mut f);
        assert!(matches!(f.blocks[0].insts[2], Inst::Copy { src, .. } if src == t));
    }

    #[test]
    fn redefinition_kills_availability() {
        // n = x + y; x = 0 (kills); n2 = x + y must stay a real add.
        let mut b = FunctionBuilder::new("r", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let _n = b.bin(BinOp::Add, Ty::Int, x, y);
        let z = b.loadi(epre_ir::Const::Int(0));
        b.copy_to(x, z);
        let n2 = b.bin(BinOp::Add, Ty::Int, x, y);
        b.ret(Some(n2));
        let mut f = b.finish();
        Lvn.run(&mut f);
        assert!(
            matches!(f.blocks[0].insts[3], Inst::Bin { op: BinOp::Add, .. }),
            "x changed; x+y is a new value: {f}"
        );
    }

    #[test]
    fn loads_never_number() {
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let v1 = b.load(Ty::Int, p);
        let v2 = b.load(Ty::Int, p);
        let s = b.bin(BinOp::Add, Ty::Int, v1, v2);
        b.ret(Some(s));
        let mut f = b.finish();
        Lvn.run(&mut f);
        let loads = f.blocks[0].insts.iter().filter(|i| matches!(i, Inst::Load { .. })).count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn constants_share_a_number() {
        let mut b = FunctionBuilder::new("n", Some(Ty::Int));
        let c1 = b.loadi(epre_ir::Const::Int(5));
        let c2 = b.loadi(epre_ir::Const::Int(5));
        let s = b.bin(BinOp::Add, Ty::Int, c1, c2);
        b.ret(Some(s));
        let mut f = b.finish();
        Lvn.run(&mut f);
        assert!(matches!(f.blocks[0].insts[1], Inst::Copy { .. }));
    }
}
