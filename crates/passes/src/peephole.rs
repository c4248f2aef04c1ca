//! Global peephole optimization.
//!
//! The baseline's "global peephole optimization" pass (§4.1). It walks each
//! block with a local value environment (constants and copies seen so far
//! in the block) and applies:
//!
//! * **constant folding** — binary/unary operations on known constants,
//! * **algebraic identities** — `x+0`, `x-0`, `x*1`, `x/1`, `x*0`, `x-x`,
//!   `x^x` (integer only where floating-point rounding or `NaN` could
//!   observably differ; `x*1.0` and `x/1.0` are exact and allowed),
//! * **copy propagation** — uses of a copy's destination read the source,
//! * **subtraction reconstruction** — `t <- neg y; z <- add x, t` becomes
//!   `z <- sub x, y`, undoing reassociation's Frailey rewrite (§3.1 "we
//!   rely on a later pass … to reconstruct the original operations"),
//! * **strength reduction** — integer multiply by a power-of-two constant
//!   becomes a shift. §5.2 explains why this must run *after* global
//!   reassociation, which is exactly where the pipeline puts it,
//! * **branch folding** — a conditional branch on a known constant becomes
//!   a jump (the `clean` pass then drops the dead arm).

use epre_analysis::AnalysisCache;
use epre_ir::{BinOp, Const, Function, Inst, MixMap, Reg, Terminator, Ty, UnOp};
use epre_telemetry::PassCounters;

use crate::budget::{Budget, BudgetExceeded};

/// What one peephole run did to the function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeepholeStats {
    /// Some instruction was rewritten, deleted, or replaced.
    pub insts_changed: bool,
    /// A constant conditional branch was folded into a jump (the only
    /// peephole rewrite that edits the CFG).
    pub cfg_changed: bool,
    /// Individual instruction/operand rewrites applied (constant folds,
    /// identities, copy propagations, strength reductions).
    pub rewrites: u64,
    /// Constant conditional branches folded into jumps.
    pub branches_folded: u64,
}

impl PeepholeStats {
    /// Did anything change at all?
    pub fn changed(&self) -> bool {
        self.insts_changed || self.cfg_changed
    }

    /// Fold the stats into a trace span's counters.
    pub fn report(&self, counters: &mut PassCounters) {
        counters.add("rewrites", self.rewrites);
        counters.add("branches_folded", self.branches_folded);
    }
}

/// Run the peephole pass once over every block. Instruction rewrites keep
/// the CFG intact; only folding a conditional branch changes block shape,
/// so a changing run drops the CFG family of the pipeline's `cache` only
/// when it folded one, and the expression universe and liveness always.
///
/// The pass is a single sweep — there is no loop to checkpoint
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
) -> Result<PeepholeStats, BudgetExceeded> {
    debug_assert!(f.blocks.iter().all(|b| b.phi_count() == 0), "peephole expects φ-free code");
    let meter = budget.is_limited().then(|| budget.start(f));
    let mut stats = PeepholeStats::default();
    let mut env = Env { defs: vec![0; f.reg_count()], ..Env::default() };
    for bi in 0..f.blocks.len() {
        let block = rewrite_block(f, bi, &mut env);
        stats.insts_changed |= block.insts_changed;
        stats.cfg_changed |= block.cfg_changed;
        stats.rewrites += block.rewrites;
        stats.branches_folded += block.branches_folded;
    }
    if stats.changed() {
        if stats.cfg_changed {
            cache.invalidate_cfg();
        }
        cache.invalidate_universe();
        cache.invalidate_liveness();
    }
    if let Some(meter) = meter {
        meter.finish(f)?;
    }
    Ok(stats)
}

/// The local value environment of the block being rewritten: constants,
/// copy sources and negation operands seen so far in it, each forgotten
/// when the register it describes or reads is redefined.
///
/// A copy or negation entry records how often its source had been defined
/// when the entry was made, and holds only while that count stands, so a
/// definition invalidates every entry reading it at once instead of
/// scanning the environment for them.
#[derive(Default)]
struct Env {
    consts: MixMap<Reg, Const>,
    copies: MixMap<Reg, (Reg, u32)>,
    /// `d -> y` when `d <- neg y` is the latest definition of d.
    negs: MixMap<Reg, (Reg, u32)>,
    /// Definitions of each register so far in the function.
    defs: Vec<u32>,
}

impl Env {
    fn clear(&mut self) {
        self.consts.clear();
        self.copies.clear();
        self.negs.clear();
    }

    fn defs_of(&self, r: Reg) -> u32 {
        self.defs.get(r.index()).copied().unwrap_or(0)
    }

    /// `(src, defs of src)`, the entry for a mapping that reads `src`.
    fn entry(&self, src: Reg) -> (Reg, u32) {
        (src, self.defs_of(src))
    }

    /// The source the entry names, if it has not been redefined since.
    fn current(&self, entry: Option<&(Reg, u32)>) -> Option<Reg> {
        entry.and_then(|&(src, defs)| (self.defs_of(src) == defs).then_some(src))
    }

    fn constant(&self, r: Reg) -> Option<Const> {
        self.consts.get(&r).copied()
    }

    /// What `r` reads through a copy: one step is enough, because sources
    /// are themselves resolved when their copy is recorded.
    fn resolve(&self, r: Reg) -> Reg {
        self.current(self.copies.get(&r)).unwrap_or(r)
    }

    /// `y` if `r <- neg y` holds.
    fn neg_of(&self, r: Reg) -> Option<Reg> {
        self.current(self.negs.get(&r))
    }

    /// `d` is being redefined: forget what described it, and let the
    /// entries that read it lapse.
    fn define(&mut self, d: Reg) {
        self.consts.remove(&d);
        self.copies.remove(&d);
        self.negs.remove(&d);
        if d.index() >= self.defs.len() {
            self.defs.resize(d.index() + 1, 0);
        }
        self.defs[d.index()] = self.defs[d.index()].wrapping_add(1);
    }
}

fn rewrite_block(f: &mut Function, bi: usize, env: &mut Env) -> PeepholeStats {
    env.clear();
    let mut stats = PeepholeStats::default();
    let block = &mut f.blocks[bi];
    for inst in &mut block.insts {
        // Copy-propagate operands first.
        inst.map_uses(|r| {
            let resolved = env.resolve(r);
            if resolved != r {
                stats.insts_changed = true;
                stats.rewrites += 1;
            }
            resolved
        });

        // Invalidate environment entries that depended on the defined reg
        // *after* computing the rewrite (the definition happens last).
        let rewritten = simplify(inst, env);
        if let Some(new) = rewritten {
            if *inst != new {
                stats.insts_changed = true;
                stats.rewrites += 1;
            }
            *inst = new;
        }

        if let Some(d) = inst.dst() {
            // Any mapping reading d is now stale.
            env.define(d);
        }
        match inst {
            Inst::LoadI { dst, value } => {
                env.consts.insert(*dst, *value);
            }
            Inst::Copy { dst, src } => {
                if dst != src {
                    let entry = env.entry(*src);
                    env.copies.insert(*dst, entry);
                }
                if let Some(c) = env.constant(*src) {
                    env.consts.insert(*dst, c);
                }
            }
            Inst::Un { op: UnOp::Neg, dst, src, .. } => {
                let entry = env.entry(*src);
                env.negs.insert(*dst, entry);
            }
            _ => {}
        }
    }
    // Terminator: copy-propagate and fold constant branches.
    block.term.map_uses(|r| {
        let resolved = env.resolve(r);
        if resolved != r {
            stats.insts_changed = true;
            stats.rewrites += 1;
        }
        resolved
    });
    if let Terminator::Branch { cond, then_to, else_to } = block.term {
        if let Some(c) = env.constant(cond) {
            let target = if c.is_zero() { else_to } else { then_to };
            block.term = Terminator::Jump { target };
            stats.cfg_changed = true;
            stats.branches_folded += 1;
        }
    }
    stats
}

/// Attempt to rewrite one instruction given the local environment.
fn simplify(inst: &Inst, env: &Env) -> Option<Inst> {
    match inst {
        Inst::Bin { op, ty, dst, lhs, rhs } => {
            let lc = env.constant(*lhs);
            let rc = env.constant(*rhs);
            // Full constant folding.
            if let (Some(a), Some(b)) = (lc, rc) {
                if let Some(v) = fold_bin_const(*op, *ty, a, b) {
                    return Some(Inst::LoadI { dst: *dst, value: v });
                }
            }
            // Identities. Integer-only where FP rounding could differ.
            match op {
                BinOp::Add => {
                    if *ty == Ty::Int {
                        if rc.is_some_and(Const::is_zero) {
                            return Some(Inst::Copy { dst: *dst, src: *lhs });
                        }
                        if lc.is_some_and(Const::is_zero) {
                            return Some(Inst::Copy { dst: *dst, src: *rhs });
                        }
                    }
                    // Subtraction reconstruction: x + (-y) => x - y.
                    if let Some(y) = env.neg_of(*rhs) {
                        return Some(Inst::Bin { op: BinOp::Sub, ty: *ty, dst: *dst, lhs: *lhs, rhs: y });
                    }
                    if let Some(y) = env.neg_of(*lhs) {
                        return Some(Inst::Bin { op: BinOp::Sub, ty: *ty, dst: *dst, lhs: *rhs, rhs: y });
                    }
                }
                BinOp::Sub => {
                    if *ty == Ty::Int {
                        if rc.is_some_and(Const::is_zero) {
                            return Some(Inst::Copy { dst: *dst, src: *lhs });
                        }
                        if lhs == rhs {
                            return Some(Inst::LoadI { dst: *dst, value: Const::Int(0) });
                        }
                    }
                    // x - (-y) => x + y.
                    if let Some(y) = env.neg_of(*rhs) {
                        return Some(Inst::Bin { op: BinOp::Add, ty: *ty, dst: *dst, lhs: *lhs, rhs: y });
                    }
                }
                BinOp::Mul => {
                    // x*1 and 1*x are exact for both types.
                    if rc.is_some_and(Const::is_one) {
                        return Some(Inst::Copy { dst: *dst, src: *lhs });
                    }
                    if lc.is_some_and(Const::is_one) {
                        return Some(Inst::Copy { dst: *dst, src: *rhs });
                    }
                    if *ty == Ty::Int {
                        if rc.is_some_and(Const::is_zero) || lc.is_some_and(Const::is_zero) {
                            return Some(Inst::LoadI { dst: *dst, value: Const::Int(0) });
                        }
                        // Strength reduction: multiply by 2 => add. (The
                        // general 2^k => shift rewrite needs a fresh
                        // register for the shift amount; ×2 is the common
                        // case in address arithmetic. Must not run before
                        // reassociation — §5.2 — and does not, by pipeline
                        // construction.)
                        if rc == Some(Const::Int(2)) {
                            return Some(shift_of(*dst, *lhs));
                        }
                        if lc == Some(Const::Int(2)) {
                            return Some(shift_of(*dst, *rhs));
                        }
                    }
                }
                BinOp::Div
                    // x/1 is exact for both types.
                    if rc.is_some_and(Const::is_one) => {
                        return Some(Inst::Copy { dst: *dst, src: *lhs });
                    }
                BinOp::Xor
                    if *ty == Ty::Int && lhs == rhs => {
                        return Some(Inst::LoadI { dst: *dst, value: Const::Int(0) });
                    }
                BinOp::And | BinOp::Or
                    if *ty == Ty::Int && lhs == rhs => {
                        return Some(Inst::Copy { dst: *dst, src: *lhs });
                    }
                _ => {}
            }
            None
        }
        Inst::Un { op, ty, dst, src } => {
            if let Some(c) = env.constant(*src) {
                if let Some(v) = fold_un_const(*op, c) {
                    return Some(Inst::LoadI { dst: *dst, value: v });
                }
            }
            // Double negation: neg(neg x) => copy x.
            if *op == UnOp::Neg {
                if let Some(inner) = env.neg_of(*src) {
                    return Some(Inst::Copy { dst: *dst, src: inner });
                }
            }
            let _ = ty;
            None
        }
        _ => None,
    }
}

fn shift_of(dst: Reg, src: Reg) -> Inst {
    Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst, lhs: src, rhs: src }
}

pub(crate) fn fold_bin_const(op: BinOp, ty: Ty, a: Const, b: Const) -> Option<Const> {
    match ty {
        Ty::Int => {
            let x = a.as_int()?;
            let y = b.as_int()?;
            Some(match op {
                BinOp::Add => Const::Int(x.wrapping_add(y)),
                BinOp::Sub => Const::Int(x.wrapping_sub(y)),
                BinOp::Mul => Const::Int(x.wrapping_mul(y)),
                BinOp::Div => {
                    if y == 0 {
                        return None; // preserve the runtime error
                    }
                    Const::Int(x.wrapping_div(y))
                }
                BinOp::Rem => {
                    if y == 0 {
                        return None;
                    }
                    Const::Int(x.wrapping_rem(y))
                }
                BinOp::Min => Const::Int(x.min(y)),
                BinOp::Max => Const::Int(x.max(y)),
                BinOp::And => Const::Int(x & y),
                BinOp::Or => Const::Int(x | y),
                BinOp::Xor => Const::Int(x ^ y),
                BinOp::Shl => Const::Int(x.wrapping_shl((y & 63) as u32)),
                BinOp::Shr => Const::Int(x.wrapping_shr((y & 63) as u32)),
                BinOp::CmpEq => Const::Int((x == y) as i64),
                BinOp::CmpNe => Const::Int((x != y) as i64),
                BinOp::CmpLt => Const::Int((x < y) as i64),
                BinOp::CmpLe => Const::Int((x <= y) as i64),
                BinOp::CmpGt => Const::Int((x > y) as i64),
                BinOp::CmpGe => Const::Int((x >= y) as i64),
            })
        }
        Ty::Float => {
            let x = a.as_float()?;
            let y = b.as_float()?;
            Some(match op {
                BinOp::Add => Const::Float(x + y),
                BinOp::Sub => Const::Float(x - y),
                BinOp::Mul => Const::Float(x * y),
                BinOp::Div => Const::Float(x / y),
                BinOp::Rem => Const::Float(x % y),
                BinOp::Min => Const::Float(x.min(y)),
                BinOp::Max => Const::Float(x.max(y)),
                BinOp::CmpEq => Const::Int((x == y) as i64),
                BinOp::CmpNe => Const::Int((x != y) as i64),
                BinOp::CmpLt => Const::Int((x < y) as i64),
                BinOp::CmpLe => Const::Int((x <= y) as i64),
                BinOp::CmpGt => Const::Int((x > y) as i64),
                BinOp::CmpGe => Const::Int((x >= y) as i64),
                _ => return None,
            })
        }
    }
}

pub(crate) fn fold_un_const(op: UnOp, c: Const) -> Option<Const> {
    Some(match (op, c) {
        (UnOp::Neg, Const::Int(v)) => Const::Int(v.wrapping_neg()),
        (UnOp::Neg, Const::Float(v)) => Const::Float(-v),
        (UnOp::Not, Const::Int(v)) => Const::Int(!v),
        (UnOp::I2F, Const::Int(v)) => Const::Float(v as f64),
        (UnOp::F2I, Const::Float(v)) => Const::Int(v as i64),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{passes::Peephole, Pass};
    use epre_ir::FunctionBuilder;

    #[test]
    fn folds_constants() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let a = b.loadi(Const::Int(6));
        let c = b.loadi(Const::Int(7));
        let p = b.bin(BinOp::Mul, Ty::Int, a, c);
        b.ret(Some(p));
        let mut f = b.finish();
        Peephole.run(&mut f);
        assert!(matches!(f.blocks[0].insts[2], Inst::LoadI { value: Const::Int(42), .. }));
    }

    #[test]
    fn preserves_division_by_zero() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let a = b.loadi(Const::Int(6));
        let z = b.loadi(Const::Int(0));
        let q = b.bin(BinOp::Div, Ty::Int, a, z);
        b.ret(Some(q));
        let mut f = b.finish();
        Peephole.run(&mut f);
        assert!(matches!(f.blocks[0].insts[2], Inst::Bin { op: BinOp::Div, .. }));
    }

    #[test]
    fn integer_identities() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let z = b.loadi(Const::Int(0));
        let s = b.bin(BinOp::Add, Ty::Int, x, z); // x + 0 -> copy x
        let d = b.bin(BinOp::Sub, Ty::Int, s, s); // s - s -> 0
        b.ret(Some(d));
        let mut f = b.finish();
        Peephole.run(&mut f);
        assert!(matches!(f.blocks[0].insts[1], Inst::Copy { .. }));
        assert!(matches!(f.blocks[0].insts[2], Inst::LoadI { value: Const::Int(0), .. }));
    }

    #[test]
    fn float_identities_are_conservative() {
        // x + 0.0 must NOT fold (x = -0.0 would change); x * 1.0 folds.
        let mut b = FunctionBuilder::new("f", Some(Ty::Float));
        let x = b.param(Ty::Float);
        let z = b.loadi(Const::Float(0.0));
        let one = b.loadi(Const::Float(1.0));
        let s = b.bin(BinOp::Add, Ty::Float, x, z);
        let p = b.bin(BinOp::Mul, Ty::Float, s, one);
        b.ret(Some(p));
        let mut f = b.finish();
        Peephole.run(&mut f);
        assert!(matches!(f.blocks[0].insts[2], Inst::Bin { op: BinOp::Add, .. }));
        assert!(matches!(f.blocks[0].insts[3], Inst::Copy { .. }));
    }

    #[test]
    fn reconstructs_subtraction() {
        // t = neg y; z = x + t  =>  z = x - y (the §3.1 round trip).
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let t = b.un(UnOp::Neg, Ty::Int, y);
        let z = b.bin(BinOp::Add, Ty::Int, x, t);
        b.ret(Some(z));
        let mut f = b.finish();
        Peephole.run(&mut f);
        let sub = &f.blocks[0].insts[1];
        assert!(matches!(sub, Inst::Bin { op: BinOp::Sub, .. }));
        assert_eq!(sub.uses().collect::<Vec<_>>(), vec![x, y]);
    }

    #[test]
    fn multiply_by_two_becomes_add() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let two = b.loadi(Const::Int(2));
        let d = b.bin(BinOp::Mul, Ty::Int, x, two);
        b.ret(Some(d));
        let mut f = b.finish();
        Peephole.run(&mut f);
        let add = &f.blocks[0].insts[1];
        assert!(matches!(add, Inst::Bin { op: BinOp::Add, .. }));
        assert_eq!(add.uses().collect::<Vec<_>>(), vec![x, x]);
    }

    #[test]
    fn folds_constant_branches() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let c = b.loadi(Const::Int(0));
        let t = b.new_block();
        let e = b.new_block();
        b.branch(c, t, e);
        b.switch_to(t);
        b.ret(Some(x));
        b.switch_to(e);
        b.ret(Some(c));
        let mut f = b.finish();
        Peephole.run(&mut f);
        assert!(matches!(f.blocks[0].term, Terminator::Jump { target } if target == e));
    }

    #[test]
    fn copy_propagation_through_block() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let c = b.copy(x);
        let s = b.bin(BinOp::Add, Ty::Int, c, c);
        b.ret(Some(s));
        let mut f = b.finish();
        Peephole.run(&mut f);
        // The add reads x directly now; DCE would remove the copy.
        assert_eq!(f.blocks[0].insts[1].uses().collect::<Vec<_>>(), vec![x, x]);
    }

    #[test]
    fn environment_invalidation_on_redefinition() {
        // x <- 1; y <- x + x (fold 2); x <- p (kills); z <- x + x (no fold)
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let x = b.new_reg(Ty::Int);
        b.push(Inst::LoadI { dst: x, value: Const::Int(1) });
        let y = b.bin(BinOp::Add, Ty::Int, x, x);
        b.copy_to(x, p);
        let z = b.bin(BinOp::Add, Ty::Int, x, x);
        let q = b.bin(BinOp::Xor, Ty::Int, y, z);
        b.ret(Some(q));
        let mut f = b.finish();
        Peephole.run(&mut f);
        assert!(matches!(f.blocks[0].insts[1], Inst::LoadI { value: Const::Int(2), .. }));
        // Second add reads p (copy-propagated), not a constant.
        assert!(matches!(f.blocks[0].insts[3], Inst::Bin { op: BinOp::Add, .. }));
        assert_eq!(f.blocks[0].insts[3].uses().collect::<Vec<_>>(), vec![p, p]);
    }

    #[test]
    fn redefining_a_source_forgets_copies_and_negations_of_it() {
        // a <- copy y; t <- neg y; y <- copy q; s <- add a, t: neither `a`
        // nor `t` may be read through the redefined `y`.
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let y = b.param(Ty::Int);
        let q = b.param(Ty::Int);
        let a = b.copy(y);
        let t = b.un(UnOp::Neg, Ty::Int, y);
        b.copy_to(y, q);
        let s = b.bin(BinOp::Add, Ty::Int, a, t);
        b.ret(Some(s));
        let mut f = b.finish();
        Peephole.run(&mut f);
        let add = &f.blocks[0].insts[3];
        assert!(matches!(add, Inst::Bin { op: BinOp::Add, .. }), "{f}");
        assert_eq!(add.uses().collect::<Vec<_>>(), vec![a, t], "{f}");
    }

    #[test]
    fn double_negation() {
        let mut b = FunctionBuilder::new("f", Some(Ty::Float));
        let x = b.param(Ty::Float);
        let n1 = b.un(UnOp::Neg, Ty::Float, x);
        let n2 = b.un(UnOp::Neg, Ty::Float, n1);
        b.ret(Some(n2));
        let mut f = b.finish();
        Peephole.run(&mut f);
        assert!(matches!(f.blocks[0].insts[1], Inst::Copy { src, .. } if src == x));
    }
}
