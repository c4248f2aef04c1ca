//! Seeded fault injection: deterministic IR mutations and adversarial
//! *pass* models for the fuzz campaign.
//!
//! Each IR mutation models a realistic *optimizer bug* rather than random
//! bit noise: dropping an instruction (over-eager DCE), duplicating one
//! (botched code motion), swapping operands (commutativity applied to a
//! non-commutative operator), retargeting a branch (CFG surgery gone
//! wrong), corrupting a φ-argument (SSA repair bug), and clobbering a def
//! (rename collision). The containment stack — lint, sandbox, oracle —
//! must catch or tolerate every one of them.
//!
//! The [`PassFaultModel`]s are a different axis: instead of damaging the
//! IR, they splice a *misbehaving pass* into the pipeline — one that
//! never reaches its fixed point, and one whose output grows without
//! bound. Neither panics and neither emits invalid ILOC, so the panic and
//! lint layers are blind to them; only the resource [`Budget`] can stop
//! them, which is exactly what the campaign proves.

use epre::Budget;
use epre_analysis::AnalysisCache;
use epre_ir::{BlockId, Const, Function, Inst, Module, Terminator, Ty};
use epre_passes::{BudgetExceeded, Pass};

use crate::rng::SplitMix64;

/// The kinds of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Delete one instruction (models over-eager dead-code elimination).
    DropInst,
    /// Duplicate one instruction in place (models botched code motion —
    /// the second def redefines the register).
    DupInst,
    /// Swap the operands of a binary instruction (models commutativity
    /// applied where it does not hold; benign on `add`, wrong on `sub`).
    SwapOperands,
    /// Redirect one edge of a branch or jump to a random block (models
    /// CFG surgery gone wrong).
    RetargetBranch,
    /// Replace one φ-argument's register with a random register (models
    /// an SSA-repair bug). Falls back to another mutation when the
    /// function holds no φs (frontend output is not in SSA form).
    CorruptPhi,
    /// Redirect an instruction's def to a register that is live for
    /// another purpose (models a renaming collision).
    ClobberDef,
}

impl MutationKind {
    /// All kinds, in selection order.
    pub const ALL: [MutationKind; 6] = [
        MutationKind::DropInst,
        MutationKind::DupInst,
        MutationKind::SwapOperands,
        MutationKind::RetargetBranch,
        MutationKind::CorruptPhi,
        MutationKind::ClobberDef,
    ];

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MutationKind::DropInst => "drop-inst",
            MutationKind::DupInst => "dup-inst",
            MutationKind::SwapOperands => "swap-operands",
            MutationKind::RetargetBranch => "retarget-branch",
            MutationKind::CorruptPhi => "corrupt-phi",
            MutationKind::ClobberDef => "clobber-def",
        }
    }
}

/// A record of one applied mutation.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// What was done.
    pub kind: MutationKind,
    /// Function mutated.
    pub function: String,
    /// Block mutated.
    pub block: BlockId,
    /// Instruction index within the block, when instruction-level.
    pub inst: Option<usize>,
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} in `{}` at b{}", self.kind.label(), self.function, self.block.0)?;
        if let Some(i) = self.inst {
            write!(f, ".{i}")?;
        }
        Ok(())
    }
}

/// Try to apply one mutation of `kind` to `f`. Returns the record on
/// success, `None` when the function offers no site for this kind.
fn apply(f: &mut Function, kind: MutationKind, rng: &mut SplitMix64) -> Option<Mutation> {
    let name = f.name.clone();
    match kind {
        MutationKind::DropInst => {
            let sites: Vec<(usize, usize)> = inst_sites(f, |_| true);
            let &(b, i) = pick(&sites, rng)?;
            f.blocks[b].insts.remove(i);
            Some(Mutation { kind, function: name, block: BlockId(b as u32), inst: Some(i) })
        }
        MutationKind::DupInst => {
            // Duplicating a φ would put a φ below a non-φ and be caught
            // trivially; target real instructions.
            let sites: Vec<(usize, usize)> = inst_sites(f, |i| !matches!(i, Inst::Phi { .. }));
            let &(b, i) = pick(&sites, rng)?;
            let dup = f.blocks[b].insts[i].clone();
            f.blocks[b].insts.insert(i + 1, dup);
            Some(Mutation { kind, function: name, block: BlockId(b as u32), inst: Some(i) })
        }
        MutationKind::SwapOperands => {
            let sites: Vec<(usize, usize)> = inst_sites(f, |i| matches!(i, Inst::Bin { .. }));
            let &(b, i) = pick(&sites, rng)?;
            if let Inst::Bin { lhs, rhs, .. } = &mut f.blocks[b].insts[i] {
                std::mem::swap(lhs, rhs);
            }
            Some(Mutation { kind, function: name, block: BlockId(b as u32), inst: Some(i) })
        }
        MutationKind::RetargetBranch => {
            if f.blocks.len() < 2 {
                return None;
            }
            let branchy: Vec<usize> = f
                .blocks
                .iter()
                .enumerate()
                .filter(|(_, blk)| !matches!(blk.term, Terminator::Return { .. }))
                .map(|(b, _)| b)
                .collect();
            let &b = pick(&branchy, rng)?;
            let new_target = BlockId(rng.below(f.blocks.len()) as u32);
            match &mut f.blocks[b].term {
                Terminator::Jump { target } => *target = new_target,
                Terminator::Branch { then_to, else_to, .. } => {
                    if rng.below(2) == 0 {
                        *then_to = new_target;
                    } else {
                        *else_to = new_target;
                    }
                }
                Terminator::Return { .. } => unreachable!(),
            }
            Some(Mutation { kind, function: name, block: BlockId(b as u32), inst: None })
        }
        MutationKind::CorruptPhi => {
            if f.reg_count() == 0 {
                return None;
            }
            let sites: Vec<(usize, usize)> = inst_sites(f, |i| matches!(i, Inst::Phi { .. }));
            let &(b, i) = pick(&sites, rng)?;
            let junk = epre_ir::Reg(rng.below(f.reg_count()) as u32);
            if let Inst::Phi { args, .. } = &mut f.blocks[b].insts[i] {
                let k = rng.below(args.len().max(1)).min(args.len().saturating_sub(1));
                if let Some((_, r)) = args.get_mut(k) {
                    *r = junk;
                }
            }
            Some(Mutation { kind, function: name, block: BlockId(b as u32), inst: Some(i) })
        }
        MutationKind::ClobberDef => {
            if f.reg_count() == 0 {
                return None;
            }
            let sites: Vec<(usize, usize)> = inst_sites(f, |i| i.dst().is_some());
            let &(b, i) = pick(&sites, rng)?;
            let victim = epre_ir::Reg(rng.below(f.reg_count()) as u32);
            // Keep the register type consistent so the fault is a *live
            // range* collision, not a trivially-typed one the lint layer
            // would flag before anything interesting happens.
            let old = f.blocks[b].insts[i].dst().expect("site has a def");
            if f.ty_of(victim) != f.ty_of(old) {
                return None;
            }
            f.blocks[b].insts[i].set_dst(victim);
            Some(Mutation { kind, function: name, block: BlockId(b as u32), inst: Some(i) })
        }
    }
}

/// `(block, inst)` indices of instructions satisfying `want`.
fn inst_sites(f: &Function, want: impl Fn(&Inst) -> bool) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (b, blk) in f.blocks.iter().enumerate() {
        for (i, inst) in blk.insts.iter().enumerate() {
            if want(inst) {
                out.push((b, i));
            }
        }
    }
    out
}

fn pick<'a, T>(xs: &'a [T], rng: &mut SplitMix64) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.below(xs.len())])
    }
}

/// Apply one seeded mutation to a clone of `module`.
///
/// Draws `(function, kind)` pairs until a mutation applies, bounded by a
/// fixed attempt budget so a degenerate module (e.g. all-empty functions)
/// cannot loop forever. Returns `None` only when the budget is exhausted.
pub fn mutate_module(module: &Module, rng: &mut SplitMix64) -> Option<(Module, Mutation)> {
    if module.functions.is_empty() {
        return None;
    }
    for _ in 0..24 {
        let mut out = module.clone();
        let fi = rng.below(out.functions.len());
        let kind = MutationKind::ALL[rng.below(MutationKind::ALL.len())];
        if let Some(m) = apply(&mut out.functions[fi], kind, rng) {
            return Some((out, m));
        }
    }
    None
}

/// The adversarial pass models: optimizer bugs that only a resource
/// budget can contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassFaultModel {
    /// A fixed-point pass that never converges: it ticks its meter
    /// forever without changing the function. Contained by the iteration
    /// cap (or the deadline).
    NonTerminating,
    /// A pass whose every round appends another copy's worth of
    /// instructions — code growth with no fixed point. Contained by the
    /// growth cap.
    QuadraticGrowth,
}

impl PassFaultModel {
    /// Both models, in selection order.
    pub const ALL: [PassFaultModel; 2] =
        [PassFaultModel::NonTerminating, PassFaultModel::QuadraticGrowth];

    /// The injected pass's `Pass::name`.
    pub fn pass_name(self) -> &'static str {
        match self {
            PassFaultModel::NonTerminating => "nonterminating",
            PassFaultModel::QuadraticGrowth => "quadratic-growth",
        }
    }

    /// Build the adversarial pass object.
    pub fn build(self) -> Box<dyn Pass> {
        match self {
            PassFaultModel::NonTerminating => Box::new(NonTerminatingPass),
            PassFaultModel::QuadraticGrowth => Box::new(QuadraticGrowthPass),
        }
    }
}

/// A cooperative but divergent fixed-point pass: every "iteration" ticks
/// the meter and converges on nothing.
///
/// Under an unbudgeted (or iteration/deadline-unbounded) invocation it
/// self-caps so test harnesses terminate; under a real budget the cap is
/// what stops it, and that containment is the point.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonTerminatingPass;

/// Self-cap for unbudgeted invocations: large enough to dwarf any real
/// pass's iteration count, small enough to finish in a test run.
const NONTERMINATING_SELF_CAP: u64 = 1_000_000;

impl Pass for NonTerminatingPass {
    fn name(&self) -> &'static str {
        "nonterminating"
    }

    fn run_budgeted(
        &self,
        f: &mut Function,
        _cache: &mut AnalysisCache,
        budget: &Budget,
    ) -> Result<bool, BudgetExceeded> {
        if budget.max_iters.is_none() && budget.deadline.is_none() {
            for spin in 0..NONTERMINATING_SELF_CAP {
                std::hint::black_box(spin);
            }
            return Ok(false);
        }
        let mut meter = budget.start(f);
        loop {
            meter.tick(f)?;
        }
    }
}

/// A pass with unbounded code growth: each round appends another batch of
/// (valid, dead) constant materializations, so the function's static size
/// races past any ratio of its entry size.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuadraticGrowthPass;

/// Self-cap for unbudgeted invocations, in static operations.
const GROWTH_SELF_CAP_OPS: usize = 1 << 16;

impl QuadraticGrowthPass {
    /// Append one round of growth: as many dead `loadi`s as the entry
    /// block currently holds instructions (at least 16), keeping the IR
    /// perfectly lint-clean — the damage is *size*, nothing else.
    fn grow_round(f: &mut Function) {
        let batch = f.blocks[0].insts.len().max(16);
        for _ in 0..batch {
            let dst = f.new_reg(Ty::Int);
            f.blocks[0].insts.push(Inst::LoadI { dst, value: Const::Int(0) });
        }
    }
}

impl Pass for QuadraticGrowthPass {
    fn name(&self) -> &'static str {
        "quadratic-growth"
    }

    fn run_budgeted(
        &self,
        f: &mut Function,
        cache: &mut AnalysisCache,
        budget: &Budget,
    ) -> Result<bool, BudgetExceeded> {
        if f.blocks.is_empty() {
            return Ok(false);
        }
        // Every round adds instructions: nothing cached survives.
        cache.invalidate_all();
        if !budget.is_limited() {
            while f.static_op_count() < GROWTH_SELF_CAP_OPS {
                Self::grow_round(f);
            }
            return Ok(true);
        }
        let mut meter = budget.start(f);
        loop {
            meter.tick(f)?;
            Self::grow_round(f);
            // A budget limited only in wall-clock could let growth run far
            // past the self-cap; hold the line there too.
            if f.static_op_count() >= GROWTH_SELF_CAP_OPS {
                return Ok(true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre::BudgetKind;
    use epre_frontend::{compile, NamingMode};

    const SRC: &str = "function foo(y, z)\n\
                       integer y, z, s, i\n\
                       begin\n\
                       s = 0\n\
                       do i = 1, 10\n\
                         s = s + y * z\n\
                       enddo\n\
                       return s\nend\n";

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let (m1, mu1) = mutate_module(&m, &mut SplitMix64::new(42)).unwrap();
        let (m2, mu2) = mutate_module(&m, &mut SplitMix64::new(42)).unwrap();
        assert_eq!(mu1.kind, mu2.kind);
        assert_eq!(format!("{m1}"), format!("{m2}"));
    }

    #[test]
    fn mutations_actually_change_the_module() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let mut changed = 0;
        let mut rng = SplitMix64::new(7);
        for _ in 0..50 {
            let (mutant, _) = mutate_module(&m, &mut rng).unwrap();
            if format!("{mutant}") != format!("{m}") {
                changed += 1;
            }
        }
        // SwapOperands on a commutative op can be textually identical-in-
        // effect but still textually different; require most to differ.
        assert!(changed >= 45, "only {changed}/50 mutants differ");
    }

    #[test]
    fn every_kind_applies_somewhere() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut rng = SplitMix64::new(3);
        for _ in 0..400 {
            if let Some((_, mu)) = mutate_module(&m, &mut rng) {
                seen.insert(mu.kind.label());
            }
        }
        // CorruptPhi cannot apply (frontend output has no φs); everything
        // else must occur.
        for kind in MutationKind::ALL {
            if kind == MutationKind::CorruptPhi {
                continue;
            }
            assert!(seen.contains(kind.label()), "{} never applied", kind.label());
        }
    }

    #[test]
    fn nonterminating_pass_is_contained_by_the_iteration_cap() {
        use crate::sandbox::{run_passes_governed, FaultPolicy};
        use epre_lint::LintOptions;

        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let mut f = m.functions[0].clone();
        let before = format!("{f}");
        let passes = vec![PassFaultModel::NonTerminating.build()];
        let rep = run_passes_governed(
            &mut f,
            &passes,
            FaultPolicy::BestEffort,
            &LintOptions::invariants_only(),
            &Budget { max_iters: Some(10_000), ..Budget::UNLIMITED },
            None,
        )
        .unwrap();
        assert_eq!(rep.faults.len(), 1, "{:?}", rep.faults);
        assert_eq!(rep.retries, 0, "best-effort records the fault and moves on");
        for ft in &rep.faults {
            assert_eq!(ft.kind_label(), "budget", "{ft:?}");
            match &ft.kind {
                epre::fault::FaultKind::Budget(b) => assert_eq!(b.kind, BudgetKind::Iterations),
                other => panic!("expected budget fault, got {other:?}"),
            }
        }
        assert_eq!(format!("{f}"), before, "rollback must restore the input");
    }

    #[test]
    fn quadratic_growth_pass_is_contained_by_the_growth_cap() {
        use crate::sandbox::{run_passes_governed, FaultPolicy};
        use epre_lint::LintOptions;

        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let mut f = m.functions[0].clone();
        let before = format!("{f}");
        let passes = vec![PassFaultModel::QuadraticGrowth.build()];
        let rep = run_passes_governed(
            &mut f,
            &passes,
            FaultPolicy::BestEffort,
            &LintOptions::invariants_only(),
            &Budget { max_growth: Some(4.0), ..Budget::UNLIMITED },
            None,
        )
        .unwrap();
        assert_eq!(rep.faults.len(), 1, "{:?}", rep.faults);
        for ft in &rep.faults {
            match &ft.kind {
                epre::fault::FaultKind::Budget(b) => assert_eq!(b.kind, BudgetKind::Growth),
                other => panic!("expected budget fault, got {other:?}"),
            }
        }
        assert_eq!(format!("{f}"), before, "rollback must restore the input");
    }

    #[test]
    fn models_self_cap_without_any_budget() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        for model in PassFaultModel::ALL {
            let mut f = m.functions[0].clone();
            let pass = model.build();
            pass.run(&mut f); // must terminate on its own
            assert_eq!(pass.name(), model.pass_name());
        }
    }
}
