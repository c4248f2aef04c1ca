//! The fuzz campaign: seeded fault injection driving the full containment
//! stack, with a machine-checkable "zero uncontained faults" verdict.
//!
//! Phase 1 mutates a base module ([`crate::inject`]), then runs the
//! hardened pipeline ([`crate::harden`]) over the mutant at every
//! configured [`OptLevel`]. A run is *contained* when the emitted module
//! is still runnable and still agrees with the mutant (the harness's
//! reference) on the oracle's test vectors — i.e. whatever the injected
//! fault provoked, the stack either rolled it back, caught it, or proved
//! it harmless.
//!
//! Phase 2 attacks from the other axis: it splices an adversarial
//! [`PassFaultModel`] — a pass that never converges, or one whose output
//! grows without bound — into the real pipeline at a seeded position and
//! demands that the resource [`Budget`] (and nothing else: these models
//! neither panic nor emit invalid ILOC) stops it, rolls the function
//! back, and leaves a budget-kind fault on the record. Anything else is
//! recorded as uncontained and fails the campaign.

use epre::fault::FaultKind;
use epre::{catch_quiet, Budget, OptLevel, Optimizer};
use epre_ir::Module;
use epre_lint::{lint_function, LintOptions};

use crate::breaker::CircuitBreaker;
use crate::harden::Harness;
use crate::inject::{mutate_module, PassFaultModel};
use crate::oracle::{compare_modules, OracleConfig};
use crate::rng::SplitMix64;
use crate::sandbox::{run_module_governed, FaultPolicy};

/// Every optimization level, the paper's four plus the LVN extension.
pub const ALL_LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; fixes the entire campaign.
    pub seed: u64,
    /// Number of mutants generated.
    pub iters: usize,
    /// Fuel per oracle execution.
    pub fuel: u64,
    /// Levels each mutant is optimized at.
    pub levels: Vec<OptLevel>,
    /// Resource budget governing phase 2 (and proving containment of the
    /// adversarial pass models).
    pub budget: Budget,
    /// Phase-2 iterations: each splices one seeded [`PassFaultModel`]
    /// into the pipeline at every configured level.
    pub pass_fault_iters: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xF00D,
            iters: 200,
            fuel: 200_000,
            levels: ALL_LEVELS.to_vec(),
            budget: Budget::governed(),
            pass_fault_iters: 10,
        }
    }
}

/// How one (mutant, level) run was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Containment {
    /// A pass faulted (panic or new lint error) and was rolled back by
    /// the sandbox.
    RolledBack,
    /// The oracle saw divergence and the function was rolled back to the
    /// mutant's version.
    OracleCaught,
    /// The mutant arrived with lint errors: the damage was visible to the
    /// ingress lint before any pass ran.
    IngressLint,
    /// The mutation changed nothing observable; the pipeline ran clean.
    Benign,
}

impl Containment {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Containment::RolledBack => "rolled-back",
            Containment::OracleCaught => "oracle-caught",
            Containment::IngressLint => "ingress-lint",
            Containment::Benign => "benign",
        }
    }
}

/// The campaign's tally.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Mutants generated.
    pub mutants: usize,
    /// (mutant, level) runs performed.
    pub runs: usize,
    /// Runs where a pass fault was contained by sandbox rollback.
    pub rolled_back: usize,
    /// Runs where the oracle caught divergence and rolled the function back.
    pub oracle_caught: usize,
    /// Runs where the mutant was already lint-broken on arrival (and the
    /// pipeline still emitted a runnable module).
    pub ingress_lint: usize,
    /// Runs where the mutation was harmless.
    pub benign: usize,
    /// Phase-2 (model, level) runs performed.
    pub pass_fault_runs: usize,
    /// Phase-2 runs where the budget stopped the adversarial pass and the
    /// rollback held.
    pub budget_contained: usize,
    /// Descriptions of uncontained faults. Must be empty for the campaign
    /// to pass.
    pub uncontained: Vec<String>,
}

impl CampaignReport {
    /// Did the containment stack hold everywhere?
    pub fn is_contained(&self) -> bool {
        self.uncontained.is_empty()
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "fuzz campaign: {} mutants, {} runs", self.mutants, self.runs)?;
        writeln!(f, "  rolled back (sandbox):   {}", self.rolled_back)?;
        writeln!(f, "  oracle caught:           {}", self.oracle_caught)?;
        writeln!(f, "  ingress lint:            {}", self.ingress_lint)?;
        writeln!(f, "  benign:                  {}", self.benign)?;
        writeln!(f, "  pass-fault runs:         {}", self.pass_fault_runs)?;
        writeln!(f, "  budget contained:        {}", self.budget_contained)?;
        if self.uncontained.is_empty() {
            write!(f, "  uncontained:             0 — containment held")
        } else {
            writeln!(f, "  UNCONTAINED:             {}", self.uncontained.len())?;
            for u in &self.uncontained {
                writeln!(f, "    {u}")?;
            }
            write!(f, "containment FAILED")
        }
    }
}

/// Does any function of `m` carry error-severity invariant violations?
fn has_lint_errors(m: &Module) -> bool {
    let opts = LintOptions::invariants_only();
    m.functions.iter().any(|f| lint_function(f, &opts).has_errors())
}

/// Run the campaign over `bases` under `cfg`.
///
/// Deterministic: equal `(bases, cfg)` produce equal reports. The
/// hardened pipeline runs under [`FaultPolicy::BestEffort`] — the policy
/// whose containment the campaign is designed to prove.
pub fn run_campaign(bases: &[Module], cfg: &CampaignConfig) -> CampaignReport {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut report = CampaignReport::default();
    if bases.is_empty() {
        return report;
    }
    let oracle = OracleConfig { fuel: cfg.fuel, seed: cfg.seed, ..OracleConfig::default() };
    for _ in 0..cfg.iters {
        let base = &bases[rng.below(bases.len())];
        let Some((mutant, mutation)) = mutate_module(base, &mut rng) else {
            continue;
        };
        report.mutants += 1;
        let ingress_broken = has_lint_errors(&mutant);
        for &level in &cfg.levels {
            report.runs += 1;
            let harness = Harness::new(level, FaultPolicy::BestEffort).with_oracle(oracle);
            // The whole hardened run is itself guarded: a panic escaping
            // the harness would be the worst possible containment failure.
            let outcome = catch_quiet(|| harness.optimize(&mutant));
            let out = match outcome {
                Err(panic_msg) => {
                    report.uncontained.push(format!(
                        "[{}] {}: panic escaped the harness: {panic_msg}",
                        level.label(),
                        mutation
                    ));
                    continue;
                }
                // BestEffort never returns Err.
                Ok(Err(fault)) => {
                    report.uncontained.push(format!(
                        "[{}] {}: unexpected fail-fast fault: {fault}",
                        level.label(),
                        mutation
                    ));
                    continue;
                }
                Ok(Ok(out)) => out,
            };
            // Containment proof, part 1: the emitted module must still
            // agree with the mutant — the harness's reference — on the
            // oracle's vectors (rollback restored anything that diverged).
            let residual = catch_quiet(|| compare_modules(&mutant, &out.module, &oracle));
            match residual {
                Err(panic_msg) => {
                    report.uncontained.push(format!(
                        "[{}] {}: interpreter panicked on emitted module: {panic_msg}",
                        level.label(),
                        mutation
                    ));
                    continue;
                }
                Ok(divs) if !divs.is_empty() => {
                    report.uncontained.push(format!(
                        "[{}] {}: emitted module still diverges: {}",
                        level.label(),
                        mutation,
                        divs[0]
                    ));
                    continue;
                }
                Ok(_) => {}
            }
            // Containment proof, part 2: the emitted module must lint no
            // worse than the mutant itself.
            if !ingress_broken && has_lint_errors(&out.module) {
                report.uncontained.push(format!(
                    "[{}] {}: pipeline introduced lint errors into a clean mutant",
                    level.label(),
                    mutation
                ));
                continue;
            }
            // Classify the contained run.
            let class = if !out.faults.is_empty() {
                Containment::RolledBack
            } else if !out.divergences.is_empty() {
                Containment::OracleCaught
            } else if ingress_broken {
                Containment::IngressLint
            } else {
                Containment::Benign
            };
            match class {
                Containment::RolledBack => report.rolled_back += 1,
                Containment::OracleCaught => report.oracle_caught += 1,
                Containment::IngressLint => report.ingress_lint += 1,
                Containment::Benign => report.benign += 1,
            }
        }
    }
    // Phase 2: adversarial pass models. Splice one misbehaving pass into
    // the real pipeline at a seeded slot and run it at every level; only
    // the budget can stop these, so only a budget-kind fault counts as
    // contained.
    let opts = LintOptions::invariants_only();
    for _ in 0..cfg.pass_fault_iters {
        if cfg.levels.is_empty() {
            break;
        }
        let base = &bases[rng.below(bases.len())];
        let model = PassFaultModel::ALL[rng.below(PassFaultModel::ALL.len())];
        let slot_seed = rng.next_u64() as usize;
        for &level in &cfg.levels {
            report.pass_fault_runs += 1;
            let pos = slot_seed % (Optimizer::new(level).passes().len() + 1);
            let tag = format!("[{}] injected `{}` at slot {pos}", level.label(), model.pass_name());
            let passes_for = move || {
                let mut ps = Optimizer::new(level).passes();
                let at = pos.min(ps.len());
                ps.insert(at, model.build());
                ps
            };
            let outcome = catch_quiet(|| {
                run_module_governed(
                    base,
                    &passes_for,
                    FaultPolicy::BestEffort,
                    &opts,
                    &cfg.budget,
                    CircuitBreaker::DEFAULT_THRESHOLD,
                    1,
                )
            });
            let (out, rep) = match outcome {
                Err(panic_msg) => {
                    report
                        .uncontained
                        .push(format!("{tag}: panic escaped the governed run: {panic_msg}"));
                    continue;
                }
                Ok(Err(fault)) => {
                    report.uncontained.push(format!("{tag}: unexpected fail-fast fault: {fault}"));
                    continue;
                }
                Ok(Ok(pair)) => pair,
            };
            let model_faults: Vec<_> =
                rep.faults.iter().filter(|ft| ft.pass == model.pass_name()).collect();
            if model_faults.is_empty() {
                report.uncontained.push(format!(
                    "{tag}: escaped the budget — no fault recorded for the model pass"
                ));
                continue;
            }
            if let Some(ft) =
                model_faults.iter().find(|ft| !matches!(ft.kind, FaultKind::Budget(_)))
            {
                report.uncontained.push(format!(
                    "{tag}: stopped by the wrong layer ({}) — the budget was blind to it",
                    ft.kind_label()
                ));
                continue;
            }
            // Residual checks, identical in spirit to phase 1: the emitted
            // module must still agree with the base and lint clean.
            match catch_quiet(|| compare_modules(base, &out, &oracle)) {
                Err(panic_msg) => {
                    report.uncontained.push(format!(
                        "{tag}: interpreter panicked on emitted module: {panic_msg}"
                    ));
                    continue;
                }
                Ok(divs) if !divs.is_empty() => {
                    report.uncontained.push(format!(
                        "{tag}: emitted module diverges after rollback: {}",
                        divs[0]
                    ));
                    continue;
                }
                Ok(_) => {}
            }
            if has_lint_errors(&out) {
                report
                    .uncontained
                    .push(format!("{tag}: pipeline emitted lint errors after rollback"));
                continue;
            }
            report.budget_contained += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_frontend::{compile, NamingMode};

    fn bases() -> Vec<Module> {
        let srcs = [
            "function foo(y, z)\n\
             integer y, z, s, i\n\
             begin\n\
             s = 0\n\
             do i = 1, 8\n\
               s = s + y * z + i\n\
             enddo\n\
             return s\nend\n",
            "function bar(a, b)\n\
             real a, b, x\n\
             begin\n\
             if a < b then\n\
               x = a * 2 + b\n\
             else\n\
               x = b * 2 + a\n\
             endif\n\
             return x\nend\n",
        ];
        srcs.iter().map(|s| compile(s, NamingMode::Disciplined).unwrap()).collect()
    }

    #[test]
    fn small_campaign_is_contained_and_deterministic() {
        let bases = bases();
        let cfg = CampaignConfig { iters: 20, pass_fault_iters: 2, ..CampaignConfig::default() };
        let r1 = run_campaign(&bases, &cfg);
        assert!(r1.is_contained(), "{r1}");
        assert_eq!(r1.mutants, 20);
        assert_eq!(r1.runs, 20 * ALL_LEVELS.len());
        assert_eq!(r1.pass_fault_runs, 2 * ALL_LEVELS.len());
        assert_eq!(r1.budget_contained, r1.pass_fault_runs);
        let r2 = run_campaign(&bases, &cfg);
        assert_eq!(r1.rolled_back, r2.rolled_back);
        assert_eq!(r1.oracle_caught, r2.oracle_caught);
        assert_eq!(r1.ingress_lint, r2.ingress_lint);
        assert_eq!(r1.benign, r2.benign);
        assert_eq!(r1.budget_contained, r2.budget_contained);
    }

    #[test]
    fn campaign_actually_exercises_the_stack() {
        let bases = bases();
        let cfg = CampaignConfig { iters: 40, pass_fault_iters: 2, ..CampaignConfig::default() };
        let r = run_campaign(&bases, &cfg);
        assert!(r.is_contained(), "{r}");
        // A campaign where nothing was ever caught isn't testing anything.
        assert!(
            r.ingress_lint + r.oracle_caught + r.rolled_back > 0,
            "no fault was ever caught: {r}"
        );
        assert!(r.budget_contained > 0, "phase 2 never ran: {r}");
    }
}
