//! Differential execution oracle: run the unoptimized and optimized
//! modules on the same seeded inputs under bounded fuel and compare.
//!
//! The lint layer catches *structural* damage; the oracle catches
//! *semantic* damage — a module that is perfectly well-formed ILOC but
//! computes the wrong answer. Divergence in either the returned value or
//! the error variant is reported as a [`Divergence`] (a miscompile from
//! the harness's point of view). Fuel exhaustion on either side is
//! deliberately inconclusive: optimized code retires fewer operations, so
//! under a shared budget the two sides may exhaust at different points of
//! the same (possibly infinite) computation. Inconclusive comparisons are
//! *counted*, never silently dropped — an oracle whose every vector runs
//! out of fuel has proven nothing, and [`OracleOutcome::inconclusive`]
//! makes that visible to the harness and the CLI.
//!
//! Each side runs on one [`Interpreter`] for the whole module, reset
//! before every run, so function names are resolved once per module. A
//! run is skipped whenever its outcome is already known: a vector
//! bit-identical to an earlier one of the same function replays that
//! vector's verdict, and the candidate does not run when the reference ran
//! out of fuel, since [`classify`] calls that inconclusive whatever the
//! candidate does. Skipping changes no count but
//! [`OracleOutcome::executions`].

use std::collections::HashSet;

use epre_interp::{ExecError, Interpreter, Value};
use epre_ir::{Function, Module, Ty};

use crate::rng::{fingerprint64, SplitMix64};

/// Relative tolerance for float comparison. Reassociation and distribution
/// legitimately reorder float arithmetic, so bit-equality is the wrong
/// question; answers must agree to within rounding noise.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// Configuration for a differential run.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Fuel budget per execution. Kept modest: the oracle's job is to
    /// compare many runs cheaply, not to finish long-running programs.
    pub fuel: u64,
    /// Seed for argument generation. Equal seeds generate equal vectors.
    pub seed: u64,
    /// Number of argument vectors drawn per function. Every vector counts
    /// as a comparison, but one bit-identical to an earlier vector of the
    /// same function is not executed again: it replays that vector's
    /// verdict. A nullary function therefore runs once per side.
    pub vectors: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { fuel: 200_000, seed: 0xE9_7E, vectors: 3 }
    }
}

/// One observed behaviour of one execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Observed {
    /// Ran to completion with this return value.
    Returned(Option<Value>),
    /// Failed with this error.
    Failed(ExecError),
}

impl std::fmt::Display for Observed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Observed::Returned(Some(v)) => write!(f, "returned {v}"),
            Observed::Returned(None) => write!(f, "returned (void)"),
            Observed::Failed(e) => write!(f, "failed: {e}"),
        }
    }
}

/// A behavioural difference between reference and candidate modules —
/// the oracle's report of a miscompile.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The function whose behaviour differs.
    pub function: String,
    /// The argument vector that exposes the difference.
    pub args: Vec<Value>,
    /// What the reference (unoptimized) module did.
    pub reference: Observed,
    /// What the candidate (optimized) module did.
    pub candidate: Observed,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "`{}`(", self.function)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "): reference {} but candidate {}", self.reference, self.candidate)
    }
}

/// Whether two optional return values agree, with relative float
/// tolerance.
fn values_agree(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(Value::Int(x)), Some(Value::Int(y))) => x == y,
        (Some(Value::Float(x)), Some(Value::Float(y))) => {
            if x == y || (x.is_nan() && y.is_nan()) {
                return true;
            }
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= FLOAT_TOLERANCE * scale
        }
        _ => false,
    }
}

/// The oracle's three-way verdict on one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Both sides observably computed the same thing.
    Agree,
    /// Fuel ran out on at least one side: the vector proved nothing.
    Inconclusive,
    /// A genuine behavioural difference — a miscompile.
    Diverge,
}

/// Classify one reference/candidate behaviour pair.
///
/// Fuel exhaustion on *either* side makes the comparison
/// [`Agreement::Inconclusive`] — never a miscompile, but not evidence of
/// agreement either; callers tally it separately.
pub fn classify(reference: &Observed, candidate: &Observed) -> Agreement {
    if matches!(reference, Observed::Failed(ExecError::OutOfFuel { .. }))
        || matches!(candidate, Observed::Failed(ExecError::OutOfFuel { .. }))
    {
        return Agreement::Inconclusive;
    }
    let agree = match (reference, candidate) {
        (Observed::Returned(a), Observed::Returned(b)) => values_agree(a, b),
        (Observed::Failed(a), Observed::Failed(b)) => a.same_variant(b),
        _ => false,
    };
    if agree {
        Agreement::Agree
    } else {
        Agreement::Diverge
    }
}

/// Whether two behaviours count as equivalent for the oracle
/// (inconclusive counts as "not divergent"). See [`classify`] for the
/// three-way verdict.
pub fn behaviors_agree(reference: &Observed, candidate: &Observed) -> bool {
    classify(reference, candidate) != Agreement::Diverge
}

/// Seeded argument vector for a parameter list. Small magnitudes keep
/// loop trip counts (and thus fuel consumption) reasonable while still
/// exercising sign and zero cases.
fn gen_args(rng: &mut SplitMix64, param_tys: &[Ty]) -> Vec<Value> {
    param_tys
        .iter()
        .map(|ty| match ty {
            Ty::Int => Value::Int(rng.range_i64(-4, 12)),
            Ty::Float => Value::Float(rng.range_i64(-40, 120) as f64 / 10.0),
        })
        .collect()
}

/// Whether two argument vectors are bit-identical (so `-0.0` and `0.0`
/// differ, unlike under `==`).
fn same_bits(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => false,
        })
}

/// Run `name(args)` on `interp` from its fresh state.
fn execute(interp: &mut Interpreter<'_>, name: &str, args: &[Value]) -> Observed {
    interp.reset();
    match interp.run(name, args) {
        Ok(v) => Observed::Returned(v),
        Err(e) => Observed::Failed(e),
    }
}

/// What one distinct (function, vector) pair showed, kept so that a
/// repeat of the vector replays it instead of running again.
#[derive(Clone)]
enum Verdict {
    Agree,
    Inconclusive,
    Diverge { reference: Observed, candidate: Observed },
}

/// The two modules under comparison, each on one interpreter that every
/// run reuses.
struct Sides<'m> {
    reference: Interpreter<'m>,
    candidate: Interpreter<'m>,
    /// Runs made so far, both sides together.
    executions: usize,
}

impl Sides<'_> {
    /// Run `name(args)` on both sides and judge the pair. The candidate
    /// does not run when the reference ran out of fuel: [`classify`]
    /// calls that inconclusive whatever the candidate does.
    fn judge(&mut self, name: &str, args: &[Value]) -> Verdict {
        let reference = execute(&mut self.reference, name, args);
        self.executions += 1;
        if matches!(reference, Observed::Failed(ExecError::OutOfFuel { .. })) {
            return Verdict::Inconclusive;
        }
        let candidate = execute(&mut self.candidate, name, args);
        self.executions += 1;
        match classify(&reference, &candidate) {
            Agreement::Agree => Verdict::Agree,
            Agreement::Inconclusive => Verdict::Inconclusive,
            Agreement::Diverge => Verdict::Diverge { reference, candidate },
        }
    }
}

/// The full tally of one differential comparison between two modules.
#[derive(Debug, Clone, Default)]
pub struct OracleOutcome {
    /// Every observed divergence (miscompiles).
    pub divergences: Vec<Divergence>,
    /// Comparisons where fuel ran out on at least one side — proved
    /// nothing, counted rather than silently dropped.
    pub inconclusive: usize,
    /// Total (function, vector) comparisons performed.
    pub comparisons: usize,
    /// Interpreter runs on both sides together: at most two per
    /// comparison, fewer where a repeated vector replayed an earlier
    /// verdict or the reference ran out of fuel.
    pub executions: usize,
}

/// Differentially execute every function of `reference` against
/// `candidate` on seeded inputs, returning divergences plus the
/// inconclusive (out-of-fuel) tally.
///
/// Functions present in only one module are skipped (the pass pipeline
/// never adds or removes functions; the fault injector can, and such
/// damage is the lint layer's to catch).
pub fn compare_modules_detailed(
    reference: &Module,
    candidate: &Module,
    cfg: &OracleConfig,
) -> OracleOutcome {
    compare_functions(reference, candidate, cfg, |_| true)
}

/// [`compare_modules_detailed`] restricted to the reference functions
/// named `name`: the share of the module's outcome that they contribute.
pub fn compare_function(
    reference: &Module,
    candidate: &Module,
    name: &str,
    cfg: &OracleConfig,
) -> OracleOutcome {
    compare_functions(reference, candidate, cfg, |f| f.name == name)
}

fn compare_functions(
    reference: &Module,
    candidate: &Module,
    cfg: &OracleConfig,
    selected: impl Fn(&Function) -> bool,
) -> OracleOutcome {
    let in_candidate: HashSet<&str> = candidate.functions.iter().map(|f| f.name.as_str()).collect();
    let mut sides = Sides {
        reference: Interpreter::new(reference).with_fuel(cfg.fuel),
        candidate: Interpreter::new(candidate).with_fuel(cfg.fuel),
        executions: 0,
    };
    let mut outcome = OracleOutcome::default();
    // The current function's distinct vectors so far, with their verdicts.
    let mut seen: Vec<(Vec<Value>, Verdict)> = Vec::new();
    for f in reference.functions.iter().filter(|f| selected(f)) {
        if !in_candidate.contains(f.name.as_str()) {
            continue;
        }
        // Per-function generator: a divergence report for function `g`
        // stays stable when unrelated functions are added or removed.
        let mut rng = SplitMix64::new(cfg.seed ^ fingerprint64(&f.name));
        let param_tys: Vec<Ty> = f.params.iter().map(|&r| f.ty_of(r)).collect();
        seen.clear();
        for _ in 0..cfg.vectors {
            let args = gen_args(&mut rng, &param_tys);
            outcome.comparisons += 1;
            let verdict = match seen.iter().find(|(earlier, _)| same_bits(earlier, &args)) {
                Some((_, verdict)) => verdict.clone(),
                None => {
                    let verdict = sides.judge(&f.name, &args);
                    seen.push((args.clone(), verdict.clone()));
                    verdict
                }
            };
            match verdict {
                Verdict::Agree => {}
                Verdict::Inconclusive => outcome.inconclusive += 1,
                Verdict::Diverge { reference, candidate } => outcome.divergences.push(Divergence {
                    function: f.name.clone(),
                    args,
                    reference,
                    candidate,
                }),
            }
        }
    }
    outcome.executions = sides.executions;
    outcome
}

/// [`compare_modules_detailed`] reduced to the divergence list.
pub fn compare_modules(
    reference: &Module,
    candidate: &Module,
    cfg: &OracleConfig,
) -> Vec<Divergence> {
    compare_modules_detailed(reference, candidate, cfg).divergences
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre::{OptLevel, Optimizer};
    use epre_frontend::{compile, NamingMode};
    use epre_ir::parse_module;

    const SRC: &str = "function foo(y, z)\n\
                       real y, z, s, x\n\
                       integer i\n\
                       begin\n\
                       s = 0\n\
                       x = y + z\n\
                       do i = x, 100\n\
                         s = i + s + x\n\
                       enddo\n\
                       return s\nend\n";

    #[test]
    fn optimized_module_agrees_with_reference() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        for level in [OptLevel::Baseline, OptLevel::Distribution] {
            let opt = Optimizer::new(level).optimize(&m);
            let d = compare_modules(&m, &opt, &OracleConfig::default());
            assert!(d.is_empty(), "{level:?}: {:?}", d);
        }
    }

    #[test]
    fn wrong_constant_is_caught() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let mut bad = m.clone();
        // Corrupt a constant: turn some `loadi` payload into a different one.
        let f = &mut bad.functions[0];
        let mut corrupted = false;
        for blk in &mut f.blocks {
            for inst in &mut blk.insts {
                if let epre_ir::Inst::LoadI { value: epre_ir::Const::Int(v), .. } = inst {
                    *v += 7;
                    corrupted = true;
                    break;
                }
            }
            if corrupted {
                break;
            }
        }
        assert!(corrupted, "expected an integer loadi to corrupt");
        let d = compare_modules(&m, &bad, &OracleConfig::default());
        assert!(!d.is_empty(), "oracle missed a corrupted constant");
        assert_eq!(d[0].function, "foo");
    }

    #[test]
    fn fuel_exhaustion_is_inconclusive() {
        let a = Observed::Failed(ExecError::OutOfFuel { budget: 10 });
        let b = Observed::Returned(Some(Value::Int(3)));
        assert!(behaviors_agree(&a, &b));
        assert!(behaviors_agree(&b, &a));
        assert_eq!(classify(&a, &b), Agreement::Inconclusive);
        assert_eq!(classify(&b, &a), Agreement::Inconclusive);
    }

    #[test]
    fn out_of_fuel_comparisons_are_counted_not_dropped() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        // Fuel 2 starves every run of this loopy function on both sides.
        let cfg = OracleConfig { fuel: 2, ..OracleConfig::default() };
        let out = compare_modules_detailed(&m, &m, &cfg);
        assert!(out.divergences.is_empty());
        assert!(out.comparisons > 0);
        assert_eq!(
            out.inconclusive, out.comparisons,
            "every starved vector must be tallied inconclusive"
        );
        // The candidate never runs after the reference ran out of fuel.
        assert_eq!(out.executions, out.comparisons, "distinct vectors, reference side only");
        // With generous fuel the same comparison is fully conclusive.
        let out = compare_modules_detailed(&m, &m, &OracleConfig::default());
        assert_eq!(out.inconclusive, 0);
        assert_eq!(out.executions, 2 * out.comparisons);
    }

    #[test]
    fn repeated_vectors_replay_their_verdict() {
        let module = |k: i64| {
            let text = format!(
                "module data 0\nfunction k() -> i\nblock b0:\n  r0 <- loadi {k}:i\n  ret r0\nend"
            );
            parse_module(&text).unwrap()
        };
        let (reference, candidate) = (module(1), module(2));
        let out = compare_modules_detailed(&reference, &candidate, &OracleConfig::default());
        // Three empty vectors: three comparisons and three divergence
        // reports, but one run per side.
        assert_eq!((out.comparisons, out.executions), (3, 2));
        assert_eq!(out.divergences.len(), 3);
        for d in &out.divergences {
            assert_eq!(d.function, "k");
            assert!(d.args.is_empty());
            assert_eq!(d.reference, Observed::Returned(Some(Value::Int(1))));
            assert_eq!(d.candidate, Observed::Returned(Some(Value::Int(2))));
        }
    }

    /// The oracle without its shortcuts: a fresh interpreter for every
    /// run, and every run made.
    fn unshortened(reference: &Module, candidate: &Module, cfg: &OracleConfig) -> OracleOutcome {
        let observe = |m: &Module, name: &str, args: &[Value]| {
            execute(&mut Interpreter::new(m).with_fuel(cfg.fuel), name, args)
        };
        let mut out = OracleOutcome::default();
        for f in &reference.functions {
            if candidate.function(&f.name).is_none() {
                continue;
            }
            let mut rng = SplitMix64::new(cfg.seed ^ fingerprint64(&f.name));
            let param_tys: Vec<Ty> = f.params.iter().map(|&r| f.ty_of(r)).collect();
            for _ in 0..cfg.vectors {
                let args = gen_args(&mut rng, &param_tys);
                let r = observe(reference, &f.name, &args);
                let c = observe(candidate, &f.name, &args);
                out.comparisons += 1;
                out.executions += 2;
                match classify(&r, &c) {
                    Agreement::Agree => {}
                    Agreement::Inconclusive => out.inconclusive += 1,
                    Agreement::Diverge => out.divergences.push(Divergence {
                        function: f.name.clone(),
                        args,
                        reference: r,
                        candidate: c,
                    }),
                }
            }
        }
        out
    }

    #[test]
    fn shortcuts_change_no_verdict_on_mutants() {
        // Low fuel and many vectors make both shortcuts fire often.
        let cfg = OracleConfig { fuel: 3_000, vectors: 8, ..OracleConfig::default() };
        let mut rng = SplitMix64::new(0x0AC1E);
        let (mut compared, mut diverged, mut saved) = (0, 0, 0);
        for r in epre_suite::all_routines().iter().step_by(5) {
            let base = r.compile(NamingMode::Disciplined).unwrap();
            let opt = Optimizer::new(OptLevel::Distribution).optimize(&base);
            for _ in 0..4 {
                let Some((mutant, _)) = crate::inject::mutate_module(&base, &mut rng) else {
                    continue;
                };
                for (reference, candidate) in [(&base, &mutant), (&mutant, &opt)] {
                    // Mutants may crash the interpreter outright; the
                    // oracle's callers contain that, and it is no verdict.
                    let want = epre::catch_quiet(|| unshortened(reference, candidate, &cfg));
                    let Ok(want) = want else { continue };
                    let got = compare_modules_detailed(reference, candidate, &cfg);
                    assert_eq!(got.comparisons, want.comparisons, "{}", r.name);
                    assert_eq!(got.inconclusive, want.inconclusive, "{}", r.name);
                    assert_eq!(got.divergences.len(), want.divergences.len(), "{}", r.name);
                    for (g, w) in got.divergences.iter().zip(&want.divergences) {
                        assert_eq!(g.function, w.function);
                        assert!(same_bits(&g.args, &w.args), "{g} vs {w}");
                        assert_eq!((&g.reference, &g.candidate), (&w.reference, &w.candidate));
                    }
                    assert!(got.executions <= want.executions);
                    compared += 1;
                    diverged += usize::from(!got.divergences.is_empty());
                    saved += want.executions - got.executions;
                }
            }
        }
        assert!(compared >= 60 && diverged >= 10 && saved > 0, "{compared} {diverged} {saved}");
    }

    #[test]
    fn float_tolerance_absorbs_reassociation_noise() {
        let a = Observed::Returned(Some(Value::Float(1.0e9)));
        let b = Observed::Returned(Some(Value::Float(1.0e9 + 0.5)));
        assert!(behaviors_agree(&a, &b));
        let c = Observed::Returned(Some(Value::Float(2.0e9)));
        assert!(!behaviors_agree(&a, &c));
    }

    #[test]
    fn oracle_is_deterministic() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let mut bad = m.clone();
        if let Some(epre_ir::Inst::LoadI { value: epre_ir::Const::Int(v), .. }) =
            bad.functions[0].blocks[0].insts.first_mut()
        {
            *v += 1000;
        }
        let d1 = compare_modules(&m, &bad, &OracleConfig::default());
        let d2 = compare_modules(&m, &bad, &OracleConfig::default());
        assert_eq!(d1.len(), d2.len());
        for (a, b) in d1.iter().zip(&d2) {
            assert_eq!(a.args, b.args);
        }
    }
}
