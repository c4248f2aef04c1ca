//! Per-layer timing for traced runs, taken from outside the crates: one
//! `Instant` pair around each call into a layer's public functions.
//!
//! Work the benchmark adds for its own bookkeeping (probing SSA and the
//! PRE dataflow on clones, detecting whether a pass changed anything) is
//! accumulated as `hook` time and subtracted from every enclosing timer,
//! so stage times and wall times cover only the program's own work.

use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use epre_analysis::{solve, AnalysisCache, BitSet, Direction, ExprUniverse, LocalPredicates, Meet};
use epre_cfg::Cfg;
use epre_ir::Function;
use epre_passes::{Budget, BudgetExceeded, Pass};
use epre_ssa::{build_ssa, destroy_ssa, SsaOptions};

use crate::Metric;

/// The eight passes of the paper's pipelines, as layer names.
pub const PASSES: [&str; 8] = [
    "reassoc",
    "gvn",
    "pre",
    "constprop",
    "peephole",
    "dce",
    "coalesce",
    "clean",
];

/// Index into [`PASSES`] of a pass, by its `Pass::name`.
fn pass_index(name: &str) -> usize {
    match name {
        "reassociate" | "reassociate+distribute" => 0,
        "gvn" => 1,
        "pre" => 2,
        "constprop" => 3,
        "peephole" => 4,
        "dce" => 5,
        "coalesce" => 6,
        "clean" => 7,
        other => panic!("pass `{other}` has no layer in the benchmark"),
    }
}

/// A timed stage of the serve request path, outside the passes.
#[derive(Debug, Clone, Copy)]
pub enum Stage {
    /// `run_module_governed`.
    Governed,
    /// `Harness::finish_with_oracle`.
    Oracle,
    /// `parse_module` / `parse_function`.
    Parse,
    /// ILOC printing.
    Print,
    /// `Request::decode`.
    Decode,
    /// `Response::encode`.
    Encode,
    /// `ResultCache::key` + `lookup`.
    Probe,
    /// `ResultCache::key` + `insert`.
    Insert,
}

const STAGES: usize = 8;

/// Accumulated per-layer work.
#[derive(Debug, Default)]
pub struct Layers {
    /// Nanoseconds inside each pass.
    pub pass_ns: [u64; 8],
    /// Invocations of each pass.
    pub pass_calls: [u64; 8],
    /// Invocations after which the function differed from its input.
    pub pass_changed: [u64; 8],
    /// `build_ssa` on clones of the input of `reassoc`, `gvn`, `constprop`.
    pub ssa_build_ns: u64,
    /// `destroy_ssa` on the same clones.
    pub ssa_destroy_ns: u64,
    /// SSA round trips probed.
    pub ssa_roundtrips: u64,
    /// Expression universe, local predicates and AVAIL/ANTIC solves on
    /// clones of the input of `pre`.
    pub solve_ns: u64,
    /// Size of the expression universes probed.
    pub exprs: u64,
    /// Analysis-cache hits seen by the passes.
    pub cache_hits: u64,
    /// Analysis-cache misses seen by the passes.
    pub cache_misses: u64,
    /// Nanoseconds per [`Stage`].
    pub stage_ns: [u64; STAGES],
    /// Traced wall time of the measured operations, hook time excluded.
    pub wall_ns: u64,
    /// The benchmark's own bookkeeping time, excluded everywhere.
    pub hook_ns: u64,
}

/// Layers shared with the pass wrappers, which must be `'static`.
pub type Shared = Arc<Mutex<Layers>>;

/// Lock the shared layers.
pub fn lock(l: &Shared) -> MutexGuard<'_, Layers> {
    l.lock().expect("layer accumulator poisoned")
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Layers {
    /// Total nanoseconds inside passes.
    pub fn pass_total_ns(&self) -> u64 {
        self.pass_ns.iter().sum()
    }

    /// The per-layer metrics, with times and counts per operation.
    pub fn metrics(&self, ops: f64, out: &mut Vec<Metric>) {
        let ms = |ns: u64| ns as f64 / 1e6 / ops;
        for (i, p) in PASSES.iter().enumerate() {
            out.push((format!("passes.{p}.ms"), ms(self.pass_ns[i]), "ms"));
            out.push((
                format!("passes.{p}.calls"),
                self.pass_calls[i] as f64 / ops,
                "count",
            ));
            out.push((
                format!("passes.{p}.useful_frac"),
                ratio(self.pass_changed[i], self.pass_calls[i]),
                "frac",
            ));
        }
        out.push(("ssa.build_ms".into(), ms(self.ssa_build_ns), "ms"));
        out.push(("ssa.destroy_ms".into(), ms(self.ssa_destroy_ns), "ms"));
        out.push((
            "ssa.roundtrips".into(),
            self.ssa_roundtrips as f64 / ops,
            "count",
        ));
        out.push(("analysis.solve_ms".into(), ms(self.solve_ns), "ms"));
        out.push(("analysis.exprs".into(), self.exprs as f64 / ops, "count"));
        out.push((
            "analysis.cache_hit_frac".into(),
            ratio(self.cache_hits, self.cache_hits + self.cache_misses),
            "frac",
        ));
        let governed = self.stage_ns[Stage::Governed as usize];
        out.push(("harness.governed_ms".into(), ms(governed), "ms"));
        // Inside the governed driver everything that is not a pass is the
        // sandbox: clones, re-lint, rollback bookkeeping.
        let sandbox = if governed > 0 {
            governed.saturating_sub(self.pass_total_ns())
        } else {
            0
        };
        out.push(("harness.sandbox_ms".into(), ms(sandbox), "ms"));
        out.push((
            "harness.oracle_ms".into(),
            ms(self.stage_ns[Stage::Oracle as usize]),
            "ms",
        ));
        for (name, stage) in [
            ("ir.parse_ms", Stage::Parse),
            ("ir.print_ms", Stage::Print),
            ("serve.decode_ms", Stage::Decode),
            ("serve.encode_ms", Stage::Encode),
            ("serve.probe_ms", Stage::Probe),
            ("serve.insert_ms", Stage::Insert),
        ] {
            out.push((name.into(), ms(self.stage_ns[stage as usize]), "ms"));
        }
        out.push(("trace.wall_ms".into(), ms(self.wall_ns), "ms"));
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run `f`; return its result and its wall time minus the hook time
/// spent inside it.
fn timed_call<T>(l: &Shared, f: impl FnOnce() -> T) -> (T, u64) {
    let hook0 = lock(l).hook_ns;
    let t = Instant::now();
    let r = f();
    let d = ns(t);
    let hook = lock(l).hook_ns - hook0;
    (r, d.saturating_sub(hook))
}

/// Run `f` as one measured operation, adding its time to `wall_ns`.
pub fn op<T>(l: &Shared, f: impl FnOnce() -> T) -> T {
    let (r, d) = timed_call(l, f);
    lock(l).wall_ns += d;
    r
}

/// Run `f` as `stage` when tracing, or plainly when `l` is `None`.
pub fn stage<T>(l: Option<&Shared>, s: Stage, f: impl FnOnce() -> T) -> T {
    let Some(l) = l else { return f() };
    let (r, d) = timed_call(l, f);
    lock(l).stage_ns[s as usize] += d;
    r
}

/// A pass that times the pass it wraps and probes the layers beneath it.
/// The wrapped pass sees exactly the function, cache and budget it would
/// see unwrapped, so the output is unchanged.
pub struct TimedPass {
    inner: Box<dyn Pass>,
    index: usize,
    layers: Shared,
}

/// Wrap every pass of `passes` in a [`TimedPass`].
pub fn timed(passes: Vec<Box<dyn Pass>>, layers: &Shared) -> Vec<Box<dyn Pass>> {
    passes
        .into_iter()
        .map(|inner| {
            let index = pass_index(inner.name());
            Box::new(TimedPass {
                inner,
                index,
                layers: Arc::clone(layers),
            }) as Box<dyn Pass>
        })
        .collect()
}

impl Pass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, f: &mut Function) -> bool {
        self.inner.run(f)
    }

    fn preserves(&self) -> epre_analysis::PreservedAnalyses {
        self.inner.preserves()
    }

    fn run_cached(&self, f: &mut Function, cache: &mut AnalysisCache) -> bool {
        self.inner.run_cached(f, cache)
    }

    fn run_budgeted(
        &self,
        f: &mut Function,
        cache: &mut AnalysisCache,
        budget: &Budget,
    ) -> Result<bool, BudgetExceeded> {
        let hook = Instant::now();
        let before = f.clone();
        let stats0 = cache.stats();
        let before_ns = ns(hook);

        let t = Instant::now();
        let result = self.inner.run_budgeted(f, cache, budget);
        let d = ns(t);

        // Probe after the pass, on its saved input, so the probe does not
        // warm caches for the pass it measures.
        let hook = Instant::now();
        let changed = *f != before;
        let stats1 = cache.stats();
        let mut g = lock(&self.layers);
        probe(self.index, before, &mut g);
        g.hook_ns += before_ns;
        g.pass_ns[self.index] += d;
        g.pass_calls[self.index] += 1;
        g.pass_changed[self.index] += u64::from(changed);
        g.cache_hits += stats1.hits - stats0.hits;
        g.cache_misses += stats1.misses - stats0.misses;
        g.hook_ns += ns(hook);
        result
    }
}

/// Time the layers under pass `index` on a copy `c` of its input: the SSA
/// round trip that `reassoc`, `gvn` and `constprop` each make, and the
/// dataflow that `pre` solves in its first round.
fn probe(index: usize, mut c: Function, l: &mut Layers) {
    match PASSES[index] {
        "reassoc" | "gvn" | "constprop" => {
            let t = Instant::now();
            build_ssa(&mut c, SsaOptions { fold_copies: true });
            l.ssa_build_ns += ns(t);
            let t = Instant::now();
            destroy_ssa(&mut c);
            l.ssa_destroy_ns += ns(t);
            l.ssa_roundtrips += 1;
            black_box(c);
        }
        "pre" => {
            epre_cfg::edit::split_critical_edges(&mut c);
            let cfg = Cfg::new(&c);
            let t = Instant::now();
            let universe = ExprUniverse::new(&c);
            if !universe.is_empty() {
                let lp = LocalPredicates::new(&c, &universe);
                let kill: Vec<BitSet> = lp
                    .transp
                    .iter()
                    .map(|tr| {
                        let mut k = BitSet::full(universe.len());
                        k.difference_with(tr);
                        k
                    })
                    .collect();
                let avail = solve(
                    &cfg,
                    Direction::Forward,
                    Meet::Intersection,
                    &lp.comp,
                    &kill,
                );
                let antic = solve(
                    &cfg,
                    Direction::Backward,
                    Meet::Intersection,
                    &lp.antloc,
                    &kill,
                );
                black_box((avail, antic));
            }
            l.solve_ns += ns(t);
            l.exprs += universe.len() as u64;
        }
        _ => {}
    }
}
