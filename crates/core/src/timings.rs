//! Wall-clock instrumentation of the pipeline behind the `--timings` CLI
//! mode.
//!
//! The paper reports *dynamic operation counts* (Table 1); this module
//! measures the optimizer itself — how long each pass takes, how often it
//! reports a change, and how well the per-function `AnalysisCache`
//! avoids recomputing CFGs, orders, dominators, and expression universes.
//! Timing is serial by construction (per-pass attribution across worker
//! threads would perturb the numbers it reports); module-level parallel
//! speedups are measured end-to-end by `perfbench/` instead.
//!
//! The timed run is the plain, untraced pipeline over passes
//! [`observe`]d by a timing observer, so its rows time the same window
//! as the daemon's live per-pass metrics, and everything else the run
//! spends (cloning functions, debug-build verification, the observer's
//! own bookkeeping) is the `driver` row: the total minus the pass rows.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use epre_analysis::CacheStats;
use epre_ir::Module;

use crate::fault::PassFault;
use crate::observer::{observe, PassObserver, PassRun};
use crate::pipeline::Optimizer;
use crate::shards::map_functions;

/// Accumulated wall-clock cost of one pass across every function of a
/// module.
#[derive(Debug, Clone, Default)]
pub struct PassTiming {
    /// The pass name, as reported by [`epre_passes::Pass::name`].
    pub pass: &'static str,
    /// Total time spent inside the pass. The debug-build verification
    /// after it runs outside this window, in the `driver` row.
    pub duration: Duration,
    /// How many functions the pass ran over.
    pub invocations: usize,
    /// In how many of those invocations the pass reported a change.
    pub changed: usize,
    /// Fixed-point rounds the pass self-reported across all invocations
    /// (0 for passes that do not report a `rounds` counter).
    pub rounds: u64,
}

/// The timing report for one full pipeline run over a module.
#[derive(Debug, Clone)]
pub struct ModuleTimings {
    /// The optimization level's column label.
    pub level: &'static str,
    /// How many functions the module has.
    pub functions: usize,
    /// End-to-end wall time for the whole module.
    pub total: Duration,
    /// Per-pass breakdown, in pipeline order.
    pub passes: Vec<PassTiming>,
    /// Analysis-cache hit/miss tallies summed over all functions.
    pub cache: CacheStats,
}

impl ModuleTimings {
    /// What the run spent outside every pass: [`ModuleTimings::total`]
    /// minus the pass rows.
    pub fn driver(&self) -> Duration {
        self.total.saturating_sub(self.passes.iter().map(|p| p.duration).sum())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl fmt::Display for ModuleTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "level {}: {} function(s), {:.3} ms total, cache {} hit(s) / {} miss(es)",
            self.level,
            self.functions,
            ms(self.total),
            self.cache.hits,
            self.cache.misses
        )?;
        for p in &self.passes {
            write!(
                f,
                "  {:<24} {:>9.3} ms  ({} run(s), {} changed",
                p.pass,
                ms(p.duration),
                p.invocations,
                p.changed
            )?;
            if p.rounds > 0 {
                write!(f, ", {} round(s)", p.rounds)?;
            }
            writeln!(f, ")")?;
        }
        writeln!(f, "  {:<24} {:>9.3} ms", "driver", ms(self.driver()))
    }
}

/// The timing observer: one row per pass of the observed list.
struct Rows(Mutex<Vec<PassTiming>>);

impl PassObserver for Rows {
    const COUNTERS: bool = true;

    fn after(&self, run: &PassRun<'_>) {
        let mut rows = self.0.lock().expect("timing rows poisoned");
        let row = &mut rows[run.index];
        row.duration += run.elapsed;
        row.invocations += 1;
        row.changed += usize::from(matches!(run.outcome, Ok(true)));
        row.rounds += run.counters.get("rounds");
    }
}

impl Optimizer {
    /// Optimize a copy of the module serially, timing every pass, and
    /// report a typed fault instead of panicking.
    ///
    /// This is [`Optimizer::try_optimize`] over observed passes, so the
    /// optimized output is identical to it; panics are contained the same
    /// way.
    ///
    /// # Errors
    /// The first [`PassFault`] found in any function.
    pub fn try_optimize_timed(
        &self,
        module: &Module,
    ) -> Result<(Module, ModuleTimings), PassFault> {
        let rows =
            self.passes().into_iter().map(|p| PassTiming { pass: p.name(), ..Default::default() });
        let rows = Arc::new(Rows(Mutex::new(rows.collect())));
        let start = Instant::now();
        let done = map_functions(
            module,
            1,
            || observe(self.passes(), &rows),
            |passes, _, src| {
                let mut f = src.clone();
                self.run_passes(passes, &mut f).map(|stats| (f, stats))
            },
        )?;
        let total = start.elapsed();
        let mut cache = CacheStats::default();
        let mut functions = Vec::with_capacity(done.len());
        for (f, stats) in done {
            cache.merge(stats);
            functions.push(f);
        }
        let timings = std::mem::take(&mut *rows.0.lock().expect("timing rows poisoned"));
        // Micro-assertion on the profile itself: every coalesce invocation
        // performs at least one interference scan (the batch proving the
        // fixed point counts), and the pass must report those rounds —
        // a coalesce row with fewer rounds than invocations means the
        // counter wiring regressed.
        if let Some(c) = timings.iter().find(|t| t.pass == "coalesce") {
            assert!(
                c.rounds >= c.invocations as u64,
                "coalesce must report round counts in --timings: {} round(s) over {} invocation(s)",
                c.rounds,
                c.invocations
            );
        }
        Ok((
            Module { functions, data_words: module.data_words },
            ModuleTimings {
                level: self.level().label(),
                functions: module.functions.len(),
                total,
                passes: timings,
                cache,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::FOO;
    use crate::pipeline::OptLevel;
    use epre_frontend::{compile, NamingMode};

    /// The timed run is the plain run, every pass gets a row, and the pass
    /// rows plus the `driver` row are the total to the nanosecond.
    #[test]
    fn timed_run_matches_plain_and_reports_every_pass() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        let opt = Optimizer::new(OptLevel::Distribution);
        let (timed, report) = opt.try_optimize_timed(&m).unwrap();
        let plain = opt.try_optimize(&m).unwrap();
        assert_eq!(format!("{timed}"), format!("{plain}"), "timing must not change the output");
        assert_eq!(report.level, "distribution");
        assert_eq!(report.functions, 1);
        assert_eq!(report.passes.len(), opt.passes().len());
        assert!(report.passes.iter().all(|p| p.invocations == 1));
        let passes: Duration = report.passes.iter().map(|p| p.duration).sum();
        assert_eq!(passes + report.driver(), report.total);
        assert!(report.cache.hits + report.cache.misses > 0, "cache was consulted");
        // The round-reporting micro-assertion's positive side: coalesce
        // reported at least one round per invocation.
        let coalesce = report.passes.iter().find(|p| p.pass == "coalesce").unwrap();
        assert!(coalesce.rounds >= coalesce.invocations as u64, "{coalesce:?}");
        let rendered = format!("{report}");
        assert!(rendered.contains("round(s)"), "{rendered}");
        assert!(rendered.lines().last().unwrap().starts_with("  driver "), "{rendered}");
    }
}
