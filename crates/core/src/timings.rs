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
//! Since the telemetry layer landed, this module is an *aggregation view*
//! over the serial traced pipeline ([`Optimizer::try_optimize_traced`] at
//! `jobs = 1`): the spans already carry measured nanoseconds, change
//! reports, and cache totals, and this module folds them into the same
//! [`ModuleTimings`] report the `--timings` flag has always printed.

use std::fmt;
use std::time::{Duration, Instant};

use epre_analysis::CacheStats;
use epre_ir::Module;
use epre_telemetry::json::Json;

use crate::fault::PassFault;
use crate::pipeline::Optimizer;

/// Accumulated wall-clock cost of one pass across every function of a
/// module.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// The pass name, as reported by [`epre_passes::Pass::name`].
    pub pass: &'static str,
    /// Total time spent inside the pass (including its debug-build
    /// verification when enabled).
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
        Ok(())
    }
}

impl Optimizer {
    /// Optimize a copy of the module serially, timing every pass, and
    /// report a typed fault instead of panicking.
    ///
    /// The optimized output is identical to [`Optimizer::try_optimize`];
    /// only the bookkeeping differs.
    ///
    /// # Errors
    /// The first [`PassFault`] found in any function.
    pub fn try_optimize_timed(
        &self,
        module: &Module,
    ) -> Result<(Module, ModuleTimings), PassFault> {
        let mut timings: Vec<PassTiming> = self
            .passes()
            .iter()
            .map(|p| PassTiming {
                pass: p.name(),
                duration: Duration::ZERO,
                invocations: 0,
                changed: 0,
                rounds: 0,
            })
            .collect();
        let mut cache_totals = CacheStats::default();
        let start = Instant::now();
        // Serial traced run: the spans carry the per-pass nanoseconds and
        // change reports this view aggregates.
        let (out, trace) = self.try_optimize_traced(module, 1)?;
        let total = start.elapsed();
        for e in &trace.events {
            match e.kind.as_str() {
                "span" => {
                    let timing = timings
                        .iter_mut()
                        .find(|t| t.pass == e.pass)
                        .expect("span names a pipeline pass");
                    timing.duration += Duration::from_nanos(e.wall_ns);
                    timing.invocations += 1;
                    let changed = e.field("changed").and_then(Json::as_bool);
                    timing.changed += usize::from(changed.unwrap_or(false));
                    let rounds = e.field("counters").and_then(|c| c.get("rounds"));
                    timing.rounds += rounds.and_then(Json::as_u64).unwrap_or(0);
                }
                "cache" => {
                    cache_totals.merge(CacheStats {
                        hits: e.field("hits").and_then(Json::as_u64).unwrap_or(0),
                        misses: e.field("misses").and_then(Json::as_u64).unwrap_or(0),
                    });
                }
                _ => {}
            }
        }
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
            out,
            ModuleTimings {
                level: self.level().label(),
                functions: module.functions.len(),
                total,
                passes: timings,
                cache: cache_totals,
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

    #[test]
    fn timed_run_matches_plain_and_reports_every_pass() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        let opt = Optimizer::new(OptLevel::Distribution);
        let (timed, report) = opt.try_optimize_timed(&m).unwrap();
        let plain = opt.optimize(&m);
        assert_eq!(format!("{timed}"), format!("{plain}"), "timing must not change the output");
        assert_eq!(report.level, "distribution");
        assert_eq!(report.functions, 1);
        assert_eq!(report.passes.len(), opt.passes().len());
        assert!(report.passes.iter().all(|p| p.invocations == 1));
        assert!(report.total >= report.passes.iter().map(|p| p.duration).sum());
        assert!(report.cache.hits + report.cache.misses > 0, "cache was consulted");
        // The round-reporting micro-assertion's positive side: coalesce
        // reported at least one round per invocation.
        let coalesce = report.passes.iter().find(|p| p.pass == "coalesce").unwrap();
        assert!(coalesce.rounds >= coalesce.invocations as u64, "{coalesce:?}");
        let rendered = format!("{report}");
        assert!(rendered.contains("round(s)"), "{rendered}");
    }
}
