//! The daemon's live-metrics wiring: one [`MetricsRegistry`] owned by
//! the core, pre-registered handles for every hot-path signal, and the
//! per-pass observer the governed pipeline runs under.
//!
//! Two kinds of values meet in the `epre metrics` render:
//!
//! - **Registry-held** series updated live on the hot path: per-class
//!   request latency histograms, queue-depth / in-flight / worker
//!   gauges, saturation and slow-request counters, per-pass cumulative
//!   pipeline time.
//! - **Mirrored** counters pulled from `stats_snapshot()` at render
//!   time. They are *not* double-counted into the registry — the render
//!   reads the same atomics `submit --stats` reads, which is what makes
//!   the two views reconcile exactly, always.
//!
//! Latency histograms use the fixed microsecond ladder from
//! `epre_telemetry::metrics`, so scrapes from different daemons (or a
//! restart) merge deterministically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use epre::{observe, PassObserver, PassRun};
use epre_passes::Pass;
use epre_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};

/// Request classes the latency histograms are keyed by. The first four
/// mirror the loadgen traffic mix; `shed` covers typed refusals
/// (deadline, quarantine, overload) that are neither bad input nor
/// served work.
pub const REQUEST_CLASSES: [&str; 5] = ["cold", "warm", "poison", "oversized", "shed"];

/// Pre-registered handles for every signal the serve hot path updates.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: MetricsRegistry,
    latency: Vec<(&'static str, Arc<Histogram>)>,
    /// Connections admitted to the queue and not yet picked up.
    pub queue_depth: Arc<Gauge>,
    /// Requests currently inside the engine (decoded, not yet answered).
    pub in_flight: Arc<Gauge>,
    /// Workers currently pinned by a session.
    pub workers_busy: Arc<Gauge>,
    /// Configured worker count (constant; exported so scrape tooling can
    /// alert on `workers_busy == workers_total`).
    pub workers_total: Arc<Gauge>,
    /// Times the acceptor saw every worker busy with the admission queue
    /// non-empty — each one is a session waiting on worker churn.
    pub workers_saturated: Arc<Counter>,
    /// Requests that exceeded the `--slow-ms` threshold.
    pub slow_requests: Arc<Counter>,
    saturation_warned: AtomicBool,
}

impl ServeMetrics {
    /// Registry + handles for a daemon configured with `workers` workers.
    pub fn new(workers: usize) -> ServeMetrics {
        let registry = MetricsRegistry::new();
        let latency = REQUEST_CLASSES
            .iter()
            .map(|class| {
                (
                    *class,
                    registry.histogram_labeled(
                        "epre_request_latency_us",
                        Some(("class", class)),
                        "request service time by traffic class, microseconds",
                    ),
                )
            })
            .collect();
        let m = ServeMetrics {
            latency,
            queue_depth: registry
                .gauge("epre_queue_depth", "admitted connections waiting for a worker"),
            in_flight: registry.gauge("epre_in_flight_requests", "requests inside the engine"),
            workers_busy: registry.gauge("epre_workers_busy", "workers pinned by a session"),
            workers_total: registry.gauge("epre_workers_total", "configured worker count"),
            workers_saturated: registry.counter(
                "epre_workers_saturated_total",
                "admissions that found every worker busy and the queue non-empty",
            ),
            slow_requests: registry
                .counter("epre_slow_requests_total", "requests over the --slow-ms threshold"),
            saturation_warned: AtomicBool::new(false),
            registry,
        };
        m.workers_total.set(workers as u64);
        m
    }

    /// Record one request's service time under its traffic class.
    /// Unknown classes are dropped rather than invented: the class set
    /// is part of the exposition schema.
    pub fn observe_latency(&self, class: &str, micros: u64) {
        if let Some((_, h)) = self.latency.iter().find(|(c, _)| *c == class) {
            h.observe(micros);
        }
    }

    /// Acceptor-side saturation check: call after enqueueing a
    /// connection. If every worker is pinned and the queue is non-empty,
    /// count it, and warn on stderr exactly once per process — the
    /// sizing rule is `--workers` above the expected number of
    /// concurrent long-lived clients.
    pub fn note_admission(&self) {
        self.queue_depth.inc();
        if self.workers_busy.value() >= self.workers_total.value() && self.queue_depth.value() > 0 {
            self.workers_saturated.inc();
            if !self.saturation_warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "epre serve: all {} worker(s) are pinned by live sessions and new \
                     connections are queueing; raise --workers above the expected number of \
                     concurrent long-lived clients (see README 'Serving')",
                    self.workers_total.value()
                );
            }
        }
    }

    /// Observe a pipeline's passes with `epre`'s pass decorator, so
    /// `epre_pass_time_us_total{pass=...}` and `epre_pass_runs_total`
    /// accumulate live pipeline time and invocations across every request
    /// the daemon serves. The decorator keeps each pass's name, so fault
    /// attribution and quarantine are unchanged.
    pub fn instrument(&self, passes: Vec<Box<dyn Pass>>) -> Vec<Box<dyn Pass>> {
        let counter =
            |name, pass, help| self.registry.counter_labeled(name, Some(("pass", pass)), help);
        let meters = passes
            .iter()
            .map(|p| {
                let time_us = "cumulative pipeline time by pass, microseconds";
                let runs = "pipeline invocations by pass";
                (
                    counter("epre_pass_time_us_total", p.name(), time_us),
                    counter("epre_pass_runs_total", p.name(), runs),
                )
            })
            .collect();
        observe(passes, &Arc::new(PassMeters(meters)))
    }

    /// Dump the registry for rendering (the core then mirrors its stats
    /// counters in before encoding).
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

/// The live per-pass counters, `(time_us, runs)` for each pass of the
/// observed list: one `Instant` pair (the decorator's) and two atomic
/// adds per invocation.
struct PassMeters(Vec<(Arc<Counter>, Arc<Counter>)>);

impl PassObserver for PassMeters {
    const COUNTERS: bool = false;

    fn after(&self, run: &PassRun<'_>) {
        let (time_us, runs) = &self.0[run.index];
        time_us.add(run.elapsed.as_micros() as u64);
        runs.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre::{OptLevel, Optimizer};
    use epre_frontend::{compile, NamingMode};

    const SRC: &str = "function f(a, b)\n\
                       integer a, b, t\n\
                       begin\n\
                       t = a * b + a\n\
                       return t + a * b\nend\n";

    #[test]
    fn timed_passes_change_nothing_but_accumulate_time() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let metrics = ServeMetrics::new(2);
        let plain = {
            let mut f = m.functions[0].clone();
            for p in Optimizer::new(OptLevel::Distribution).passes() {
                p.run(&mut f);
            }
            format!("{f}")
        };
        let timed = {
            let mut f = m.functions[0].clone();
            for p in metrics.instrument(Optimizer::new(OptLevel::Distribution).passes()) {
                p.run(&mut f);
            }
            format!("{f}")
        };
        assert_eq!(plain, timed, "observing the passes must be transparent");
        let text = metrics.snapshot().to_text();
        assert!(text.contains("epre_pass_runs_total{pass=\"pre\"} 1"), "{text}");
        assert!(text.contains("epre_pass_time_us_total{pass=\"dce\"}"), "{text}");
    }

    #[test]
    fn latency_classes_are_pre_registered_and_closed() {
        let metrics = ServeMetrics::new(1);
        metrics.observe_latency("cold", 100);
        metrics.observe_latency("nonsense", 5); // dropped, not invented
        let text = metrics.snapshot().to_text();
        for class in REQUEST_CLASSES {
            assert!(
                text.contains(&format!("epre_request_latency_us_count{{class=\"{class}\"}}")),
                "{class} histogram missing:\n{text}"
            );
        }
        assert!(!text.contains("nonsense"), "{text}");
        assert!(text.contains("epre_request_latency_us_count{class=\"cold\"} 1"), "{text}");
    }

    #[test]
    fn saturation_counts_when_all_workers_busy_and_queue_nonempty() {
        let metrics = ServeMetrics::new(2);
        metrics.workers_busy.inc();
        metrics.note_admission(); // one worker free: not saturated
        assert_eq!(metrics.workers_saturated.value(), 0);
        metrics.workers_busy.inc();
        metrics.note_admission(); // both pinned, queue non-empty
        assert_eq!(metrics.workers_saturated.value(), 1);
    }
}
