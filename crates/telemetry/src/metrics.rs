//! A zero-dependency live-metrics registry: counters, gauges, and
//! log-bucketed histograms behind atomic cells, with Prometheus-style
//! text exposition and a JSON render.
//!
//! The batch telemetry layer ([`crate::trace`]) answers "what did this
//! run do"; this module answers "what is the daemon doing *right now*".
//! The design constraints mirror the rest of the workspace:
//!
//! - **No dependencies.** Atomics and one registration mutex; no metrics
//!   crates, no lazy statics.
//! - **Lock-cheap updates.** Registration (startup) takes the registry
//!   mutex; every update after that is a relaxed atomic add on a handle
//!   ([`Counter`], [`Gauge`], [`Histogram`]) the caller holds by `Arc`.
//! - **Deterministic renders.** Histogram bucket boundaries are the
//!   fixed compile-time ladder [`LATENCY_BUCKETS_US`], so two registries
//!   that observed the same multiset of values render byte-identically
//!   regardless of observation order, thread interleaving, or merge
//!   order — the property the CI greps rely on.
//! - **Integer-only.** Values are `u64` (microseconds for latency), so
//!   the JSON render stays inside the integer-only subset of
//!   [`crate::json`] and reconciles exactly, with no float formatting
//!   drift.
//!
//! Renders go through [`Snapshot`]: the registry dumps its families,
//! the caller may push extra counters/gauges from sources it owns (the
//! serve daemon mirrors its `stats_snapshot` counters this way, which is
//! what makes `epre metrics` reconcile with `submit --stats` *by
//! construction* — one source of truth, two renderers), and the snapshot
//! sorts by `(name, label)` before emitting either format.

use crate::json::{obj, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed histogram bucket ladder, in microseconds: powers of two from
/// 1µs to ~33.6s. Everything above the last bound lands in the implicit
/// `+Inf` overflow bucket. The ladder is compile-time so every
/// histogram in every process renders the same schema.
pub const LATENCY_BUCKETS_US: [u64; 26] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 32_768, 65_536,
    131_072, 262_144, 524_288, 1_048_576, 2_097_152, 4_194_304, 8_388_608, 16_777_216, 33_554_432,
];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, in-flight
/// requests, busy workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one, saturating at zero (a decrement racing a
    /// restart must never wrap to `u64::MAX`).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over the fixed [`LATENCY_BUCKETS_US`] ladder plus an
/// overflow bucket, with running sum and count.
#[derive(Debug)]
pub struct Histogram {
    /// One cell per ladder bound, plus the trailing overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..=LATENCY_BUCKETS_US.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = LATENCY_BUCKETS_US.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Fold another histogram's observations into this one. Both share
    /// the fixed ladder, so merging commutes and the merged render is
    /// independent of merge order.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.count.fetch_add(other.count(), Ordering::Relaxed);
    }
}

/// Escape `s` for the text exposition: backslash and newline always, and
/// the double quote too in a label value (`quote`), as the format requires.
fn escape(s: &str, quote: bool) -> String {
    let s = s.replace('\\', "\\\\").replace('\n', "\\n");
    if quote {
        s.replace('"', "\\\"")
    } else {
        s
    }
}

/// Upper-bound quantile estimate over fixed-ladder bucket counts: the
/// smallest ladder bound whose cumulative count reaches the nearest-rank
/// `num/den` quantile. Returns `None` for an empty histogram or when the
/// rank lands in the overflow bucket (no finite bound covers it).
pub fn quantile_le(bounds: &[u64], counts: &[u64], num: u64, den: u64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 || den == 0 {
        return None;
    }
    let rank = (total * num).div_ceil(den).max(1);
    let mut cum = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bounds.get(i).copied();
        }
    }
    None
}

#[derive(Debug, Clone)]
enum MetricKind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl MetricKind {
    fn type_name(&self) -> &'static str {
        match self {
            MetricKind::Counter(_) => "counter",
            MetricKind::Gauge(_) => "gauge",
            MetricKind::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    label: Option<(String, String)>,
    help: String,
    metric: MetricKind,
}

/// The registry: a named family set handing out atomic handles.
///
/// `counter`/`gauge`/`histogram` (and their `_labeled` variants) are
/// get-or-register: calling twice with the same `(name, label)` returns
/// the same handle, so wiring code never has to coordinate "who
/// registers first". Registering an existing name as a different metric
/// type is a programming error and panics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn get_or_register(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
        type_name: &'static str,
        make: impl FnOnce() -> MetricKind,
    ) -> MetricKind {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        if let Some(clash) =
            entries.iter().find(|e| e.name == name && e.metric.type_name() != type_name)
        {
            panic!(
                "metric {name} registered as both {} and {}",
                clash.metric.type_name(),
                type_name
            );
        }
        let wanted = label.map(|(k, v)| (k.to_string(), v.to_string()));
        if let Some(e) = entries.iter().find(|e| e.name == name && e.label == wanted) {
            return e.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            name: name.to_string(),
            label: wanted,
            help: help.to_string(),
            metric: metric.clone(),
        });
        metric
    }

    /// Get or register an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_labeled(name, None, help)
    }

    /// Get or register a counter carrying one `key="value"` label.
    pub fn counter_labeled(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
    ) -> Arc<Counter> {
        match self.get_or_register(name, label, help, "counter", || {
            MetricKind::Counter(Arc::new(Counter::default()))
        }) {
            MetricKind::Counter(c) => c,
            _ => unreachable!("type clash panics in get_or_register"),
        }
    }

    /// Get or register an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.get_or_register(name, None, help, "gauge", || {
            MetricKind::Gauge(Arc::new(Gauge::default()))
        }) {
            MetricKind::Gauge(g) => g,
            _ => unreachable!("type clash panics in get_or_register"),
        }
    }

    /// Get or register an unlabeled histogram over the fixed ladder.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_labeled(name, None, help)
    }

    /// Get or register a histogram carrying one `key="value"` label
    /// (the serve daemon keys request latency by traffic class).
    pub fn histogram_labeled(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
    ) -> Arc<Histogram> {
        match self.get_or_register(name, label, help, "histogram", || {
            MetricKind::Histogram(Arc::new(Histogram::default()))
        }) {
            MetricKind::Histogram(h) => h,
            _ => unreachable!("type clash panics in get_or_register"),
        }
    }

    /// Dump every registered family into a [`Snapshot`] for rendering.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut snap = Snapshot::default();
        for e in entries.iter() {
            let label = e.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str()));
            match &e.metric {
                MetricKind::Counter(c) => snap.push_counter(&e.name, label, &e.help, c.value()),
                MetricKind::Gauge(g) => snap.push_gauge(&e.name, label, &e.help, g.value()),
                MetricKind::Histogram(h) => snap.push_histogram(
                    &e.name,
                    label,
                    &e.help,
                    h.bucket_counts(),
                    h.sum(),
                    h.count(),
                ),
            }
        }
        snap
    }
}

#[derive(Debug, Clone)]
enum Item {
    Counter { value: u64 },
    Gauge { value: u64 },
    Histogram { counts: Vec<u64>, sum: u64, count: u64 },
}

impl Item {
    fn type_name(&self) -> &'static str {
        match self {
            Item::Counter { .. } => "counter",
            Item::Gauge { .. } => "gauge",
            Item::Histogram { .. } => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct SnapEntry {
    name: String,
    label: Option<(String, String)>,
    help: String,
    item: Item,
}

/// A point-in-time value set ready to render: registry families plus
/// any extra counters/gauges the caller mirrors in from its own
/// sources. Both renders sort by `(name, label)` first, so output is
/// byte-deterministic for a given value set.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    entries: Vec<SnapEntry>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    fn push(&mut self, name: &str, label: Option<(&str, &str)>, help: &str, item: Item) {
        self.entries.push(SnapEntry {
            name: name.to_string(),
            label: label.map(|(k, v)| (k.to_string(), v.to_string())),
            help: help.to_string(),
            item,
        });
    }

    /// Add a counter sample.
    pub fn push_counter(
        &mut self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
        value: u64,
    ) {
        self.push(name, label, help, Item::Counter { value });
    }

    /// Add a gauge sample.
    pub fn push_gauge(&mut self, name: &str, label: Option<(&str, &str)>, help: &str, value: u64) {
        self.push(name, label, help, Item::Gauge { value });
    }

    /// Add a histogram sample: non-cumulative per-bucket `counts` over
    /// [`LATENCY_BUCKETS_US`] (overflow last), plus `sum` and `count`.
    pub fn push_histogram(
        &mut self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
        counts: Vec<u64>,
        sum: u64,
        count: u64,
    ) {
        self.push(name, label, help, Item::Histogram { counts, sum, count });
    }

    fn sorted(&self) -> Vec<&SnapEntry> {
        let mut v: Vec<&SnapEntry> = self.entries.iter().collect();
        v.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        v
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` headers per
    /// family, histograms as cumulative `_bucket{le=...}` series plus
    /// `_sum` / `_count`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for e in self.sorted() {
            if e.name != last_family {
                if !e.help.is_empty() {
                    out.push_str(&format!("# HELP {} {}\n", e.name, escape(&e.help, false)));
                }
                out.push_str(&format!("# TYPE {} {}\n", e.name, e.item.type_name()));
                last_family.clone_from(&e.name);
            }
            let plain_label = |extra: &str| match (&e.label, extra.is_empty()) {
                (None, true) => String::new(),
                (None, false) => format!("{{{extra}}}"),
                (Some((k, v)), true) => format!("{{{k}=\"{}\"}}", escape(v, true)),
                (Some((k, v)), false) => format!("{{{k}=\"{}\",{extra}}}", escape(v, true)),
            };
            match &e.item {
                Item::Counter { value } | Item::Gauge { value } => {
                    out.push_str(&format!("{}{} {}\n", e.name, plain_label(""), value));
                }
                Item::Histogram { counts, sum, count } => {
                    let mut cum = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cum += c;
                        let le =
                            LATENCY_BUCKETS_US.get(i).map_or("+Inf".to_string(), |b| b.to_string());
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            e.name,
                            plain_label(&format!("le=\"{le}\"")),
                            cum
                        ));
                    }
                    out.push_str(&format!("{}_sum{} {}\n", e.name, plain_label(""), sum));
                    out.push_str(&format!("{}_count{} {}\n", e.name, plain_label(""), count));
                }
            }
        }
        out
    }

    /// JSON render: one object with a `metrics` array in the same sorted
    /// order as the text exposition. Integer-only, like every document
    /// the workspace's JSON codec handles.
    pub fn to_json(&self) -> String {
        let numbers = |ns: &[u64]| Json::Arr(ns.iter().map(|&n| Json::U64(n)).collect());
        let metrics = self
            .sorted()
            .into_iter()
            .map(|e| {
                let mut fields = vec![
                    ("name", Json::Str(e.name.clone())),
                    ("type", Json::Str(e.item.type_name().into())),
                ];
                if let Some((k, v)) = &e.label {
                    fields.push(("label", Json::Str(format!("{k}={v}"))));
                }
                match &e.item {
                    Item::Counter { value } | Item::Gauge { value } => {
                        fields.push(("value", Json::U64(*value)));
                    }
                    Item::Histogram { counts, sum, count } => {
                        fields.push(("bounds", numbers(&LATENCY_BUCKETS_US)));
                        fields.push(("counts", numbers(counts)));
                        fields.push(("sum", Json::U64(*sum)));
                        fields.push(("count", Json::U64(*count)));
                    }
                }
                obj(fields)
            })
            .collect();
        obj(vec![("metrics", Json::Arr(metrics))]).encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_get_or_register() {
        let r = MetricsRegistry::new();
        let a = r.counter("epre_requests_total", "requests");
        let b = r.counter("epre_requests_total", "requests");
        a.inc();
        b.add(2);
        assert_eq!(a.value(), 3, "same handle behind the same name");
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn type_clash_is_a_programming_error() {
        let r = MetricsRegistry::new();
        let _ = r.counter("epre_x", "");
        let _ = r.gauge("epre_x", "");
    }

    #[test]
    fn gauge_decrement_saturates_at_zero() {
        let g = Gauge::default();
        g.inc();
        g.dec();
        g.dec();
        assert_eq!(g.value(), 0);
    }

    #[test]
    fn histogram_buckets_sum_to_observation_count() {
        // Property over an arbitrary-ish value set including the exact
        // bounds, zero, and an overflow observation.
        let h = Histogram::default();
        let values: Vec<u64> = (0..500)
            .map(|i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) % 40_000_000)
            .chain([0, 1, 2, 33_554_432, 33_554_433, u64::MAX / 2])
            .collect();
        for &v in &values {
            h.observe(v);
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
        assert_eq!(h.bucket_counts().len(), LATENCY_BUCKETS_US.len() + 1);
    }

    #[test]
    fn bucket_assignment_is_le_semantics() {
        let h = Histogram::default();
        h.observe(1); // le="1"
        h.observe(2); // le="2"
        h.observe(3); // le="4"
        let counts = h.bucket_counts();
        assert_eq!(&counts[..3], &[1, 1, 1]);
        h.observe(u64::MAX); // overflow
        assert_eq!(*h.bucket_counts().last().unwrap(), 1);
    }

    #[test]
    fn merged_renders_are_byte_deterministic() {
        // The same multiset of observations, split differently across
        // two histograms and merged in either order, renders the same
        // bytes.
        let values: Vec<u64> = (0..200u64).map(|i| (i * i * 37) % 5_000_000).collect();
        let build = |split: usize, swap: bool| {
            let (a, b) = (Histogram::default(), Histogram::default());
            for &v in &values[..split] {
                a.observe(v);
            }
            for &v in &values[split..] {
                b.observe(v);
            }
            let merged = Histogram::default();
            if swap {
                merged.merge_from(&b);
                merged.merge_from(&a);
            } else {
                merged.merge_from(&a);
                merged.merge_from(&b);
            }
            let mut s = Snapshot::new();
            s.push_histogram(
                "epre_lat_us",
                Some(("class", "cold")),
                "test",
                merged.bucket_counts(),
                merged.sum(),
                merged.count(),
            );
            (s.to_text(), s.to_json())
        };
        let first = build(13, false);
        assert_eq!(first, build(101, true));
        assert_eq!(first, build(200, false));
    }

    #[test]
    fn text_exposition_shape() {
        let r = MetricsRegistry::new();
        r.counter("epre_requests_total", "total requests").add(7);
        r.gauge("epre_queue_depth", "queued conns").set(3);
        r.histogram_labeled("epre_request_latency_us", Some(("class", "warm")), "latency")
            .observe(100);
        let text = r.snapshot().to_text();
        assert!(text.contains("# TYPE epre_requests_total counter"), "{text}");
        assert!(text.contains("epre_requests_total 7\n"), "{text}");
        assert!(text.contains("# TYPE epre_queue_depth gauge"), "{text}");
        assert!(text.contains("epre_queue_depth 3\n"), "{text}");
        assert!(text.contains("# TYPE epre_request_latency_us histogram"), "{text}");
        assert!(
            text.contains("epre_request_latency_us_bucket{class=\"warm\",le=\"128\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("epre_request_latency_us_bucket{class=\"warm\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("epre_request_latency_us_sum{class=\"warm\"} 100"), "{text}");
        assert!(text.contains("epre_request_latency_us_count{class=\"warm\"} 1"), "{text}");
    }

    #[test]
    fn json_render_is_sorted_and_integer_only() {
        let r = MetricsRegistry::new();
        r.gauge("epre_b", "").set(2);
        r.counter("epre_a", "").add(1);
        assert_eq!(
            r.snapshot().to_json(),
            r#"{"metrics":[{"name":"epre_a","type":"counter","value":1},{"name":"epre_b","type":"gauge","value":2}]}"#
        );
    }

    #[test]
    fn extra_counters_interleave_into_sort_order() {
        let r = MetricsRegistry::new();
        r.counter("epre_m", "").add(5);
        let mut snap = r.snapshot();
        snap.push_counter("epre_a", None, "mirrored", 9);
        let text = snap.to_text();
        let a = text.find("epre_a 9").unwrap();
        let m = text.find("epre_m 5").unwrap();
        assert!(a < m, "{text}");
    }

    #[test]
    fn quantile_le_nearest_rank() {
        // 10 observations: 4 in le=8, 5 in le=64, 1 in overflow.
        let mut counts = vec![0u64; LATENCY_BUCKETS_US.len() + 1];
        counts[3] = 4; // le=8
        counts[6] = 5; // le=64
        let last = counts.len() - 1;
        counts[last] = 1;
        assert_eq!(quantile_le(&LATENCY_BUCKETS_US, &counts, 50, 100), Some(64));
        assert_eq!(quantile_le(&LATENCY_BUCKETS_US, &counts, 40, 100), Some(8));
        assert_eq!(quantile_le(&LATENCY_BUCKETS_US, &counts, 99, 100), None, "overflow");
        assert_eq!(quantile_le(&LATENCY_BUCKETS_US, &[0; 27], 50, 100), None, "empty");
    }
}
