//! # epre-telemetry — structured tracing, provenance, Table-1 metrics, and the JSON codec
//!
//! The paper's entire argument rests on *measurement* — dynamic ILOC
//! operation counts per optimization level (Table 1) — and this crate is
//! the one place all of the workspace's measurement shapes meet:
//!
//! * [`json`] — the workspace's one JSON codec: a value type with
//!   insertion-ordered objects, a compact encoder, and a parser with
//!   positioned errors and a nesting bound, restricted to unsigned
//!   integers. Every JSON document below, the serve protocol, the flight
//!   recorder and `epre lint --json` go through it.
//! * [`event`] — the flat, deterministic [`Event`] record every producer
//!   emits: pass spans, per-pass counters, cache statistics, provenance
//!   deltas, and harness fault/rollback/journal notices, with
//!   [`json::Json`] field values.
//! * [`trace`] — the per-function [`FunctionTrace`] buffer (one per
//!   parallel worker lane) and the merged module-level [`Trace`] whose
//!   event order — and therefore its exported bytes — is identical at
//!   `--jobs 1/2/8`.
//! * [`export`] — JSON Lines and Chrome `trace_event` renderings of a
//!   trace (`epre opt --trace out.json --trace-format {jsonl,chrome}`).
//! * [`provenance`] — opcode-keyed eliminated/inserted ledgers
//!   ([`FunctionLedger`]) reconstructed from a trace, with the
//!   conservation law `ops_before − eliminated + inserted == ops_after`
//!   that `tests/provenance_conservation.rs` checks over the whole suite.
//! * [`table1`] — the paper's Table 1 (dynamic operation counts per
//!   level, % improvement vs baseline) as aligned text or JSON, backing
//!   `epre report`.
//! * [`metrics`] — the *live* side of observability: a lock-cheap
//!   [`MetricsRegistry`] of counters, gauges, and fixed-ladder latency
//!   histograms with Prometheus-style text and JSON renders, consumed by
//!   the serve daemon's `epre metrics` endpoint.
//!
//! ## Determinism rules
//!
//! Events never hold wall-clock readings. Spans carry a *virtual*
//! timestamp (a per-lane cursor advanced by a deterministic duration
//! derived from the pass's input size) so the same module at the same
//! level produces byte-identical JSONL and Chrome traces on any machine
//! and at any `--jobs` count. Measured pass time goes to the observers of
//! the `epre` crate's pass decorator (`--timings`, the daemon's live
//! metrics), never into a trace.
//!
//! The crate is dependency-free by design — it speaks plain strings,
//! integers and JSON values, so every other workspace crate can depend
//! on it without cycles.

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod provenance;
pub mod table1;
pub mod trace;

pub use event::{Event, PassCounters};
pub use metrics::{
    quantile_le, Counter, Gauge, Histogram, MetricsRegistry, Snapshot, LATENCY_BUCKETS_US,
};
pub use provenance::{ledgers_from_trace, FunctionLedger, OpcodeDelta, PassProvenance};
pub use table1::{improvement, Table1, Table1Row};
pub use trace::{FunctionTrace, Trace};
