//! # epre-serve — the crash-safe optimization daemon
//!
//! A long-lived server around the hardened optimizer of
//! [`epre_harness`]: clients submit ILOC modules with an optimization
//! contract (level, fault policy, deadline) over a length-prefixed
//! JSONL protocol, and get back per-function progress plus a terminal
//! accounting frame — always a *typed* answer, never a hang.
//!
//! The layers, bottom-up:
//!
//! * [`protocol`] — `<len>\n<json>\n` framing, typed requests,
//!   responses, and refusal codes, encoded and decoded with
//!   [`epre_telemetry::json`], the workspace's one JSON codec,
//! * [`cache`] — a persistent content-addressed result cache riding the
//!   write-ahead journal machinery: `kill -9` loses at most the entry
//!   being written, restart compacts the torn tail,
//! * [`core`] — the transport-independent engine: quarantine gate →
//!   parse → deadline admission → cache partition → governed pipeline →
//!   whole-module differential oracle → write-ahead insert → frames,
//! * [`server`] — TCP accept loop with a bounded admission queue
//!   (overflow is shed with a typed `overloaded` frame), keep-alive
//!   sessions ended by typed `goaway` frames (idle timeout, request
//!   cap, draining), a graceful drain with a deadline, and a
//!   stdio-JSONL mode,
//! * [`client`] — a retrying client with jittered exponential backoff,
//!   content-derived idempotency keys, and a keep-alive [`Session`]
//!   that reconnects transparently,
//! * [`events`] — the daemon's accounting as standard telemetry events,
//! * [`metrics`] — the live-metrics wiring: per-class request latency
//!   histograms, queue/worker gauges, per-pass cumulative pipeline time
//!   and invocations from an observer of the `epre` crate's one pass
//!   decorator (the observer `--timings` also uses), all rendered
//!   through [`epre_telemetry::MetricsRegistry`] as Prometheus text or
//!   JSON,
//! * [`recorder`] — the always-on flight recorder: a bounded ring of
//!   recent request summaries and daemon events dumped as JSONL on
//!   SIGQUIT, at drain, and (per request) past the `--slow-ms`
//!   threshold,
//! * [`loadgen`] — a mixed-workload load generator (cold, warm, poison,
//!   oversized, keep-alive) that checks every answer against ground
//!   truth and reports per-class latency percentiles.
//!
//! The soundness invariant is inherited, not re-proven: every freshly
//! optimized function passes through [`Harness::finish_with_oracle`]
//! before it is answered or cached, and every cache replay is
//! fingerprint-verified, re-parsed, and name-checked against a body
//! that already passed that oracle under the identical key — so
//! corruption anywhere (disk, cache, chaos pass) degrades performance
//! or accounting, never answers.
//!
//! ```
//! use std::sync::Arc;
//! use epre_serve::cache::ResultCache;
//! use epre_serve::client::{submit, ClientConfig};
//! use epre_serve::core::{ServeConfig, ServerCore};
//! use epre_serve::protocol::OptimizeRequest;
//! use epre_serve::server::serve_tcp;
//!
//! let core = Arc::new(ServerCore::new(ServeConfig::default(), ResultCache::in_memory()));
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let handle = std::thread::spawn(move || serve_tcp(core, listener));
//!
//! let src = "function foo(y, z)\nreal y, z, x\nbegin\nx = y + z\nreturn x * x\nend\n";
//! let module = epre_frontend::compile(src, epre_frontend::NamingMode::Disciplined).unwrap();
//! let outcome = submit(
//!     &ClientConfig { addr: addr.to_string(), ..Default::default() },
//!     &OptimizeRequest {
//!         client: "docs".into(),
//!         level: "distribution".into(),
//!         policy: "best-effort".into(),
//!         deadline_ms: Some(30_000),
//!         idempotency: String::new(),
//!         request: String::new(),
//!         module_text: format!("{module}"),
//!     },
//! )
//! .unwrap();
//! assert_eq!(outcome.done.status, "clean");
//! epre_serve::client::shutdown(&ClientConfig { addr: addr.to_string(), ..Default::default() })
//!     .unwrap();
//! handle.join().unwrap().unwrap();
//! ```
//!
//! [`Harness::finish_with_oracle`]: epre_harness::Harness::finish_with_oracle

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod core;
pub mod events;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod recorder;
pub mod server;

pub use cache::{CacheRecovery, ResultCache, CACHE_HEADER};
pub use client::{
    ping, shutdown, stats, submit, ClientConfig, ClientError, Session, SubmitOutcome,
};
pub use core::{level_from_label, policy_from_label, GoawayReason, ServeConfig, ServerCore};
pub use events::{
    drain_event, goaway_event, recover_event, request_event, shed_event, DrainAccounting,
};
pub use loadgen::{run_loadgen, ClassStats, LoadgenConfig, LoadgenReport};
pub use metrics::{ServeMetrics, REQUEST_CLASSES};
pub use protocol::{
    read_frame, write_frame, DoneFrame, ErrorCode, FrameError, FunctionFrame, OptimizeRequest,
    Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use recorder::{FlightRecorder, RequestSummary};
pub use server::{serve_metrics_http, serve_stdio, serve_tcp, READ_TIMEOUT};
