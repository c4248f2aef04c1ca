//! # epre-harness — the fault-tolerant optimizer harness
//!
//! Everything the pipeline needs to *survive its own bugs*, layered on
//! the typed [`PassFault`](epre::fault::PassFault) route of `epre` and
//! the invariant rules of `epre-lint`:
//!
//! * [`sandbox`] — every pass runs on a clone under
//!   `std::panic::catch_unwind` and a resource
//!   [`Budget`](epre::Budget), and is re-linted; on panic, budget
//!   exhaustion, or new invariant violation the function rolls back to
//!   its pre-pass state and the pipeline continues, per a
//!   [`FaultPolicy`],
//! * [`breaker`] — per-pass circuit breakers: a pass that faults in
//!   enough functions of one module is quarantined for the rest of it,
//! * [`watchdog`] — a supervised worker pool that rolls back any
//!   function whose worker overruns a wall-clock deadline, even in
//!   non-cooperative code,
//! * [`oracle`] — differential execution of unoptimized vs. optimized
//!   modules on seeded inputs under bounded fuel, reporting value or
//!   error-variant divergence as a miscompile and tallying out-of-fuel
//!   comparisons as inconclusive,
//! * [`harden`] — the combination: sandboxed passes plus oracle-driven
//!   *semantic* rollback of any function whose optimized form diverges,
//! * [`journal`] — a write-ahead journal of finished functions, so a
//!   killed `epre opt --journal` run resumes byte-identically,
//! * [`events`] — adapters rendering the reports above as telemetry
//!   trace events for `epre opt --trace`,
//! * [`inject`] — a seeded, deterministic fault-injection mutator
//!   modelling realistic optimizer bugs, plus adversarial pass models
//!   (non-terminating, unbounded growth) only a budget can stop,
//! * [`fuzz`] — the campaign that proves the containment stack holds:
//!   every injected fault is caught, rolled back, or shown harmless,
//! * [`reduce`](mod@reduce) — a ddmin-style reducer that shrinks a failing module
//!   (functions, then instructions, then blocks, then operands) while a
//!   [`FailureSpec`] keeps holding.
//!
//! ```
//! use epre::OptLevel;
//! use epre_frontend::{compile, NamingMode};
//! use epre_harness::{FaultPolicy, Harness};
//!
//! let src = "function foo(y, z)\n\
//!            real y, z, x\n\
//!            begin\n\
//!            x = y + z\n\
//!            return x * x\nend\n";
//! let module = compile(src, NamingMode::Disciplined).unwrap();
//! let harness = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort);
//! let out = harness.optimize(&module).unwrap();
//! assert!(out.is_clean());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod breaker;
pub mod events;
pub mod fuzz;
pub mod harden;
pub mod inject;
pub mod journal;
pub mod oracle;
pub mod reduce;
pub mod rng;
pub mod sandbox;
pub mod watchdog;

pub use breaker::{CircuitBreaker, Quarantine, QuarantineOutcome, ServeQuarantine};
pub use events::{harden_events, journal_events};
pub use fuzz::{run_campaign, CampaignConfig, CampaignReport, Containment, ALL_LEVELS};
pub use harden::{HardenedOutput, Harness, JournalError, JournaledOutcome};
pub use inject::{mutate_module, Mutation, MutationKind, PassFaultModel};
pub use journal::{
    header_line, load_journal, record_len, rewrite_staging_path, JournalEntry, JournalLoad,
    JournalWriter, ResumeState, JOURNAL_MAGIC,
};
pub use oracle::{
    classify, compare_function, compare_modules, compare_modules_detailed, Agreement, Divergence,
    Observed, OracleConfig, OracleOutcome,
};
pub use reduce::{reduce, FailureSpec, ReduceStats};
pub use rng::{fingerprint64, SplitMix64};
pub use sandbox::{run_module_governed, run_passes_governed, FaultPolicy, SandboxReport};
pub use watchdog::{optimize_module_watchdog, WatchdogConfig, WATCHDOG_PASS};
