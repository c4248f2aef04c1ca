//! Per-pass circuit breakers: after a pass has faulted `threshold` times
//! across the functions of one module, stop invoking it for the rest of
//! that module.
//!
//! The sandbox already contains each individual fault, but a pass that is
//! broken *everywhere* — a miscompiled build, a bad interaction with one
//! module's code shapes — would otherwise burn a clone, a `catch_unwind`,
//! and a full re-lint on every remaining function just to fault again.
//! The breaker converts that repeated cost into a single decision:
//! quarantine the pass, record the quarantine in the fault report, and
//! keep the rest of the pipeline running. Quarantine is scoped to one
//! module run; a fresh [`CircuitBreaker`] starts closed.
//!
//! Fault counts are deterministic (they come from the sandbox's fault
//! list, which is itself deterministic per function), so the breaker's
//! trip point is reproducible — the parallel module driver exploits this
//! by replaying the counts serially in module order; see
//! [`crate::sandbox::run_module_governed`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// A pass quarantined by the breaker: the evidence for the decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// The quarantined pass.
    pub pass: String,
    /// How many faults it had accumulated when the circuit opened.
    pub faults: usize,
    /// The function whose fault tripped the breaker.
    pub tripped_in: String,
}

impl std::fmt::Display for Quarantine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pass `{}` quarantined after {} fault(s) (tripped in `{}`)",
            self.pass, self.faults, self.tripped_in
        )
    }
}

/// Per-pass fault counters with a trip threshold.
///
/// The threshold boundary is **inclusive**: the `threshold`-th recorded
/// fault of a pass is the one that trips its circuit (with the default
/// threshold of 3, the 3rd fault quarantines the pass — not the 4th).
/// Equivalently, a pass survives at most `threshold - 1` faults.
///
/// Counts are capped at the threshold: once a pass's circuit is open,
/// further [`CircuitBreaker::record`] calls for it are no-ops, so equal
/// fault *prefixes* produce equal breaker states regardless of how many
/// redundant faults a caller replays afterwards.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: usize,
    counts: BTreeMap<String, usize>,
    quarantined: Vec<Quarantine>,
}

impl CircuitBreaker {
    /// Default trip threshold: faults from three distinct invocations are
    /// a pattern, not an accident.
    pub const DEFAULT_THRESHOLD: usize = 3;

    /// A closed breaker tripping after `threshold` faults per pass.
    /// `threshold = 0` is clamped to 1 (a breaker that starts open would
    /// silently skip every pass).
    pub fn new(threshold: usize) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            counts: BTreeMap::new(),
            quarantined: Vec::new(),
        }
    }

    /// The configured trip threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Is `pass`'s circuit open (the pass quarantined)?
    pub fn is_open(&self, pass: &str) -> bool {
        self.counts.get(pass).is_some_and(|&n| n >= self.threshold)
    }

    /// Is any circuit open?
    pub fn any_open(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Record one fault of `pass` while processing `function`. Returns
    /// `true` exactly when this fault tripped the breaker (the pass is
    /// quarantined from now on). No-op when the circuit is already open.
    ///
    /// The trip boundary is inclusive: this call trips iff it brings the
    /// pass's count *up to* the threshold, so the `threshold`-th fault is
    /// the tripping one and the count never exceeds the threshold.
    pub fn record(&mut self, pass: &str, function: &str) -> bool {
        if self.is_open(pass) {
            return false;
        }
        let n = self.counts.entry(pass.to_string()).or_insert(0);
        *n += 1;
        if *n >= self.threshold {
            self.quarantined.push(Quarantine {
                pass: pass.to_string(),
                faults: *n,
                tripped_in: function.to_string(),
            });
            true
        } else {
            false
        }
    }

    /// Every quarantine decision, in trip order.
    pub fn quarantined(&self) -> &[Quarantine] {
        &self.quarantined
    }

    /// Current fault count for `pass` (capped at the threshold).
    pub fn faults_of(&self, pass: &str) -> usize {
        self.counts.get(pass).copied().unwrap_or(0)
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(Self::DEFAULT_THRESHOLD)
    }
}

/// What one [`ServeQuarantine::record`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineOutcome {
    /// The (client, pass, module) evidence was already on record, or the
    /// client's quarantine is already open: nothing changed.
    Duplicate,
    /// New evidence was recorded; the client stays admitted.
    Evidence,
    /// New evidence was recorded and it tripped the client's quarantine.
    Tripped,
}

/// The per-pass circuit breaker promoted to fleet scope: a thread-safe,
/// idempotent per-*client* quarantine ledger for the serve daemon.
///
/// A module-scoped [`CircuitBreaker`] protects one optimization run from
/// one bad pass; a long-lived server needs the same decision one level
/// up — a client that keeps submitting poisoned modules must stop
/// costing sandbox clones, re-lints, and oracle runs for the whole
/// fleet. Evidence is the distinct set of `(pass, module fingerprint)`
/// pairs that faulted for a client; when a client accumulates
/// `threshold` distinct pieces of evidence its quarantine opens and the
/// server rejects its requests with a typed `quarantined` response
/// instead of doing work.
///
/// Recording is **idempotent**: concurrent workers faulting the same
/// pass on the same module report the same evidence, and exactly one
/// entry lands in the ledger (the rest observe
/// [`QuarantineOutcome::Duplicate`]). The trip boundary is inclusive,
/// matching [`CircuitBreaker`]: the `threshold`-th distinct piece of
/// evidence trips, and evidence counts never exceed the threshold.
#[derive(Debug, Default)]
pub struct ServeQuarantine {
    threshold: usize,
    state: Mutex<ServeState>,
}

#[derive(Debug, Default)]
struct ServeState {
    /// Distinct `(pass, module fingerprint)` fault evidence per client.
    evidence: BTreeMap<String, BTreeSet<(String, String)>>,
    /// Clients whose quarantine is open, in trip order.
    open: Vec<String>,
}

impl ServeQuarantine {
    /// A ledger tripping a client after `threshold` distinct pieces of
    /// evidence (clamped to ≥ 1, like [`CircuitBreaker::new`]).
    pub fn new(threshold: usize) -> Self {
        ServeQuarantine { threshold: threshold.max(1), state: Mutex::new(ServeState::default()) }
    }

    /// The configured trip threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Is `client` quarantined?
    pub fn is_open(&self, client: &str) -> bool {
        self.state.lock().expect("quarantine ledger poisoned").open.iter().any(|c| c == client)
    }

    /// Record that `pass` faulted while optimizing the module
    /// fingerprinted `module_fp` for `client`. Idempotent per
    /// `(client, pass, module_fp)` triple and a no-op once the client's
    /// quarantine is open.
    pub fn record(&self, client: &str, pass: &str, module_fp: &str) -> QuarantineOutcome {
        let mut st = self.state.lock().expect("quarantine ledger poisoned");
        if st.open.iter().any(|c| c == client) {
            return QuarantineOutcome::Duplicate;
        }
        let set = st.evidence.entry(client.to_string()).or_default();
        if !set.insert((pass.to_string(), module_fp.to_string())) {
            return QuarantineOutcome::Duplicate;
        }
        if set.len() >= self.threshold {
            st.open.push(client.to_string());
            QuarantineOutcome::Tripped
        } else {
            QuarantineOutcome::Evidence
        }
    }

    /// How many distinct pieces of evidence `client` has accumulated
    /// (capped at the threshold — evidence past the trip is not stored).
    pub fn evidence_of(&self, client: &str) -> usize {
        self.state
            .lock()
            .expect("quarantine ledger poisoned")
            .evidence
            .get(client)
            .map_or(0, BTreeSet::len)
    }

    /// Quarantined clients, in trip order.
    pub fn open_clients(&self) -> Vec<String> {
        self.state.lock().expect("quarantine ledger poisoned").open.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_exactly_at_threshold() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.record("gvn", "f1"));
        assert!(!b.record("gvn", "f2"));
        assert!(!b.is_open("gvn"));
        assert!(b.record("gvn", "f3"), "third fault must trip");
        assert!(b.is_open("gvn"));
        assert_eq!(b.quarantined().len(), 1);
        assert_eq!(b.quarantined()[0].tripped_in, "f3");
        assert_eq!(b.quarantined()[0].faults, 3);
    }

    #[test]
    fn counts_are_per_pass() {
        let mut b = CircuitBreaker::new(2);
        b.record("gvn", "f");
        b.record("pre", "f");
        assert!(!b.is_open("gvn") && !b.is_open("pre"));
        b.record("gvn", "g");
        assert!(b.is_open("gvn"));
        assert!(!b.is_open("pre"));
    }

    #[test]
    fn open_circuit_absorbs_further_faults() {
        let mut b = CircuitBreaker::new(1);
        assert!(b.record("dce", "f"));
        assert!(!b.record("dce", "g"), "already open: no second trip");
        assert_eq!(b.faults_of("dce"), 1, "count capped at threshold");
        assert_eq!(b.quarantined().len(), 1);
    }

    #[test]
    fn zero_threshold_is_clamped() {
        let b = CircuitBreaker::new(0);
        assert_eq!(b.threshold(), 1);
        assert!(!b.is_open("anything"));
    }

    /// The boundary is inclusive: with the default threshold of 3, the
    /// 3rd fault trips — the circuit must already be open before a 4th
    /// fault could be recorded.
    #[test]
    fn third_fault_trips_not_the_fourth() {
        let mut b = CircuitBreaker::default();
        assert_eq!(b.threshold(), 3);
        assert!(!b.record("pre", "f1"), "1st fault must not trip");
        assert!(!b.record("pre", "f2"), "2nd fault must not trip");
        assert!(b.record("pre", "f3"), "3rd fault is the tripping one");
        assert!(!b.record("pre", "f4"), "4th fault finds the circuit already open");
        assert_eq!(b.quarantined().len(), 1, "one quarantine decision, not two");
        assert_eq!(b.quarantined()[0].tripped_in, "f3");
    }

    /// Saturation: counts are capped *at* the threshold no matter how
    /// many redundant faults are replayed, so a breaker that absorbed a
    /// long redundant tail is indistinguishable from one that saw only
    /// the tripping prefix (the property the parallel driver's serial
    /// replay relies on).
    #[test]
    fn capped_counts_saturate_at_the_threshold() {
        let mut long = CircuitBreaker::new(3);
        for i in 0..10 {
            long.record("gvn", &format!("f{i}"));
        }
        let mut prefix = CircuitBreaker::new(3);
        for i in 0..3 {
            prefix.record("gvn", &format!("f{i}"));
        }
        assert_eq!(long.faults_of("gvn"), 3, "count must saturate at the threshold");
        assert_eq!(long.faults_of("gvn"), prefix.faults_of("gvn"));
        assert_eq!(long.quarantined(), prefix.quarantined(), "redundant tail must be invisible");
        assert!(long.is_open("gvn") && prefix.is_open("gvn"));
    }

    #[test]
    fn serve_quarantine_trips_on_distinct_evidence() {
        let q = ServeQuarantine::new(2);
        assert_eq!(q.record("alice", "pre", "aaaa"), QuarantineOutcome::Evidence);
        assert!(!q.is_open("alice"));
        // Same pass, same module: idempotent, not new evidence.
        assert_eq!(q.record("alice", "pre", "aaaa"), QuarantineOutcome::Duplicate);
        assert_eq!(q.evidence_of("alice"), 1);
        // A different module from the same client is new evidence — trip.
        assert_eq!(q.record("alice", "pre", "bbbb"), QuarantineOutcome::Tripped);
        assert!(q.is_open("alice"));
        // Once open, everything is absorbed.
        assert_eq!(q.record("alice", "gvn", "cccc"), QuarantineOutcome::Duplicate);
        assert_eq!(q.evidence_of("alice"), 2, "evidence capped at the threshold");
        // Other clients are unaffected.
        assert!(!q.is_open("bob"));
        assert_eq!(q.open_clients(), ["alice"]);
    }

    /// The serve-path idempotence contract: N workers racing to record
    /// the *same* (client, pass, module) fault produce exactly one ledger
    /// entry — one non-duplicate outcome, evidence count 1.
    #[test]
    fn serve_quarantine_concurrent_duplicates_record_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let q = ServeQuarantine::new(3);
        let recorded = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    if q.record("mallory", "pre", "deadbeef") != QuarantineOutcome::Duplicate {
                        recorded.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(recorded.load(Ordering::Relaxed), 1, "exactly one entry may land");
        assert_eq!(q.evidence_of("mallory"), 1);
        assert!(!q.is_open("mallory"), "one piece of evidence must not trip a threshold of 3");
    }
}
