//! The benchmark's own statistics: medians, nearest-rank tail
//! percentiles, open-loop latency, and failure accounting.
//!
//! Nothing here touches the optimizer; the unit tests in
//! `tests/stats.rs` pin every rule the reported numbers depend on.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the "tail" is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the two middle values for an even count),
/// or `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `xs`: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// Returns `None` unless at least [`MIN_BEYOND`] samples lie beyond the
/// chosen rank, so a reported tail always rests on ten or more samples.
pub fn nearest_rank(xs: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 100.0) || xs.is_empty() {
        return None;
    }
    let n = xs.len();
    let rank = rank_of(n, p);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank_of(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// The fewest samples for which [`nearest_rank`] reports the `p`-th
/// percentile.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| n - rank_of(n, p) >= MIN_BEYOND)
        .expect("some sample count suffices")
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its answer arrived, all in seconds from the start of
/// the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time (never before `due`).
    pub sent: f64,
    /// Time the answer arrived.
    pub done: f64,
}

impl OpenLoopSample {
    /// Latency charged to the request: from its due time, not its send
    /// time, so a stall also counts against every request queued behind
    /// it (no coordinated omission).
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> f64 {
        self.sent - self.due
    }
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer checked out.
    Ok,
    /// Answered, but the answer was wrong.
    Wrong,
    /// The operation errored (transport failure, retries exhausted).
    Failed,
    /// The server refused the request (shed, quarantined, rejected).
    Refused,
    /// The answer arrived degraded: a pass faulted and was contained.
    Faulted,
}

/// Attempted and failed operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not end in [`Outcome::Ok`].
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    /// Failed operations over attempted ones (0 when nothing was tried).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
