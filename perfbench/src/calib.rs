//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by tens of percent over minutes with no change to the program: on a
//! 2-vCPU VM, the median `opt-suite` iteration moved between 114 and
//! 194 ms across back-to-back runs of the same binary. A pure arithmetic
//! loop stayed within 8% meanwhile, so the drift is in the memory system
//! and allocator, and longer runs do not average it away.
//!
//! Every timed operation is therefore paired with a fixed calibration
//! kernel run right next to it, and reported times are wall times scaled
//! by how fast the host ran the kernel at that moment:
//!
//! ```text
//! reported_ms = wall_ms * REFERENCE_MS / kernel_ms
//! ```
//!
//! `kernel_ms` is the median of the most recent [`WINDOW`] kernel runs.
//! The kernel is the benchmark's own code and never calls the program: a
//! change to the program moves the operation's time and leaves the
//! kernel's alone.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel's wall time on a quiet host, milliseconds: about its
/// median when a 2-vCPU VM ran `opt-suite` fastest. It fixes the unit of
/// the scaled times and must not change between the runs compared.
pub const REFERENCE_MS: f64 = 0.65;

/// Kernel runs the scale is taken over.
pub const WINDOW: usize = 32;

fn step(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// One fixed unit of the allocator traffic of rewriting IR: many small
/// vectors built, cloned and dropped, and keyed by formatted names in an
/// ordered map. Of the candidate kernels timed next to `opt-suite`
/// iterations over ten runs while the host's speed moved by 37% — this
/// one, ordered-map probes with string sorting and a 128 KiB permutation
/// walk, a 4 MiB permutation walk, and hash-table probes — this one
/// tracked the iterations best: scaled per-run medians spread 2.6% from
/// lowest to highest, against 12% for the map-and-walk kernel.
fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let operands: Vec<Vec<u32>> = (0..1800u32)
        .map(|i| {
            x = step(x);
            (0..(x % 12) as u32 + 1).map(|j| j ^ i).collect()
        })
        .collect();
    let copy = operands.clone();
    let mut by_name = BTreeMap::new();
    for (i, o) in copy.iter().enumerate() {
        by_name.insert(format!("v{}_{}", o.len(), i % 700), i);
    }
    (by_name.len() + operands.len()) as u64
}

/// Run the kernel once; its wall time, milliseconds.
fn time_kernel() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel timings, and the scale they give.
#[derive(Default)]
pub struct Calibrator {
    recent: VecDeque<f64>,
    all: Vec<f64>,
}

impl Calibrator {
    /// Run the kernel `reps` times, keeping each run's wall time.
    pub fn sample(&mut self, reps: usize) {
        for _ in 0..reps {
            self.record(time_kernel());
        }
    }

    /// Run the kernel `reps` times on each of the host's CPUs at once,
    /// keeping every run's wall time, so the scale reflects the CPU a
    /// request lands on whichever it is.
    pub fn sample_all(&mut self, reps: usize) {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let runs: Vec<Vec<f64>> = std::thread::scope(|s| {
            let others: Vec<_> = (1..cpus)
                .map(|_| s.spawn(move || (0..reps).map(|_| time_kernel()).collect::<Vec<_>>()))
                .collect();
            let mut runs = vec![(0..reps).map(|_| time_kernel()).collect::<Vec<_>>()];
            runs.extend(others.into_iter().map(|h| h.join().expect("kernel thread")));
            runs
        });
        for ms in runs.into_iter().flatten() {
            self.record(ms);
        }
    }

    /// Keep one kernel run's wall time, milliseconds.
    pub fn record(&mut self, kernel_ms: f64) {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(kernel_ms);
        self.all.push(kernel_ms);
    }

    /// A wall time (in any unit) at the reference host's speed, by the
    /// recent kernel runs.
    ///
    /// # Panics
    /// Before the first kernel run is recorded.
    pub fn scale(&self, wall: f64) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        wall * REFERENCE_MS / median(&recent).expect("sampled before scaling")
    }

    /// The median of every kernel run so far, milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.all).unwrap_or(f64::NAN)
    }

    /// A human-readable line relating the scaled times to `wall_ms`, the
    /// unscaled times of the same operations.
    pub fn line(&self, wall_ms: &[f64]) -> String {
        format!(
            "unscaled median {:.3} ms; calibration kernel median {:.4} ms, reference {REFERENCE_MS} ms",
            median(wall_ms).unwrap_or(f64::NAN),
            self.kernel_ms()
        )
    }
}
