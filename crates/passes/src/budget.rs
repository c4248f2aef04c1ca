//! Resource budgets for pass invocations: wall-clock deadlines,
//! fixed-point iteration caps, and instruction-growth ratio caps.
//!
//! The paper's optimizer is "a sequence of passes, where each pass is a
//! Unix filter" — and a filter that never terminates, or that floods its
//! output, wedges the whole pipe. Every fixed-point loop in this
//! workspace (`dce`, `coalesce`, `clean`, `sccp`, `gvn`, `pre`,
//! `reassoc`) therefore carries a *cooperative checkpoint*: once per
//! iteration it asks its [`Meter`] whether the invocation is still inside
//! budget, and stops with a typed [`BudgetExceeded`] instead of spinning.
//! Code growth is treated as a first-class safety property, not a
//! nicety: speculative placement and distribution can legitimately grow
//! code, so the cap is a *ratio* against the instruction count at pass
//! entry rather than an absolute size.
//!
//! Two of the three limits — iterations and growth — are exact and
//! deterministic: equal inputs trip them at equal points regardless of
//! machine load, which is what lets the fault-injection campaign and the
//! `--jobs` equivalence tests assert byte-identical behaviour. The
//! wall-clock deadline is inherently load-dependent and is therefore off
//! by default; it exists for operators (`--deadline-ms`) and for the
//! harness watchdog, not for reproducible pipelines.

use std::fmt;
use std::time::{Duration, Instant};

use epre_ir::Function;

/// Which budget dimension ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock deadline passed.
    WallClock,
    /// The fixed-point iteration cap was reached.
    Iterations,
    /// The function grew past the allowed ratio of its entry size.
    Growth,
}

impl BudgetKind {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BudgetKind::WallClock => "wall-clock",
            BudgetKind::Iterations => "iterations",
            BudgetKind::Growth => "growth",
        }
    }
}

/// A pass invocation ran out of budget and was stopped at a cooperative
/// checkpoint.
///
/// `spent`/`limit` share the dimension's unit: milliseconds for
/// [`BudgetKind::WallClock`], iterations for [`BudgetKind::Iterations`],
/// static operations for [`BudgetKind::Growth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The dimension that ran out.
    pub kind: BudgetKind,
    /// What the invocation had consumed when it was stopped.
    pub spent: u64,
    /// The configured limit.
    pub limit: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unit = match self.kind {
            BudgetKind::WallClock => "ms",
            BudgetKind::Iterations => "iteration(s)",
            BudgetKind::Growth => "op(s)",
        };
        write!(
            f,
            "{} budget exceeded: spent {} {unit} of {} allowed",
            self.kind.label(),
            self.spent,
            self.limit
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Resource limits for one pass invocation. `None` in any dimension means
/// that dimension is unlimited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Wall-clock allowance per pass invocation.
    pub deadline: Option<Duration>,
    /// Cooperative-checkpoint (fixed-point iteration) cap per invocation.
    pub max_iters: Option<u64>,
    /// Instruction-growth ratio cap relative to the static operation count
    /// at pass entry (small functions get an absolute floor of
    /// [`Budget::GROWTH_FLOOR_OPS`] before the ratio applies).
    pub max_growth: Option<f64>,
}

impl Budget {
    /// Entry size floor for the growth cap: a 2-op function legitimately
    /// quadruples during SSA round trips, so ratios are taken against at
    /// least this many operations.
    pub const GROWTH_FLOOR_OPS: u64 = 16;

    /// No limits in any dimension — the plain pipeline's default, with
    /// exactly the pre-budget behaviour.
    pub const UNLIMITED: Budget = Budget { deadline: None, max_iters: None, max_growth: None };

    /// The harness default: deterministic caps generous enough that no
    /// healthy pass in the workspace comes within an order of magnitude of
    /// them, tight enough that a non-terminating or code-exploding pass is
    /// stopped in milliseconds. No wall-clock deadline (that dimension is
    /// load-dependent; see the module docs) — operators opt in via
    /// `--deadline-ms`.
    pub fn governed() -> Budget {
        Budget { deadline: None, max_iters: Some(200_000), max_growth: Some(64.0) }
    }

    /// This budget with every limit doubled — what `RetryThenSkip` grants
    /// a faulting pass on its second (fresh-clone) attempt, so a pass that
    /// merely brushed a cap gets a real second chance while a divergent
    /// one still cannot spin forever.
    pub fn relaxed(&self) -> Budget {
        Budget {
            deadline: self.deadline.map(|d| d.saturating_mul(2)),
            max_iters: self.max_iters.map(|n| n.saturating_mul(2)),
            max_growth: self.max_growth.map(|g| g * 2.0),
        }
    }

    /// Is any dimension limited?
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_iters.is_some() || self.max_growth.is_some()
    }

    /// Start metering one pass invocation over `f`, capturing the entry
    /// size the growth ratio is measured against.
    pub fn start(&self, f: &Function) -> Meter {
        Meter {
            budget: *self,
            started: Instant::now(),
            entry_ops: (f.static_op_count() as u64).max(Self::GROWTH_FLOOR_OPS),
            ticks: 0,
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::UNLIMITED
    }
}

/// How many ticks pass between wall-clock checks. Querying the OS clock
/// on every tick would dominate tight worklist loops; iteration and
/// growth checks stay exact on every tick.
const DEADLINE_STRIDE: u64 = 64;

/// The running meter of one pass invocation.
///
/// Created by [`Budget::start`]; fixed-point loops call [`Meter::tick`]
/// once per iteration, and opaque passes are held to the growth and
/// deadline dimensions after the fact via [`Meter::finish`].
#[derive(Debug, Clone)]
pub struct Meter {
    budget: Budget,
    started: Instant,
    entry_ops: u64,
    ticks: u64,
}

impl Meter {
    /// Cooperative checkpoint: call once per fixed-point iteration.
    ///
    /// Checks the iteration cap and the growth ratio exactly on every
    /// tick (both deterministic), and the wall-clock deadline every
    /// `DEADLINE_STRIDE` ticks.
    ///
    /// # Errors
    /// The first exceeded dimension, as a [`BudgetExceeded`].
    pub fn tick(&mut self, f: &Function) -> Result<(), BudgetExceeded> {
        self.ticks += 1;
        if let Some(limit) = self.budget.max_iters {
            if self.ticks > limit {
                return Err(BudgetExceeded {
                    kind: BudgetKind::Iterations,
                    spent: self.ticks,
                    limit,
                });
            }
        }
        self.check_growth(f)?;
        if self.ticks.is_multiple_of(DEADLINE_STRIDE) {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Exact growth check against the entry size.
    ///
    /// # Errors
    /// [`BudgetExceeded`] with kind [`BudgetKind::Growth`].
    pub fn check_growth(&self, f: &Function) -> Result<(), BudgetExceeded> {
        if let Some(ratio) = self.budget.max_growth {
            let limit = (self.entry_ops as f64 * ratio) as u64;
            let spent = f.static_op_count() as u64;
            if spent > limit {
                return Err(BudgetExceeded { kind: BudgetKind::Growth, spent, limit });
            }
        }
        Ok(())
    }

    /// Forced wall-clock check (no stride).
    ///
    /// # Errors
    /// [`BudgetExceeded`] with kind [`BudgetKind::WallClock`].
    pub fn check_deadline(&self) -> Result<(), BudgetExceeded> {
        if let Some(deadline) = self.budget.deadline {
            let elapsed = self.started.elapsed();
            if elapsed > deadline {
                return Err(BudgetExceeded {
                    kind: BudgetKind::WallClock,
                    spent: elapsed.as_millis() as u64,
                    limit: deadline.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Post-hoc check for passes without cooperative checkpoints: growth
    /// and deadline, after the pass has already run. A pass that finished
    /// but blew its budget is still *reported* over budget — a deadline is
    /// a promise about latency, and a growth cap a promise about output
    /// size, whether or not the pass eventually returned.
    ///
    /// # Errors
    /// The first exceeded dimension, as a [`BudgetExceeded`].
    pub fn finish(&self, f: &Function) -> Result<(), BudgetExceeded> {
        self.check_growth(f)?;
        self.check_deadline()
    }

    /// Ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{Block, Terminator};

    fn tiny() -> Function {
        let mut f = Function::new("t", None);
        f.add_block(Block::new(Terminator::Return { value: None }));
        f
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let f = tiny();
        let mut m = Budget::UNLIMITED.start(&f);
        for _ in 0..10_000 {
            m.tick(&f).unwrap();
        }
        m.finish(&f).unwrap();
    }

    #[test]
    fn iteration_cap_trips_exactly() {
        let f = tiny();
        let b = Budget { max_iters: Some(5), ..Budget::UNLIMITED };
        let mut m = b.start(&f);
        for _ in 0..5 {
            m.tick(&f).unwrap();
        }
        let e = m.tick(&f).unwrap_err();
        assert_eq!(e.kind, BudgetKind::Iterations);
        assert_eq!(e.spent, 6);
        assert_eq!(e.limit, 5);
        assert!(format!("{e}").contains("iterations budget exceeded"), "{e}");
    }

    #[test]
    fn growth_cap_measures_ratio_with_floor() {
        let mut f = tiny();
        let b = Budget { max_growth: Some(2.0), ..Budget::UNLIMITED };
        let mut m = b.start(&f); // entry floor: 16 ops -> limit 32
                                 // Grow the function past 32 static ops.
        for _ in 0..40 {
            f.add_block(Block::new(Terminator::Return { value: None }));
        }
        let e = m.tick(&f).unwrap_err();
        assert_eq!(e.kind, BudgetKind::Growth);
        assert_eq!(e.limit, 2 * Budget::GROWTH_FLOOR_OPS);
        assert_eq!(e.spent, 41);
    }

    #[test]
    fn deadline_trips_on_forced_check() {
        let f = tiny();
        let b = Budget { deadline: Some(Duration::ZERO), ..Budget::UNLIMITED };
        let m = b.start(&f);
        std::thread::sleep(Duration::from_millis(2));
        let e = m.check_deadline().unwrap_err();
        assert_eq!(e.kind, BudgetKind::WallClock);
    }

    #[test]
    fn relaxed_doubles_every_dimension() {
        let b = Budget {
            deadline: Some(Duration::from_millis(100)),
            max_iters: Some(10),
            max_growth: Some(4.0),
        };
        let r = b.relaxed();
        assert_eq!(r.deadline, Some(Duration::from_millis(200)));
        assert_eq!(r.max_iters, Some(20));
        assert_eq!(r.max_growth, Some(8.0));
        assert!(!Budget::UNLIMITED.is_limited());
        assert!(r.is_limited());
    }

    #[test]
    fn governed_defaults_are_finite() {
        let g = Budget::governed();
        assert!(g.max_iters.is_some() && g.max_growth.is_some());
        assert!(g.deadline.is_none(), "deadline is opt-in (nondeterministic)");
    }
}
