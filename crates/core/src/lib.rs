//! # epre — Effective Partial Redundancy Elimination
//!
//! A faithful, complete reproduction of **Briggs & Cooper, "Effective
//! Partial Redundancy Elimination", PLDI 1994**: global reassociation and
//! partition-based global value numbering as *enabling transformations*
//! that make partial redundancy elimination dramatically more effective.
//!
//! This crate is the user-facing driver. It wires the passes of
//! [`epre_passes`] into the paper's four optimization levels
//! ([`OptLevel`]), runs them over ILOC modules produced by the
//! mini-FORTRAN front end ([`epre_frontend`]), and measures results with
//! the dynamic-operation-counting interpreter ([`epre_interp`]) — the same
//! metric as the paper's Table 1.
//!
//! ```
//! use epre::{Optimizer, OptLevel};
//! use epre_frontend::{compile, NamingMode};
//! use epre_interp::{Interpreter, Value};
//!
//! let src = "function foo(y, z)\n\
//!            real y, z, s, x\n\
//!            integer i\n\
//!            begin\n\
//!            s = 0\n\
//!            x = y + z\n\
//!            do i = x, 100\n\
//!              s = i + s + x\n\
//!            enddo\n\
//!            return s\nend\n";
//! let module = compile(src, NamingMode::Disciplined).unwrap();
//!
//! let baseline = Optimizer::new(OptLevel::Baseline).optimize(&module);
//! let pre = Optimizer::new(OptLevel::Partial).optimize(&module);
//!
//! let args = [Value::Float(1.0), Value::Float(2.0)];
//! let mut ib = Interpreter::new(&baseline);
//! let mut ip = Interpreter::new(&pre);
//! assert_eq!(ib.run("foo", &args).unwrap(), ip.run("foo", &args).unwrap());
//! // The whole point of the paper: fewer dynamic operations.
//! assert!(ip.counts().total < ib.counts().total);
//! ```

pub mod fault;
pub mod observer;
pub mod pipeline;
pub mod request;
pub mod shards;
pub mod stages;
pub mod stats;
pub mod timings;
pub mod trace;

pub use epre_passes::{Budget, BudgetExceeded, BudgetKind};
pub use fault::{FaultKind, PassFault};
pub use observer::{observe, PassObserver, PassRun};
pub use pipeline::{run_pass_budgeted, run_pass_cached, OptLevel, Optimizer};
pub use request::RequestBudget;
pub use shards::{catch_quiet, map_functions};
pub use stages::{try_run_staged, Stage, StagedOutput};
pub use stats::{measure, measure_module, Measurement};
pub use timings::{ModuleTimings, PassTiming};
pub use trace::opcode_histogram;
