//! # epre-lint — a collect-all diagnostics engine for `epre-ir`
//!
//! The paper's methodology treats every optimization pass as a
//! well-behaved filter over ILOC. This crate makes that checkable: a
//! registry of static analysis rules with **stable codes** (see
//! [`rules::Rule`]), each finding carrying a severity and a precise
//! location, accumulated into a [`diag::Report`] that renders as
//! compiler-style text (the `epre` CLI renders its JSON form).
//!
//! Rule families:
//!
//! * **structural** (`L001`–`L008`) — the `epre-ir` verifier in
//!   collect-all form: block targets, register allocation, types,
//!   φ placement;
//! * **SSA** (`L010`–`L012`) — single assignment and dominance of uses,
//!   for functions carrying φ-nodes;
//! * **data-flow** (`L020`) — a must-defined reaching-definitions
//!   use-before-def check for plain (non-SSA) ILOC;
//! * **CFG hygiene** (`L030`–`L032`) — unreachable blocks, unsplit
//!   critical edges, dead pure computations (backed by the
//!   [`purity`] classifier);
//! * **quality audit** (`L040`) — the *redundancy auditor*: recomputes
//!   availability over GVN congruence classes and flags fully-redundant
//!   expressions the optimizer left behind.
//!
//! The intended consumers are the `epre lint` CLI and the pass sandbox
//! of `epre-harness` (behind `epre opt --verify-each` and
//! `--best-effort`), which lints after every pass and blames the pass
//! that introduced each new violation.
//!
//! ```
//! use epre_ir::parse_module;
//! use epre_lint::{lint_module, LintOptions};
//!
//! let m = parse_module(
//!     "module data 0\n\
//!      function f(r0:i) -> i\n\
//!      block b0:\n  r1 <- add.i r0, r0\n  ret r1\n\
//!      end\n",
//! )
//! .unwrap();
//! let report = lint_module(&m, &LintOptions::default());
//! assert!(report.is_clean());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::all)]

pub mod checks;
pub mod diag;
pub mod engine;
pub mod purity;
pub mod rules;

pub use diag::{Diagnostic, Location, Report, Severity};
pub use engine::{lint_function, lint_module, LintOptions};
pub use purity::{effect_of, is_removable, Effect};
pub use rules::Rule;
