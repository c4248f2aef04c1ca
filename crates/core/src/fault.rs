//! Typed pass faults: the single error route for "a pass broke the IR".
//!
//! §4.2 of the paper concedes that heuristic passes occasionally *degrade*
//! code; this reproduction additionally guarantees they never *break* it.
//! Every way a pass invocation can go wrong — a panic, a structural
//! verifier failure, a new lint violation — is captured as a [`PassFault`]
//! naming the pass, the function, and the evidence. Debug and release
//! builds share this one route: the debug-build verification in
//! [`crate::pipeline`] and [`crate::stages`] produces a `PassFault` and
//! only then panics with its rendering, while the sandbox in
//! `epre-harness` records the same type and rolls the function back.

use std::fmt;

use epre_lint::Diagnostic;
use epre_passes::BudgetExceeded;

/// What went wrong when a pass ran.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// The pass panicked; the payload is the panic message when it was a
    /// string, or a placeholder otherwise.
    Panic(String),
    /// The structural verifier rejected the pass's output.
    Verify(String),
    /// The lint suite found new error-severity violations in the pass's
    /// output (the diff against the pre-pass report).
    Lint(Vec<Diagnostic>),
    /// The pass ran out of its resource budget (deadline, iteration cap,
    /// or growth cap) and was stopped at a cooperative checkpoint.
    Budget(BudgetExceeded),
}

/// A contained failure of one pass invocation on one function.
#[derive(Debug, Clone)]
pub struct PassFault {
    /// The pass (or pipeline stage) being blamed.
    pub pass: String,
    /// The function it was transforming.
    pub function: String,
    /// The evidence.
    pub kind: FaultKind,
}

impl PassFault {
    /// A fault from a caught panic payload.
    pub fn panic(pass: impl Into<String>, function: impl Into<String>, payload: String) -> Self {
        PassFault { pass: pass.into(), function: function.into(), kind: FaultKind::Panic(payload) }
    }

    /// A fault from a structural verifier rejection.
    pub fn verify(pass: impl Into<String>, function: impl Into<String>, error: String) -> Self {
        PassFault { pass: pass.into(), function: function.into(), kind: FaultKind::Verify(error) }
    }

    /// A fault from new lint violations.
    pub fn lint(
        pass: impl Into<String>,
        function: impl Into<String>,
        errors: Vec<Diagnostic>,
    ) -> Self {
        PassFault { pass: pass.into(), function: function.into(), kind: FaultKind::Lint(errors) }
    }

    /// A fault from an exhausted resource budget.
    pub fn budget(
        pass: impl Into<String>,
        function: impl Into<String>,
        exceeded: BudgetExceeded,
    ) -> Self {
        PassFault {
            pass: pass.into(),
            function: function.into(),
            kind: FaultKind::Budget(exceeded),
        }
    }

    /// Short label for the fault category, for report summaries.
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            FaultKind::Panic(_) => "panic",
            FaultKind::Verify(_) => "verify",
            FaultKind::Lint(_) => "lint",
            FaultKind::Budget(_) => "budget",
        }
    }
}

impl fmt::Display for PassFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FaultKind::Panic(p) => {
                write!(f, "pass `{}` panicked in function `{}`: {p}", self.pass, self.function)
            }
            FaultKind::Verify(e) => {
                write!(f, "pass `{}` broke function `{}`: {e}", self.pass, self.function)
            }
            FaultKind::Lint(errors) => {
                writeln!(
                    f,
                    "pass `{}` broke function `{}`: {} new lint violation(s)",
                    self.pass,
                    self.function,
                    errors.len()
                )?;
                for d in errors {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            FaultKind::Budget(e) => {
                write!(
                    f,
                    "pass `{}` exceeded its budget in function `{}`: {e}",
                    self.pass, self.function
                )
            }
        }
    }
}

impl std::error::Error for PassFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_pass_and_function() {
        let f = PassFault::verify("gvn", "foo", "dangling block b9".into());
        let s = format!("{f}");
        assert!(s.contains("`gvn`") && s.contains("`foo`") && s.contains("b9"), "{s}");
        assert_eq!(f.kind_label(), "verify");
        assert_eq!(PassFault::panic("pre", "f", "boom".into()).kind_label(), "panic");
        assert_eq!(PassFault::lint("dce", "f", vec![]).kind_label(), "lint");
    }
}
