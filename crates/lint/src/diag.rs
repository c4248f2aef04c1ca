//! Diagnostics: severities, locations, and the collect-all [`Report`].
//!
//! Every finding a lint rule produces is a [`Diagnostic`]: a stable
//! [`Rule`], a [`Location`] down to the instruction
//! where possible, and a human-readable message. A [`Report`] accumulates
//! them and renders compiler-style text; its fields are public, so
//! callers render other formats themselves (`epre lint --json`).

use std::fmt;

use epre_ir::BlockId;

use crate::rules::Rule;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: stylistic or optimization-opportunity notes that are
    /// normal in intermediate pipeline states (e.g. an unsplit critical
    /// edge).
    Info,
    /// Suspicious but not a broken invariant (e.g. a fully-redundant
    /// expression the optimizer missed, an unreachable block).
    Warning,
    /// A broken IR invariant: the program's meaning is undefined and any
    /// pass that produced this state has a bug.
    Error,
}

impl Severity {
    /// Lowercase label used in text and JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a finding points: always a function, usually a block, sometimes
/// an exact instruction index within the block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Location {
    /// Enclosing function name.
    pub function: String,
    /// Block, when the finding is block-local.
    pub block: Option<BlockId>,
    /// Instruction index within the block, when known.
    pub inst: Option<usize>,
}

impl Location {
    /// A function-level location.
    pub fn function(name: &str) -> Self {
        Location { function: name.to_string(), block: None, inst: None }
    }

    /// A block-level location.
    pub fn block(name: &str, block: BlockId) -> Self {
        Location { function: name.to_string(), block: Some(block), inst: None }
    }

    /// An instruction-level location.
    pub fn inst(name: &str, block: BlockId, inst: usize) -> Self {
        Location { function: name.to_string(), block: Some(block), inst: Some(inst) }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.function)?;
        if let Some(b) = self.block {
            write!(f, "/{b}")?;
            if let Some(i) = self.inst {
                write!(f, ".{i}")?;
            }
        }
        Ok(())
    }
}

/// One finding: a rule, a place, and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Where it fired.
    pub location: Location,
    /// Human-readable description of the specific violation.
    pub message: String,
}

impl Diagnostic {
    /// The severity, determined by the rule.
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }

    /// A stable identity string used for diffing reports between pipeline
    /// stages (pass blame): rule code + location + message.
    pub fn fingerprint(&self) -> String {
        format!("{}|{}|{}", self.rule.code(), self.location, self.message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}-{}] {}: {}",
            self.severity(),
            self.rule.code(),
            self.rule.slug(),
            self.location,
            self.message
        )
    }
}

/// An accumulating collection of diagnostics — the output of a lint run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in the order the rules produced them.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append a finding.
    pub fn push(&mut self, rule: Rule, location: Location, message: String) {
        self.diagnostics.push(Diagnostic { rule, location, message });
    }

    /// Append every finding of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// No findings at all (of any severity).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity() == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity() == Severity::Warning).count()
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity() == Severity::Error)
    }

    /// The distinct rule codes that fired, in first-occurrence order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for d in &self.diagnostics {
            if !out.contains(&d.rule.code()) {
                out.push(d.rule.code());
            }
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} finding(s)",
            self.error_count(),
            self.warning_count(),
            self.diagnostics.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_codes() {
        let mut r = Report::new();
        r.push(Rule::UseBeforeDef, Location::block("f", BlockId(2)), "use of r1".into());
        r.push(Rule::CriticalEdge, Location::block("f", BlockId(0)), "edge".into());
        r.push(Rule::UseBeforeDef, Location::block("f", BlockId(3)), "use of r2".into());
        assert_eq!(r.error_count(), 2);
        assert!(r.has_errors());
        assert_eq!(r.codes(), vec!["L020", "L031"]);
    }

    #[test]
    fn display_mentions_code_and_location() {
        let mut r = Report::new();
        r.push(Rule::TypeMismatch, Location::inst("f", BlockId(1), 4), "bad type".into());
        let text = format!("{r}");
        assert!(text.contains("error[L004-type-mismatch] f/b1.4: bad type"), "{text}");
    }
}
