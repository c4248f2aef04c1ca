//! The hand-broken IR corpus: each `corpus/*.iloc` file seeds exactly one
//! invariant violation, and the lint engine must report exactly the
//! expected rule code — no misses, no cascades, no collateral noise.

use epre_ir::parse_module;
use epre_lint::{lint_module, LintOptions, Severity};

/// Lint a corpus file and return `(distinct codes, has_errors)`.
fn lint(text: &str) -> (Vec<&'static str>, bool) {
    let m = parse_module(text).expect("corpus files are syntactically valid ILOC");
    let report = lint_module(&m, &LintOptions::default());
    (report.codes(), report.has_errors())
}

#[test]
fn phi_after_non_phi_fires_l005_only() {
    let (codes, errors) = lint(include_str!("corpus/phi_prefix.iloc"));
    assert_eq!(codes, vec!["L005"]);
    assert!(errors);
}

#[test]
fn use_before_def_fires_l020_only() {
    let (codes, errors) = lint(include_str!("corpus/use_before_def.iloc"));
    assert_eq!(codes, vec!["L020"]);
    assert!(errors);
}

#[test]
fn dangling_branch_target_fires_l002_only() {
    let (codes, errors) = lint(include_str!("corpus/dangling_target.iloc"));
    assert_eq!(codes, vec!["L002"]);
    assert!(errors);
}

#[test]
fn double_ssa_definition_fires_l010_only() {
    let text = include_str!("corpus/double_def.iloc");
    let (codes, errors) = lint(text);
    assert_eq!(codes, vec!["L010"]);
    assert!(errors);
    // First-definition-wins: the dominance rules must not cascade, so the
    // double definition is one diagnostic, not one per use.
    let m = parse_module(text).unwrap();
    let report = lint_module(&m, &LintOptions::default());
    assert_eq!(report.error_count(), 1, "{report}");
}

#[test]
fn unsplit_critical_edge_fires_l031_and_no_errors() {
    let (codes, errors) = lint(include_str!("corpus/critical_edge.iloc"));
    assert_eq!(codes, vec!["L031"]);
    assert!(!errors, "a critical edge is hygiene, not an invariant break");
}

#[test]
fn corpus_diagnostics_carry_locations() {
    let m = parse_module(include_str!("corpus/use_before_def.iloc")).unwrap();
    let report = lint_module(&m, &LintOptions::default());
    let d = &report.diagnostics[0];
    assert_eq!(d.severity(), Severity::Error);
    assert_eq!(d.location.function, "use_before_def");
    assert!(d.location.block.is_some());
}
