#![cfg(feature = "prop-tests")]
// Gated: requires the proptest dev-dependency, which the offline build
// environment cannot fetch. Restore it in Cargo.toml and build with
// `--features prop-tests` to run these.

//! Property test for the lint framework (the pipeline-invariant
//! contract): over arbitrary well-formed generated functions, every
//! optimization level's pass sequence must keep the function lint-clean
//! after **every single pass** — checked with the governed sandbox under
//! fail-fast, the fingerprint-diffing driver behind `epre opt
//! --verify-each`, so a failure blames the offending pass by name in the
//! counterexample.

use proptest::prelude::*;

use epre::{Budget, OptLevel, Optimizer};
use epre_harness::{run_passes_governed, FaultPolicy};
use epre_ir::Module;
use epre_lint::{lint_function, LintOptions};

mod common;
use common::{build, step_strategy};

const ALL_LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The generator only builds invariant-clean functions, and no pass of
    /// any level may introduce an error-severity lint finding.
    #[test]
    fn every_pass_of_every_level_stays_lint_clean(
        steps in prop::collection::vec(step_strategy(), 0..24),
        diamond in any::<bool>(),
    ) {
        let f0 = build(&steps, diamond);
        let before = lint_function(&f0, &LintOptions::invariants_only());
        prop_assert!(!before.has_errors(), "generator produced bad IR:\n{before}");
        for level in ALL_LEVELS {
            let mut f = f0.clone();
            let passes = Optimizer::new(level).passes();
            let r = run_passes_governed(
                &mut f,
                &passes,
                FaultPolicy::FailFast,
                &LintOptions::invariants_only(),
                &Budget::UNLIMITED,
                None,
            );
            prop_assert!(r.is_ok(), "{}: {}", level.label(), r.unwrap_err());
        }
    }

    /// The full rule set (hygiene + dead values + the redundancy auditor)
    /// runs without crashing on the *final* output of every pipeline and
    /// reports no error-severity findings (hygiene/audit findings are
    /// warnings by design — e.g. Baseline runs no GVN and may leave
    /// redundancies for the auditor to flag).
    #[test]
    fn final_output_passes_the_full_audit(
        steps in prop::collection::vec(step_strategy(), 0..24),
        diamond in any::<bool>(),
    ) {
        let module = Module { functions: vec![build(&steps, diamond)], data_words: 0 };
        for level in ALL_LEVELS {
            let out = Optimizer::new(level).optimize(&module);
            let f = &out.functions[0];
            let report = lint_function(f, &LintOptions::default());
            prop_assert!(
                !report.has_errors(),
                "{} output has lint errors:\n{report}\n{f}",
                level.label()
            );
        }
    }
}
