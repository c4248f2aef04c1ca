//! Golden oracle outcomes: the differential oracle's verdicts for every
//! suite routine at every level, function by function.
//!
//! Each line of `golden_oracle.txt` is `routine level function
//! comparisons inconclusive divergences`: the tally of comparing the
//! routine's unoptimized module with its optimized module under the
//! default [`OracleConfig`], restricted to one function. The oracle may
//! skip runs whose outcome it already knows, but it must never change a
//! tally; only the number of runs it makes may fall.

use std::collections::BTreeMap;

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_harness::{compare_function, compare_modules_detailed, OracleConfig};

const LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

/// Interpreter runs per level over the whole suite. Each of the 324
/// comparisons could take two runs (648), but the 51 nullary functions
/// draw three identical empty vectors and run once per side, and the
/// candidate does not run for the 3 distinct vectors whose reference runs
/// out of fuel (`tomcatv`'s kernel and driver, one `zeroin` vector).
const EXECUTIONS_PER_LEVEL: usize = 441;

fn golden() -> BTreeMap<(String, String, String), String> {
    include_str!("golden_oracle.txt")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(fields.len(), 6, "malformed golden line: {l}");
            let key = (fields[0].to_string(), fields[1].to_string(), fields[2].to_string());
            (key, fields[3..].join(" "))
        })
        .collect()
}

#[test]
fn suite_oracle_outcomes_match_the_golden_table() {
    let golden = golden();
    let cfg = OracleConfig::default();
    let mut seen = 0;
    let mut mismatches = Vec::new();
    for level in LEVELS {
        let mut executions = 0;
        for r in epre_suite::all_routines() {
            let m = r.compile(NamingMode::Disciplined).unwrap();
            let opt = Optimizer::new(level).optimize(&m);
            let whole = compare_modules_detailed(&m, &opt, &cfg);
            executions += whole.executions;
            let mut sum = [0; 4];
            for f in &m.functions {
                let part = compare_function(&m, &opt, &f.name, &cfg);
                sum[0] += part.comparisons;
                sum[1] += part.inconclusive;
                sum[2] += part.divergences.len();
                sum[3] += part.executions;
                let got = format!(
                    "{} {} {}",
                    part.comparisons,
                    part.inconclusive,
                    part.divergences.len()
                );
                let key = (r.name.to_string(), level.label().to_string(), f.name.clone());
                match golden.get(&key) {
                    Some(want) if *want == got => {}
                    want => mismatches
                        .push(format!("{} {} {} {got} (golden {want:?})", key.0, key.1, key.2)),
                }
                seen += 1;
            }
            assert_eq!(
                [whole.comparisons, whole.inconclusive, whole.divergences.len(), whole.executions],
                sum,
                "{} {}: the module's tally is the sum of its functions'",
                r.name,
                level.label()
            );
        }
        assert_eq!(executions, EXECUTIONS_PER_LEVEL, "interpreter runs at {}", level.label());
    }
    assert_eq!(seen, golden.len(), "one golden line per routine x level x function");
    assert!(
        mismatches.is_empty(),
        "oracle outcomes differ from the golden table:\n{}",
        mismatches.join("\n")
    );
}
