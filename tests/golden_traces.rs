//! Golden traces: the telemetry trace of every suite routine at every
//! level, pinned by a 64-bit fingerprint.
//!
//! Each fingerprint is `epre_harness::fingerprint64` of the JSON Lines
//! export of `Optimizer::try_optimize_traced(&module, 1)`. The
//! trace carries what no output comparison sees: every pass's
//! self-reported counters and change flag, the static operation counts
//! and opcode provenance around each pass, and each function's closing
//! analysis-cache hit/miss totals. `golden_traces.txt` holds one line per
//! routine × level: `routine level fingerprint`.

use std::collections::BTreeMap;

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_harness::fingerprint64;

const LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

fn golden() -> BTreeMap<(String, String), u64> {
    include_str!("golden_traces.txt")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(fields.len(), 3, "malformed golden line: {l}");
            let fp = u64::from_str_radix(fields[2], 16).expect("hex fingerprint");
            ((fields[0].to_string(), fields[1].to_string()), fp)
        })
        .collect()
}

#[test]
fn suite_traces_match_the_golden_fingerprints() {
    let golden = golden();
    let mut seen = 0;
    let mut mismatches = Vec::new();
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        for level in LEVELS {
            let (_, trace) =
                Optimizer::new(level).try_optimize_traced(&m, 1).unwrap_or_else(|f| panic!("{f}"));
            let fp = fingerprint64(&trace.to_jsonl());
            let key = (r.name.to_string(), level.label().to_string());
            match golden.get(&key) {
                Some(&want) if want == fp => {}
                want => {
                    mismatches.push(format!("{} {} {fp:016x} (golden {want:x?})", key.0, key.1))
                }
            }
            seen += 1;
        }
    }
    assert_eq!(seen, 250, "50 routines x 5 levels");
    assert_eq!(golden.len(), 250, "one golden line per routine x level");
    assert!(
        mismatches.is_empty(),
        "traces differ from the golden list:\n{}",
        mismatches.join("\n")
    );
}
