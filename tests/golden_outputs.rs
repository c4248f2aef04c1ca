//! Golden outputs: the optimizer's printed output for every suite routine
//! at every level, pinned by a 64-bit fingerprint.
//!
//! Each fingerprint is `epre_harness::fingerprint64` of the optimized
//! module's text after `Function::compact_regs` on every function, so the
//! list pins the output up to a monotone renumbering of registers: the
//! instructions, their order, the blocks and every register choice a pass
//! makes by comparing register numbers. `golden_outputs.txt` holds one
//! line per routine × level: `routine level fingerprint`.

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
    include_str!("golden_outputs.txt")
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
fn suite_outputs_match_the_golden_fingerprints() {
    let golden = golden();
    let mut seen = 0;
    let mut mismatches = Vec::new();
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        for level in LEVELS {
            let mut out = Optimizer::new(level).optimize(&m);
            for f in &mut out.functions {
                f.compact_regs();
            }
            let fp = fingerprint64(&out.to_string());
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
        "outputs differ from the golden list:\n{}",
        mismatches.join("\n")
    );
}
