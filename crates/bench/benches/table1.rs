//! Regenerates **Table 1** of the paper: dynamic operation counts for the
//! 50-routine suite at the four optimization levels, with the paper's
//! improvement columns. Absolute numbers differ from the paper (different
//! sources, different workload sizes); the *shape* — large `partial`
//! gains, further mixed-but-positive `new` gains, occasional small
//! degradations — is the reproduction target.
//!
//! Usage: `cargo bench -p epre-bench --bench table1`

use epre::OptLevel;
use epre_bench::{dynamic_count, improvement};
use epre_suite::all_routines;

fn main() {
    println!("Table 1: Experimental Results (dynamic ILOC operation counts)");
    println!();
    println!(
        "{:8} {:>10} {:>10} {:>6} {:>10} {:>6} {:>12} {:>6} {:>6} {:>6}",
        "routine", "baseline", "partial", "", "reassoc", "", "distribution", "", "new", "total"
    );
    let mut rows: Vec<(String, u64, u64, u64, u64)> = Vec::new();
    for r in all_routines() {
        let base = dynamic_count(&r, OptLevel::Baseline);
        let part = dynamic_count(&r, OptLevel::Partial);
        let reas = dynamic_count(&r, OptLevel::Reassociation);
        let dist = dynamic_count(&r, OptLevel::Distribution);
        rows.push((r.name.to_string(), base, part, reas, dist));
    }
    // The paper sorts by the `new` column, descending.
    rows.sort_by(|a, b| {
        let na = (a.2 as f64 - a.4 as f64) / a.2 as f64;
        let nb = (b.2 as f64 - b.4 as f64) / b.2 as f64;
        nb.partial_cmp(&na).unwrap()
    });
    let (mut tb, mut tp, mut tr, mut td) = (0u64, 0u64, 0u64, 0u64);
    for (name, base, part, reas, dist) in &rows {
        tb += base;
        tp += part;
        tr += reas;
        td += dist;
        println!(
            "{:8} {:>10} {:>10} {:>6} {:>10} {:>6} {:>12} {:>6} {:>6} {:>6}",
            name,
            base,
            part,
            improvement(*base, *part),
            reas,
            improvement(*part, *reas),
            dist,
            improvement(*reas, *dist),
            improvement(*part, *dist),
            improvement(*base, *dist),
        );
    }
    println!();
    println!(
        "{:8} {:>10} {:>10} {:>6} {:>10} {:>6} {:>12} {:>6} {:>6} {:>6}",
        "TOTAL",
        tb,
        tp,
        improvement(tb, tp),
        tr,
        improvement(tp, tr),
        td,
        improvement(tr, td),
        improvement(tp, td),
        improvement(tb, td),
    );
    println!();
    println!(
        "paper shape check: partial ≫ baseline ({}), new > 0 in aggregate ({})",
        improvement(tb, tp),
        improvement(tp, td)
    );
}
