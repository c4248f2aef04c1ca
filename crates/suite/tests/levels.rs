//! The suite-wide correctness gate behind Table 1: every routine, compiled
//! at every optimization level, must produce the same checksum (float
//! results within reassociation tolerance), and the dynamic counts must
//! show the paper's qualitative story in aggregate.

use epre::measure_module;
use epre_frontend::NamingMode;
use epre_suite::all_routines;

#[test]
fn all_levels_agree_on_every_routine() {
    for r in all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        // measure_module panics on cross-level disagreement.
        let ms = measure_module(&m, r.entry, &[]).unwrap_or_else(|e| panic!("{}: {e}", r.name));
        assert_eq!(ms.len(), 4, "{}", r.name);
        for w in &ms {
            assert!(w.counts.total > 0, "{}", r.name);
        }
    }
}

#[test]
fn pre_improves_aggregate_counts() {
    // Table 1's `partial` column: PRE alone gives large improvements —
    // 10%..70% per routine in the paper. Require a strict aggregate win
    // and that the vast majority of routines individually improve.
    let mut base_total = 0u64;
    let mut pre_total = 0u64;
    let mut improved = 0usize;
    let mut total = 0usize;
    for r in all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        let ms = measure_module(&m, r.entry, &[]).unwrap();
        base_total += ms[0].counts.total;
        pre_total += ms[1].counts.total;
        total += 1;
        if ms[1].counts.total < ms[0].counts.total {
            improved += 1;
        }
    }
    assert!(pre_total < base_total, "aggregate: partial {pre_total} vs baseline {base_total}");
    assert!(improved * 10 >= total * 8, "PRE improved only {improved}/{total} routines");
    let pct = 100.0 * (base_total - pre_total) as f64 / base_total as f64;
    assert!(pct > 10.0, "aggregate PRE improvement only {pct:.1}%");
}

#[test]
fn reassociation_family_wins_in_aggregate() {
    // Table 1's `new` column: reassociation + distribution + GVN on top of
    // PRE. Per-routine results are mixed (the paper has −12%..61%); the
    // aggregate must improve over `partial`.
    let mut pre_total = 0u64;
    let mut dist_total = 0u64;
    for r in all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        let ms = measure_module(&m, r.entry, &[]).unwrap();
        pre_total += ms[1].counts.total;
        dist_total += ms[3].counts.total;
    }
    assert!(dist_total < pre_total, "aggregate: distribution {dist_total} vs partial {pre_total}");
}

#[test]
fn simple_naming_tells_the_gvn_story() {
    // §2.2/§3.2: with naive (Simple) naming, plain PRE finds little; the
    // reassociation+GVN levels rebuild the name space, so they keep
    // working. Check on an array-heavy routine.
    let r = all_routines().into_iter().find(|r| r.name == "sgemv").unwrap();
    let m = r.compile(NamingMode::Simple).unwrap();
    let ms = measure_module(&m, r.entry, &[]).unwrap();
    let (base, part, _reas, dist) =
        (ms[0].counts.total, ms[1].counts.total, ms[2].counts.total, ms[3].counts.total);
    // GVN-based levels must recover what naive naming denies plain PRE.
    assert!(
        dist < part,
        "GVN+reassociation must beat plain PRE under Simple naming: {base} {part} {dist}"
    );
    let _ = base;
}

#[test]
fn optimization_never_lengthens_a_routine_pre_only() {
    // PRE's core guarantee (§2): it never lengthens an execution path.
    for r in all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        let ms = measure_module(&m, r.entry, &[]).unwrap();
        assert!(
            ms[1].counts.total <= ms[0].counts.total,
            "{}: partial {} > baseline {}",
            r.name,
            ms[1].counts.total,
            ms[0].counts.total
        );
    }
}
