//! The textual ILOC format round-trips on every module the suite makes:
//! each routine's front-end module, its optimized output at all five
//! levels, and the fused 108-function suite module. For each module `m`
//! printed as `t`, `print(parse(t)) == t` and `parse(t) == m`, so an
//! optimizer run as a chain of text filters (or `epre serve` replaying a
//! cached body) sees the IR that was printed.
//!
//! The text names registers, not register slots. An optimized function
//! can keep slots that no parameter or instruction names any more (a
//! dead temporary's, say); the text leaves them out, so they parse back
//! untyped (`Int`), or not at all past the last named register. For such
//! a module, `parse(t) == m` holds once both sides drop those slots with
//! `Function::compact_regs`.

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_ir::{parse_module, Function, Module};

const LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

/// Check both round trips on `m`; returns how many register slots `m`
/// has that its text does not name.
fn assert_round_trips(what: &str, m: &Module) -> usize {
    let text = m.to_string();
    let mut parsed =
        parse_module(&text).unwrap_or_else(|e| panic!("{what}: printed text refused: {e}"));
    assert_eq!(parsed.to_string(), text, "{what}: print(parse(t)) differs from t");
    let mut named = m.clone();
    let unnamed: usize = named.functions.iter_mut().map(Function::compact_regs).sum();
    if unnamed == 0 {
        assert!(parsed == *m, "{what}: parse(print(m)) differs from m");
    } else {
        for f in &mut parsed.functions {
            f.compact_regs();
        }
        assert!(
            parsed == named,
            "{what}: parse(print(m)) differs from m beyond its {unnamed} unnamed register slot(s)"
        );
    }
    unnamed
}

#[test]
fn every_suite_module_round_trips_through_text() {
    let (mut modules, mut with_unnamed_slots) = (0, 0);
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        let unnamed = assert_round_trips(&format!("{} front end", r.name), &m);
        assert_eq!(unnamed, 0, "{}: the front end names every register it makes", r.name);
        for level in LEVELS {
            let out = Optimizer::new(level).optimize(&m);
            let what = format!("{} at {}", r.name, level.label());
            with_unnamed_slots += usize::from(assert_round_trips(&what, &out) > 0);
        }
        modules += 1 + LEVELS.len();
    }
    assert_eq!(modules, 300, "50 routines x (front end + 5 levels)");
    assert_eq!(assert_round_trips("fused suite module", &epre_suite::fused_module()), 0);
    println!("{with_unnamed_slots} of 250 optimized modules keep unnamed register slots");
}
