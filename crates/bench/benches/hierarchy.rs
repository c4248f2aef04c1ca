//! Regenerates the §5.3 hierarchy experimentally: on every suite routine,
//! with the name space canonicalized the way §5.3 assumes (reassociation
//! + GVN first),
//!
//! 1. dominator-scoped CSE (Alpern–Wegman–Zadeck's suggestion) removes a
//!    subset of the redundancies,
//! 2. available-expressions CSE removes all full redundancies,
//! 3. PRE removes full and partial redundancies,
//!
//! so dynamic counts must satisfy `dominator ≥ avail ≥ pre` everywhere.
//! An extra column adds local value numbering on top of PRE (the pass the
//! paper lists as missing).
//!
//! Usage: `cargo bench -p epre-bench --bench hierarchy`

use epre_frontend::NamingMode;
use epre_interp::Interpreter;
use epre_ir::Function;
use epre_passes::cse::{self, CseScope};
use epre_passes::passes::{Clean, Coalesce, ConstProp, Dce, Gvn, Lvn, Peephole, Pre, Reassociate};
use epre_passes::Pass;
use epre_suite::all_routines;

#[derive(Copy, Clone)]
enum Variant {
    DomCse,
    AvailCse,
    Pre,
    /// PRE without the local-value-numbering leveler: shows the §4.1
    /// "missing pass" effect rather than the hierarchy.
    PreNoLvn,
}

fn optimize(f: &mut Function, v: Variant) {
    Reassociate { distribute: true }.run(f);
    Gvn.run(f);
    // Local value numbering runs in every variant so the comparison
    // isolates the *global* capabilities: the §5.3 hierarchy is about
    // which global redundancies each approach can see, while within-block
    // duplicates (which forward propagation creates en masse) would
    // otherwise swamp the signal.
    match v {
        Variant::DomCse => {
            cse::run(f, CseScope::Dominators);
            Lvn.run(f);
        }
        Variant::AvailCse => {
            cse::run(f, CseScope::Available);
            Lvn.run(f);
        }
        Variant::Pre => {
            Pre.run(f);
            Lvn.run(f);
        }
        Variant::PreNoLvn => {
            Pre.run(f);
        }
    }
    ConstProp.run(f);
    Peephole.run(f);
    Dce.run(f);
    Coalesce.run(f);
    Clean.run(f);
}

fn count(routine: &epre_suite::Routine, v: Variant) -> u64 {
    let mut m = routine.compile(NamingMode::Disciplined).unwrap();
    for f in &mut m.functions {
        optimize(f, v);
    }
    let mut i = Interpreter::new(&m);
    i.run(routine.entry, &[]).unwrap_or_else(|e| panic!("{}: {e}", routine.name));
    i.counts().total
}

fn main() {
    println!("§5.3 hierarchy: dominator CSE ⊇ AVAIL CSE ⊇ PRE (dynamic counts)");
    println!();
    println!(
        "{:8} {:>10} {:>10} {:>10} {:>12}",
        "routine", "dom-cse", "avail-cse", "pre", "pre(no lvn)"
    );
    let mut violations = 0;
    let (mut td, mut ta, mut tp, mut tl) = (0u64, 0u64, 0u64, 0u64);
    for r in all_routines() {
        let d = count(&r, Variant::DomCse);
        let a = count(&r, Variant::AvailCse);
        let p = count(&r, Variant::Pre);
        let l = count(&r, Variant::PreNoLvn);
        td += d;
        ta += a;
        tp += p;
        tl += l;
        let mark = if d >= a && a >= p { "" } else { "  <-- hierarchy violated" };
        if !mark.is_empty() {
            violations += 1;
        }
        println!("{:8} {:>10} {:>10} {:>10} {:>12}{mark}", r.name, d, a, p, l);
    }
    println!();
    println!("{:8} {:>10} {:>10} {:>10} {:>12}", "TOTAL", td, ta, tp, tl);
    println!();
    if violations == 0 {
        println!("hierarchy holds on all routines: dominator ≥ avail ≥ pre");
    } else {
        println!("hierarchy violated on {violations} routines");
        std::process::exit(1);
    }
}
