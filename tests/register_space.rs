//! The register space after SSA round trips: SSA construction and the
//! passes that rebuild SSA (`reassociate`, `gvn`, `constprop`) leave no
//! allocated register unreferenced, and SSA destruction numbers its
//! cycle-breaking temporaries the same way on every run.

use std::collections::BTreeSet;

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_ir::Function;
use epre_ssa::{build_ssa, SsaOptions};

/// Does every allocated register of `f` appear in a parameter, an
/// instruction or a terminator? (Exactly when compaction has nothing to
/// drop.)
fn all_referenced(f: &Function) -> bool {
    f.clone().compact_regs() == 0
}

#[test]
fn ssa_round_trips_leave_every_register_referenced() {
    let mut checked = 0;
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        for level in OptLevel::PAPER_LEVELS {
            for f in &m.functions {
                let mut f = f.clone();
                for pass in Optimizer::new(level).passes() {
                    let rebuilds_ssa = matches!(
                        pass.name(),
                        "reassociate" | "reassociate+distribute" | "gvn" | "constprop"
                    );
                    if rebuilds_ssa {
                        let mut ssa = f.clone();
                        build_ssa(&mut ssa, SsaOptions { fold_copies: true });
                        assert!(
                            all_referenced(&ssa),
                            "{} {}: build_ssa before {}",
                            r.name,
                            f.name,
                            pass.name()
                        );
                    }
                    pass.run(&mut f);
                    if rebuilds_ssa {
                        assert!(all_referenced(&f), "{} {}: after {}", r.name, f.name, pass.name());
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 0);
}

/// Two loops, each swapping two reals through a temporary: SSA turns each
/// swap into a φ cycle whose destruction needs a temporary, so one
/// `destroy_ssa` call allocates two of them.
const TWO_SWAP_LOOPS: &str = "\
function swaps(n)
real swaps, a, b, c, d, t
integer n, i
begin
a = 1.0
b = 2.0
do i = 1, n
  t = a
  a = b
  b = t
enddo
c = 3.0
d = 4.0
do i = 1, n
  t = c
  c = d
  d = t
enddo
return a + 2.0 * b + 3.0 * c + 5.0 * d
end
";

#[test]
fn swap_loops_optimize_to_one_text_at_every_level_and_job_count() {
    let m = epre_frontend::compile(TWO_SWAP_LOOPS, NamingMode::Disciplined).unwrap();
    for level in OptLevel::PAPER_LEVELS {
        let opt = Optimizer::new(level);
        let mut texts = BTreeSet::new();
        for jobs in [1, 4] {
            for _ in 0..20 {
                texts.insert(opt.optimize_jobs(&m, jobs).to_string());
            }
        }
        assert_eq!(texts.len(), 1, "{} distinct outputs at {}", texts.len(), level.label());
    }
}
