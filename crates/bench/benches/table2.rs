//! Regenerates **Table 2** of the paper: static code expansion caused by
//! forward propagation, per routine and in total. The paper's totals give
//! an average expansion factor of 1.269; the same moderate-growth story
//! (most routines between 1.0× and 2.5×) should reproduce here.
//!
//! Usage: `cargo bench -p epre-bench --bench table2`

use epre_frontend::NamingMode;
use epre_passes::passes::Reassociate;
use epre_passes::Pass;
use epre_suite::all_routines;

fn main() {
    println!("Table 2: Code Expansion from Forward Propagation (static ILOC ops)");
    println!();
    println!("{:8} {:>8} {:>8} {:>10}", "routine", "before", "after", "expansion");
    let mut before_total = 0usize;
    let mut after_total = 0usize;
    for r in all_routines() {
        let mut module = r.compile(NamingMode::Disciplined).unwrap();
        let mut before = 0usize;
        let mut after = 0usize;
        for f in &mut module.functions {
            before += f.static_op_count();
            Reassociate { distribute: true }.run(f);
            after += f.static_op_count();
        }
        before_total += before;
        after_total += after;
        println!(
            "{:8} {:>8} {:>8} {:>10.3}",
            r.name,
            before,
            after,
            after as f64 / before.max(1) as f64
        );
    }
    println!();
    println!(
        "{:8} {:>8} {:>8} {:>10.3}",
        "totals",
        before_total,
        after_total,
        after_total as f64 / before_total.max(1) as f64
    );
    println!();
    println!("paper totals for comparison: 107475 -> 136377, factor 1.269");
}
