//! Peephole's cost grows linearly with the length of a block: redefining
//! a register invalidates the environment entries that read it in O(1),
//! instead of scanning the whole block environment for them.

use std::time::{Duration, Instant};

use epre_analysis::AnalysisCache;
use epre_ir::{Function, FunctionBuilder, Ty};
use epre_passes::{peephole, Budget};

/// One block of `n` chained copies, `r{i+1} <- copy r{i}`, returning the
/// last: every copy is a definition, and the environment holds one copy
/// entry per register defined so far.
fn chained_copies(n: usize) -> Function {
    let mut b = FunctionBuilder::new("chain", Some(Ty::Int));
    let mut r = b.param(Ty::Int);
    for _ in 0..n {
        r = b.copy(r);
    }
    b.ret(Some(r));
    b.finish()
}

/// The fastest of five peephole runs over `n` chained copies.
fn peephole_time(n: usize) -> Duration {
    let f = chained_copies(n);
    (0..5)
        .map(|_| {
            let mut g = f.clone();
            let start = Instant::now();
            let out = peephole::run(&mut g, &mut AnalysisCache::new(), &Budget::UNLIMITED).unwrap();
            let elapsed = start.elapsed();
            // Every copy but the first, and the return, now read the
            // parameter.
            assert_eq!(out.rewrites, n as u64);
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
fn peephole_time_grows_linearly_with_block_length() {
    let ratio = peephole_time(8_000).as_secs_f64() / peephole_time(2_000).as_secs_f64();
    // Linear growth gives about 4; a scan of the environment per
    // definition gives about 16 and more.
    println!("4x the copies took {ratio:.1}x the peephole time");
    assert!(ratio < 8.0, "4x the copies took {ratio:.1}x the peephole time");
}
