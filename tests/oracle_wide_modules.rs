//! The differential oracle's cost grows linearly with a module's function
//! count: each side resolves function names once per module, not once
//! per run or per call, and no step scans the whole module per function.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use epre_harness::{compare_modules_detailed, OracleConfig};
use epre_ir::{parse_module, Module};

/// A module of `n` one-block nullary functions, each returning its index.
fn wide_module(n: usize) -> Module {
    let mut text = String::from("module data 0\n");
    for i in 0..n {
        writeln!(text, "function f{i}() -> i\nblock b0:\n  r0 <- loadi {i}:i\n  ret r0\nend")
            .unwrap();
    }
    parse_module(&text).unwrap()
}

/// The fastest of five oracle runs comparing `m` with itself.
fn oracle_time(m: &Module) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let out = compare_modules_detailed(m, m, &OracleConfig::default());
            let elapsed = start.elapsed();
            assert!(out.divergences.is_empty());
            assert_eq!(out.inconclusive, 0);
            assert_eq!(out.executions, 2 * m.functions.len(), "one run per function per side");
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
fn oracle_time_grows_linearly_with_function_count() {
    let (small, large) = (wide_module(2_000), wide_module(8_000));
    let ratio = oracle_time(&large).as_secs_f64() / oracle_time(&small).as_secs_f64();
    // Linear growth gives about 4; a per-run name scan gives about 16
    // and more.
    assert!(ratio < 8.0, "4x the functions took {ratio:.1}x the oracle time");
}
