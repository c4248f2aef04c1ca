//! The provenance conservation law, checked over the whole suite: for
//! every function at every paper level,
//!
//! ```text
//! baseline static ops − Σ eliminated + Σ inserted == final static ops
//! ```
//!
//! per pass and end to end. The ledgers are reconstructed purely from the
//! exported `provenance` events, so this also pins that the trace carries
//! enough information to account for every static operation the pipeline
//! created or destroyed — the contract `epre explain` renders for users.

use epre::{opcode_histogram, OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_telemetry::ledgers_from_trace;

#[test]
fn suite_ledgers_conserve_static_ops_at_every_paper_level() {
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        for &level in &OptLevel::PAPER_LEVELS {
            let opt = Optimizer::new(level);
            let (out, trace) = opt.try_optimize_traced(&m, 1).unwrap_or_else(|f| panic!("{f}"));
            let ledgers = ledgers_from_trace(&trace);
            assert_eq!(
                ledgers.len(),
                m.functions.len(),
                "{} at {level:?}: one ledger per function",
                r.name
            );
            for (ledger, (input, output)) in
                ledgers.iter().zip(m.functions.iter().zip(&out.functions))
            {
                assert_eq!(ledger.function, input.name, "{} at {level:?}", r.name);
                assert_eq!(
                    ledger.ops_before,
                    input.static_op_count() as u64,
                    "{}::{} at {level:?}: ledger must start at the input size",
                    r.name,
                    input.name
                );
                assert_eq!(
                    ledger.ops_after,
                    output.static_op_count() as u64,
                    "{}::{} at {level:?}: ledger must end at the output size",
                    r.name,
                    input.name
                );
                assert!(
                    ledger.conserves(),
                    "{}::{} at {level:?}: conservation violated\n{}",
                    r.name,
                    input.name,
                    ledger.render()
                );
            }
        }
    }
}

/// The ledgers' opcode vocabulary matches the IR: summing a function's
/// histogram always reproduces its static operation count, so eliminated
/// and inserted entries can never hide operations in unnamed opcodes.
#[test]
fn histograms_account_for_every_static_op() {
    for r in epre_suite::all_routines().iter().take(10) {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        for level in [OptLevel::Baseline, OptLevel::Distribution] {
            let out = Optimizer::new(level).optimize(&m);
            for f in &out.functions {
                let total: u64 = opcode_histogram(f).values().sum();
                assert_eq!(total, f.static_op_count() as u64, "{}::{}", r.name, f.name);
            }
        }
    }
}
