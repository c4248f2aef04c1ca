//! Code the entry cannot reach must not crash the optimizer. SSA
//! construction walks the dominator tree from the entry, so copies in an
//! unreachable block survive it; GVN keys such a copy as an opaque
//! singleton instead of treating it as impossible.

use epre::{OptLevel, Optimizer};
use epre_harness::{compare_modules_detailed, OracleConfig};

/// The front end's `dcoera` with b0's `cbr r13 -> b2, b1` made
/// `cbr r13 -> b2, b2`: the loop `b1` is reachable only from itself.
const DCOERA_UNREACHABLE_LOOP: &str =
    include_str!("../crates/passes/testdata/dcoera_unreachable_loop.iloc");

#[test]
fn copies_in_an_unreachable_loop_optimize_soundly() {
    let m = epre_ir::parse_module(DCOERA_UNREACHABLE_LOOP).unwrap();
    for level in [OptLevel::Reassociation, OptLevel::Distribution, OptLevel::DistributionLvn] {
        let out =
            Optimizer::new(level).try_optimize(&m).unwrap_or_else(|f| panic!("{level:?}: {f}"));
        out.verify().unwrap_or_else(|e| panic!("{level:?}: {e}"));
        let outcome = compare_modules_detailed(&m, &out, &OracleConfig::default());
        assert!(outcome.divergences.is_empty(), "{level:?}: {:?}", outcome.divergences);
        assert!(outcome.comparisons > 0, "{level:?}: the oracle compared nothing");
    }
}
