//! Code the entry cannot reach must not crash the optimizer. SSA
//! construction walks the dominator tree from the entry, so copies in an
//! unreachable block survive it; GVN keys such a copy as an opaque
//! singleton instead of treating it as impossible. Renaming does not reach
//! those blocks either, so an unreachable block may redefine a parameter
//! or define a register from itself: reassociation treats a redefined
//! parameter as a variable and a register met again on its own expansion
//! path as a leaf.

use epre::{OptLevel, Optimizer};
use epre_harness::{compare_modules_detailed, OracleConfig};

/// The front end's `dcoera` with b0's `cbr r13 -> b2, b1` made
/// `cbr r13 -> b2, b2`: the loop `b1` is reachable only from itself.
const DCOERA_UNREACHABLE_LOOP: &str =
    include_str!("../crates/passes/testdata/dcoera_unreachable_loop.iloc");

/// The same, with the loop's first `r38 <- add.i r1, r18` made
/// `r1 <- add.i r1, r18`: an unreachable redefinition of parameter `r1`
/// from itself.
const DCOERA_UNREACHABLE_SELF_DEF: &str =
    include_str!("../crates/passes/testdata/dcoera_unreachable_self_def.iloc");

/// Optimize `text` at the three reassociating levels; each result must
/// verify and agree with the input under the oracle.
fn optimizes_soundly(text: &str) {
    let m = epre_ir::parse_module(text).unwrap();
    for level in [OptLevel::Reassociation, OptLevel::Distribution, OptLevel::DistributionLvn] {
        let out =
            Optimizer::new(level).try_optimize(&m).unwrap_or_else(|f| panic!("{level:?}: {f}"));
        out.verify().unwrap_or_else(|e| panic!("{level:?}: {e}"));
        let outcome = compare_modules_detailed(&m, &out, &OracleConfig::default());
        assert!(outcome.divergences.is_empty(), "{level:?}: {:?}", outcome.divergences);
        assert!(outcome.comparisons > 0, "{level:?}: the oracle compared nothing");
    }
}

#[test]
fn copies_in_an_unreachable_loop_optimize_soundly() {
    optimizes_soundly(DCOERA_UNREACHABLE_LOOP);
}

#[test]
fn an_unreachable_self_definition_of_a_parameter_optimizes_soundly() {
    optimizes_soundly(DCOERA_UNREACHABLE_SELF_DEF);
}
