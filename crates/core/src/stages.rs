//! Staged execution of the pipeline, for reproducing the paper's running
//! example (Figures 2–10): the IR snapshot after every transformation.

use epre_analysis::AnalysisCache;
use epre_ir::Function;
use epre_ssa::{build_ssa, SsaOptions};

use crate::fault::PassFault;
use crate::pipeline::{run_pass_cached, OptLevel, Optimizer};

/// A stage of the paper's walkthrough, matching its figure numbers.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Figure 3: the intermediate form as lowered.
    Intermediate,
    /// Figure 4: pruned SSA with copies folded.
    PrunedSsa,
    /// Figures 5–7: after reassociation (copies inserted, forward
    /// propagation, sorting).
    Reassociated,
    /// Figure 8: after global value numbering/renaming.
    ValueNumbered,
    /// Figure 9: after partial redundancy elimination.
    AfterPre,
    /// Figure 10: after the baseline sequence incl. coalescing.
    Final,
}

impl Stage {
    /// All stages in order, with the paper figure each reproduces.
    pub const ALL: [(Stage, &'static str); 6] = [
        (Stage::Intermediate, "Figure 3: intermediate form"),
        (Stage::PrunedSsa, "Figure 4: pruned SSA form"),
        (
            Stage::Reassociated,
            "Figures 5-7: after reassociation (copies, forward propagation, sorting)",
        ),
        (Stage::ValueNumbered, "Figure 8: after value numbering"),
        (Stage::AfterPre, "Figure 9: after partial redundancy elimination"),
        (Stage::Final, "Figure 10: after coalescing"),
    ];
}

/// The snapshots produced by [`try_run_staged`].
#[derive(Debug, Clone)]
pub struct StagedOutput {
    /// `(stage, description, snapshot)` triples in pipeline order.
    pub snapshots: Vec<(Stage, &'static str, Function)>,
}

impl StagedOutput {
    /// The snapshot for a stage.
    pub fn stage(&self, s: Stage) -> &Function {
        &self.snapshots.iter().find(|(st, _, _)| *st == s).expect("all stages recorded").2
    }
}

/// Run the `distribution`-level pipeline (`reassociation` when
/// `distribute` is off) over `f`, capturing the IR after each of the
/// paper's walkthrough stages and reporting a typed fault instead of
/// panicking.
///
/// The passes are the level's [`Optimizer::passes`], run through one
/// cache exactly as the pipeline runs them, so the final snapshot is the
/// level's output.
///
/// # Errors
/// The [`PassFault`] of the first pass whose output fails debug-build
/// verification, or a stage-named fault when the pruned-SSA view does.
pub fn try_run_staged(f: &Function, distribute: bool) -> Result<StagedOutput, PassFault> {
    let mut snapshots = Vec::new();
    // The stages are taken in the order `Stage::ALL` lists them.
    let mut stages = Stage::ALL.into_iter();
    let mut snapshot = |g: &Function| {
        let (stage, what) = stages.next().expect("one snapshot per stage");
        snapshots.push((stage, what, g.clone()));
    };
    snapshot(f);

    // Figure 4 is a *view*: the pipeline's reassociation pass builds SSA
    // internally, so reproduce the snapshot on a scratch copy.
    let mut ssa_view = f.clone();
    build_ssa(&mut ssa_view, SsaOptions { fold_copies: true });
    if cfg!(debug_assertions) {
        if let Err(e) = ssa_view.verify() {
            let stage = format!("stage {:?}", Stage::PrunedSsa);
            return Err(PassFault::verify(stage, &f.name, e.to_string()));
        }
    }
    snapshot(&ssa_view);

    let level = if distribute { OptLevel::Distribution } else { OptLevel::Reassociation };
    let mut cur = f.clone();
    let mut cache = AnalysisCache::new();
    for pass in Optimizer::new(level).passes() {
        run_pass_cached(pass.as_ref(), &mut cur, &mut cache)?;
        // Figures 5-9 close with reassociation, GVN and PRE.
        if pass.name().starts_with("reassociate") || matches!(pass.name(), "gvn" | "pre") {
            snapshot(&cur);
        }
    }
    snapshot(&cur);

    Ok(StagedOutput { snapshots })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::FOO;
    use epre_frontend::{compile, NamingMode};
    use epre_interp::{Interpreter, Value};

    #[test]
    fn all_stages_recorded_and_verified() {
        let m = compile(FOO, NamingMode::Simple).unwrap();
        let staged = try_run_staged(m.function("foo").unwrap(), true).expect("stages verify");
        assert_eq!(staged.snapshots.len(), 6);
        for (stage, _, f) in &staged.snapshots {
            assert!(f.verify().is_ok(), "stage {stage:?} fails verification");
        }
        // SSA stage has φs; final stage has none.
        assert!(staged.stage(Stage::PrunedSsa).blocks.iter().any(|b| b.phi_count() > 0));
        assert!(staged.stage(Stage::Final).blocks.iter().all(|b| b.phi_count() == 0));
    }

    #[test]
    fn final_stage_runs_and_beats_input() {
        let m = compile(FOO, NamingMode::Simple).unwrap();
        let staged = try_run_staged(m.function("foo").unwrap(), true).expect("stages verify");
        let mut m0 = epre_ir::Module::new();
        m0.functions.push(staged.stage(Stage::Intermediate).clone());
        let mut m1 = epre_ir::Module::new();
        m1.functions.push(staged.stage(Stage::Final).clone());
        let args = [Value::Float(1.0), Value::Float(2.0)];
        let mut i0 = Interpreter::new(&m0);
        let mut i1 = Interpreter::new(&m1);
        let r0 = i0.run("foo", &args).unwrap();
        let r1 = i1.run("foo", &args).unwrap();
        assert_eq!(r0, r1);
        assert!(
            i1.counts().total < i0.counts().total,
            "final {} vs input {}",
            i1.counts().total,
            i0.counts().total
        );
    }

    #[test]
    fn paper_claim_loop_shorter_without_longer_paths() {
        // "the sequence of transformations reduced the length of the loop
        // by 1 operation without increasing the length of any path".
        // Check the spirit: dynamic counts improve for several trip counts
        // including the zero-trip path.
        let m = compile(FOO, NamingMode::Simple).unwrap();
        let staged = try_run_staged(m.function("foo").unwrap(), true).expect("stages verify");
        for (y, z) in [(200.0, 200.0), (1.0, 2.0), (50.0, 0.0)] {
            let mut m0 = epre_ir::Module::new();
            m0.functions.push(staged.stage(Stage::Intermediate).clone());
            let mut m1 = epre_ir::Module::new();
            m1.functions.push(staged.stage(Stage::Final).clone());
            let args = [Value::Float(y), Value::Float(z)];
            let mut i0 = Interpreter::new(&m0);
            let mut i1 = Interpreter::new(&m1);
            let r0 = i0.run("foo", &args).unwrap();
            let r1 = i1.run("foo", &args).unwrap();
            assert_eq!(r0, r1);
            assert!(i1.counts().total <= i0.counts().total, "path lengthened at ({y},{z})");
        }
    }
}
