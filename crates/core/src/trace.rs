//! The traced pipeline: structured pass spans, transformation
//! provenance, and deterministic parallel trace merging.
//!
//! This is the plain pipeline ([`Optimizer`]'s one per-function loop)
//! over passes [`observe`]d by a trace observer. Every pass invocation
//! emits
//!
//! * a `span` event carrying the pass's change report, the static
//!   operation counts around it, and the counters the pass reported
//!   about its own work (via [`Pass::run_instrumented`]), and
//! * a `provenance` event carrying the opcode-keyed eliminated/inserted
//!   delta ([`OpcodeDelta`]) that [`epre_telemetry::ledgers_from_trace`]
//!   reassembles into per-function accounts for `epre explain`.
//!
//! A final per-function `cache` event reports the [`AnalysisCache`]
//! hit/miss totals.
//!
//! ## Determinism
//!
//! Virtual span durations are derived from input size (`1 + ops_before`)
//! rather than the clock, lanes are keyed by module position rather than
//! worker thread, and the merge concatenates lanes in module order — so
//! the exported trace is byte-identical at `--jobs 1/2/8`. The trace
//! observer ignores the measured wall time.
//!
//! [`Pass::run_instrumented`]: epre_passes::Pass::run_instrumented
//! [`AnalysisCache`]: epre_analysis::AnalysisCache

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use epre_ir::{Function, Inst, Module, Terminator};
use epre_telemetry::json::Json;
use epre_telemetry::{FunctionTrace, OpcodeDelta, Trace};

use crate::fault::PassFault;
use crate::observer::{observe, PassObserver, PassRun};
use crate::pipeline::Optimizer;
use crate::shards::map_functions;

/// Opcode histogram of a function's static operations, keyed by the
/// textual mnemonic (terminators count as `jump`/`cbr`/`ret`). The total
/// over all keys equals [`Function::static_op_count`], which is what
/// makes the provenance conservation law hold by construction.
pub fn opcode_histogram(f: &Function) -> BTreeMap<String, u64> {
    let mut h: BTreeMap<String, u64> = BTreeMap::new();
    let mut bump = |k: &str| *h.entry(k.to_string()).or_insert(0) += 1;
    for block in &f.blocks {
        for inst in &block.insts {
            match inst {
                Inst::Bin { op, .. } => bump(op.mnemonic()),
                Inst::Un { op, .. } => bump(op.mnemonic()),
                Inst::LoadI { .. } => bump("loadi"),
                Inst::Copy { .. } => bump("copy"),
                Inst::Load { .. } => bump("load"),
                Inst::Store { .. } => bump("store"),
                Inst::Call { .. } => bump("call"),
                Inst::Phi { .. } => bump("phi"),
            }
        }
        match &block.term {
            Terminator::Jump { .. } => bump("jump"),
            Terminator::Branch { .. } => bump("cbr"),
            Terminator::Return { .. } => bump("ret"),
        }
    }
    h
}

/// One worker's trace observer: the lane of the function being
/// optimized, and the opcode histogram of that function as the last pass
/// left it (passes run back to back, so it is the next pass's input).
#[derive(Default)]
struct Tracer(Mutex<(FunctionTrace, BTreeMap<String, u64>)>);

impl PassObserver for Tracer {
    const COUNTERS: bool = true;

    fn after(&self, run: &PassRun<'_>) {
        // A budget trip fails the function, and its partial lane with it.
        let Ok(changed) = *run.outcome else { return };
        let mut lane = self.0.lock().expect("trace lane poisoned");
        let (trace, histogram) = &mut *lane;
        let before = std::mem::replace(histogram, opcode_histogram(run.function));
        let ops_before: u64 = before.values().sum();
        let ops_after = run.function.static_op_count() as u64;
        let delta = OpcodeDelta::between(&before, histogram);

        let mut fields = vec![
            ("changed".to_string(), Json::Bool(changed)),
            ("ops_before".to_string(), Json::U64(ops_before)),
            ("ops_after".to_string(), Json::U64(ops_after)),
        ];
        if !run.counters.is_empty() {
            fields.push(("counters".to_string(), run.counters.to_map()));
        }
        trace.span(run.pass, 1 + ops_before, fields);
        let opcodes = |side: Vec<(String, u64)>| {
            Json::Obj(side.into_iter().map(|(op, n)| (op, Json::U64(n))).collect())
        };
        trace.instant(
            "provenance",
            run.pass,
            vec![
                ("ops_before".to_string(), Json::U64(ops_before)),
                ("ops_after".to_string(), Json::U64(ops_after)),
                ("eliminated".to_string(), opcodes(delta.eliminated)),
                ("inserted".to_string(), opcodes(delta.inserted)),
            ],
        );
    }
}

impl Optimizer {
    /// Optimize a copy of the module with up to `jobs` worker threads,
    /// additionally producing the merged telemetry [`Trace`].
    ///
    /// The optimized module is byte-identical to
    /// [`Optimizer::try_optimize_jobs`], and the trace is byte-identical
    /// across `jobs` values: lanes are keyed by module position and
    /// merged in module order, and all exported numbers are virtual.
    /// Panics are contained exactly as in [`Optimizer::try_optimize_jobs`].
    ///
    /// # Errors
    /// The first [`PassFault`] in module function order.
    pub fn try_optimize_traced(
        &self,
        module: &Module,
        jobs: usize,
    ) -> Result<(Module, Trace), PassFault> {
        let traced = map_functions(
            module,
            jobs,
            || {
                let tracer = Arc::new(Tracer::default());
                (observe(self.passes(), &tracer), tracer)
            },
            |(passes, tracer), i, src| {
                let mut f = src.clone();
                let lane = (FunctionTrace::new(&f.name, i as u32), opcode_histogram(&f));
                *tracer.0.lock().expect("trace lane poisoned") = lane;
                let stats = self.run_passes(passes, &mut f)?;
                let mut trace =
                    std::mem::take(&mut tracer.0.lock().expect("trace lane poisoned").0);
                trace.instant(
                    "cache",
                    "pipeline",
                    vec![
                        ("hits".to_string(), Json::U64(stats.hits)),
                        ("misses".to_string(), Json::U64(stats.misses)),
                    ],
                );
                Ok((f, trace))
            },
        )?;
        let (functions, lanes): (Vec<Function>, Vec<FunctionTrace>) = traced.into_iter().unzip();
        Ok((Module { functions, data_words: module.data_words }, Trace::from_lanes(lanes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{assert_contains_worker_panics, FOO};
    use crate::pipeline::OptLevel;
    use epre_frontend::{compile, NamingMode};
    use epre_telemetry::ledgers_from_trace;

    #[test]
    fn histogram_totals_match_static_op_count() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        for f in &m.functions {
            let h = opcode_histogram(f);
            let total: u64 = h.values().sum();
            assert_eq!(total, f.static_op_count() as u64, "{h:?}");
        }
    }

    #[test]
    fn traced_output_matches_untraced() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        for level in OptLevel::PAPER_LEVELS {
            let opt = Optimizer::new(level);
            let plain = opt.optimize(&m);
            let (traced, trace) = opt.try_optimize_traced(&m, 1).unwrap();
            assert_eq!(format!("{plain}"), format!("{traced}"), "{level:?}");
            assert!(!trace.events.is_empty());
            // One span + one provenance per pass, one cache event.
            let spans = trace.events.iter().filter(|e| e.kind == "span").count();
            assert_eq!(spans, opt.passes().len());
            let provs = trace.events.iter().filter(|e| e.kind == "provenance").count();
            assert_eq!(provs, spans);
            assert_eq!(trace.events.iter().filter(|e| e.kind == "cache").count(), 1);
        }
    }

    #[test]
    fn span_counters_report_pass_work() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        let (_, trace) = Optimizer::new(OptLevel::Distribution).try_optimize_traced(&m, 1).unwrap();
        let pre_span = trace
            .events
            .iter()
            .find(|e| e.kind == "span" && e.pass == "pre")
            .expect("pre span present");
        let counters = pre_span.field("counters").expect("pre reports counters");
        assert!(counters.get("exprs_hoisted").is_some(), "{counters:?}");
        let reas = trace
            .events
            .iter()
            .find(|e| e.kind == "span" && e.pass == "reassociate+distribute")
            .expect("reassociate span present");
        let counters = reas.field("counters").expect("reassociate reports counters");
        assert!(counters.get("regs_ranked").is_some(), "{counters:?}");
    }

    #[test]
    fn ledgers_from_traced_run_conserve() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        let (out, trace) =
            Optimizer::new(OptLevel::Distribution).try_optimize_traced(&m, 1).unwrap();
        let ledgers = ledgers_from_trace(&trace);
        assert_eq!(ledgers.len(), m.functions.len());
        for (ledger, (fin, fout)) in ledgers.iter().zip(m.functions.iter().zip(&out.functions)) {
            assert_eq!(ledger.function, fin.name);
            assert_eq!(ledger.ops_before, fin.static_op_count() as u64);
            assert_eq!(ledger.ops_after, fout.static_op_count() as u64);
            assert!(ledger.conserves(), "{}", ledger.render());
        }
    }

    /// The traced driver contains a pass panic exactly as the plain one
    /// does: the same typed fault at every `jobs`, inline included.
    #[test]
    fn traced_driver_contains_worker_panics() {
        let opt = Optimizer::new(OptLevel::Partial);
        assert_contains_worker_panics(|m, jobs| opt.try_optimize_traced(m, jobs));
    }

    #[test]
    fn parallel_trace_is_byte_identical_to_serial() {
        let mut module = compile(FOO, NamingMode::Disciplined).unwrap();
        let template = module.functions[0].clone();
        for i in 1..5 {
            let mut f = template.clone();
            f.name = format!("foo{i}");
            module.functions.push(f);
        }
        let opt = Optimizer::new(OptLevel::Distribution);
        let (serial_m, serial_t) = opt.try_optimize_traced(&module, 1).unwrap();
        for jobs in [2, 4, 8] {
            let (m, t) = opt.try_optimize_traced(&module, jobs).unwrap();
            assert_eq!(format!("{serial_m}"), format!("{m}"), "jobs {jobs}");
            assert_eq!(serial_t.to_jsonl(), t.to_jsonl(), "jobs {jobs}");
            assert_eq!(serial_t.to_chrome(), t.to_chrome(), "jobs {jobs}");
        }
    }
}
