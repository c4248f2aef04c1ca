//! The hardened pipeline: sandboxed passes plus the differential oracle,
//! with semantic rollback — and, optionally, a watchdog-supervised worker
//! pool and a crash-tolerant write-ahead journal.
//!
//! This is the harness's top-level entry, and what `epre opt
//! --best-effort` runs. Structural damage is contained per pass by the
//! sandbox ([`crate::sandbox`]) under a resource [`Budget`]; a pass that
//! keeps faulting across functions is quarantined by the circuit breaker
//! ([`crate::breaker`]); semantic damage that survives the lint layer is
//! caught after the fact by the oracle ([`crate::oracle`]), and the
//! offending *function* is rolled back wholesale to its input form — the
//! module that comes out is always runnable and always agrees with the
//! input on the oracle's test vectors. Oracle comparisons that ran out of
//! fuel prove nothing and are tallied as
//! [`HardenedOutput::inconclusive`], never silently dropped.
//!
//! With a per-function deadline ([`Harness::with_deadline`]) the module
//! runs on the watchdog pool ([`crate::watchdog`]) instead, so even a
//! *non-cooperative* hang is rolled back. With a journal path
//! ([`Harness::optimize_journaled`]) every finished function is logged to
//! a write-ahead journal so a killed run can resume without redoing the
//! completed work — and without changing a byte of the output.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use epre::fault::PassFault;
use epre::{map_functions, Budget, OptLevel, Optimizer};
use epre_ir::{parse_function, Module};
use epre_lint::LintOptions;

use crate::breaker::{CircuitBreaker, Quarantine};
use crate::journal::{header_line, load_journal, JournalLoad, JournalWriter};
use crate::oracle::{compare_modules_detailed, Divergence, OracleConfig};
use crate::rng::fingerprint64;
use crate::sandbox::{run_module_governed, run_passes_governed, FaultPolicy, SandboxReport};
use crate::watchdog::{optimize_module_watchdog, WatchdogConfig};

/// The fault-tolerant optimizer: a level, a policy, an oracle, and the
/// resource-governance knobs.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Optimization level to run.
    pub level: OptLevel,
    /// What to do when a pass faults.
    pub policy: FaultPolicy,
    /// Differential-execution settings.
    pub oracle: OracleConfig,
    /// Per-pass resource budget (deadline, iteration cap, growth cap).
    pub budget: Budget,
    /// Circuit-breaker trip threshold: faults per pass, per module run.
    pub breaker_threshold: usize,
    /// When set, run the module on the watchdog pool with this
    /// per-function wall-clock deadline (set via
    /// [`Harness::with_deadline`]).
    pub function_deadline: Option<Duration>,
}

/// The result of a hardened optimization run.
#[derive(Debug, Clone)]
pub struct HardenedOutput {
    /// The optimized module. Functions whose optimized form diverged from
    /// the input under the oracle have been rolled back to their input
    /// form, so this module is always safe to run.
    pub module: Module,
    /// Contained pass faults (panics, verify failures, new lint errors,
    /// budget exhaustion, watchdog rollbacks).
    pub faults: Vec<PassFault>,
    /// Oracle divergences. Each names a function that was rolled back.
    pub divergences: Vec<Divergence>,
    /// Pass retries performed under [`FaultPolicy::RetryThenSkip`].
    pub retries: usize,
    /// Pass invocations skipped because the pass was quarantined.
    pub skipped: usize,
    /// Passes the circuit breaker quarantined during this run.
    pub quarantined: Vec<Quarantine>,
    /// Oracle comparisons that ran out of fuel on either side — proved
    /// nothing, counted rather than silently dropped.
    pub inconclusive: usize,
}

impl HardenedOutput {
    /// No faults and no divergences: the run was entirely clean.
    /// (Inconclusive oracle comparisons don't dirty a run — they are a
    /// fuel-sizing signal, not a fault.)
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty() && self.divergences.is_empty()
    }

    /// Function names that were rolled back — by the oracle, the
    /// watchdog, or a budget fault — deduplicated, in first-seen order.
    pub fn rolled_back_functions(&self) -> Vec<&str> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for d in &self.divergences {
            if seen.insert(d.function.as_str()) {
                out.push(d.function.as_str());
            }
        }
        for f in &self.faults {
            if seen.insert(f.function.as_str()) {
                out.push(f.function.as_str());
            }
        }
        out
    }
}

/// The result of a journaled run: the hardened output plus the
/// reuse accounting.
#[derive(Debug, Clone)]
pub struct JournaledOutcome {
    /// The hardened run result (identical to an unjournaled run's).
    pub output: HardenedOutput,
    /// Functions replayed from the journal without re-optimizing.
    pub reused: usize,
    /// Functions optimized (and journaled) in this run.
    pub fresh: usize,
    /// The journal carried a torn tail from a killed run; it was
    /// discarded and the file rewritten clean.
    pub resumed_torn: bool,
}

/// Why a journaled run could not complete.
#[derive(Debug)]
pub enum JournalError {
    /// Reading or writing the journal file failed.
    Io(io::Error),
    /// The journal on disk was written under a different level, policy,
    /// or budget; resuming it would mix incompatible outputs.
    HeaderMismatch {
        /// The header found in the file.
        found: String,
        /// The header this run requires.
        expected: String,
    },
    /// A pass fault surfaced under [`FaultPolicy::FailFast`].
    Fault(PassFault),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::HeaderMismatch { found, expected } => write!(
                f,
                "journal was written by an incompatible run\n  found:    {found}\n  expected: {expected}"
            ),
            JournalError::Fault(p) => write!(f, "{p}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<PassFault> for JournalError {
    fn from(p: PassFault) -> Self {
        JournalError::Fault(p)
    }
}

impl Harness {
    /// A harness at `level` with `policy`, default oracle settings, the
    /// deterministic [`Budget::governed`] caps, and the default breaker
    /// threshold.
    pub fn new(level: OptLevel, policy: FaultPolicy) -> Self {
        Harness {
            level,
            policy,
            oracle: OracleConfig::default(),
            budget: Budget::governed(),
            breaker_threshold: CircuitBreaker::DEFAULT_THRESHOLD,
            function_deadline: None,
        }
    }

    /// Replace the oracle configuration.
    pub fn with_oracle(mut self, oracle: OracleConfig) -> Self {
        self.oracle = oracle;
        self
    }

    /// Replace the per-pass resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Impose a wall-clock deadline: `deadline` per pass (in the budget),
    /// and eight times that per function (enforced by the watchdog pool,
    /// which also catches *non-cooperative* hangs). Routes
    /// [`Harness::optimize_jobs`] through the watchdog driver.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.budget.deadline = Some(deadline);
        self.function_deadline = Some(deadline * 8);
        self
    }

    /// Optimize `module` with full containment.
    ///
    /// # Errors
    /// Under [`FaultPolicy::FailFast`], the first pass fault. Oracle
    /// divergence never errors — the affected function is rolled back
    /// and reported.
    pub fn optimize(&self, module: &Module) -> Result<HardenedOutput, PassFault> {
        self.optimize_jobs(module, 1)
    }

    /// [`Harness::optimize`] with up to `jobs` sandbox worker threads
    /// (`epre opt --best-effort --jobs N`). The oracle comparison and
    /// rollback stay serial; only the per-function pass pipelines run in
    /// parallel. Without a deadline the output is deterministic —
    /// identical to the serial run; with one
    /// ([`Harness::with_deadline`]) the watchdog pool may additionally
    /// roll back functions that overran their wall-clock allowance.
    ///
    /// # Errors
    /// Under [`FaultPolicy::FailFast`], the first pass fault in module
    /// function order.
    pub fn optimize_jobs(&self, module: &Module, jobs: usize) -> Result<HardenedOutput, PassFault> {
        let level = self.level;
        let (out, report) = if let Some(deadline) = self.function_deadline {
            optimize_module_watchdog(
                module,
                Arc::new(move || Optimizer::new(level).passes()),
                self.policy,
                LintOptions::invariants_only(),
                self.budget,
                &WatchdogConfig::new(deadline, jobs),
            )?
        } else {
            run_module_governed(
                module,
                &|| Optimizer::new(level).passes(),
                self.policy,
                &LintOptions::invariants_only(),
                &self.budget,
                self.breaker_threshold,
                jobs,
            )?
        };
        Ok(self.finish_with_oracle(module, out, report))
    }

    /// The shared back half of every hardened run: compare `out` against
    /// `input` with the differential oracle, roll back divergent
    /// functions to their input form, and assemble the output.
    ///
    /// Public because the serve daemon assembles candidate modules from a
    /// mix of cache replays and fresh pipelines and then needs exactly
    /// this stage: whatever the candidate's provenance, the emitted
    /// module must agree with the input on the oracle's vectors.
    pub fn finish_with_oracle(
        &self,
        input: &Module,
        mut out: Module,
        report: SandboxReport,
    ) -> HardenedOutput {
        let SandboxReport { faults, retries, skipped, quarantined } = report;
        let oracle = compare_modules_detailed(input, &out, &self.oracle);
        for d in &oracle.divergences {
            // Semantic rollback: the optimized function computes the wrong
            // answer, so ship the input version instead.
            if let Some(original) = input.function(&d.function) {
                if let Some(target) = out.function_mut(&d.function) {
                    *target = original.clone();
                }
            }
        }
        HardenedOutput {
            module: out,
            faults,
            divergences: oracle.divergences,
            retries,
            skipped,
            quarantined,
            inconclusive: oracle.inconclusive,
        }
    }

    /// The journal header binding a file to this harness configuration.
    pub fn journal_header(&self) -> String {
        header_line(self.level.label(), self.policy.label(), &self.budget)
    }

    /// [`Harness::optimize_jobs`] with a write-ahead journal at `path`:
    /// each function's post-pipeline body is appended and flushed the
    /// moment it completes, so a killed run leaves a resumable journal.
    ///
    /// With `resume`, records whose input fingerprint still matches the
    /// current module are replayed instead of re-optimized; a torn tail
    /// (the signature of a kill) is discarded and the file rewritten
    /// clean. Because records are written *before* the oracle stage and
    /// the oracle re-runs over the whole assembled module, the resumed
    /// run's output is byte-identical to an uninterrupted run's.
    ///
    /// Journal entries must be order-independent, so this path uses no
    /// circuit breaker (quarantine depends on module order) and no
    /// watchdog (an abandoned worker could journal a stale body).
    ///
    /// # Errors
    /// Journal I/O, a header mismatch on resume, or — under
    /// [`FaultPolicy::FailFast`] — the first pass fault.
    pub fn optimize_journaled(
        &self,
        module: &Module,
        jobs: usize,
        path: &Path,
        resume: bool,
    ) -> Result<JournaledOutcome, JournalError> {
        let header = self.journal_header();
        let (writer, entries, resumed_torn) = if resume {
            match load_journal(path, &header)? {
                JournalLoad::Fresh => {
                    (JournalWriter::create(path, &header)?, BTreeMap::new(), false)
                }
                JournalLoad::Mismatch { found } => {
                    return Err(JournalError::HeaderMismatch { found, expected: header })
                }
                JournalLoad::Resumed(st) => {
                    let w = JournalWriter::rewrite(path, &header, &st.entries)?;
                    (w, st.entries, st.torn_tail)
                }
            }
        } else {
            (JournalWriter::create(path, &header)?, BTreeMap::new(), false)
        };

        // Each function is replayed iff its journaled input fingerprint
        // matches its current text and the journaled body still parses
        // back to a function of the same name; every other function is
        // optimized and journaled the moment its pipeline ends. Workers
        // share the writer; record() is one locked write+flush, so a kill
        // tears at most the final record.
        let level = self.level;
        let opts = LintOptions::invariants_only();
        let done = map_functions(
            module,
            jobs,
            || Optimizer::new(level).passes(),
            |passes, _, src| -> Result<_, JournalError> {
                let in_fp = fingerprint64(&format!("{src}"));
                let replayed = entries
                    .get(&src.name)
                    .filter(|e| e.input_fp == in_fp)
                    .and_then(|e| parse_function(&e.body).ok())
                    .filter(|parsed| parsed.name == src.name);
                if let Some(parsed) = replayed {
                    return Ok((parsed, None));
                }
                let mut f = src.clone();
                let rep =
                    run_passes_governed(&mut f, passes, self.policy, &opts, &self.budget, None)?;
                writer.record(&src.name, in_fp, &format!("{f}"))?;
                Ok((f, Some(rep)))
            },
        )?;

        let mut functions = Vec::with_capacity(done.len());
        let mut report = SandboxReport::default();
        let mut fresh = 0;
        for (f, rep) in done {
            functions.push(f);
            if let Some(rep) = rep {
                fresh += 1;
                report.merge(rep);
            }
        }
        let out = Module { functions, data_words: module.data_words };
        Ok(JournaledOutcome {
            output: self.finish_with_oracle(module, out, report),
            reused: module.functions.len() - fresh,
            fresh,
            resumed_torn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::compare_modules;
    use epre::Optimizer;
    use epre_frontend::{compile, NamingMode};

    const SRC: &str = "function foo(y, z)\n\
                       real y, z, s, x\n\
                       integer i\n\
                       begin\n\
                       s = 0\n\
                       x = y + z\n\
                       do i = x, 100\n\
                         s = i + s + x\n\
                       enddo\n\
                       return s\nend\n";

    const SRC2: &str = "function bar(a, b)\n\
                        integer a, b, t\n\
                        begin\n\
                        t = a * b + a\n\
                        return t + a * b\nend\n";

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("epre-harden-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn clean_input_produces_clean_output() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let h = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort);
        let out = h.optimize(&m).unwrap();
        assert!(out.is_clean(), "faults={:?} divergences={:?}", out.faults, out.divergences);
        assert_eq!(out.skipped, 0);
        assert!(out.quarantined.is_empty());
        let plain = Optimizer::new(OptLevel::Distribution).optimize(&m);
        assert_eq!(format!("{}", out.module), format!("{plain}"));
    }

    #[test]
    fn divergent_function_is_rolled_back() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        // Sabotage the *input* so that optimization changes behaviour:
        // simplest is to compare against a hand-corrupted "optimized"
        // module through the rollback path directly.
        let h = Harness::new(OptLevel::Baseline, FaultPolicy::BestEffort);
        let out = h.optimize(&m).unwrap();
        // A healthy pipeline cannot be made to diverge here; assert the
        // invariant the rollback maintains instead: emitted module agrees
        // with the input on the oracle's vectors.
        let check = compare_modules(&m, &out.module, &h.oracle);
        assert!(check.is_empty());
    }

    #[test]
    fn starved_oracle_reports_inconclusive_not_divergence() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let h = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort)
            .with_oracle(OracleConfig { fuel: 2, ..OracleConfig::default() });
        let out = h.optimize(&m).unwrap();
        assert!(out.divergences.is_empty(), "{:?}", out.divergences);
        assert!(out.inconclusive > 0, "2 fuel cannot finish this loop");
        assert!(out.is_clean(), "inconclusive must not dirty the run");
    }

    #[test]
    fn deadline_harness_matches_plain_on_healthy_input() {
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let h = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort)
            .with_deadline(Duration::from_secs(10));
        let out = h.optimize_jobs(&m, 2).unwrap();
        assert!(out.is_clean(), "faults={:?}", out.faults);
        let plain = Optimizer::new(OptLevel::Distribution).optimize(&m);
        assert_eq!(format!("{}", out.module), format!("{plain}"));
    }

    #[test]
    fn journaled_run_matches_unjournaled_and_resume_reuses() {
        let path = tmp("match");
        let mut m = compile(SRC, NamingMode::Disciplined).unwrap();
        m.functions.extend(compile(SRC2, NamingMode::Disciplined).unwrap().functions);
        let h = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort);
        let plain = h.optimize(&m).unwrap();
        let j1 = h.optimize_journaled(&m, 1, &path, false).unwrap();
        assert_eq!(j1.reused, 0);
        assert_eq!(j1.fresh, 2);
        assert_eq!(format!("{}", j1.output.module), format!("{}", plain.module));
        // Resume over the complete journal: everything reuses, output
        // byte-identical.
        let j2 = h.optimize_journaled(&m, 1, &path, true).unwrap();
        assert_eq!(j2.reused, 2);
        assert_eq!(j2.fresh, 0);
        assert!(!j2.resumed_torn);
        assert_eq!(format!("{}", j2.output.module), format!("{}", plain.module));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_after_a_kill_is_byte_identical() {
        let path = tmp("kill");
        let mut m = compile(SRC, NamingMode::Disciplined).unwrap();
        m.functions.extend(compile(SRC2, NamingMode::Disciplined).unwrap().functions);
        let h = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort);
        let full = h.optimize_journaled(&m, 1, &path, false).unwrap();
        // Simulate a SIGKILL mid-write: tear the journal inside its final
        // record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let resumed = h.optimize_journaled(&m, 1, &path, true).unwrap();
        assert!(resumed.resumed_torn, "the tear must be detected");
        assert_eq!(resumed.reused, 1, "the complete record must be reused");
        assert_eq!(resumed.fresh, 1, "the torn record must be redone");
        assert_eq!(
            format!("{}", resumed.output.module),
            format!("{}", full.output.module),
            "resume must reproduce the uninterrupted output byte-for-byte"
        );
        // And the journal is clean again: a second resume reuses both.
        let again = h.optimize_journaled(&m, 1, &path, true).unwrap();
        assert!(!again.resumed_torn);
        assert_eq!(again.reused, 2);
        std::fs::remove_file(&path).ok();
    }

    /// The journaled driver is byte-identical to the plain hardened run at
    /// jobs 1 and 4, and a journal written at one job count resumes at the
    /// other: the journal records per-function results, not a schedule.
    #[test]
    fn journaled_run_is_byte_identical_at_jobs_1_and_4() {
        let mut m = compile(SRC, NamingMode::Disciplined).unwrap();
        m.functions.extend(compile(SRC2, NamingMode::Disciplined).unwrap().functions);
        for i in 0..4 {
            let mut f = m.functions[i % 2].clone();
            f.name = format!("{}{i}", f.name);
            m.functions.push(f);
        }
        let n = m.functions.len();
        let h = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort);
        let plain = format!("{}", h.optimize(&m).unwrap().module);
        for (write_jobs, resume_jobs) in [(1, 4), (4, 1)] {
            let path = tmp(&format!("jobs-{write_jobs}-{resume_jobs}"));
            let full = h.optimize_journaled(&m, write_jobs, &path, false).unwrap();
            assert_eq!((full.reused, full.fresh), (0, n), "jobs {write_jobs}");
            assert_eq!(format!("{}", full.output.module), plain, "jobs {write_jobs}");
            // Tear the final record, as a kill mid-write would.
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
            let resumed = h.optimize_journaled(&m, resume_jobs, &path, true).unwrap();
            assert!(resumed.resumed_torn, "jobs {write_jobs} -> {resume_jobs}");
            assert_eq!((resumed.reused, resumed.fresh), (n - 1, 1), "jobs {resume_jobs}");
            assert_eq!(
                format!("{}", resumed.output.module),
                plain,
                "resume at jobs {resume_jobs} of a journal written at jobs {write_jobs}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn resume_under_a_different_config_is_refused() {
        let path = tmp("refuse");
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let h = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort);
        h.optimize_journaled(&m, 1, &path, false).unwrap();
        let other = Harness::new(OptLevel::Baseline, FaultPolicy::BestEffort);
        match other.optimize_journaled(&m, 1, &path, true) {
            Err(JournalError::HeaderMismatch { found, expected }) => {
                assert!(found.contains("level=distribution"), "{found}");
                assert!(expected.contains("level=baseline"), "{expected}");
            }
            other => panic!("expected header mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_input_is_reoptimized_not_replayed() {
        let path = tmp("stale");
        let m = compile(SRC, NamingMode::Disciplined).unwrap();
        let h = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort);
        h.optimize_journaled(&m, 1, &path, false).unwrap();
        // "Edit" the source: recompile with an extra function and a
        // changed body shape for foo via a different module — here we
        // just alter the module's function text by optimizing it first.
        let m2 = Optimizer::new(OptLevel::Baseline).optimize(&m);
        let j = h.optimize_journaled(&m2, 1, &path, true).unwrap();
        assert_eq!(j.reused, 0, "changed input text must invalidate the record");
        assert_eq!(j.fresh, 1);
        std::fs::remove_file(&path).ok();
    }
}
