//! `serve-cold` and `serve-mixed`: the real `epre serve --port 0` daemon,
//! driven over keep-alive sessions from this process.
//!
//! * `serve-cold` — a closed loop over one session: a build tool that
//!   submits one routine at `distribution` and waits. Each request
//!   carries a unique nonce, so every cache probe misses while the
//!   daemon's work stays that routine's.
//! * `serve-mixed` — an open loop at a fixed rate over two sessions:
//!   about 90% warm resubmits of the 50 routines primed at set-up, 10%
//!   nonce-carrying cold ones, against a byte-capped cache, so cold
//!   inserts evict and compact while warm reads hit.
//!
//! The nonce is the request's deadline: a distinct number of
//! milliseconds far beyond any run. The deadline is part of the cache
//! key's configuration line, so it forces a miss without touching the
//! module. (A suffix on the function names would also force a miss, but
//! the differential oracle seeds its argument vectors from the function
//! name, so renamed functions meet different vectors: at some seeds a
//! renamed `zeroin` diverges past the float tolerance and the daemon
//! answers degraded.)
//!
//! The traced run re-enacts each answered request in-process through the
//! public functions `ServerCore::handle_optimize` calls, in its order,
//! and requires the in-process answer to equal the daemon's byte for
//! byte.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use epre::{OptLevel, Optimizer, RequestBudget};
use epre_harness::{header_line, record_len, run_module_governed, HardenedOutput, Harness};
use epre_harness::{SandboxReport, SplitMix64};
use epre_ir::{parse_function, parse_module, Function};
use epre_lint::LintOptions;
use epre_perfbench::calib::Calibrator;
use epre_perfbench::stats::{median, min_samples, nearest_rank, OpenLoopSample, Outcome};
use epre_serve::{
    client, level_from_label, policy_from_label, ClientConfig, ClientError, DoneFrame,
    FunctionFrame, OptimizeRequest, Request, Response, ResultCache, ServeConfig, Session,
    CACHE_HEADER,
};

use crate::layers::{self, Layers, Shared, Stage};
use crate::suite::{self, Checked, Routine};
use crate::{millis, peak_rss_mb, secs, Args, EndToEnd, Metric, Report};

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Closed loop, every request a cache miss.
    Cold,
    /// Open loop, 90% warm, capped cache.
    Mixed,
}

const LEVEL: OptLevel = OptLevel::Distribution;
const POLICY: &str = "best-effort";
const CLIENT: &str = "perfbench";
/// Tail percentile of request latency.
const TAIL_P: f64 = 99.0;
/// One `serve-mixed` request in this many is cold.
const COLD_EVERY: usize = 10;
/// Set-up is repeated this many times on `serve-cold`, where it is a
/// daemon start of a few milliseconds; `setup_s` is the median.
const COLD_SETUP_REPS: usize = 25;
/// The same on `serve-mixed`, where set-up also primes the warm set.
const MIXED_SETUP_REPS: usize = 11;
/// Calibration kernel runs on each CPU before each set-up repetition,
/// before every [`COLD_CALIB_EVERY`] `serve-cold` requests, and before
/// each `serve-mixed` burst; the daemon is idle each time.
const CALIB_REPS: usize = 4;
/// `serve-cold` requests between calibrations.
const COLD_CALIB_EVERY: usize = 25;
/// Length of one `serve-mixed` burst of scheduled requests, seconds.
const BURST_SECONDS: f64 = 1.0;
/// Connections (and sender threads) of the open loop.
const CONNECTIONS: usize = 2;
/// The cache cap is this multiple of the primed warm set's bytes.
const CAP_HEADROOM: f64 = 1.5;
/// Cold request `i` asks for a deadline of this many milliseconds plus
/// `i`: about 11.6 days, never reached.
const COLD_DEADLINE_MS: u64 = 1_000_000_000;

/// A running daemon, stopped and cleaned up on drop.
struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    fn start(epre: &Path, dir: PathBuf, cap: Option<u64>) -> Result<Daemon, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut cmd = Command::new(epre);
        cmd.args(["serve", "--port", "0", "--cache"])
            .arg(dir.join("cache.journal"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(cap) = cap {
            cmd.args(["--cache-max-bytes", &cap.to_string()]);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", epre.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_string),
            Err(_) => None,
        };
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
            dir,
        };
        match addr {
            Some(a) => {
                daemon.addr = a;
                Ok(daemon)
            }
            None => Err(format!("daemon did not report its address (got {line:?})")),
        }
    }

    fn client(&self) -> ClientConfig {
        ClientConfig {
            addr: self.addr.clone(),
            ..ClientConfig::default()
        }
    }

    fn stats(&self) -> Result<BTreeMap<String, u64>, String> {
        Ok(client::stats(&self.client())?.into_iter().collect())
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if client::shutdown(&self.client()).is_ok() {
            let deadline = Instant::now() + Duration::from_secs(20);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = self.child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// An optimize request for `module_text`, with the idempotency key and
/// request id filled in the way the client library would.
fn request(module_text: String, deadline_ms: Option<u64>) -> OptimizeRequest {
    let mut r = OptimizeRequest {
        client: CLIENT.into(),
        level: LEVEL.label().into(),
        policy: POLICY.into(),
        deadline_ms,
        idempotency: String::new(),
        request: String::new(),
        module_text,
    };
    r.idempotency = r.idempotency_key();
    r.request = r.request_id();
    r
}

/// One measured request and its answer.
struct Record {
    routine: usize,
    /// Sent with a unique deadline, so its cache probes miss.
    cold: bool,
    req: OptimizeRequest,
    /// Latency from the send (closed loop) or from the due time (open
    /// loop), milliseconds, scaled to the reference host's speed.
    latency_ms: f64,
    /// Latency from the send, wall milliseconds.
    service_ms: f64,
    /// How late the generator sent it, milliseconds.
    late_ms: f64,
    answer: Result<DoneFrame, (Outcome, String)>,
}

fn outcome_of(
    r: Result<epre_serve::SubmitOutcome, ClientError>,
) -> Result<DoneFrame, (Outcome, String)> {
    match r {
        Ok(o) if o.done.status == "clean" => Ok(o.done),
        Ok(o) => Err((
            Outcome::Faulted,
            format!("degraded: {} fault(s)", o.done.faults),
        )),
        Err(e @ ClientError::Refused { .. }) => Err((Outcome::Refused, e.to_string())),
        Err(e @ ClientError::Exhausted { .. }) => Err((Outcome::Failed, e.to_string())),
    }
}

/// Suite inputs for the serve workloads.
struct Inputs {
    routines: Vec<Routine>,
    /// Each routine's module, printed.
    plain: Vec<String>,
}

impl Inputs {
    fn new() -> Inputs {
        let routines = suite::compile();
        let plain = routines.iter().map(|r| format!("{}", r.module)).collect();
        Inputs { routines, plain }
    }
}

/// The cache key configuration line of every benchmark request.
fn config_line() -> String {
    let keyed = RequestBudget::admit(ServeConfig::default().caps, None).keyed_budget();
    header_line(LEVEL.label(), POLICY, &keyed)
}

/// Bytes the primed warm set occupies in the cache journal.
fn warm_set_bytes(inputs: &Inputs) -> u64 {
    let config = config_line();
    let mut bytes = CACHE_HEADER.len() as u64 + 1;
    for r in &inputs.routines {
        let out = Optimizer::new(LEVEL).optimize(&r.module);
        for (fi, fo) in r.module.functions.iter().zip(&out.functions) {
            let key = ResultCache::key(&config, &format!("{fi}"));
            bytes += record_len(&key, 1_000_000, &format!("{fo}"));
        }
    }
    bytes
}

/// Set up once: compile the suite, size the cache, start the daemon and
/// (for `serve-mixed`) prime the warm pool. Returns the primed answers.
fn setup_once(
    args: &Args,
    mode: Mode,
    rep: usize,
) -> Result<(Inputs, Daemon, Option<u64>, Vec<String>), String> {
    let inputs = Inputs::new();
    let cap = match mode {
        Mode::Cold => None,
        Mode::Mixed => Some((warm_set_bytes(&inputs) as f64 * CAP_HEADROOM) as u64),
    };
    let dir = args
        .scratch
        .join(format!("{}-{}-{rep}", args.workload, std::process::id()));
    let daemon = Daemon::start(&args.epre, dir, cap)?;
    let mut primed = Vec::new();
    if mode == Mode::Mixed {
        let mut session = Session::new(daemon.client());
        for (i, text) in inputs.plain.iter().enumerate() {
            let done = outcome_of(session.submit(&request(text.clone(), None)))
                .map_err(|(_, e)| format!("priming {}: {e}", inputs.routines[i].name))?;
            primed.push(done.module_text);
        }
    }
    Ok((inputs, daemon, cap, primed))
}

/// Run the workload.
///
/// # Errors
/// Set-up failures: the daemon would not start or prime.
pub fn run(args: &Args, mode: Mode) -> Result<Report, String> {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("creating {}: {e}", args.scratch.display()))?;
    let mut setup_s = Vec::new();
    let mut state = None;
    let mut cal = Calibrator::default();
    let reps = match mode {
        Mode::Cold => COLD_SETUP_REPS,
        Mode::Mixed => MIXED_SETUP_REPS,
    };
    for rep in 0..reps {
        // The previous repetition's daemon stops before the next starts.
        drop(state.take());
        cal.sample_all(CALIB_REPS);
        let t = Instant::now();
        let s = setup_once(args, mode, rep)?;
        setup_s.push(cal.scale(secs(t)));
        state = Some(s);
    }
    let (inputs, daemon, cap, primed) = state.expect("set-up ran");
    let setup_s = median(&setup_s).expect("set-up ran");
    let before = daemon.stats()?;

    let mut rng = SplitMix64::new(args.seed ^ 0x5E_57E5);
    let (records, rss, span_s) = match mode {
        Mode::Cold => closed_loop(args, &inputs, &daemon, &mut rng, &mut cal)?,
        Mode::Mixed => open_loop(args, &inputs, &daemon, &mut rng, &mut cal)?,
    };
    let after = daemon.stats()?;
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);

    let checked = check(&inputs, &records, &primed);
    let mut problems = checked.problems.clone();

    if args.trace {
        let mut metrics = Vec::new();
        let mut lines = traced(
            args,
            &inputs,
            &records,
            cap,
            &primed,
            &mut metrics,
            &mut problems,
        )?;
        let hits = delta("cache_hits");
        metrics.extend([
            ("core.driver_ms".to_string(), 0.0, "ms"),
            (
                "interp.ops_per_s".to_string(),
                checked.interp_ops as f64 / checked.interp_s,
                "1/s",
            ),
            (
                "serve.evictions".to_string(),
                delta("cache_evictions") as f64,
                "count",
            ),
            (
                "serve.compactions".to_string(),
                delta("cache_compactions") as f64,
                "count",
            ),
            (
                "serve.hit_frac".to_string(),
                layers::ratio(hits, hits + delta("cache_misses")),
                "frac",
            ),
            (
                "serve.shed".to_string(),
                (delta("shed_overload") + delta("shed_deadline") + delta("shed_quarantined"))
                    as f64,
                "count",
            ),
            (
                "gen.late_p99_ms".to_string(),
                late_p99(mode, &records),
                "ms",
            ),
        ]);
        lines.extend(problems.iter().cloned());
        return Ok(Report {
            correct: problems.is_empty(),
            tally: checked.tally,
            metrics,
            lines,
        });
    }

    let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    let answered = records.iter().filter(|r| r.answer.is_ok()).count();
    let e2e = EndToEnd {
        setup_s,
        p50_ms: median(&latencies).ok_or("no requests completed")?,
        tail_ms: nearest_rank(&latencies, TAIL_P).ok_or("too few requests for the tail")?,
        req_per_s: answered as f64 / span_s,
        peak_rss_mb: rss,
        dyn_ops: checked.dyn_ops,
        static_ops: checked.static_ops,
    };
    let mut lines = vec![
        format!(
            "requests {} ({} cold), {} connection(s), cache cap {}",
            records.len(),
            records.iter().filter(|r| r.cold).count(),
            if mode == Mode::Cold { 1 } else { CONNECTIONS },
            cap.map_or("none".to_string(), |c| format!("{c} bytes")),
        ),
        format!(
            "p50_ms {:.3} ms, p99_ms {:.3} ms ({} samples, scaled)",
            e2e.p50_ms,
            e2e.tail_ms,
            records.len()
        ),
        cal.line(
            &records
                .iter()
                .map(|r| r.service_ms + r.late_ms)
                .collect::<Vec<_>>(),
        ),
        format!(
            "failed_frac {} ({}/{})",
            checked.tally.failed_frac(),
            checked.tally.failed,
            checked.tally.attempted
        ),
        format!(
            "daemon: cache hits {} misses {} evictions {} compactions {}",
            delta("cache_hits"),
            delta("cache_misses"),
            delta("cache_evictions"),
            delta("cache_compactions")
        ),
    ];
    if mode == Mode::Mixed {
        lines.push(format!(
            "gen_late_ms {:.3} ms (p99), offered rate {} req/s",
            late_p99(mode, &records),
            args.mixed_rate
        ));
    }
    lines.extend(problems.iter().cloned());
    Ok(Report {
        correct: problems.is_empty(),
        metrics: e2e.metrics(&checked.tally),
        tally: checked.tally,
        lines,
    })
}

fn late_p99(mode: Mode, records: &[Record]) -> f64 {
    if mode == Mode::Cold {
        return 0.0;
    }
    let late: Vec<f64> = records.iter().map(|r| r.late_ms).collect();
    nearest_rank(&late, TAIL_P).unwrap_or(0.0)
}

/// Routine indices in rounds: each round a fresh seeded permutation of
/// the suite, so any 50 consecutive requests cover every routine.
struct Rounds {
    n: usize,
    queue: Vec<usize>,
}

impl Rounds {
    fn next(&mut self, rng: &mut SplitMix64) -> usize {
        if self.queue.is_empty() {
            self.queue = (0..self.n).collect();
            for i in (1..self.n).rev() {
                self.queue
                    .swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
        }
        self.queue.pop().expect("refilled")
    }
}

/// `serve-cold`: one session, the next request sent when the previous
/// answer arrives, until `--seconds` have passed and the p99 has enough
/// samples. The daemon's peak RSS is read after a fixed number of
/// requests, so it does not grow with throughput through the uncapped
/// cache.
fn closed_loop(
    args: &Args,
    inputs: &Inputs,
    daemon: &Daemon,
    rng: &mut SplitMix64,
    cal: &mut Calibrator,
) -> Result<(Vec<Record>, f64, f64), String> {
    let min_requests = min_samples(TAIL_P);
    let mut rounds = Rounds {
        n: inputs.routines.len(),
        queue: Vec::new(),
    };
    let mut session = Session::new(daemon.client());
    let mut records = Vec::new();
    let mut rss = None;
    let start = Instant::now();
    while start.elapsed() < args.seconds || records.len() < min_requests {
        let routine = rounds.next(rng);
        let deadline = COLD_DEADLINE_MS + records.len() as u64;
        let req = request(inputs.plain[routine].clone(), Some(deadline));
        if records.len() % COLD_CALIB_EVERY == 0 {
            cal.sample_all(CALIB_REPS);
        }
        let t = Instant::now();
        let answer = outcome_of(session.submit(&req));
        let ms = millis(t);
        records.push(Record {
            routine,
            cold: true,
            req,
            latency_ms: cal.scale(ms),
            service_ms: ms,
            late_ms: 0.0,
            answer,
        });
        if records.len() == min_requests {
            rss = Some(daemon.peak_rss_mb()?);
        }
    }
    let busy_s = records.iter().map(|r| r.latency_ms).sum::<f64>() / 1e3;
    Ok((records, rss.expect("min_requests reached"), busy_s))
}

/// `serve-mixed`: requests due at a fixed rate, taken in order by
/// [`CONNECTIONS`] sender threads, each with its own session. A request
/// is sent at its due time or as soon as a connection frees up, and its
/// latency runs from the due time.
///
/// The schedule runs in bursts of [`BURST_SECONDS`]; between bursts, with
/// every answer in, the calibration kernel runs on every CPU, and each
/// burst's latencies are scaled by the kernel runs before it.
fn open_loop(
    args: &Args,
    inputs: &Inputs,
    daemon: &Daemon,
    rng: &mut SplitMix64,
    cal: &mut Calibrator,
) -> Result<(Vec<Record>, f64, f64), String> {
    // Cold and warm requests each take routines in rounds, and the count
    // is rounded up to whole rounds of both kinds, so every seed sends the
    // same multiset of routines of each kind.
    let block = COLD_EVERY * inputs.routines.len();
    let n = ((args.mixed_rate * args.seconds.as_secs_f64()).ceil() as usize)
        .max(min_samples(TAIL_P))
        .div_ceil(block)
        * block;
    let mut cold_rounds = Rounds {
        n: inputs.routines.len(),
        queue: Vec::new(),
    };
    let mut warm_rounds = Rounds {
        n: inputs.routines.len(),
        queue: Vec::new(),
    };
    let mut planned = Vec::with_capacity(n);
    let mut cold_at = 0;
    for i in 0..n {
        // One cold request in each block of COLD_EVERY, at a seeded place.
        if i % COLD_EVERY == 0 {
            cold_at = i + (rng.next_u64() % COLD_EVERY as u64) as usize;
        }
        let cold = i == cold_at;
        let routine = if cold {
            cold_rounds.next(rng)
        } else {
            warm_rounds.next(rng)
        };
        let deadline = cold.then_some(COLD_DEADLINE_MS + i as u64);
        planned.push((
            routine,
            cold,
            request(inputs.plain[routine].clone(), deadline),
        ));
    }
    let period = 1.0 / args.mixed_rate;
    let burst = ((args.mixed_rate * BURST_SECONDS).ceil() as usize).max(1);
    let mut sessions: Vec<Session> = (0..CONNECTIONS)
        .map(|_| Session::new(daemon.client()))
        .collect();
    let mut results = Vec::with_capacity(n);
    let mut span_s = 0.0;
    for first in (0..n).step_by(burst) {
        let todo = &planned[first..(first + burst).min(n)];
        cal.sample_all(CALIB_REPS);
        let next = AtomicUsize::new(0);
        let answers = Mutex::new(Vec::with_capacity(todo.len()));
        // Start the burst a little ahead so both senders are waiting.
        let t0 = Instant::now() + Duration::from_millis(5);
        std::thread::scope(|s| {
            for session in &mut sessions {
                let (next, answers) = (&next, &answers);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= todo.len() {
                        break;
                    }
                    let due = t0 + Duration::from_secs_f64(i as f64 * period);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let answer = outcome_of(session.submit(&todo[i].2));
                    let done = Instant::now();
                    let at = |x: Instant| x.saturating_duration_since(t0).as_secs_f64();
                    let sample = OpenLoopSample {
                        due: at(due),
                        sent: at(sent),
                        done: at(done),
                    };
                    answers
                        .lock()
                        .expect("answers poisoned")
                        .push((first + i, sample, answer));
                });
            }
        });
        let answers = answers.into_inner().expect("answers poisoned");
        span_s += answers.iter().map(|a| a.1.done).fold(0.0, f64::max);
        let scale = cal.scale(1.0);
        results.extend(answers.into_iter().map(|(i, s, a)| (i, s, scale, a)));
    }
    let rss = daemon.peak_rss_mb()?;
    results.sort_by_key(|r| r.0);
    let records = planned
        .into_iter()
        .zip(results)
        .map(|((routine, cold, req), (_, s, scale, answer))| Record {
            routine,
            cold,
            req,
            latency_ms: s.latency() * 1e3 * scale,
            service_ms: (s.done - s.sent) * 1e3,
            late_ms: s.late() * 1e3,
            answer,
        })
        .collect();
    Ok((records, rss, span_s))
}

/// Every answer must equal its routine's reference answer: the primed
/// answer in `serve-mixed`, the first answer in `serve-cold`. Each
/// reference is run in the interpreter and must return the unoptimized
/// module's checksum; the references' op counts are `dyn_ops` and
/// `static_ops`.
fn check(inputs: &Inputs, records: &[Record], primed: &[String]) -> Checked {
    let n = inputs.routines.len();
    let mut refs: Vec<Option<&str>> = vec![None; n];
    for (i, text) in primed.iter().enumerate() {
        refs[i] = Some(text);
    }
    for r in records {
        if let Ok(done) = &r.answer {
            refs[r.routine].get_or_insert(&done.module_text);
        }
    }
    let mut c = Checked::default();
    let mut verified = vec![false; n];
    for (i, r) in inputs.routines.iter().enumerate() {
        let Some(text) = refs[i] else {
            c.problems.push(format!("{}: never answered", r.name));
            continue;
        };
        let t = Instant::now();
        let reference = suite::run(&r.module, r.entry);
        let answer = parse_module(text).map_err(|e| e.to_string());
        let run = answer
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|m| suite::run(m, r.entry));
        c.interp_s += secs(t);
        match (reference, run, answer) {
            (Ok(want), Ok(got), Ok(m)) => {
                c.interp_ops += want.dyn_ops + got.dyn_ops;
                c.dyn_ops += got.dyn_ops;
                c.static_ops += suite::static_ops(&m);
                if suite::same_checksum(want.result, got.result) {
                    verified[i] = true;
                } else {
                    c.problems.push(format!(
                        "{}: answer returns {:?}, unoptimized {:?}",
                        r.name, got.result, want.result
                    ));
                }
            }
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                c.problems.push(format!("{}: {e}", r.name));
            }
        }
    }
    let mut mismatched = BTreeSet::new();
    for r in records {
        let outcome = match &r.answer {
            Err((o, why)) => {
                c.problems
                    .push(format!("{}: {o:?}: {why}", inputs.routines[r.routine].name));
                *o
            }
            Ok(done) => {
                let same = refs[r.routine] == Some(done.module_text.as_str());
                if !same {
                    mismatched.insert(inputs.routines[r.routine].name);
                }
                if same && verified[r.routine] {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            }
        };
        c.tally.record(outcome);
    }
    for name in mismatched {
        c.problems
            .push(format!("{name}: answers differ from its reference answer"));
    }
    if c.tally.failed > 0 {
        c.problems.push(format!(
            "{} of {} requests failed",
            c.tally.failed, c.tally.attempted
        ));
    }
    c
}

/// The traced run: re-enact the measured requests in send order, each
/// once plainly and once with every stage timed, against mirror caches
/// that saw the same requests. Re-enactment stops after `--seconds` of
/// work, with at least 50 requests.
fn traced(
    args: &Args,
    inputs: &Inputs,
    records: &[Record],
    cap: Option<u64>,
    primed: &[String],
    metrics: &mut Vec<Metric>,
    problems: &mut Vec<String>,
) -> Result<Vec<String>, String> {
    let dir = args
        .scratch
        .join(format!("{}-{}-mirror", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let open = |name: &str| {
        ResultCache::open_capped(&dir.join(name), cap).map_err(|e| format!("mirror cache: {e}"))
    };
    let (plain_cache, traced_cache) = (open("plain.journal")?, open("traced.journal")?);
    let cfg = ServeConfig::default();
    // Prime the mirrors as the daemon was primed.
    for text in inputs.plain.iter().take(primed.len()) {
        let payload = Request::Optimize(request(text.clone(), None)).encode();
        for cache in [&plain_cache, &traced_cache] {
            reenact(&payload, cache, &cfg, None)?;
        }
    }
    let l: Shared = Arc::new(Mutex::new(Layers::default()));
    let (mut plain_s, mut count, mut service_ms) = (0.0, 0usize, 0.0);
    let start = Instant::now();
    for r in records {
        if count >= 50 && start.elapsed() >= args.seconds {
            break;
        }
        let Ok(done) = &r.answer else { continue };
        let payload = Request::Optimize(r.req.clone()).encode();
        let mut run_plain = || {
            let t = Instant::now();
            let plain = reenact(&payload, &plain_cache, &cfg, None);
            plain_s += secs(t);
            plain
        };
        let run_traced = || layers::op(&l, || reenact(&payload, &traced_cache, &cfg, Some(&l)));
        // Alternate which goes first, so neither always runs warm.
        let (plain, traced) = if count % 2 == 0 {
            let plain = run_plain()?;
            (plain, run_traced()?)
        } else {
            let traced = run_traced()?;
            (run_plain()?, traced)
        };
        if plain != done.module_text || traced != done.module_text {
            problems.push(format!(
                "re-enacted answer for request {} differs from the daemon's",
                r.req.request
            ));
        }
        service_ms += r.service_ms;
        count += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    if count == 0 {
        return Err("no answered request to re-enact".into());
    }
    let g = layers::lock(&l);
    let ops = count as f64;
    g.metrics(ops, metrics);
    let staged_ns: u64 = g.stage_ns.iter().sum();
    let unattributed = service_ms / ops - staged_ns as f64 / 1e6 / ops;
    let traced_s = g.wall_ns as f64 / 1e9;
    metrics.push(("serve.unattributed_ms".to_string(), unattributed, "ms"));
    metrics.push((
        "trace.overhead_frac".to_string(),
        traced_s / plain_s - 1.0,
        "frac",
    ));
    Ok(vec![format!(
        "re-enacted {count} of {} requests in-process; plain {:.3} ms/request, traced {:.3} ms/request",
        records.len(),
        plain_s * 1e3 / ops,
        traced_s * 1e3 / ops
    )])
}

/// Serve one optimize request payload in-process, calling the public
/// functions `ServerCore::handle_optimize` calls, in the same order, and
/// return the answer's module text. With `l`, every stage is timed and
/// every pass wrapped in a timer.
fn reenact(
    payload: &str,
    cache: &ResultCache,
    cfg: &ServeConfig,
    l: Option<&Shared>,
) -> Result<String, String> {
    let Request::Optimize(r) = layers::stage(l, Stage::Decode, || Request::decode(payload))? else {
        return Err("not an optimize request".into());
    };
    let rid = if r.request.is_empty() {
        r.request_id()
    } else {
        r.request.clone()
    };
    let level = level_from_label(&r.level).ok_or("unknown level")?;
    let policy = policy_from_label(&r.policy)?;
    let module = layers::stage(l, Stage::Parse, || parse_module(&r.module_text))
        .map_err(|e| format!("module does not parse: {e}"))?;
    let rb = RequestBudget::admit(cfg.caps, r.deadline_ms);
    let config_line = header_line(level.label(), policy.label(), &rb.keyed_budget());

    let n = module.functions.len();
    let mut slots: Vec<Option<Function>> = vec![None; n];
    let mut miss_idx = Vec::new();
    for (i, f) in module.functions.iter().enumerate() {
        let text = layers::stage(l, Stage::Print, || format!("{f}"));
        let body = layers::stage(l, Stage::Probe, || {
            cache.lookup(&ResultCache::key(&config_line, &text))
        });
        let replayed = body.and_then(|body| {
            let parsed = layers::stage(l, Stage::Parse, || parse_function(&body)).ok()?;
            (parsed.name == f.name).then_some(parsed)
        });
        match replayed {
            Some(parsed) => slots[i] = Some(parsed),
            None => miss_idx.push(i),
        }
    }
    let reused = n - miss_idx.len();

    let mut report = SandboxReport::default();
    if !miss_idx.is_empty() {
        let live = rb.live_budget().ok_or("deadline expired")?;
        let mut sub = module.clone();
        sub.functions = miss_idx
            .iter()
            .map(|&i| module.functions[i].clone())
            .collect();
        let shared = l.cloned();
        let passes_for = move || {
            let passes = Optimizer::new(level).passes();
            match &shared {
                Some(l) => layers::timed(passes, l),
                None => passes,
            }
        };
        let (optimized, rep) = layers::stage(l, Stage::Governed, || {
            run_module_governed(
                &sub,
                &passes_for,
                policy,
                &LintOptions::invariants_only(),
                &live,
                cfg.breaker_threshold,
                cfg.request_jobs,
            )
        })
        .map_err(|fault| format!("pipeline fault escaped containment: {fault}"))?;
        for (slot, f) in miss_idx.iter().zip(optimized.functions) {
            slots[*slot] = Some(f);
        }
        report = rep;
    }

    let mut candidate = module.clone();
    candidate.functions = slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect();
    let out = if miss_idx.is_empty() {
        HardenedOutput {
            module: candidate,
            faults: Vec::new(),
            divergences: Vec::new(),
            retries: 0,
            skipped: 0,
            quarantined: Vec::new(),
            inconclusive: 0,
        }
    } else {
        let harness = Harness {
            level,
            policy,
            oracle: cfg.oracle,
            budget: rb.live_budget().unwrap_or(cfg.caps),
            breaker_threshold: cfg.breaker_threshold,
            function_deadline: None,
        };
        layers::stage(l, Stage::Oracle, || {
            harness.finish_with_oracle(&module, candidate, report)
        })
    };
    let rolled_back: Vec<String> = out
        .rolled_back_functions()
        .into_iter()
        .map(str::to_string)
        .collect();

    let miss_set: BTreeSet<usize> = miss_idx.iter().copied().collect();
    if out.quarantined.is_empty() && out.skipped == 0 {
        for (i, (input_f, out_f)) in module
            .functions
            .iter()
            .zip(&out.module.functions)
            .enumerate()
        {
            let clean = !rolled_back.iter().any(|rb| rb == &input_f.name)
                && !out.faults.iter().any(|ft| ft.function == input_f.name);
            if miss_set.contains(&i) && clean {
                let (key_text, body) = layers::stage(l, Stage::Print, || {
                    (format!("{input_f}"), format!("{out_f}"))
                });
                layers::stage(l, Stage::Insert, || {
                    cache.insert(&ResultCache::key(&config_line, &key_text), &body)
                })
                .map_err(|e| format!("mirror cache insert: {e}"))?;
            }
        }
    }

    let module_text = layers::stage(l, Stage::Print, || format!("{}", out.module));
    let mut frames: Vec<Response> = module
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| {
            Response::Function(FunctionFrame {
                name: f.name.clone(),
                cached: !miss_set.contains(&i),
                faults: out.faults.iter().filter(|ft| ft.function == f.name).count() as u64,
                rolled_back: rolled_back.iter().any(|rb| rb == &f.name),
                request: rid.clone(),
            })
        })
        .collect();
    let idempotency = if r.idempotency.is_empty() {
        r.idempotency_key()
    } else {
        r.idempotency.clone()
    };
    frames.push(Response::Done(DoneFrame {
        status: if out.is_clean() { "clean" } else { "degraded" }.into(),
        idempotency,
        request: rid,
        module_text: module_text.clone(),
        reused: reused as u64,
        fresh: miss_idx.len() as u64,
        faults: out.faults.len() as u64,
        rollbacks: rolled_back.len() as u64,
        quarantined: out.quarantined.len() as u64,
        inconclusive: out.inconclusive as u64,
        client_quarantined: false,
    }));
    let encoded: Vec<String> = layers::stage(l, Stage::Encode, || {
        frames.iter().map(Response::encode).collect()
    });
    std::hint::black_box(encoded);
    Ok(module_text)
}
