//! `opt-suite`: batch `epre opt` / `epre report` users. A closed loop on
//! one thread; one iteration optimizes each of the 50 suite modules at
//! the four paper levels, in Table 1 order, with `jobs = 1`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use epre::{run_pass_cached, OptLevel, Optimizer};
use epre_analysis::AnalysisCache;
use epre_ir::Module;
use epre_perfbench::calib::Calibrator;
use epre_perfbench::stats::{median, min_samples, nearest_rank, Outcome};

use crate::layers::{self, Layers, Shared};
use crate::suite::{self, Checked, Routine};
use crate::{millis, peak_rss_mb, secs, Args, EndToEnd, Report};

/// The tail percentile of iteration time.
const TAIL_P: f64 = 90.0;

/// Set-up (compiling the suite, a few milliseconds) is repeated this many
/// times; `setup_s` is the median.
const SETUP_REPS: usize = 25;

/// The traced run alternates untraced and traced iterations and needs a
/// few of each for its medians.
const MIN_TRACED_ITERATIONS: usize = 5;

/// Calibration kernel runs before each iteration and each set-up.
const CALIB_REPS: usize = 8;

/// One iteration through `Optimizer::optimize_jobs(_, 1)`.
fn iteration(routines: &[Routine]) -> Vec<Module> {
    let mut out = Vec::with_capacity(routines.len() * OptLevel::PAPER_LEVELS.len());
    for r in routines {
        for level in OptLevel::PAPER_LEVELS {
            out.push(Optimizer::new(level).optimize_jobs(black_box(&r.module), 1));
        }
    }
    out
}

/// The same iteration, driving `Optimizer::passes()` through
/// `run_pass_cached` with one `AnalysisCache` per function, each pass
/// wrapped in a timer.
fn traced_iteration(routines: &[Routine], l: &Shared) -> Vec<Module> {
    let mut out = Vec::with_capacity(routines.len() * OptLevel::PAPER_LEVELS.len());
    for r in routines {
        for level in OptLevel::PAPER_LEVELS {
            let mut m = black_box(&r.module).clone();
            for f in &mut m.functions {
                let mut cache = AnalysisCache::new();
                for pass in layers::timed(Optimizer::new(level).passes(), l) {
                    if let Err(fault) = run_pass_cached(pass.as_ref(), f, &mut cache) {
                        panic!("{fault}");
                    }
                }
            }
            out.push(m);
        }
    }
    out
}

/// Run every optimized routine of `first` in the interpreter and compare
/// its checksum with the unoptimized module's; `last` (a later
/// iteration) must be byte-identical to `first`. Each (routine, level)
/// pair stands for `iterations` operations.
fn check(routines: &[Routine], first: &[Module], last: &[Module], iterations: u64) -> Checked {
    let mut c = Checked::default();
    let levels = OptLevel::PAPER_LEVELS;
    for (i, r) in routines.iter().enumerate() {
        let t = Instant::now();
        let reference = suite::run(&r.module, r.entry);
        c.interp_s += secs(t);
        let reference = match reference {
            Ok(run) => {
                c.interp_ops += run.dyn_ops;
                run
            }
            Err(e) => {
                c.problems
                    .push(format!("{}: unoptimized module fails: {e}", r.name));
                for _ in 0..levels.len() as u64 * iterations {
                    c.tally.record(Outcome::Failed);
                }
                continue;
            }
        };
        for (j, level) in levels.iter().enumerate() {
            let m = &first[i * levels.len() + j];
            let t = Instant::now();
            let run = suite::run(m, r.entry);
            c.interp_s += secs(t);
            let outcome = match run {
                Ok(run) => {
                    c.interp_ops += run.dyn_ops;
                    c.dyn_ops += run.dyn_ops;
                    c.static_ops += suite::static_ops(m);
                    if !suite::same_checksum(run.result, reference.result) {
                        c.problems.push(format!(
                            "{} at {}: checksum {:?}, unoptimized {:?}",
                            r.name,
                            level.label(),
                            run.result,
                            reference.result
                        ));
                        Outcome::Wrong
                    } else if format!("{m}") != format!("{}", last[i * levels.len() + j]) {
                        c.problems.push(format!(
                            "{} at {}: output differs between iterations",
                            r.name,
                            level.label()
                        ));
                        Outcome::Wrong
                    } else {
                        Outcome::Ok
                    }
                }
                Err(e) => {
                    c.problems
                        .push(format!("{} at {}: {e}", r.name, level.label()));
                    Outcome::Failed
                }
            };
            for _ in 0..iterations {
                c.tally.record(outcome);
            }
        }
    }
    c
}

/// Compile the suite [`SETUP_REPS`] times; the median scaled time is
/// `setup_s`.
fn setup(cal: &mut Calibrator) -> (Vec<Routine>, f64) {
    let mut times = Vec::new();
    let mut routines = Vec::new();
    for _ in 0..SETUP_REPS {
        cal.sample(CALIB_REPS);
        let t = Instant::now();
        routines = suite::compile();
        times.push(cal.scale(secs(t)));
    }
    (routines, median(&times).expect("set-up ran"))
}

/// Run the workload.
///
/// # Errors
/// Reading the process's peak RSS.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut cal = Calibrator::default();
    let (routines, setup_s) = setup(&mut cal);
    if args.trace {
        return traced(args, &routines);
    }
    let min_iterations = min_samples(TAIL_P);
    let start = Instant::now();
    let (mut iter_ms, mut wall_ms) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<Module>> = None;
    let mut last = Vec::new();
    while start.elapsed() < args.seconds || iter_ms.len() < min_iterations {
        cal.sample(CALIB_REPS);
        let t = Instant::now();
        let out = iteration(&routines);
        let ms = millis(t);
        wall_ms.push(ms);
        iter_ms.push(cal.scale(ms));
        if first.is_none() {
            first = Some(out);
        } else {
            last = out;
        }
    }
    let peak_rss_mb = peak_rss_mb("self")?;
    let first = first.expect("at least one iteration");
    let n = iter_ms.len() as u64;
    let checked = check(&routines, &first, &last, n);

    let calls = n as f64 * (routines.len() * OptLevel::PAPER_LEVELS.len()) as f64;
    let e2e = EndToEnd {
        setup_s,
        p50_ms: median(&iter_ms).expect("iterations ran"),
        tail_ms: nearest_rank(&iter_ms, TAIL_P).expect("enough iterations for the tail"),
        req_per_s: calls / (iter_ms.iter().sum::<f64>() / 1e3),
        peak_rss_mb,
        dyn_ops: checked.dyn_ops,
        static_ops: checked.static_ops,
    };
    let mut lines = vec![
        format!(
            "iterations {n} (each {} routines x 4 levels), untraced",
            routines.len()
        ),
        format!("opt_ms {:.3} ms (median iteration, scaled)", e2e.p50_ms),
        cal.line(&wall_ms),
        format!(
            "opt_p90_ms {:.3} ms (nearest rank, {n} samples)",
            e2e.tail_ms
        ),
        format!(
            "failed_frac {} ({}/{})",
            checked.tally.failed_frac(),
            checked.tally.failed,
            checked.tally.attempted
        ),
    ];
    lines.extend(checked.problems.iter().cloned());
    Ok(Report {
        correct: checked.problems.is_empty(),
        metrics: e2e.metrics(&checked.tally),
        tally: checked.tally,
        lines,
    })
}

/// The traced run: untraced and traced iterations alternate; every
/// traced output must be byte-identical to the untraced one.
fn traced(args: &Args, routines: &[Routine]) -> Result<Report, String> {
    let l: Shared = Arc::new(std::sync::Mutex::new(Layers::default()));
    let start = Instant::now();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<Module>> = None;
    let mut last = Vec::new();
    let mut problems = Vec::new();
    while start.elapsed() < args.seconds || traced_ms.len() < MIN_TRACED_ITERATIONS {
        // Alternate which goes first, so neither always runs warm.
        let plain_first = untraced_ms.len() % 2 == 0;
        let mut run_plain = || {
            let t = Instant::now();
            let plain = iteration(routines);
            untraced_ms.push(millis(t));
            plain
        };
        let mut run_traced = || {
            let wall0 = layers::lock(&l).wall_ns;
            let out = layers::op(&l, || traced_iteration(routines, &l));
            traced_ms.push((layers::lock(&l).wall_ns - wall0) as f64 / 1e6);
            out
        };
        let (plain, out) = if plain_first {
            let plain = run_plain();
            (plain, run_traced())
        } else {
            let out = run_traced();
            (run_plain(), out)
        };

        if plain
            .iter()
            .zip(&out)
            .any(|(a, b)| format!("{a}") != format!("{b}"))
        {
            problems.push(format!(
                "traced iteration {} differs from Optimizer::optimize",
                traced_ms.len()
            ));
        }
        if first.is_none() {
            first = Some(out);
        } else {
            last = out;
        }
    }
    let first = first.expect("at least one iteration");
    if last.is_empty() {
        last = first.clone();
    }
    let n = traced_ms.len() as u64;
    let checked = check(routines, &first, &last, n);
    problems.extend(checked.problems.iter().cloned());

    let g = layers::lock(&l);
    let ops = n as f64;
    // Reconciliation: driver time is what the traced wall time leaves
    // after the passes; a negative remainder would mean double counting.
    let driver_ns = g.wall_ns as i128 - g.pass_total_ns() as i128;
    if driver_ns < 0 {
        problems.push(format!(
            "reconciliation: passes {} ns exceed traced wall {} ns",
            g.pass_total_ns(),
            g.wall_ns
        ));
    }
    let untraced = median(&untraced_ms).expect("iterations ran");
    let overhead = median(&traced_ms).expect("iterations ran") / untraced - 1.0;

    let mut metrics = Vec::new();
    g.metrics(ops, &mut metrics);
    metrics.extend([
        (
            "core.driver_ms".to_string(),
            driver_ns as f64 / 1e6 / ops,
            "ms",
        ),
        (
            "interp.ops_per_s".to_string(),
            checked.interp_ops as f64 / checked.interp_s,
            "1/s",
        ),
        ("serve.evictions".to_string(), 0.0, "count"),
        ("serve.compactions".to_string(), 0.0, "count"),
        ("serve.unattributed_ms".to_string(), 0.0, "ms"),
        ("serve.hit_frac".to_string(), 0.0, "frac"),
        ("serve.shed".to_string(), 0.0, "count"),
        ("gen.late_p99_ms".to_string(), 0.0, "ms"),
        ("trace.overhead_frac".to_string(), overhead, "frac"),
    ]);
    let mut lines = vec![
        format!("traced iterations {n}, untraced median {untraced:.3} ms"),
        format!(
            "reconciliation: core.driver_ms + sum(passes.*.ms) = {:.3} ms = trace.wall_ms",
            g.wall_ns as f64 / 1e6 / ops
        ),
    ];
    lines.extend(problems.iter().cloned());
    Ok(Report {
        correct: problems.is_empty(),
        tally: checked.tally,
        metrics,
        lines,
    })
}
