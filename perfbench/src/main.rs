//! `perfbench` — the repository benchmark for `epre opt` and `epre serve`.
//!
//! ```text
//! perfbench --workload opt-suite|serve-cold|serve-mixed --seed N --seconds S
//!           --trace 0|1 [--epre PATH] [--scratch DIR] [--mixed-rate R]
//! ```
//!
//! `perfbench/run.py` builds this binary and the `epre` daemon and passes
//! `--epre` and `--scratch`; see `perfbench/README.md` for the workloads
//! and metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod layers;
mod opt;
mod serve;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use epre_perfbench::stats::Tally;

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
    epre: PathBuf,
    scratch: PathBuf,
    mixed_rate: f64,
}

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a workload run reports.
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted and failed during measurement.
    pub tally: Tally,
    /// The metrics of the last output line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before it.
    pub lines: Vec<String>,
}

/// The end-to-end metrics every workload reports. Times are scaled to
/// the reference host speed (see `epre_perfbench::calib`).
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Median operation latency.
    pub p50_ms: f64,
    /// Tail latency at the workload's percentile.
    pub tail_ms: f64,
    /// Operations completed per second.
    pub req_per_s: f64,
    /// Peak resident set of the optimizing process.
    pub peak_rss_mb: f64,
    /// Dynamic ILOC operations of the checked outputs.
    pub dyn_ops: u64,
    /// Static ILOC operations of the checked outputs.
    pub static_ops: u64,
}

impl EndToEnd {
    /// The metric list, in `BENCHMARK.json` order.
    pub fn metrics(&self, tally: &Tally) -> Vec<Metric> {
        vec![
            ("setup_s".into(), self.setup_s, "s"),
            ("p50_ms".into(), self.p50_ms, "ms"),
            ("tail_ms".into(), self.tail_ms, "ms"),
            ("req_per_s".into(), self.req_per_s, "1/s"),
            ("peak_rss_mb".into(), self.peak_rss_mb, "MB"),
            ("dyn_ops".into(), self.dyn_ops as f64, "ops"),
            ("static_ops".into(), self.static_ops as f64, "ops"),
            ("ok_frac".into(), 1.0 - tally.failed_frac(), "frac"),
        ]
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn millis(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        epre: PathBuf::from("target/release/epre"),
        scratch: PathBuf::from(".bench_tmp"),
        mixed_rate: 100.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds needs a positive number".into());
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other}")),
                }
            }
            "--epre" => args.epre = PathBuf::from(value()?),
            "--scratch" => args.scratch = PathBuf::from(value()?),
            "--mixed-rate" => {
                args.mixed_rate = value()?.parse().map_err(|e| format!("--mixed-rate: {e}"))?;
                if !(args.mixed_rate > 0.0 && args.mixed_rate.is_finite()) {
                    return Err("--mixed-rate needs a positive rate".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Render the result line. Values keep every digit `f64` prints.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.tally.attempted,
        r.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "opt-suite" => opt::run(&args),
        "serve-cold" => serve::run(&args, serve::Mode::Cold),
        "serve-mixed" => serve::run(&args, serve::Mode::Mixed),
        other => Err(format!(
            "unknown workload `{other}` (opt-suite, serve-cold, serve-mixed)"
        )),
    };
    match report {
        Ok(r) => {
            println!(
                "workload {} seed {} seconds {} trace {}",
                args.workload,
                args.seed,
                args.seconds.as_secs_f64(),
                u8::from(args.trace)
            );
            for line in &r.lines {
                println!("  {line}");
            }
            for (name, value, unit) in &r.metrics {
                println!("  {name:<28} {value:>16.6} {unit}");
            }
            println!("{}", result_json(&r));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
