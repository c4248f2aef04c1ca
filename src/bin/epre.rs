//! `epre` — the workspace's command-line driver.
//!
//! ```text
//! epre lint <file.iloc|-> [--json] [--no-audit]   lint ILOC, print diagnostics
//! epre rules                                      list the lint rule registry
//! epre opt <file.iloc|-> [--level L] [--verify-each | --best-effort] [--fuel N]
//!          [--jobs N] [--timings] [--deadline-ms N] [--max-growth X]
//!          [--journal PATH] [--resume]
//!          [--trace PATH] [--trace-format jsonl|chrome]
//!                                                 optimize ILOC, print result
//! epre report [--quick] [--json] [--out PATH]     the paper's Table 1 over the suite
//! epre explain <file.iloc|-> <function> [--level L]
//!                                                 per-pass provenance ledgers
//! epre fuzz <file.iloc|-> [--seed N] [--iters N] [--fuel N] [--level L]
//!                                                 seeded fault-injection campaign
//! epre reduce <file.iloc|-> (--panic-contains S | --lint-code CODE | --oracle-mismatch)
//!             [--level L] [--fuel N]              ddmin-shrink a failing module
//! epre serve [--port N | --stdio] [--cache PATH] [--cache-max-bytes N] [--queue N]
//!            [--workers N] [--jobs N] [--breaker N] [--client-threshold N] [--fuel N]
//!            [--idle-timeout-ms N] [--max-session-requests N] [--drain-deadline-ms N]
//!            [--chaos-inject nonterminating|quadratic-growth] [--telemetry PATH]
//!            [--metrics-port N] [--slow-ms N] [--flight-recorder PATH]
//!                                                 run the optimization daemon
//! epre submit <file.iloc|-> [--addr HOST:PORT] [--level L] [--policy P] [--deadline-ms N]
//!             [--retries N] [--seed N] [--client ID]
//! epre submit (--stats | --ping | --shutdown | --metrics) [--addr HOST:PORT]
//!                                                 talk to a running daemon
//! epre metrics [--addr HOST:PORT] [--json]        scrape the daemon's live metrics
//! epre loadgen [--addr HOST:PORT] [--clients N] [--duration-ms N] [--seed N]
//!              [--mix COLD:WARM:POISON:OVERSIZED] [--warm-pool N] [--cache-max-bytes N]
//!              [--metrics-snapshot]
//!                                                 mixed-workload load generator
//! ```
//!
//! `lint` exits 0 when no error-severity diagnostics were found, 1 when
//! there were errors, 2 on usage or parse problems. `opt` refuses input
//! that does not parse or does not pass the structural verifier (lint
//! rules L001–L008) with exit 2, and exits 1 on a pass fault. `opt
//! --verify-each` runs the governed sandbox under its fail-fast policy:
//! it re-lints after every pass and aborts (exit 1) naming the pass that
//! introduced an invariant violation (or that panicked); it honours
//! `--jobs` like plain `opt`. `opt --best-effort` runs the same sandbox
//! but contains pass faults (rollback + continue), reports them on
//! stderr, and exits 3 when anything was contained or rolled back (the
//! output is still a safe, runnable module — the distinct code lets
//! scripts notice the degradation). `--deadline-ms` imposes a per-pass
//! wall-clock budget and a watchdog-enforced per-function deadline;
//! `--max-growth` caps code growth as a ratio of the input size;
//! `--journal PATH` write-ahead-logs every finished function so a killed
//! run can continue with `--resume`, producing byte-identical output.
//! All four require `--best-effort`, which excludes `--verify-each`.
//! `fuzz` exits 1 when any injected fault escaped containment. `reduce`
//! prints the shrunk module on stdout and statistics on stderr, exiting 2
//! when the failure predicate does not even hold on the input.
//!
//! `serve` runs the crash-safe optimization daemon of `epre-serve`: a
//! length-prefixed JSONL protocol over TCP (`--port`, `0` picks an
//! ephemeral port; the bound address is printed as `listening on …`) or
//! stdio (`--stdio`). Results are cached content-addressed in `--cache
//! PATH` write-ahead style — a `kill -9` loses at most the in-flight
//! function and restart recovers the rest. `submit` is the matching
//! client: it optimizes a file through the daemon with jittered
//! exponential-backoff retries, exiting 0 on a clean response, 3 on a
//! degraded one (faults were contained; the module on stdout is still
//! safe), 1 when the server refused or every retry failed, 2 on usage
//! errors.
//!
//! The daemon serves keep-alive sessions: one connection carries many
//! requests, ended by a typed `goaway` frame on idle timeout
//! (`--idle-timeout-ms`), per-session request cap
//! (`--max-session-requests`), or drain. `--cache-max-bytes` bounds the
//! result-cache journal: least-recently-used entries are evicted and
//! the journal is compacted online (crash-atomically — a `kill -9` at
//! any instant leaves the old or the new journal, never a torn one).
//! SIGTERM (or a `shutdown` request) drains gracefully: accepting
//! stops, admitted sessions get `--drain-deadline-ms` to finish, the
//! cache is compacted and fsynced, and the daemon exits 0. `loadgen`
//! drives a daemon (a self-hosted ephemeral one by default, or
//! `--addr`) with N concurrent retrying clients for a fixed duration,
//! mixing cold/warm/poison/oversized traffic, checks every answer
//! against ground truth, prints per-class p50/p95/p99 latency and
//! throughput, and exits 1 on any wrong answer or hang. With
//! `--metrics-snapshot` it also scrapes the daemon's live metrics at the
//! end of the run and prints a distilled snapshot after the table.
//!
//! The daemon is observable while it runs: `epre metrics` (or `epre
//! submit --metrics`) scrapes per-class latency histograms, queue and
//! worker gauges, per-pass cumulative pipeline time, and every `--stats`
//! counter through the protocol as Prometheus text (`--json` for the
//! integer-exact JSON form); `--metrics-port N` additionally serves the
//! text render over plain HTTP at `GET /metrics` for scrapers that
//! don't speak the framed protocol. `--slow-ms N` writes any request
//! whose total service time exceeds N milliseconds to a slow-request
//! log (`<PATH>.slow` next to the `--flight-recorder PATH`) with the
//! full admission→cache-probe→governed-run→oracle→respond span
//! breakdown, before the answer frame is emitted. `--flight-recorder
//! PATH` keeps a bounded in-memory ring of recent request summaries and
//! daemon events; SIGQUIT checkpoints it to PATH as JSONL (atomically,
//! via rename) without disturbing service, and the drain path writes a
//! final dump on exit.
//!
//! `opt --trace PATH` additionally exports the run's telemetry trace —
//! pass spans with per-pass counters and provenance deltas on the plain
//! path, fault/rollback/quarantine/journal events under `--best-effort`
//! — as JSON Lines or Chrome `trace_event` JSON (loadable in
//! `about://tracing`). Exported traces are deterministic: byte-identical
//! across `--jobs` values. `report` measures the bundled 50-routine suite
//! at the paper's four levels, prints Table 1 (dynamic operation counts,
//! % improvement vs baseline), and writes the JSON form to
//! `BENCH_TABLE1.json` (or `--out PATH`). `explain` prints per-function
//! ledgers of which pass eliminated or inserted how many of which opcode,
//! level by level.

use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use effective_pre::lint_json::lint_json;
use effective_pre::report::collect_table1;
use effective_pre::verify_each;
use epre::{Budget, OptLevel, Optimizer};
use epre_harness::{
    harden_events, journal_events, reduce as ddmin_reduce, run_campaign, CampaignConfig,
    FailureSpec, FaultPolicy, Harness, JournalError, OracleConfig, PassFaultModel,
};
use epre_ir::parse_module;
use epre_lint::{lint_module, LintOptions, Rule};
use epre_serve::{
    client::metrics as serve_metrics, ping as serve_ping, run_loadgen, serve_metrics_http,
    serve_stdio, serve_tcp, shutdown as serve_shutdown, stats as serve_stats,
    submit as serve_submit, write_frame, ClientConfig, LoadgenConfig, OptimizeRequest, Request,
    ResultCache, ServeConfig, ServerCore,
};
use epre_telemetry::{ledgers_from_trace, Trace};

const USAGE: &str = "usage:\n  \
    epre lint <file.iloc|-> [--json] [--no-audit]\n  \
    epre rules\n  \
    epre opt <file.iloc|-> [--level baseline|partial|reassociation|distribution|distribution+lvn] [--verify-each | --best-effort] [--fuel N] [--jobs N] [--timings] [--deadline-ms N] [--max-growth X] [--journal PATH] [--resume] [--trace PATH] [--trace-format jsonl|chrome]\n  \
    epre report [--quick] [--json] [--out PATH]\n  \
    epre explain <file.iloc|-> <function> [--level L]\n  \
    epre fuzz <file.iloc|-> [--seed N] [--iters N] [--fuel N] [--level L]\n  \
    epre reduce <file.iloc|-> (--panic-contains S | --lint-code CODE | --oracle-mismatch) [--level L] [--fuel N]\n  \
    epre serve [--port N | --stdio] [--cache PATH] [--cache-max-bytes N] [--queue N] [--workers N] [--jobs N] [--breaker N] [--client-threshold N] [--fuel N] [--idle-timeout-ms N] [--max-session-requests N] [--drain-deadline-ms N] [--chaos-inject nonterminating|quadratic-growth] [--telemetry PATH] [--metrics-port N] [--slow-ms N] [--flight-recorder PATH]\n  \
    epre submit <file.iloc|-> [--addr HOST:PORT] [--level L] [--policy best-effort|retry-then-skip] [--deadline-ms N] [--retries N] [--seed N] [--client ID]\n  \
    epre submit (--stats | --ping | --shutdown | --metrics) [--addr HOST:PORT]\n  \
    epre metrics [--addr HOST:PORT] [--json]\n  \
    epre loadgen [--addr HOST:PORT] [--clients N] [--duration-ms N] [--seed N] [--mix COLD:WARM:POISON:OVERSIZED] [--warm-pool N] [--cache-max-bytes N] [--metrics-snapshot]";

/// Render `trace` in the chosen export format and write it to `path`.
fn write_trace(path: &str, trace: &Trace, format: &str) -> Result<(), String> {
    let body = match format {
        "chrome" => trace.to_chrome(),
        _ => trace.to_jsonl(),
    };
    std::fs::write(path, body).map_err(|e| format!("writing trace `{path}`: {e}"))
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).map_err(|e| format!("reading stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))
    }
}

fn parse_input(path: &str) -> Result<epre_ir::Module, String> {
    let text = read_input(path)?;
    parse_module(&text).map_err(|e| format!("parse error in `{path}`: {e}"))
}

/// [`parse_input`] plus the structural verifier (lint rules L001–L008):
/// the optimizer's passes and the oracle's interpreter assume input that
/// verifies, so anything else is refused like a parse error.
fn parse_verified(path: &str) -> Result<epre_ir::Module, String> {
    let module = parse_input(path)?;
    module.verify().map_err(|e| format!("`{path}` does not verify: {e}"))?;
    Ok(module)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut json = false;
    let mut opts = LintOptions::default();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--no-audit" => opts.audit_redundancy = false,
            other if path.is_none() && (!other.starts_with('-') || other == "-") => {
                path = Some(other);
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let module = match parse_input(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = lint_module(&module, &opts);
    if json {
        println!("{}", lint_json(&report));
    } else if report.diagnostics.is_empty() {
        println!("clean: no diagnostics");
    } else {
        println!("{report}");
    }
    if report.has_errors() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_rules() -> ExitCode {
    println!("{:<6} {:<26} {:<8} invariant", "code", "rule", "severity");
    for rule in Rule::ALL {
        println!(
            "{:<6} {:<26} {:<8} {}",
            rule.code(),
            rule.slug(),
            rule.severity().label(),
            rule.invariant()
        );
    }
    ExitCode::SUCCESS
}

fn level_by_label(label: &str) -> Option<OptLevel> {
    [
        OptLevel::Baseline,
        OptLevel::Partial,
        OptLevel::Reassociation,
        OptLevel::Distribution,
        OptLevel::DistributionLvn,
    ]
    .into_iter()
    .find(|l| l.label() == label)
}

fn parse_u64(flag: &str, v: Option<&String>) -> Result<u64, ExitCode> {
    match v.and_then(|s| s.parse().ok()) {
        Some(n) => Ok(n),
        None => {
            eprintln!("{flag} needs a non-negative integer");
            Err(ExitCode::from(2))
        }
    }
}

fn cmd_opt(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut level = OptLevel::Distribution;
    let mut verify_each = false;
    let mut best_effort = false;
    let mut timings = false;
    let mut jobs: usize = 1;
    let mut fuel = OracleConfig::default().fuel;
    let mut deadline_ms: Option<u64> = None;
    let mut max_growth: Option<f64> = None;
    let mut journal: Option<String> = None;
    let mut resume = false;
    let mut trace_path: Option<String> = None;
    let mut trace_format = "jsonl".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--verify-each" => verify_each = true,
            "--best-effort" => best_effort = true,
            "--timings" => timings = true,
            "--resume" => resume = true,
            "--trace" => {
                let Some(p) = it.next() else {
                    eprintln!("--trace needs a file path");
                    return ExitCode::from(2);
                };
                trace_path = Some(p.clone());
            }
            "--trace-format" => {
                let Some(f) = it.next().filter(|f| ["jsonl", "chrome"].contains(&f.as_str()))
                else {
                    eprintln!("--trace-format needs one of: jsonl chrome");
                    return ExitCode::from(2);
                };
                trace_format = f.clone();
            }
            "--deadline-ms" => match parse_u64("--deadline-ms", it.next()) {
                Ok(n) if n >= 1 => deadline_ms = Some(n),
                Ok(_) => {
                    eprintln!("--deadline-ms needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--max-growth" => {
                let Some(x) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--max-growth needs a ratio (e.g. 8.0)");
                    return ExitCode::from(2);
                };
                if !x.is_finite() || x < 1.0 {
                    eprintln!("--max-growth needs a finite ratio >= 1");
                    return ExitCode::from(2);
                }
                max_growth = Some(x);
            }
            "--journal" => {
                let Some(p) = it.next() else {
                    eprintln!("--journal needs a file path");
                    return ExitCode::from(2);
                };
                journal = Some(p.clone());
            }
            "--jobs" => match parse_u64("--jobs", it.next()) {
                Ok(n) if n >= 1 => jobs = n as usize,
                Ok(_) => {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--fuel" => match parse_u64("--fuel", it.next()) {
                Ok(n) => fuel = n,
                Err(code) => return code,
            },
            "--level" => {
                let Some(l) = it.next().and_then(|s| level_by_label(s)) else {
                    eprintln!("--level needs one of: baseline partial reassociation distribution distribution+lvn");
                    return ExitCode::from(2);
                };
                level = l;
            }
            other if path.is_none() && (!other.starts_with('-') || other == "-") => {
                path = Some(other);
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if !best_effort
        && (deadline_ms.is_some() || max_growth.is_some() || journal.is_some() || resume)
    {
        eprintln!("--deadline-ms, --max-growth, --journal, and --resume require --best-effort");
        return ExitCode::from(2);
    }
    if verify_each && best_effort {
        eprintln!("--verify-each and --best-effort choose different fault policies; pick one");
        return ExitCode::from(2);
    }
    if resume && journal.is_none() {
        eprintln!("--resume requires --journal PATH");
        return ExitCode::from(2);
    }
    let module = match parse_verified(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if best_effort {
        let oracle = OracleConfig { fuel, ..OracleConfig::default() };
        let mut harness = Harness::new(level, FaultPolicy::BestEffort).with_oracle(oracle);
        if let Some(x) = max_growth {
            harness = harness.with_budget(Budget { max_growth: Some(x), ..harness.budget });
        }
        if let Some(ms) = deadline_ms {
            harness = harness.with_deadline(Duration::from_millis(ms));
        }
        let out = if let Some(jpath) = &journal {
            match harness.optimize_journaled(&module, jobs, Path::new(jpath), resume) {
                Ok(j) => {
                    eprintln!(
                        "journal: {} function(s) reused, {} optimized fresh{}",
                        j.reused,
                        j.fresh,
                        if j.resumed_torn { " (torn tail discarded)" } else { "" }
                    );
                    if let Some(tpath) = &trace_path {
                        let trace = Trace::from_events(journal_events(&j));
                        if let Err(e) = write_trace(tpath, &trace, &trace_format) {
                            eprintln!("error: {e}");
                            return ExitCode::from(2);
                        }
                    }
                    j.output
                }
                Err(e @ (JournalError::Io(_) | JournalError::HeaderMismatch { .. })) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
                Err(JournalError::Fault(f)) => {
                    eprintln!("error: {f}");
                    return ExitCode::from(1);
                }
            }
        } else {
            let out = harness.optimize_jobs(&module, jobs).expect("best-effort never fails fast");
            if let Some(tpath) = &trace_path {
                let trace = Trace::from_events(harden_events(&out));
                if let Err(e) = write_trace(tpath, &trace, &trace_format) {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
            out
        };
        for f in &out.faults {
            eprintln!("contained: {f}");
        }
        for q in &out.quarantined {
            eprintln!("quarantined: {q}");
        }
        for d in &out.divergences {
            eprintln!("rolled back after divergence: {d}");
        }
        if out.inconclusive > 0 {
            eprintln!(
                "inconclusive: {} oracle comparison(s) ran out of fuel (raise --fuel to make them count)",
                out.inconclusive
            );
        }
        print!("{}", out.module);
        if !out.is_clean() {
            let rolled = out.rolled_back_functions();
            eprintln!(
                "best-effort: {} fault(s) contained, {} pass(es) quarantined, {} function(s) degraded to a rolled-back form: {}",
                out.faults.len(),
                out.quarantined.len(),
                rolled.len(),
                rolled.join(", ")
            );
            // Distinct from lint's 1 and usage's 2: the module on stdout is
            // safe, but something was degraded along the way.
            return ExitCode::from(3);
        }
        return ExitCode::SUCCESS;
    }
    let opt = Optimizer::new(level);
    let out = if verify_each {
        if timings {
            eprintln!("note: --timings is ignored under --verify-each");
        }
        if trace_path.is_some() {
            eprintln!("note: --trace is ignored under --verify-each");
        }
        match verify_each::run(&module, &|| opt.passes(), jobs) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("verify-each: {e}");
                return ExitCode::from(1);
            }
        }
    } else if timings {
        // Per-pass attribution requires the serial pipeline; --jobs is
        // measured end-to-end by perfbench's `opt-suite` workload instead.
        if trace_path.is_some() {
            eprintln!("note: --trace is ignored under --timings");
        }
        match opt.try_optimize_timed(&module) {
            Ok((out, report)) => {
                eprint!("{report}");
                out
            }
            Err(f) => {
                eprintln!("error: {f}");
                return ExitCode::from(1);
            }
        }
    } else if let Some(tpath) = &trace_path {
        match opt.try_optimize_traced(&module, jobs) {
            Ok((m, trace)) => {
                if let Err(e) = write_trace(tpath, &trace, &trace_format) {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
                m
            }
            Err(f) => {
                eprintln!("error: {f}");
                return ExitCode::from(1);
            }
        }
    } else {
        match opt.try_optimize_jobs(&module, jobs) {
            Ok(m) => m,
            Err(f) => {
                eprintln!("error: {f}");
                return ExitCode::from(1);
            }
        }
    };
    print!("{out}");
    ExitCode::SUCCESS
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut cfg = CampaignConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match parse_u64("--seed", it.next()) {
                Ok(n) => cfg.seed = n,
                Err(code) => return code,
            },
            "--iters" => match parse_u64("--iters", it.next()) {
                Ok(n) => cfg.iters = n as usize,
                Err(code) => return code,
            },
            "--fuel" => match parse_u64("--fuel", it.next()) {
                Ok(n) => cfg.fuel = n,
                Err(code) => return code,
            },
            "--level" => {
                let Some(l) = it.next().and_then(|s| level_by_label(s)) else {
                    eprintln!("--level needs one of: baseline partial reassociation distribution distribution+lvn");
                    return ExitCode::from(2);
                };
                cfg.levels = vec![l];
            }
            other if path.is_none() && (!other.starts_with('-') || other == "-") => {
                path = Some(other);
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let module = match parse_input(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run_campaign(&[module], &cfg);
    println!("{report}");
    if report.is_contained() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_reduce(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut level = OptLevel::Distribution;
    let mut fuel = OracleConfig::default().fuel;
    let mut panic_needle: Option<String> = None;
    let mut lint_code: Option<String> = None;
    let mut oracle_mismatch = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--panic-contains" => {
                let Some(s) = it.next() else {
                    eprintln!("--panic-contains needs a substring");
                    return ExitCode::from(2);
                };
                panic_needle = Some(s.clone());
            }
            "--lint-code" => {
                let Some(s) = it.next() else {
                    eprintln!("--lint-code needs a rule code such as L020");
                    return ExitCode::from(2);
                };
                lint_code = Some(s.clone());
            }
            "--oracle-mismatch" => oracle_mismatch = true,
            "--fuel" => match parse_u64("--fuel", it.next()) {
                Ok(n) => fuel = n,
                Err(code) => return code,
            },
            "--level" => {
                let Some(l) = it.next().and_then(|s| level_by_label(s)) else {
                    eprintln!("--level needs one of: baseline partial reassociation distribution distribution+lvn");
                    return ExitCode::from(2);
                };
                level = l;
            }
            other if path.is_none() && (!other.starts_with('-') || other == "-") => {
                path = Some(other);
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let spec = match (panic_needle, lint_code, oracle_mismatch) {
        (Some(needle), None, false) => FailureSpec::PanicContains { level, needle },
        (None, Some(code), false) => FailureSpec::LintCode { code },
        (None, None, true) => FailureSpec::OracleMismatch {
            level,
            oracle: OracleConfig { fuel, ..OracleConfig::default() },
        },
        _ => {
            eprintln!(
                "reduce needs exactly one of --panic-contains, --lint-code, --oracle-mismatch"
            );
            return ExitCode::from(2);
        }
    };
    let module = match parse_input(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (small, stats) = ddmin_reduce(&module, &|m| spec.holds(m));
    if !stats.held {
        eprintln!("the failure predicate does not hold on the input module");
        return ExitCode::from(2);
    }
    eprintln!(
        "reduced {} -> {} instructions ({:.0}% smaller), {} -> {} function(s), {} predicate test(s)",
        stats.initial_insts,
        stats.final_insts,
        stats.reduction() * 100.0,
        stats.initial_functions,
        stats.final_functions,
        stats.tests
    );
    print!("{small}");
    ExitCode::SUCCESS
}

fn cmd_report(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut quick = false;
    let mut out_path = String::from("BENCH_TABLE1.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            "--out" => {
                let Some(p) = it.next() else {
                    eprintln!("--out needs a file path");
                    return ExitCode::from(2);
                };
                out_path = p.clone();
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let table = collect_table1(quick);
    let json_body = table.to_json();
    if json {
        println!("{json_body}");
    } else {
        print!("{}", table.render_text());
    }
    if let Err(e) = std::fs::write(&out_path, format!("{json_body}\n")) {
        eprintln!("error: writing `{out_path}`: {e}");
        return ExitCode::from(2);
    }
    eprintln!("wrote {out_path}");
    ExitCode::SUCCESS
}

fn cmd_explain(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut function: Option<&str> = None;
    let mut only: Option<OptLevel> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--level" => {
                let Some(l) = it.next().and_then(|s| level_by_label(s)) else {
                    eprintln!("--level needs one of: baseline partial reassociation distribution distribution+lvn");
                    return ExitCode::from(2);
                };
                only = Some(l);
            }
            other if path.is_none() && (!other.starts_with('-') || other == "-") => {
                path = Some(other);
            }
            other if function.is_none() && !other.starts_with('-') => function = Some(other),
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(path), Some(function)) = (path, function) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let module = match parse_input(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !module.functions.iter().any(|f| f.name == function) {
        eprintln!("error: no function `{function}` in `{path}`");
        return ExitCode::from(2);
    }
    let levels: Vec<OptLevel> = match only {
        Some(l) => vec![l],
        None => OptLevel::PAPER_LEVELS.to_vec(),
    };
    for (i, level) in levels.iter().enumerate() {
        let opt = Optimizer::new(*level);
        let trace = match opt.try_optimize_traced(&module, 1) {
            Ok((_, trace)) => trace,
            Err(f) => {
                eprintln!("error: {f}");
                return ExitCode::from(1);
            }
        };
        let ledgers = ledgers_from_trace(&trace);
        let ledger = ledgers
            .iter()
            .find(|l| l.function == function)
            .expect("every optimized function has a ledger");
        if i > 0 {
            println!();
        }
        println!("== {} ==", level.label());
        print!("{}", ledger.render());
    }
    ExitCode::SUCCESS
}

/// Set when the process receives SIGTERM; polled by the drain watcher
/// thread `cmd_serve` spawns. A store is all the handler does — every
/// other step of the drain happens on a normal thread.
static SIGTERM_SEEN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    SIGTERM_SEEN.store(true, std::sync::atomic::Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigterm_handler() {
    // The workspace is libc-free, so registration goes through the raw
    // C `signal` symbol. SIGTERM is 15 on every POSIX platform this
    // builds on, and a store-only handler is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(15, on_sigterm as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Set when the process receives SIGQUIT; unlike SIGTERM this is a
/// checkpoint, not a drain — the watcher dumps the flight recorder,
/// clears the flag, and keeps serving.
static SIGQUIT_SEEN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_sigquit(_sig: i32) {
    SIGQUIT_SEEN.store(true, std::sync::atomic::Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigquit_handler() {
    // SIGQUIT is 3 on every POSIX platform this builds on. Catching it
    // replaces the default core-dump death with a flight-recorder
    // checkpoint, which is the whole point.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(3, on_sigquit as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigquit_handler() {}

/// Write a flight-recorder dump crash-atomically: readers racing the
/// write see the previous complete dump or the new one, never a torn
/// file.
fn dump_flight_recorder(path: &str, body: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut port: u16 = 9944;
    let mut stdio = false;
    let mut cache_path: Option<String> = None;
    let mut cache_max_bytes: Option<u64> = None;
    let mut telemetry_path: Option<String> = None;
    let mut metrics_port: Option<u16> = None;
    let mut recorder_path: Option<String> = None;
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdio" => stdio = true,
            "--port" => match parse_u64("--port", it.next()) {
                Ok(n) if n <= u16::MAX as u64 => port = n as u16,
                Ok(_) => {
                    eprintln!("--port needs a value in 0..=65535");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--cache" => {
                let Some(p) = it.next() else {
                    eprintln!("--cache needs a file path");
                    return ExitCode::from(2);
                };
                cache_path = Some(p.clone());
            }
            "--telemetry" => {
                let Some(p) = it.next() else {
                    eprintln!("--telemetry needs a file path");
                    return ExitCode::from(2);
                };
                telemetry_path = Some(p.clone());
            }
            "--queue" => match parse_u64("--queue", it.next()) {
                Ok(n) if n >= 1 => config.queue_capacity = n as usize,
                Ok(_) => {
                    eprintln!("--queue needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--workers" => match parse_u64("--workers", it.next()) {
                Ok(n) if n >= 1 => config.workers = n as usize,
                Ok(_) => {
                    eprintln!("--workers needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--jobs" => match parse_u64("--jobs", it.next()) {
                Ok(n) if n >= 1 => config.request_jobs = n as usize,
                Ok(_) => {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--breaker" => match parse_u64("--breaker", it.next()) {
                Ok(n) if n >= 1 => config.breaker_threshold = n as usize,
                Ok(_) => {
                    eprintln!("--breaker needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--client-threshold" => match parse_u64("--client-threshold", it.next()) {
                Ok(n) if n >= 1 => config.client_threshold = n as usize,
                Ok(_) => {
                    eprintln!("--client-threshold needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--fuel" => match parse_u64("--fuel", it.next()) {
                Ok(n) => config.oracle.fuel = n,
                Err(code) => return code,
            },
            "--cache-max-bytes" => match parse_u64("--cache-max-bytes", it.next()) {
                Ok(n) if n >= 1 => cache_max_bytes = Some(n),
                Ok(_) => {
                    eprintln!("--cache-max-bytes needs a positive byte count");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--idle-timeout-ms" => match parse_u64("--idle-timeout-ms", it.next()) {
                Ok(n) if n >= 1 => config.idle_timeout = Duration::from_millis(n),
                Ok(_) => {
                    eprintln!("--idle-timeout-ms needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--max-session-requests" => match parse_u64("--max-session-requests", it.next()) {
                Ok(n) if n >= 1 => config.max_session_requests = n as usize,
                Ok(_) => {
                    eprintln!("--max-session-requests needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--drain-deadline-ms" => match parse_u64("--drain-deadline-ms", it.next()) {
                Ok(n) => config.drain_deadline = Duration::from_millis(n),
                Err(code) => return code,
            },
            "--metrics-port" => match parse_u64("--metrics-port", it.next()) {
                Ok(n) if n <= u16::MAX as u64 => metrics_port = Some(n as u16),
                Ok(_) => {
                    eprintln!("--metrics-port needs a value in 0..=65535");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--slow-ms" => match parse_u64("--slow-ms", it.next()) {
                Ok(n) => config.slow_us = Some(n.saturating_mul(1000)),
                Err(code) => return code,
            },
            "--flight-recorder" => {
                let Some(p) = it.next() else {
                    eprintln!("--flight-recorder needs a file path");
                    return ExitCode::from(2);
                };
                recorder_path = Some(p.clone());
            }
            "--chaos-inject" => {
                let model = it.next().and_then(|s| match s.as_str() {
                    "nonterminating" => Some(PassFaultModel::NonTerminating),
                    "quadratic-growth" => Some(PassFaultModel::QuadraticGrowth),
                    _ => None,
                });
                let Some(model) = model else {
                    eprintln!("--chaos-inject needs one of: nonterminating quadratic-growth");
                    return ExitCode::from(2);
                };
                config.chaos = Some(model);
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let cache = match &cache_path {
        Some(p) => match ResultCache::open_capped(Path::new(p), cache_max_bytes) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: opening cache `{p}`: {e}");
                return ExitCode::from(2);
            }
        },
        None => ResultCache::in_memory_capped(cache_max_bytes),
    };
    let rec = cache.recovery();
    if rec.recovered > 0 || rec.resumed_torn || rec.corrupt_dropped > 0 {
        eprintln!(
            "cache: {} entr{} recovered{}{}",
            rec.recovered,
            if rec.recovered == 1 { "y" } else { "ies" },
            if rec.resumed_torn { ", torn tail discarded" } else { "" },
            if rec.corrupt_dropped > 0 {
                format!(", {} corrupt record(s) dropped", rec.corrupt_dropped)
            } else {
                String::new()
            }
        );
    }
    let mut core = ServerCore::new(config, cache);
    if let Some(p) = &telemetry_path {
        match std::fs::OpenOptions::new().create(true).append(true).open(p) {
            Ok(f) => core.attach_telemetry(Box::new(f)),
            Err(e) => {
                eprintln!("error: opening telemetry log `{p}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(p) = &recorder_path {
        // Slow requests stream to an append-only sibling of the dump
        // path: the dump is a point-in-time checkpoint, the slow log is
        // the durable record (written before the answer frame, so any
        // answer a client holds is already on disk).
        let slow_path = format!("{p}.slow");
        match std::fs::OpenOptions::new().create(true).append(true).open(&slow_path) {
            Ok(f) => core.attach_slow_log(Box::new(f)),
            Err(e) => {
                eprintln!("error: opening slow-request log `{slow_path}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if stdio {
        if metrics_port.is_some() {
            eprintln!("--metrics-port needs TCP mode (it is its own listener)");
            return ExitCode::from(2);
        }
        // stdout is the protocol channel in stdio mode; status goes to
        // stderr only.
        eprintln!("serving on stdio");
        let (mut stdin, mut stdout) = (std::io::stdin().lock(), std::io::stdout().lock());
        let result = serve_stdio(&core, &mut stdin, &mut stdout);
        if let Some(p) = &recorder_path {
            if let Err(e) = dump_flight_recorder(p, &core.recorder().dump()) {
                eprintln!("error: writing flight recorder `{p}`: {e}");
            }
        }
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    let listener = match std::net::TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: binding 127.0.0.1:{port}: {e}");
            return ExitCode::from(2);
        }
    };
    let local_addr = match listener.local_addr() {
        Ok(addr) => {
            // Scrapable by wrappers (`--port 0` picks an ephemeral port).
            println!("listening on {addr}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            addr
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // SIGTERM takes the same graceful drain a `shutdown` request does:
    // a watcher thread polls the handler's flag, flips the core's
    // shutdown state, and pokes the acceptor awake with a control ping.
    // Exit 0 after the drain is the contract init systems rely on;
    // SIGKILL still tests the crash-recovery path instead.
    let core = std::sync::Arc::new(core);
    install_sigterm_handler();
    install_sigquit_handler();
    if let Some(mp) = metrics_port {
        // The plain-HTTP scrape endpoint is its own listener so metrics
        // stay reachable even when the protocol queue is saturated.
        let ml = match std::net::TcpListener::bind(("127.0.0.1", mp)) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: binding metrics port 127.0.0.1:{mp}: {e}");
                return ExitCode::from(2);
            }
        };
        match ml.local_addr() {
            Ok(addr) => {
                println!("metrics on http://{addr}/metrics");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
        let core = std::sync::Arc::clone(&core);
        std::thread::spawn(move || {
            let _ = serve_metrics_http(ml, core);
        });
    }
    {
        let core = std::sync::Arc::clone(&core);
        let recorder_path = recorder_path.clone();
        std::thread::spawn(move || loop {
            if SIGQUIT_SEEN.swap(false, std::sync::atomic::Ordering::SeqCst) {
                // A checkpoint, not a drain: dump and keep serving.
                match &recorder_path {
                    Some(p) => match dump_flight_recorder(p, &core.recorder().dump()) {
                        Ok(()) => eprintln!("sigquit: flight recorder dumped to {p}"),
                        Err(e) => eprintln!("sigquit: writing flight recorder `{p}`: {e}"),
                    },
                    None => eprintln!("sigquit: no --flight-recorder path, dump skipped"),
                }
            }
            if SIGTERM_SEEN.load(std::sync::atomic::Ordering::SeqCst) {
                eprintln!("sigterm: draining");
                core.request_shutdown();
                if let Ok(stream) = std::net::TcpStream::connect(local_addr) {
                    let mut w = std::io::BufWriter::new(stream);
                    let _ = write_frame(&mut w, &Request::Ping.encode());
                }
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    let result = serve_tcp(std::sync::Arc::clone(&core), listener);
    if let Some(p) = &recorder_path {
        // The final dump rides the drain path so a graceful exit leaves
        // the same artifact a SIGQUIT checkpoint would.
        if let Err(e) = dump_flight_recorder(p, &core.recorder().dump()) {
            eprintln!("error: writing flight recorder `{p}`: {e}");
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut cfg = ClientConfig::default();
    let mut level = OptLevel::Distribution;
    let mut policy = "best-effort".to_string();
    let mut deadline_ms: Option<u64> = None;
    let mut client = String::new();
    let mut stats_only = false;
    let mut ping_only = false;
    let mut shutdown_only = false;
    let mut metrics_only = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stats" => stats_only = true,
            "--ping" => ping_only = true,
            "--shutdown" => shutdown_only = true,
            "--metrics" => metrics_only = true,
            "--addr" => {
                let Some(addr) = it.next() else {
                    eprintln!("--addr needs HOST:PORT");
                    return ExitCode::from(2);
                };
                cfg.addr = addr.clone();
            }
            "--client" => {
                let Some(id) = it.next() else {
                    eprintln!("--client needs an identifier");
                    return ExitCode::from(2);
                };
                client = id.clone();
            }
            "--policy" => {
                let Some(p) =
                    it.next().filter(|p| ["best-effort", "retry-then-skip"].contains(&p.as_str()))
                else {
                    eprintln!("--policy needs one of: best-effort retry-then-skip");
                    return ExitCode::from(2);
                };
                policy = p.clone();
            }
            "--deadline-ms" => match parse_u64("--deadline-ms", it.next()) {
                Ok(n) => deadline_ms = Some(n),
                Err(code) => return code,
            },
            "--retries" => match parse_u64("--retries", it.next()) {
                Ok(n) => cfg.attempts = (n as u32).saturating_add(1),
                Err(code) => return code,
            },
            "--seed" => match parse_u64("--seed", it.next()) {
                Ok(n) => cfg.seed = n,
                Err(code) => return code,
            },
            "--level" => {
                let Some(l) = it.next().and_then(|s| level_by_label(s)) else {
                    eprintln!("--level needs one of: baseline partial reassociation distribution distribution+lvn");
                    return ExitCode::from(2);
                };
                level = l;
            }
            other if path.is_none() && (!other.starts_with('-') || other == "-") => {
                path = Some(other);
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if ping_only {
        return match serve_ping(&cfg) {
            Ok(()) => {
                println!("pong");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    if shutdown_only {
        return match serve_shutdown(&cfg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    if metrics_only {
        return match serve_metrics(&cfg, "text") {
            Ok(body) => {
                print!("{body}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    if stats_only {
        return match serve_stats(&cfg) {
            Ok(counters) => {
                for (name, value) in counters {
                    println!("{name} {value}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let module_text = match read_input(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let request = OptimizeRequest {
        client,
        level: level.label().to_string(),
        policy,
        deadline_ms,
        idempotency: String::new(),
        request: String::new(),
        module_text,
    };
    match serve_submit(&cfg, &request) {
        Ok(outcome) => {
            let done = &outcome.done;
            eprintln!(
                "serve: {} — {} reused, {} fresh, {} fault(s), {} rollback(s), attempt {}",
                done.status, done.reused, done.fresh, done.faults, done.rollbacks, outcome.attempts
            );
            print!("{}", done.module_text);
            if done.status == "clean" {
                ExitCode::SUCCESS
            } else {
                // Same convention as `opt --best-effort`: the module on
                // stdout is safe, but something degraded along the way.
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_metrics(args: &[String]) -> ExitCode {
    let mut cfg = ClientConfig::default();
    let mut format = "text";
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                let Some(addr) = it.next() else {
                    eprintln!("--addr needs HOST:PORT");
                    return ExitCode::from(2);
                };
                cfg.addr = addr.clone();
            }
            "--json" => format = "json",
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    match serve_metrics(&cfg, format) {
        Ok(body) => {
            print!("{body}");
            if !body.ends_with('\n') {
                println!();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_loadgen(args: &[String]) -> ExitCode {
    let mut cfg = LoadgenConfig::default();
    let mut addr: Option<String> = None;
    let mut cache_max_bytes: u64 = 256 * 1024;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                let Some(s) = it.next() else {
                    eprintln!("--addr needs HOST:PORT");
                    return ExitCode::from(2);
                };
                addr = Some(s.clone());
            }
            "--clients" => match parse_u64("--clients", it.next()) {
                Ok(n) if n >= 1 => cfg.clients = n as usize,
                Ok(_) => {
                    eprintln!("--clients needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--duration-ms" => match parse_u64("--duration-ms", it.next()) {
                Ok(n) if n >= 1 => cfg.duration = Duration::from_millis(n),
                Ok(_) => {
                    eprintln!("--duration-ms needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--seed" => match parse_u64("--seed", it.next()) {
                Ok(n) => cfg.seed = n,
                Err(code) => return code,
            },
            "--warm-pool" => match parse_u64("--warm-pool", it.next()) {
                Ok(n) if n >= 1 => cfg.warm_pool = n as usize,
                Ok(_) => {
                    eprintln!("--warm-pool needs a positive integer");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--cache-max-bytes" => match parse_u64("--cache-max-bytes", it.next()) {
                Ok(n) if n >= 1 => cache_max_bytes = n,
                Ok(_) => {
                    eprintln!("--cache-max-bytes needs a positive byte count");
                    return ExitCode::from(2);
                }
                Err(code) => return code,
            },
            "--mix" => {
                let parts: Option<Vec<u32>> = it
                    .next()
                    .map(|s| s.split(':').map(|p| p.parse::<u32>().ok()).collect())
                    .unwrap_or(None);
                match parts.as_deref() {
                    Some([c, w, p, o]) if c + w + p + o > 0 => {
                        cfg.mix_cold = *c;
                        cfg.mix_warm = *w;
                        cfg.mix_poison = *p;
                        cfg.mix_oversized = *o;
                    }
                    _ => {
                        eprintln!(
                            "--mix needs COLD:WARM:POISON:OVERSIZED weights, at least one nonzero"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--metrics-snapshot" => cfg.metrics_snapshot = true,
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    // Self-serve unless a daemon was named: an in-process server on an
    // ephemeral port over a byte-capped temp-file cache, so one command
    // exercises eviction, online compaction, and keep-alive rotation
    // under load — and can assert the cap held afterward.
    let (report, capped_file_bytes) = if let Some(a) = addr {
        cfg.addr = a;
        match run_loadgen(&cfg) {
            Ok(r) => (r, None),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        let tmp = std::env::temp_dir().join(format!("epre-loadgen-{}.cache", std::process::id()));
        let _ = std::fs::remove_file(&tmp);
        let cache = match ResultCache::open_capped(&tmp, Some(cache_max_bytes)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: opening temp cache `{}`: {e}", tmp.display());
                return ExitCode::from(2);
            }
        };
        let config = ServeConfig {
            // Keep-alive clients pin workers; leave headroom for the
            // raw poison/oversized connections.
            workers: cfg.clients + 2,
            max_session_requests: 64, // exercise goaway rotation
            ..Default::default()
        };
        let core = std::sync::Arc::new(ServerCore::new(config, cache));
        let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: binding an ephemeral port: {e}");
                return ExitCode::from(2);
            }
        };
        let local = listener.local_addr().expect("bound listener has an address");
        let server = {
            let core = std::sync::Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(core, listener))
        };
        cfg.addr = local.to_string();
        eprintln!("loadgen: self-serving on {local} (cache cap {cache_max_bytes} bytes)");
        let result = run_loadgen(&cfg);
        let ccfg = ClientConfig { addr: cfg.addr.clone(), ..Default::default() };
        let file_bytes = serve_stats(&ccfg).ok().and_then(|counters| {
            counters.into_iter().find(|(k, _)| k == "cache_file_bytes").map(|(_, v)| v)
        });
        if let Err(e) = serve_shutdown(&ccfg) {
            eprintln!("error: shutting the self-served daemon down: {e}");
            return ExitCode::from(1);
        }
        match server.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                eprintln!("error: self-served daemon: {e}");
                return ExitCode::from(1);
            }
            Err(_) => {
                eprintln!("error: self-served daemon panicked");
                return ExitCode::from(1);
            }
        }
        let _ = std::fs::remove_file(&tmp);
        let _ = std::fs::remove_file(epre_harness::rewrite_staging_path(&tmp));
        match result {
            Ok(r) => (r, Some((file_bytes, cache_max_bytes))),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    };

    print!("{}", report.render_text());
    let mut failed = false;
    if let Some((file_bytes, cap)) = capped_file_bytes {
        match file_bytes {
            Some(bytes) if bytes <= cap => {
                println!("cache cap held: {bytes} <= {cap} bytes");
            }
            Some(bytes) => {
                eprintln!("error: cache journal grew past its cap: {bytes} > {cap} bytes");
                failed = true;
            }
            None => {
                eprintln!("error: could not read cache_file_bytes from the daemon's stats");
                failed = true;
            }
        }
    }
    if report.wrongs() > 0 || report.hangs() > 0 {
        eprintln!(
            "error: {} wrong answer(s), {} hang(s) — the daemon failed under load",
            report.wrongs(),
            report.hangs()
        );
        failed = true;
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("rules") => cmd_rules(),
        Some("opt") => cmd_opt(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("reduce") => cmd_reduce(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
