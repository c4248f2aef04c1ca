//! The live-metrics surface, end to end: the `metrics` protocol
//! request over real TCP, reconciliation against `--stats` and against
//! `--timings`, the plain-HTTP scrape listener, and byte-identical traced
//! serve runs across `--jobs` values.

use std::io::{Read as _, Write as _};
use std::sync::{Arc, Mutex};

use epre::{OptLevel, Optimizer};
use epre_serve::client::{metrics as scrape_metrics, stats, submit, ClientConfig};
use epre_serve::{
    serve_metrics_http, serve_tcp, shutdown, OptimizeRequest, Request, Response, ResultCache,
    ServeConfig, ServerCore,
};

/// A unique straight-line module with a lexical redundancy (same shape
/// as the loadgen generator's cold traffic).
fn gen_function(id: u64) -> String {
    format!(
        "function met{id}(r0:i) -> i\n\
         block b0:\n\
         \x20 r1 <- loadi {}:i\n\
         \x20 r2 <- add.i r0, r1\n\
         \x20 r3 <- add.i r0, r1\n\
         \x20 r4 <- mul.i r2, r3\n\
         \x20 ret r4\n\
         end\n",
        id % 9973 + 1
    )
}

fn gen_module(ids: std::ops::Range<u64>) -> String {
    let mut text = String::from("module data 0\n");
    for id in ids {
        text.push_str(&gen_function(id));
    }
    text
}

fn request(text: String) -> OptimizeRequest {
    OptimizeRequest {
        client: "metrics-test".into(),
        level: "distribution".into(),
        policy: "best-effort".into(),
        deadline_ms: Some(60_000),
        idempotency: String::new(),
        request: String::new(),
        module_text: text,
    }
}

/// The value of a plain (unlabeled) series in a Prometheus text render.
fn series_value(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

#[test]
fn metrics_request_reconciles_with_stats_over_the_wire() {
    let core = Arc::new(ServerCore::new(ServeConfig::default(), ResultCache::in_memory()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || serve_tcp(core, listener))
    };
    let cfg = ClientConfig { addr, ..Default::default() };

    // One cold submit, then the identical module again — a warm replay.
    let req = request(gen_module(0..3));
    assert_eq!(submit(&cfg, &req).unwrap().done.status, "clean");
    assert_eq!(submit(&cfg, &req).unwrap().done.status, "clean");

    let text = scrape_metrics(&cfg, "text").unwrap();

    // The full schema is present: request counters, per-class latency
    // histograms with the fixed ladder, queue/worker gauges, per-pass
    // pipeline time from the timing decorator.
    for needle in [
        "# TYPE epre_requests_total counter",
        "# TYPE epre_request_latency_us histogram",
        "epre_request_latency_us_bucket{class=\"cold\",le=\"+Inf\"} 1",
        "epre_request_latency_us_bucket{class=\"warm\",le=\"+Inf\"} 1",
        "epre_request_latency_us_count{class=\"poison\"} 0",
        "epre_queue_depth",
        "epre_in_flight",
        "epre_workers_total",
        "epre_workers_saturated_total",
        "epre_slow_requests_total",
        "epre_pass_runs_total{pass=",
        "epre_pass_time_us_total{pass=",
    ] {
        assert!(text.contains(needle), "metrics render is missing `{needle}`:\n{text}");
    }

    // Reconciliation with `--stats`: the same counters, the same
    // values, because the render mirrors the stats snapshot rather than
    // double-counting. (Only traffic-driven counters are compared; the
    // scrape connections themselves bump the session counters between
    // the two reads.)
    let counters = stats(&cfg).unwrap();
    for name in ["requests", "completed", "cache_hits", "cache_misses", "shed_overload"] {
        let stat = counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap();
        let metric = series_value(&text, &format!("epre_{name}_total"));
        assert_eq!(metric, Some(stat), "`epre_{name}_total` must mirror stats `{name}`");
    }
    // Point-in-time stats render as gauges, not counters.
    assert!(text.contains("# TYPE epre_cache_entries gauge"));
    assert_eq!(
        series_value(&text, "epre_cache_entries"),
        counters.iter().find(|(k, _)| k == "cache_entries").map(|(_, v)| *v)
    );

    // The JSON render stays inside the protocol's integer-only JSON
    // subset — it parses with the workspace codec and carries the same
    // values.
    let json = scrape_metrics(&cfg, "json").unwrap();
    let parsed = epre_telemetry::json::parse(&json).expect("metrics JSON must parse");
    let list = parsed.get("metrics").and_then(|m| m.as_arr()).unwrap();
    let requests = list
        .iter()
        .find(|m| m.get("name").and_then(|n| n.as_str()) == Some("epre_requests_total"))
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_u64());
    assert_eq!(requests, series_value(&text, "epre_requests_total"));

    shutdown(&cfg).unwrap();
    handle.join().unwrap().unwrap();
}

/// The live per-pass counters and `--timings` are observers of one pass
/// decorator, so they cannot disagree: a cold best-effort request runs
/// each pass exactly as often as the timed pipeline on the same module
/// and level.
#[test]
fn live_pass_counters_agree_with_timings() {
    let text = gen_module(0..4);
    let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
    let mut terminal = None;
    core.handle(&Request::Optimize(request(text.clone())), &mut |resp| {
        terminal = Some(resp);
        Ok(())
    })
    .unwrap();
    match terminal {
        Some(Response::Done(d)) => assert_eq!((d.status.as_str(), d.fresh), ("clean", 4)),
        other => panic!("expected done, got {other:?}"),
    }
    let metrics = core.render_metrics("text");
    let module = epre_ir::parse_module(&text).unwrap();
    let (_, timings) = Optimizer::new(OptLevel::Distribution).try_optimize_timed(&module).unwrap();
    for row in &timings.passes {
        let series = format!("epre_pass_runs_total{{pass=\"{}\"}}", row.pass);
        assert_eq!(series_value(&metrics, &series), Some(row.invocations as u64), "{metrics}");
    }
    assert_eq!(metrics.matches("epre_pass_runs_total{").count(), timings.passes.len());
}

#[test]
fn http_scrape_endpoint_answers_plain_get() {
    let core = Arc::new(ServerCore::new(ServeConfig::default(), ResultCache::in_memory()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || serve_metrics_http(listener, core))
    };

    let get = |path: &str| {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        buf
    };

    let ok = get("/metrics");
    assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
    assert!(ok.contains("Content-Type: text/plain; version=0.0.4"), "{ok}");
    let body = ok.split("\r\n\r\n").nth(1).unwrap();
    assert!(body.contains("epre_requests_total 0"), "{body}");
    let len: usize = ok
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    assert_eq!(len, body.len(), "Content-Length must match the body exactly");

    let missing = get("/anything-else");
    assert!(missing.starts_with("HTTP/1.0 404 Not Found\r\n"), "{missing}");

    // The scrape listener honors the core's shutdown like every other
    // listener.
    core.request_shutdown();
    handle.join().unwrap().unwrap();
}

/// A telemetry sink the test can read back after the core is dropped.
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn traced_serve_runs_are_byte_identical_across_request_jobs() {
    let run = |jobs: usize| -> Vec<u8> {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut core = ServerCore::new(
            ServeConfig { request_jobs: jobs, ..Default::default() },
            ResultCache::in_memory(),
        );
        core.attach_telemetry(Box::new(SharedSink(Arc::clone(&sink))));
        // A parallel-friendly cold request, a warm replay, and a second
        // distinct module: three traced requests per run.
        for text in [gen_module(0..6), gen_module(0..6), gen_module(6..9)] {
            let mut terminal = None;
            core.handle(&Request::Optimize(request(text)), &mut |resp| {
                terminal = Some(resp);
                Ok(())
            })
            .unwrap();
            match terminal {
                Some(Response::Done(d)) => assert_eq!(d.status, "clean"),
                other => panic!("expected done, got {other:?}"),
            }
        }
        drop(core);
        Arc::try_unwrap(sink).unwrap().into_inner().unwrap()
    };

    let at1 = run(1);
    let at2 = run(2);
    let at8 = run(8);
    assert!(!at1.is_empty(), "traced runs must emit telemetry");
    assert_eq!(at1, at2, "request_jobs must not leak into exported telemetry");
    assert_eq!(at1, at8, "request_jobs must not leak into exported telemetry");
    // The per-request lane is present and carries the span pipeline.
    let text = String::from_utf8(at1).unwrap();
    for needle in ["admission", "cache-probe", "governed-run", "oracle", "respond"] {
        assert!(text.contains(needle), "trace is missing the `{needle}` span:\n{text}");
    }
}
