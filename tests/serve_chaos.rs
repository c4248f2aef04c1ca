//! Chaos campaign against the real `epre serve` daemon: kill it with
//! SIGKILL, tear its cache file, inject adversarial passes, and feed it
//! garbage frames. The invariants under every abuse are the ISSUE's
//! acceptance bar: **zero wrong answers** (every served module is
//! byte-identical to the in-process hardened optimizer, or provably
//! equivalent under the differential oracle), **zero hangs** (every
//! failure is a typed refusal or a bounded retry exhaustion), and
//! **bounded recovery** (a restart over crash wreckage serves correct
//! answers immediately).

mod parse_refusals;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use epre::OptLevel;
use epre_frontend::{compile, NamingMode};
use epre_harness::{compare_modules, FaultPolicy, Harness, OracleConfig};
use epre_ir::parse_module;
use epre_serve::{
    run_loadgen, submit, ClientConfig, ClientError, LoadgenConfig, OptimizeRequest, Response,
    Session,
};

/// Two functions so the cache holds more than one entry.
const SRC: &str = "function tri(n)\n\
                   integer n, s, i, tri\n\
                   begin\n\
                   s = 0\n\
                   do i = 1, n\n\
                     s = s + i\n\
                   enddo\n\
                   return s\n\
                   end\n\
                   function mix(a, b)\n\
                   real a, b, x\n\
                   begin\n\
                   x = a * b + a\n\
                   return x + a * b\n\
                   end\n";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("epre-chaos-{}-{name}", std::process::id()))
}

fn module_text() -> String {
    format!("{}", compile(SRC, NamingMode::Disciplined).unwrap())
}

/// A daemon child whose port was scraped from its stdout. Killed on drop
/// so a failing assertion cannot leak a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawn `epre serve --port 0 [extra...]` and wait for its
    /// `listening on <addr>` line (bounded, not forever).
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_epre"))
            .args(["serve", "--port", "0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn epre serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .expect("read daemon stdout");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn client(&self) -> ClientConfig {
        ClientConfig {
            addr: self.addr.clone(),
            attempts: 3,
            base_backoff: Duration::from_millis(10),
            read_timeout: Duration::from_secs(30),
            ..Default::default()
        }
    }

    fn kill9(&mut self) {
        self.child.kill().expect("SIGKILL the daemon");
        self.child.wait().expect("reap the daemon");
    }

    fn shutdown(mut self) {
        epre_serve::shutdown(&self.client()).expect("shutdown ack");
        let status = self.child.wait().expect("reap the daemon");
        assert!(status.success(), "daemon must exit cleanly on shutdown");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn request(text: &str) -> OptimizeRequest {
    OptimizeRequest {
        client: "chaos".into(),
        level: "distribution".into(),
        policy: "best-effort".into(),
        deadline_ms: Some(60_000),
        idempotency: String::new(),
        request: String::new(),
        module_text: text.to_string(),
    }
}

/// The campaign's spine: correct when healthy, correct from cache,
/// typed (not hung) while dead, correct again after restarting over a
/// SIGKILLed, hand-torn cache file.
#[test]
fn kill9_and_torn_cache_never_change_an_answer() {
    let cache = tmp("kill9.cache");
    let _ = std::fs::remove_file(&cache);
    let text = module_text();

    // Ground truth from the in-process hardened optimizer.
    let module = parse_module(&text).unwrap();
    let expected =
        Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort).optimize(&module).unwrap();
    let expected_text = format!("{}", expected.module);

    let mut daemon = Daemon::spawn(&["--cache", cache.to_str().unwrap()]);
    let cfg = daemon.client();

    let cold = submit(&cfg, &request(&text)).expect("cold submit");
    assert_eq!(cold.done.status, "clean");
    assert_eq!((cold.done.reused, cold.done.fresh), (0, 2));
    assert_eq!(cold.done.module_text, expected_text, "daemon answer == harness answer");

    let warm = submit(&cfg, &request(&text)).expect("warm submit");
    assert_eq!((warm.done.reused, warm.done.fresh), (2, 0));
    assert_eq!(warm.done.module_text, expected_text, "cache replay is byte-identical");
    assert_eq!(warm.done.idempotency, cold.done.idempotency);

    // Crash. A client against the corpse gets a typed error after a
    // bounded number of retries — never a hang.
    daemon.kill9();
    match submit(&cfg, &request(&text)) {
        Err(ClientError::Exhausted { attempts, .. }) => assert_eq!(attempts, 3),
        other => panic!("expected bounded retry exhaustion, got {other:?}"),
    }

    // Tear the cache mid-record, as the kill could have. The recovered
    // entries must still be served byte-identically; the torn one is
    // recomputed, not trusted.
    let bytes = std::fs::read(&cache).unwrap();
    assert!(bytes.len() > 9, "cache file suspiciously small");
    std::fs::write(&cache, &bytes[..bytes.len() - 9]).unwrap();

    let daemon = Daemon::spawn(&["--cache", cache.to_str().unwrap()]);
    let cfg = daemon.client();
    let recovered = submit(&cfg, &request(&text)).expect("post-crash submit");
    assert_eq!(recovered.done.status, "clean");
    assert_eq!(recovered.done.module_text, expected_text, "recovery never changes an answer");
    assert_eq!(
        (recovered.done.reused, recovered.done.fresh),
        (1, 1),
        "one entry survived the tear, one was recomputed"
    );
    daemon.shutdown();
    let _ = std::fs::remove_file(&cache);
}

/// Injected adversarial passes (the harness's fault models) degrade the
/// daemon's answers, never corrupt them: faults are reported, and the
/// served module stays observationally equivalent to the input.
#[test]
fn chaos_injection_degrades_but_never_lies() {
    let text = module_text();
    let module = parse_module(&text).unwrap();
    for model in ["nonterminating", "quadratic-growth"] {
        let daemon = Daemon::spawn(&["--chaos-inject", model]);
        let out =
            submit(&daemon.client(), &request(&text)).unwrap_or_else(|e| panic!("{model}: {e}"));
        assert_eq!(out.done.status, "degraded", "{model}");
        assert!(out.done.faults >= 1, "{model}: the injected pass must fault");
        let served = parse_module(&out.done.module_text).unwrap();
        let divergences = compare_modules(&module, &served, &OracleConfig::default());
        assert!(divergences.is_empty(), "{model}: wrong answer under chaos: {divergences:?}");
        daemon.shutdown();
    }
}

/// The campaign at suite scale: the whole 50-routine module through the
/// real daemon — cold, warm, SIGKILLed and recovered, then under an
/// injected quadratic-growth pass — with byte-identity between every
/// clean answer and oracle equivalence for the degraded one.
#[test]
fn full_suite_campaign_survives_kill_and_injection() {
    let fused = epre_suite::fused_module();
    let text = format!("{fused}");
    let n = fused.functions.len() as u64;

    let cache = tmp("suite.cache");
    let _ = std::fs::remove_file(&cache);
    let mut daemon = Daemon::spawn(&["--cache", cache.to_str().unwrap()]);
    let cold = submit(&daemon.client(), &request(&text)).expect("cold suite submit");
    assert_eq!(cold.done.status, "clean");
    assert_eq!((cold.done.reused, cold.done.fresh), (0, n));

    // Crash and recover: every function must replay from the journaled
    // cache, byte-identically.
    daemon.kill9();
    let daemon = Daemon::spawn(&["--cache", cache.to_str().unwrap()]);
    let warm = submit(&daemon.client(), &request(&text)).expect("post-kill suite submit");
    assert_eq!(warm.done.status, "clean");
    assert_eq!((warm.done.reused, warm.done.fresh), (n, 0), "full recovery");
    assert_eq!(warm.done.module_text, cold.done.module_text, "recovery is byte-identical");
    daemon.shutdown();
    let _ = std::fs::remove_file(&cache);

    // Injection at suite scale: degraded accounting, equivalent module.
    let daemon = Daemon::spawn(&["--chaos-inject", "quadratic-growth"]);
    let out = submit(&daemon.client(), &request(&text)).expect("chaos suite submit");
    assert_eq!(out.done.status, "degraded");
    assert!(out.done.faults >= 1);
    let served = parse_module(&out.done.module_text).unwrap();
    let divergences = compare_modules(&fused, &served, &OracleConfig::default());
    assert!(divergences.is_empty(), "wrong answer at suite scale: {divergences:?}");
    daemon.shutdown();
}

/// A unique straight-line module with a lexical redundancy; id varies
/// both the function name and a constant, so every id is a distinct
/// cache entry. Mirrors the loadgen generator without depending on it.
fn gen_text(id: u64) -> String {
    format!(
        "module data 0\n\
         function chaos{id}(r0:i) -> i\n\
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

/// Keep-alive poison isolation against the real binary: a session that
/// turns to garbage after a good frame is refused typed and closed,
/// while a concurrent well-behaved session keeps its connection and
/// keeps getting answers.
#[test]
fn garbage_mid_keepalive_session_poisons_only_that_connection() {
    use std::io::Write;

    use epre_serve::{write_frame, Request};

    let daemon = Daemon::spawn(&["--workers", "4"]);
    let text = module_text();

    // A long-lived well-behaved session, opened first so it is pinned
    // to a worker for the whole test.
    let mut good = Session::new(daemon.client());
    let first = good.submit(&request(&text)).expect("good session submit");
    assert_eq!(first.done.status, "clean");

    // A second keep-alive connection: one good frame, then garbage.
    let stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut writer = std::io::BufWriter::new(stream.try_clone().unwrap());
    let mut reader = std::io::BufReader::new(stream);
    write_frame(&mut writer, &Request::Ping.encode()).expect("write ping");
    let frame = epre_serve::read_frame(&mut reader).unwrap().expect("pong frame");
    assert!(matches!(Response::decode(&frame), Ok(Response::Ack { ref what }) if what == "pong"));
    writer.write_all(b"%%%% definitely not a frame\n").unwrap();
    writer.flush().unwrap();
    let frame = epre_serve::read_frame(&mut reader)
        .expect("typed refusal, not a dropped connection")
        .expect("a frame, not silence");
    match Response::decode(&frame) {
        Ok(Response::Error { code, .. }) => assert_eq!(code.label(), "protocol"),
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
    // Framing on this connection is unrecoverable, so the daemon must
    // close it rather than guess at a resync point.
    assert!(
        epre_serve::read_frame(&mut reader).unwrap().is_none(),
        "poisoned session must be closed"
    );

    // The well-behaved session is untouched: same connection, warm
    // answer.
    let again = good.submit(&request(&text)).expect("good session survives the poison");
    assert_eq!(again.done.status, "clean");
    assert_eq!((again.done.reused, again.done.fresh), (2, 0));
    assert_eq!(good.reconnects(), 0, "the good session never lost its connection");

    drop(good); // free the pinned worker so drain is immediate
    daemon.shutdown();
}

/// The idle reaper against the real binary: a session left idle past
/// `--idle-timeout-ms` is told `goaway idle-timeout`, and the next
/// submit on that session transparently re-dials — no surfaced error,
/// and the answer still comes from the cache.
#[test]
fn idle_timeout_goaway_reconnects_transparently() {
    let cache = tmp("idle.cache");
    let _ = std::fs::remove_file(&cache);
    let daemon = Daemon::spawn(&[
        "--cache",
        cache.to_str().unwrap(),
        "--idle-timeout-ms",
        "150",
        "--workers",
        "4",
    ]);
    let text = module_text();

    let mut session = Session::new(daemon.client());
    let cold = session.submit(&request(&text)).expect("cold submit");
    assert_eq!(cold.done.status, "clean");
    assert_eq!(session.reconnects(), 0);

    // Outlive the idle timeout; the daemon hangs up with a goaway.
    std::thread::sleep(Duration::from_millis(600));

    let warm = session.submit(&request(&text)).expect("submit after idle goaway");
    assert_eq!(warm.done.status, "clean");
    assert_eq!((warm.done.reused, warm.done.fresh), (2, 0), "answer replays from cache");
    assert_eq!(warm.done.module_text, cold.done.module_text);
    assert!(session.reconnects() >= 1, "the idle goaway must have forced a re-dial");

    drop(session);
    daemon.shutdown();
    let _ = std::fs::remove_file(&cache);
}

/// The compaction crash window, staged deterministically: a half-written
/// staging sibling next to an intact journal (exactly what SIGKILL
/// between the staging write and the rename leaves behind) must be
/// ignored and removed on restart, with every old entry recovered.
#[test]
fn stale_compaction_staging_is_ignored_and_removed_on_restart() {
    let cache = tmp("staging.cache");
    let staging = epre_harness::rewrite_staging_path(&cache);
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&staging);
    let text = module_text();

    let daemon = Daemon::spawn(&["--cache", cache.to_str().unwrap()]);
    let cold = submit(&daemon.client(), &request(&text)).expect("cold submit");
    daemon.shutdown();

    std::fs::write(&staging, b"EPRE-SERVE-CACHE v1\nhalf a reco").unwrap();

    let daemon = Daemon::spawn(&["--cache", cache.to_str().unwrap()]);
    assert!(!staging.exists(), "restart must clear the stale staging sibling");
    let warm = submit(&daemon.client(), &request(&text)).expect("submit over crash wreckage");
    assert_eq!((warm.done.reused, warm.done.fresh), (2, 0), "old journal fully recovered");
    assert_eq!(warm.done.module_text, cold.done.module_text);
    daemon.shutdown();
    let _ = std::fs::remove_file(&cache);
}

/// SIGKILL while a tiny `--cache-max-bytes` cap is forcing frequent
/// online compactions: whatever instant the kill lands at — mid-append,
/// mid-staging-write, mid-rename — the journal on disk must load on
/// restart and every answer served afterwards must be byte-identical to
/// the in-process optimizer.
#[test]
fn sigkill_under_constant_compaction_always_leaves_a_loadable_journal() {
    let cache = tmp("killcompact.cache");
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(epre_harness::rewrite_staging_path(&cache));

    // Ground truth for one probe module, computed once.
    let probe = gen_text(7);
    let probe_module = parse_module(&probe).unwrap();
    let expected = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort)
        .optimize(&probe_module)
        .unwrap();
    let probe_expected = format!("{}", expected.module);

    for round in 0u64..5 {
        let mut daemon = Daemon::spawn(&[
            "--cache",
            cache.to_str().unwrap(),
            "--cache-max-bytes",
            "4096",
            "--workers",
            "4",
        ]);
        let addr = daemon.addr.clone();

        // Hammer unique modules through one keep-alive session so the
        // cap forces eviction + compaction continuously; stop on the
        // first error (the kill below severs the connection).
        let hammer = std::thread::spawn(move || {
            let mut session = Session::new(ClientConfig {
                addr,
                attempts: 2,
                base_backoff: Duration::from_millis(5),
                read_timeout: Duration::from_secs(5),
                ..Default::default()
            });
            let mut served = 0u64;
            for i in 0..10_000u64 {
                match session.submit(&request(&gen_text(round * 10_000 + i))) {
                    Ok(out) => {
                        assert_eq!(out.done.status, "clean", "round {round} op {i}");
                        served += 1;
                    }
                    Err(_) => break,
                }
            }
            served
        });

        // Let compactions get going, then kill at a different phase
        // offset each round.
        std::thread::sleep(Duration::from_millis(60 + 37 * round));
        daemon.kill9();
        let served = hammer.join().expect("hammer thread");
        assert!(served > 0, "round {round}: the daemon served nothing before the kill");
    }

    // Final restart over five generations of kill wreckage: the journal
    // must load and answers must still be exactly right.
    let daemon = Daemon::spawn(&["--cache", cache.to_str().unwrap(), "--cache-max-bytes", "4096"]);
    let out = submit(&daemon.client(), &request(&probe)).expect("post-campaign submit");
    assert_eq!(out.done.status, "clean");
    assert_eq!(out.done.module_text, probe_expected, "wrong answer after kill campaign");
    let stats = epre_serve::stats(&daemon.client()).expect("stats");
    let file_bytes = stats.iter().find(|(k, _)| k == "cache_file_bytes").map(|(_, v)| *v).unwrap();
    assert!(file_bytes <= 4096, "cache file {file_bytes} exceeds the 4096-byte cap");
    daemon.shutdown();
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(epre_harness::rewrite_staging_path(&cache));
}

/// SIGTERM is a graceful drain, not a crash: the daemon stops
/// accepting, flushes its cache, and exits 0 — and a restart replays
/// every entry that was admitted before the signal.
#[cfg(unix)]
#[test]
fn sigterm_drains_flushes_the_cache_and_exits_zero() {
    let cache = tmp("sigterm.cache");
    let _ = std::fs::remove_file(&cache);
    let text = module_text();

    let mut daemon = Daemon::spawn(&["--cache", cache.to_str().unwrap()]);
    let out = submit(&daemon.client(), &request(&text)).expect("submit before SIGTERM");
    assert_eq!(out.done.status, "clean");

    let delivered = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(delivered.success(), "kill -TERM must be deliverable");

    // Bounded wait for the drain; a hang here is itself a failure.
    let mut waited = Duration::ZERO;
    let status = loop {
        if let Some(st) = daemon.child.try_wait().expect("try_wait") {
            break st;
        }
        assert!(waited < Duration::from_secs(10), "daemon did not drain within 10s of SIGTERM");
        std::thread::sleep(Duration::from_millis(50));
        waited += Duration::from_millis(50);
    };
    assert!(status.success(), "SIGTERM must drain to exit 0, got {status:?}");

    // The drain flushed the journal: a restart replays both entries.
    let daemon = Daemon::spawn(&["--cache", cache.to_str().unwrap()]);
    let warm = submit(&daemon.client(), &request(&text)).expect("post-drain submit");
    assert_eq!((warm.done.reused, warm.done.fresh), (2, 0), "drain must have flushed the cache");
    assert_eq!(warm.done.module_text, out.done.module_text);
    daemon.shutdown();
    let _ = std::fs::remove_file(&cache);
}

/// The loadgen's hostile mix (poison + oversized heavy) against the
/// real binary with a tight cache cap: zero wrong answers, zero hangs,
/// the daemon still serving afterwards, and the cache file still under
/// its cap.
#[test]
fn hostile_load_mix_leaves_the_daemon_serving_and_the_cache_capped() {
    let cache = tmp("loadmix.cache");
    let _ = std::fs::remove_file(&cache);
    let cap: u64 = 16 * 1024;
    let daemon = Daemon::spawn(&[
        "--cache",
        cache.to_str().unwrap(),
        "--cache-max-bytes",
        "16384",
        "--workers",
        "8",
        "--max-session-requests",
        "32",
    ]);

    let report = run_loadgen(&LoadgenConfig {
        addr: daemon.addr.clone(),
        clients: 3,
        duration: Duration::from_millis(1500),
        mix_poison: 2,
        mix_oversized: 2,
        ..Default::default()
    })
    .expect("loadgen run");
    assert!(report.total_ops() > 0, "the mix must actually generate load");
    assert_eq!(report.wrongs(), 0, "zero wrong answers under the hostile mix");
    assert_eq!(report.hangs(), 0, "zero hangs under the hostile mix");

    let stats = epre_serve::stats(&daemon.client()).expect("stats after load");
    let file_bytes = stats.iter().find(|(k, _)| k == "cache_file_bytes").map(|(_, v)| *v).unwrap();
    assert!(file_bytes <= cap, "cache file {file_bytes} exceeded cap {cap}");
    daemon.shutdown();
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(epre_harness::rewrite_staging_path(&cache));
}

/// Garbage on the wire gets a typed protocol refusal, and the daemon
/// keeps serving well-formed clients afterwards.
#[test]
fn garbage_frames_are_refused_typed_and_do_not_poison_the_daemon() {
    use std::io::Write;

    let daemon = Daemon::spawn(&[]);
    let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    stream.write_all(b"not a frame at all\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let frame = epre_serve::read_frame(&mut reader)
        .expect("typed response, not a dropped connection")
        .expect("a frame, not silence");
    match Response::decode(&frame) {
        Ok(Response::Error { code, .. }) => {
            assert_eq!(code.label(), "protocol");
        }
        other => panic!("expected a typed protocol error, got {other:?}"),
    }

    // The daemon is unharmed: a well-formed request still succeeds.
    let text = module_text();
    let out = submit(&daemon.client(), &request(&text)).expect("submit after garbage");
    assert_eq!(out.done.status, "clean");
    daemon.shutdown();
}

/// A module that parses but does not verify — a one-block function whose
/// terminator jumps to a block it does not have (lint L002) — is refused
/// with the typed `parse` code before any pass or the oracle sees it, and
/// the daemon keeps serving well-formed clients afterwards.
#[test]
fn unverifiable_module_is_refused_typed_and_does_not_poison_the_daemon() {
    let daemon = Daemon::spawn(&[]);
    let dangling = "module data 0\nfunction corrupt()\nblock b0:\n  jump b7\nend\n";
    match submit(&daemon.client(), &request(dangling)) {
        Err(ClientError::Refused { code, .. }) => assert_eq!(code.label(), "parse"),
        other => panic!("expected a typed parse refusal, got {other:?}"),
    }

    // The daemon is unharmed: a well-formed request still succeeds.
    let out = submit(&daemon.client(), &request(&module_text())).expect("submit after refusal");
    assert_eq!(out.done.status, "clean");
    daemon.shutdown();
}

/// Every parse refusal — a `module data` header or register numbers
/// beyond the parser's caps, parentheses in the wrong order — is answered
/// with the typed `parse` code before anything allocates what the text
/// asks for, and the daemon's only worker keeps answering after each.
/// The data-segment row's function is one no other request sends, so its
/// answer cannot come from the cache, whose key ignores the header.
#[test]
fn oversized_data_segment_is_refused_typed_and_the_worker_survives() {
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let client = ClientConfig { read_timeout: Duration::from_secs(10), ..daemon.client() };
    for (what, text, fragment) in parse_refusals::rows() {
        match submit(&client, &request(&text)) {
            Err(ClientError::Refused { code, message }) => {
                assert_eq!(code.label(), "parse", "{what}");
                assert!(message.contains(fragment), "{what}: {message}");
            }
            other => panic!("{what}: expected a typed parse refusal, got {other:?}"),
        }

        // The only worker is unharmed: a well-formed request still succeeds.
        let out = submit(&client, &request(&module_text()))
            .unwrap_or_else(|e| panic!("{what}: submit after refusal: {e}"));
        assert_eq!(out.done.status, "clean", "{what}");
    }
    daemon.shutdown();
}

/// The flight recorder under fire: a SIGQUIT checkpoint accounts for
/// every request the daemon has answered, the dump is valid JSONL, and
/// after a SIGKILL mid-hammer the slow-request log (written *before*
/// each answer frame) still accounts for every request id a client
/// holds an answer for. Together the two artifacts explain what the
/// daemon was doing when it died — the observability bar for crashes.
#[test]
fn flight_recorder_and_slow_log_account_for_every_answered_request() {
    let dump_path = tmp("flight.jsonl");
    let slow_path = PathBuf::from(format!("{}.slow", dump_path.display()));
    let _ = std::fs::remove_file(&dump_path);
    let _ = std::fs::remove_file(&slow_path);
    let dump_arg = dump_path.display().to_string();
    let mut daemon = Daemon::spawn(&["--flight-recorder", &dump_arg, "--slow-ms", "0"]);
    let cfg = daemon.client();

    // Phase 1: K sequential submits, then a SIGQUIT checkpoint.
    let mut answered: Vec<String> = Vec::new();
    for id in 0..6u64 {
        let out = submit(&cfg, &request(&gen_text(id))).expect("healthy submit");
        assert_eq!(out.done.status, "clean");
        assert!(!out.done.request.is_empty(), "every answer echoes its request id");
        answered.push(out.done.request);
    }
    let pid = daemon.child.id().to_string();
    let quit = Command::new("kill").args(["-QUIT", &pid]).status().expect("send SIGQUIT");
    assert!(quit.success(), "kill -QUIT must reach the daemon");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let dump = loop {
        if let Ok(s) = std::fs::read_to_string(&dump_path) {
            if !s.is_empty() {
                break s;
            }
        }
        assert!(std::time::Instant::now() < deadline, "SIGQUIT dump never appeared");
        std::thread::sleep(Duration::from_millis(50));
    };

    // The checkpoint is valid JSONL in the protocol's integer-only
    // subset, opens with the header line, and accounts for every
    // answered request id with nothing left in flight.
    let mut lines = dump.lines();
    let header = epre_telemetry::json::parse(lines.next().expect("non-empty dump"))
        .expect("header line parses");
    assert_eq!(header.get("flight_recorder").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(header.get("in_flight").and_then(|v| v.as_u64()), Some(0));
    for line in dump.lines().skip(1) {
        epre_telemetry::json::parse(line)
            .unwrap_or_else(|e| panic!("dump line is not valid JSON ({e}): {line}"));
    }
    for id in &answered {
        assert!(
            dump.contains(&format!("\"request\":\"{id}\"")),
            "checkpoint must account for answered request {id}:\n{dump}"
        );
    }

    // The daemon kept serving through the checkpoint — SIGQUIT is an
    // observation, not a drain.
    let out = submit(&cfg, &request(&gen_text(100))).expect("submit after SIGQUIT");
    assert_eq!(out.done.status, "clean");

    // Phase 2: hammer from a background thread, SIGKILL mid-flight.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer = {
        let cfg = ClientConfig { attempts: 1, ..cfg.clone() };
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut answered = Vec::new();
            let mut id = 1_000u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                match submit(&cfg, &request(&gen_text(id))) {
                    Ok(out) => answered.push(out.done.request),
                    Err(_) => break, // the kill landed
                }
                id += 1;
            }
            answered
        })
    };
    std::thread::sleep(Duration::from_millis(400));
    daemon.kill9();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let hammered = hammer.join().expect("hammer thread");

    // Every answer any client holds — checkpoint phase and hammer phase
    // alike — is on disk in the slow log, because the log write happens
    // before the answer frame is emitted. `--slow-ms 0` makes every
    // request "slow", so the log is a complete ledger.
    let slow = std::fs::read_to_string(&slow_path).expect("slow log exists");
    for line in slow.lines() {
        epre_telemetry::json::parse(line)
            .unwrap_or_else(|e| panic!("slow-log line is not valid JSON ({e}): {line}"));
    }
    for id in answered.iter().chain(&hammered) {
        assert!(
            slow.contains(&format!("\"request\":\"{id}\"")),
            "slow log must account for answered request {id}"
        );
    }
    assert!(!hammered.is_empty(), "the hammer must land at least one answer before the kill");

    let _ = std::fs::remove_file(&dump_path);
    let _ = std::fs::remove_file(&slow_path);
}
