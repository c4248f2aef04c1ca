//! The client library: submit a module, survive a flaky server.
//!
//! [`submit`] wraps one request/response conversation in a retry loop
//! with jittered exponential backoff. Retryable failures are exactly
//! the transient ones — connection refused/reset, a torn response
//! stream (the signature of a server killed mid-write), and a typed
//! `overloaded` refusal. Deterministic refusals (`parse`, `protocol`,
//! `quarantined`, `deadline`) are surfaced immediately: retrying a
//! request the server has *decided* about just re-earns the answer.
//!
//! Idempotency rides on content addressing: [`submit`] fills an empty
//! idempotency key with [`OptimizeRequest::idempotency_key`], the
//! 16-hex fingerprint of everything that affects the answer. A retry
//! therefore names the same work, the server's result cache recognizes
//! it, and the answer comes back byte-identical — at cache speed.
//!
//! [`Session`] is the keep-alive counterpart: one connection carries
//! many submissions, and when the server ends the session with a typed
//! `goaway` (idle timeout, per-session request cap, draining) the
//! session reconnects transparently and resends — without a backoff
//! sleep, because session rotation is housekeeping, not failure. The
//! same idempotency keys make the resend safe: at worst the server
//! answers from its cache.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

use epre_harness::SplitMix64;

use crate::protocol::{
    read_frame, write_frame, DoneFrame, ErrorCode, FrameError, FunctionFrame, OptimizeRequest,
    Request, Response,
};

/// Client knobs. `Default` suits tests; real callers set `addr`.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Total attempts (first try + retries).
    pub attempts: u32,
    /// Base backoff; attempt `k` sleeps `base * 2^k` plus jitter.
    pub base_backoff: Duration,
    /// Jitter seed. Equal seeds replay equal backoff schedules — chaos
    /// campaigns are reproducible.
    pub seed: u64,
    /// Per-read socket timeout; a dead-but-connected server surfaces as
    /// a retryable I/O error after this long, never a hang.
    pub read_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:9944".into(),
            attempts: 4,
            base_backoff: Duration::from_millis(50),
            seed: 0x5EED,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// Why a submission gave up.
#[derive(Debug)]
pub enum ClientError {
    /// The server refused deterministically; retrying cannot help.
    Refused {
        /// The typed refusal.
        code: ErrorCode,
        /// The server's explanation.
        message: String,
    },
    /// Every attempt failed transiently (connect, torn stream,
    /// overload). The last failure is described.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// Description of the final failure.
        last: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Refused { code, message } => {
                write!(f, "server refused ({}): {message}", code.label())
            }
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

/// A successful submission: the terminal frame plus everything before it.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The terminal accounting frame.
    pub done: DoneFrame,
    /// Per-function progress frames, in module order.
    pub functions: Vec<FunctionFrame>,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
}

/// Submit one optimize request, retrying transient failures with
/// jittered exponential backoff. An empty request id is filled the same
/// way as the idempotency key — content-derived, so a retry carries the
/// same trace id and the whole conversation is correlatable end to end.
pub fn submit(cfg: &ClientConfig, req: &OptimizeRequest) -> Result<SubmitOutcome, ClientError> {
    let mut req = req.clone();
    if req.idempotency.is_empty() {
        req.idempotency = req.idempotency_key();
    }
    if req.request.is_empty() {
        req.request = req.request_id();
    }
    let mut rng = SplitMix64::new(cfg.seed);
    let mut last = String::from("no attempts were made");
    let attempts = cfg.attempts.max(1);
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(backoff_delay(cfg.base_backoff, attempt - 1, &mut rng));
        }
        match try_once(cfg, &Request::Optimize(req.clone())) {
            Ok(frames) => match split_terminal(frames) {
                Ok((done, functions)) => {
                    return Ok(SubmitOutcome { done, functions, attempts: attempt + 1 })
                }
                Err(RefusalOrRetry::Refuse(code, message)) => {
                    return Err(ClientError::Refused { code, message })
                }
                Err(RefusalOrRetry::Retry(why)) => last = why,
            },
            Err(why) => last = why,
        }
    }
    Err(ClientError::Exhausted { attempts, last })
}

/// Ask the server for its counter snapshot (no retries — stats are a
/// diagnostic, absence of an answer is itself the diagnosis).
pub fn stats(cfg: &ClientConfig) -> Result<Vec<(String, u64)>, String> {
    let frames = try_once(cfg, &Request::Stats)?;
    match frames.into_iter().next() {
        Some(Response::Stats(counters)) => Ok(counters),
        other => Err(format!("expected a stats frame, got {other:?}")),
    }
}

/// Scrape the server's live metrics. `format` is `"text"` (Prometheus
/// exposition) or `"json"`; like [`stats`], no retries — a metrics
/// scrape that fails IS the signal.
pub fn metrics(cfg: &ClientConfig, format: &str) -> Result<String, String> {
    let frames = try_once(cfg, &Request::Metrics { format: format.to_string() })?;
    match frames.into_iter().next() {
        Some(Response::Metrics { body }) => Ok(body),
        other => Err(format!("expected a metrics frame, got {other:?}")),
    }
}

/// Ask the server to shut down. `Ok` means it acknowledged.
pub fn shutdown(cfg: &ClientConfig) -> Result<(), String> {
    let frames = try_once(cfg, &Request::Shutdown)?;
    match frames.into_iter().next() {
        Some(Response::Ack { what }) if what == "shutdown" => Ok(()),
        other => Err(format!("expected a shutdown ack, got {other:?}")),
    }
}

/// Liveness probe.
pub fn ping(cfg: &ClientConfig) -> Result<(), String> {
    let frames = try_once(cfg, &Request::Ping)?;
    match frames.into_iter().next() {
        Some(Response::Ack { what }) if what == "pong" => Ok(()),
        other => Err(format!("expected a pong, got {other:?}")),
    }
}

/// Backoff for retry `k` (0-based): `base * 2^k + jitter`, jitter
/// uniform in `[0, base)`. Exposed for tests.
pub fn backoff_delay(base: Duration, k: u32, rng: &mut SplitMix64) -> Duration {
    let base_ms = base.as_millis() as u64;
    let exp = base_ms.saturating_mul(1u64 << k.min(16));
    let jitter = if base_ms == 0 { 0 } else { rng.next_u64() % base_ms };
    Duration::from_millis(exp.saturating_add(jitter))
}

enum RefusalOrRetry {
    Refuse(ErrorCode, String),
    Retry(String),
}

/// Split a frame stream into (terminal done, progress frames), or
/// classify the failure.
fn split_terminal(
    frames: Vec<Response>,
) -> Result<(DoneFrame, Vec<FunctionFrame>), RefusalOrRetry> {
    let mut functions = Vec::new();
    for frame in frames {
        match frame {
            Response::Function(f) => functions.push(f),
            Response::Done(done) => return Ok((done, functions)),
            Response::Error { code, message, .. } => {
                return Err(if code.retryable() {
                    RefusalOrRetry::Retry(format!("server shed the request: {message}"))
                } else {
                    RefusalOrRetry::Refuse(code, message)
                })
            }
            Response::Goaway { reason } => {
                // The server ended the session instead of answering
                // (draining, most likely). Reconnecting is the cure.
                return Err(RefusalOrRetry::Retry(format!("server ended the session: {reason}")));
            }
            other => {
                return Err(RefusalOrRetry::Retry(format!(
                    "unexpected frame in an optimize conversation: {other:?}"
                )))
            }
        }
    }
    // The stream ended without a terminal frame: the server died at a
    // frame boundary. Same as a torn frame — retry.
    Err(RefusalOrRetry::Retry("response stream ended without a terminal frame".into()))
}

/// One connection, one request, all frames until clean EOF. Any I/O or
/// framing failure is returned as a retryable description.
fn try_once(cfg: &ClientConfig, req: &Request) -> Result<Vec<Response>, String> {
    let stream = TcpStream::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;
    let _ = stream.set_nodelay(true); // small flushed frames; avoid Nagle stalls
    stream.set_read_timeout(Some(cfg.read_timeout)).map_err(|e| format!("timeout: {e}"))?;
    let write_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut writer = BufWriter::new(write_half);
    write_frame(&mut writer, &req.encode()).map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut reader) {
            Ok(Some(payload)) => {
                let resp = Response::decode(&payload)
                    .map_err(|e| format!("undecodable response frame: {e}"))?;
                let terminal = resp.is_terminal();
                frames.push(resp);
                if terminal {
                    return Ok(frames);
                }
            }
            Ok(None) => return Ok(frames), // clean EOF; caller classifies
            Err(FrameError::Torn) => {
                return Err("response stream torn mid-frame (server died?)".into())
            }
            Err(FrameError::Io(e)) => return Err(format!("read: {e}")),
            Err(FrameError::Malformed(m)) => return Err(format!("malformed response: {m}")),
        }
    }
}

/// A keep-alive client session: one connection answers many
/// submissions. When the server ends the session with a `goaway`, the
/// stream tears, or the connection drops, the session reconnects and
/// resends transparently (idempotency keys make the resend safe). Not
/// `Sync` — one session per thread, which is how load generators and
/// build drivers naturally hold them.
pub struct Session {
    cfg: ClientConfig,
    conn: Option<SessionConn>,
    rng: SplitMix64,
    connected_once: bool,
    reconnects: u64,
}

struct SessionConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Why one session round-trip failed (internal).
struct SessionFailure {
    why: String,
    /// True when the server ended the session with a typed `goaway` —
    /// an orderly rotation, retried immediately without backoff.
    goaway: bool,
}

impl SessionFailure {
    fn transient(why: String) -> SessionFailure {
        SessionFailure { why, goaway: false }
    }
}

impl Session {
    /// A lazy session: the first [`Session::submit`] connects.
    pub fn new(cfg: ClientConfig) -> Session {
        let rng = SplitMix64::new(cfg.seed);
        Session { cfg, conn: None, rng, connected_once: false, reconnects: 0 }
    }

    /// Connections made beyond the first — each one is a transparent
    /// recovery from a `goaway`, a torn stream, or a dropped peer.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Submit one optimize request over the session, reconnecting and
    /// retrying transient failures. Semantics match [`submit`]: only
    /// deterministic refusals surface as [`ClientError::Refused`].
    pub fn submit(&mut self, req: &OptimizeRequest) -> Result<SubmitOutcome, ClientError> {
        let mut req = req.clone();
        if req.idempotency.is_empty() {
            req.idempotency = req.idempotency_key();
        }
        if req.request.is_empty() {
            req.request = req.request_id();
        }
        let request = Request::Optimize(req);
        let attempts = self.cfg.attempts.max(1);
        let mut last = String::from("no attempts were made");
        let mut backoff_next = false;
        for attempt in 0..attempts {
            if attempt > 0 && backoff_next {
                std::thread::sleep(backoff_delay(
                    self.cfg.base_backoff,
                    attempt - 1,
                    &mut self.rng,
                ));
            }
            backoff_next = true;
            match self.roundtrip(&request) {
                Ok(frames) => match split_terminal(frames) {
                    Ok((done, functions)) => {
                        return Ok(SubmitOutcome { done, functions, attempts: attempt + 1 })
                    }
                    Err(RefusalOrRetry::Refuse(code, message)) => {
                        return Err(ClientError::Refused { code, message })
                    }
                    Err(RefusalOrRetry::Retry(why)) => {
                        // A shed (overloaded) answer closes the server
                        // side; start the next attempt on a fresh
                        // connection either way.
                        self.conn = None;
                        last = why;
                    }
                },
                Err(fail) => {
                    self.conn = None;
                    backoff_next = !fail.goaway;
                    last = fail.why;
                }
            }
        }
        Err(ClientError::Exhausted { attempts, last })
    }

    /// Send one request on the (re)established connection and read
    /// frames up to the terminal one. A `goaway` anywhere — including a
    /// stale one buffered from the previous exchange — fails the
    /// round-trip with `goaway: true` so the caller rotates without
    /// backoff.
    fn roundtrip(&mut self, req: &Request) -> Result<Vec<Response>, SessionFailure> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.cfg.addr).map_err(|e| {
                SessionFailure::transient(format!("connect {}: {e}", self.cfg.addr))
            })?;
            let _ = stream.set_nodelay(true); // small flushed frames; avoid Nagle stalls
            stream
                .set_read_timeout(Some(self.cfg.read_timeout))
                .map_err(|e| SessionFailure::transient(format!("timeout: {e}")))?;
            let write_half =
                stream.try_clone().map_err(|e| SessionFailure::transient(format!("clone: {e}")))?;
            if self.connected_once {
                self.reconnects += 1;
            }
            self.connected_once = true;
            self.conn = Some(SessionConn {
                reader: BufReader::new(stream),
                writer: BufWriter::new(write_half),
            });
        }
        let conn = self.conn.as_mut().expect("connection just established");
        write_frame(&mut conn.writer, &req.encode())
            .map_err(|e| SessionFailure::transient(format!("send: {e}")))?;
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut conn.reader) {
                Ok(Some(payload)) => {
                    let resp = Response::decode(&payload).map_err(|e| {
                        SessionFailure::transient(format!("undecodable response frame: {e}"))
                    })?;
                    if let Response::Goaway { reason } = &resp {
                        return Err(SessionFailure {
                            why: format!("server ended the session: {reason}"),
                            goaway: true,
                        });
                    }
                    let terminal = resp.is_terminal();
                    frames.push(resp);
                    if terminal {
                        return Ok(frames);
                    }
                }
                Ok(None) => {
                    return Err(SessionFailure::transient(
                        "server closed the session before a terminal frame".into(),
                    ))
                }
                Err(FrameError::Torn) => {
                    return Err(SessionFailure::transient(
                        "response stream torn mid-frame (server died?)".into(),
                    ))
                }
                Err(FrameError::Io(e)) => {
                    return Err(SessionFailure::transient(format!("read: {e}")))
                }
                Err(FrameError::Malformed(m)) => {
                    return Err(SessionFailure::transient(format!("malformed response: {m}")))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::core::{ServeConfig, ServerCore};
    use crate::server::serve_tcp;
    use epre_frontend::{compile, NamingMode};
    use std::net::TcpListener;
    use std::sync::Arc;

    const SRC: &str = "function dbl(a)\n\
                       integer a\n\
                       begin\n\
                       return a + a\nend\n";

    fn optimize_request() -> OptimizeRequest {
        OptimizeRequest {
            client: "client-test".into(),
            level: "partial".into(),
            policy: "best-effort".into(),
            deadline_ms: None,
            idempotency: String::new(),
            request: String::new(),
            module_text: format!("{}", compile(SRC, NamingMode::Disciplined).unwrap()),
        }
    }

    fn spawn_server_with(
        config: ServeConfig,
    ) -> (ClientConfig, std::thread::JoinHandle<std::io::Result<()>>) {
        let core = Arc::new(ServerCore::new(config, ResultCache::in_memory()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || serve_tcp(core, listener));
        let cfg = ClientConfig { addr: addr.to_string(), ..Default::default() };
        (cfg, handle)
    }

    fn spawn_server() -> (ClientConfig, std::thread::JoinHandle<std::io::Result<()>>) {
        spawn_server_with(ServeConfig::default())
    }

    #[test]
    fn submits_pings_and_shuts_down() {
        let (cfg, server) = spawn_server();
        ping(&cfg).unwrap();
        let first = submit(&cfg, &optimize_request()).unwrap();
        assert_eq!(first.attempts, 1);
        assert_eq!(first.done.status, "clean");
        assert_eq!(first.functions.len(), 1);
        // Identical resubmit: cache speed, byte-identical, same key.
        let second = submit(&cfg, &optimize_request()).unwrap();
        assert_eq!(second.done.module_text, first.done.module_text);
        assert_eq!(second.done.idempotency, first.done.idempotency);
        assert_eq!(second.done.reused, 1);
        let counters = stats(&cfg).unwrap();
        let get = |k: &str| counters.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("completed"), 2);
        assert_eq!(get("cache_hits"), 1);
        shutdown(&cfg).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn connect_failures_exhaust_with_backoff_not_hang() {
        // Nothing listens here: every attempt fails at connect.
        let cfg = ClientConfig {
            addr: "127.0.0.1:1".into(),
            attempts: 3,
            base_backoff: Duration::from_millis(1),
            ..Default::default()
        };
        match submit(&cfg, &optimize_request()) {
            Err(ClientError::Exhausted { attempts: 3, last }) => {
                assert!(last.contains("connect"), "{last}");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_refusals_do_not_retry() {
        let (cfg, server) = spawn_server();
        let mut req = optimize_request();
        req.module_text = "garbage".into();
        match submit(&cfg, &req) {
            Err(ClientError::Refused { code: ErrorCode::Parse, .. }) => {}
            other => panic!("expected a parse refusal, got {other:?}"),
        }
        shutdown(&cfg).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn session_reuses_one_connection_across_submits() {
        let (cfg, server) = spawn_server();
        let mut session = Session::new(cfg.clone());
        let first = session.submit(&optimize_request()).unwrap();
        assert_eq!(first.done.status, "clean");
        for _ in 0..3 {
            let again = session.submit(&optimize_request()).unwrap();
            assert_eq!(again.done.module_text, first.done.module_text);
            assert_eq!(again.done.reused, 1, "warm hits ride the same session");
        }
        assert_eq!(session.reconnects(), 0, "four submits, one connection");
        drop(session);
        shutdown(&cfg).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn session_rotates_transparently_on_goaway_max_requests() {
        let config = ServeConfig { max_session_requests: 2, ..Default::default() };
        let (cfg, server) = spawn_server_with(config);
        let mut session = Session::new(cfg.clone());
        for _ in 0..5 {
            let out = session.submit(&optimize_request()).unwrap();
            assert_eq!(out.done.status, "clean");
        }
        assert!(
            session.reconnects() >= 1,
            "a 2-request session cap forces rotation across 5 submits"
        );
        drop(session);
        shutdown(&cfg).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn session_reconnects_after_idle_timeout() {
        let config = ServeConfig { idle_timeout: Duration::from_millis(100), ..Default::default() };
        let (cfg, server) = spawn_server_with(config);
        let mut session = Session::new(cfg.clone());
        session.submit(&optimize_request()).unwrap();
        // Let the server time the session out and close it.
        std::thread::sleep(Duration::from_millis(400));
        let out = session.submit(&optimize_request()).unwrap();
        assert_eq!(out.done.status, "clean");
        assert_eq!(out.done.reused, 1, "the reconnect resend hits the cache");
        assert_eq!(session.reconnects(), 1);
        drop(session);
        shutdown(&cfg).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn backoff_schedule_is_seeded_and_grows() {
        let base = Duration::from_millis(10);
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let da: Vec<_> = (0..4).map(|k| backoff_delay(base, k, &mut a)).collect();
        let db: Vec<_> = (0..4).map(|k| backoff_delay(base, k, &mut b)).collect();
        assert_eq!(da, db, "equal seeds replay equal schedules");
        for (k, d) in da.iter().enumerate() {
            let floor = Duration::from_millis(10 * (1 << k));
            assert!(*d >= floor && *d < floor + base, "attempt {k}: {d:?}");
        }
    }
}
