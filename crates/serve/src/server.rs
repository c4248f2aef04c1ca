//! The transports: a TCP accept loop with bounded admission, and a
//! stdio-JSONL mode for pipe-driven use.
//!
//! # Admission control
//!
//! The acceptor thread does **no** request I/O — it only moves accepted
//! connections into a bounded [`sync_channel`]. When the queue is full,
//! the connection is shed immediately with a typed `overloaded` frame
//! and closed: the client sees a fast, explicit refusal, never a hang.
//! Worker threads drain the queue, applying a per-session read timeout
//! so a stalled or malicious peer cannot pin a worker.
//!
//! # Keep-alive sessions
//!
//! One admitted connection is one **session**: the worker answers
//! request frames in a loop until the peer closes, the session idles
//! past [`crate::ServeConfig::idle_timeout`], it reaches
//! [`crate::ServeConfig::max_session_requests`], or the server starts
//! draining — the last three end with a typed `goaway` frame so the
//! client reconnects instead of guessing. Poison is isolated per
//! session: frame-level garbage (torn or malformed bytes) draws a typed
//! `protocol` error and closes *that* connection only, because a broken
//! frame boundary leaves nothing to resynchronize on; a well-framed but
//! undecodable request draws the same typed error and the session
//! continues — framing is intact, so the next frame is trustworthy.
//!
//! # Shutdown and drain
//!
//! A `shutdown` request (or [`crate::ServerCore::request_shutdown`],
//! the SIGTERM path) flips the core's flag; the worker that served it
//! pokes the acceptor awake with an explicit loopback `ping` frame —
//! a real control frame, so a port scan or health probe that connects
//! and says nothing can never be mistaken for control traffic (empty
//! connections are merely counted). The acceptor stops accepting and
//! [`serve_tcp`] drains: admitted sessions get
//! [`crate::ServeConfig::drain_deadline`] to finish (each sees `goaway
//! draining` at its next frame boundary); stragglers past the deadline
//! are abandoned and counted. Either way the cache is compacted and
//! fsynced before [`serve_tcp`] returns — the graceful exit leaves a
//! minimal, durable journal, while kill -9 semantics are unchanged.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::core::{GoawayReason, ServerCore};
use crate::protocol::{read_frame, write_frame, ErrorCode, FrameError, Request, Response};

/// Default per-session idle timeout (see
/// [`crate::ServeConfig::idle_timeout`] for the configurable knob).
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Serve on an already-bound listener until a `shutdown` request
/// arrives. Blocks the calling thread; returns after the graceful
/// drain: admitted sessions get the configured drain deadline to
/// finish, the cache is compacted and fsynced, and only then does this
/// return — every admitted request is answered unless the deadline
/// abandons it.
pub fn serve_tcp(core: Arc<ServerCore>, listener: TcpListener) -> io::Result<()> {
    let local = listener.local_addr()?;
    let (tx, rx) = sync_channel::<TcpStream>(core.config.queue_capacity.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let n_workers = core.config.workers.max(1);
    for _ in 0..n_workers {
        let core = Arc::clone(&core);
        let rx = Arc::clone(&rx);
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            worker_loop(&core, &rx, local);
            let _ = done_tx.send(());
        });
    }
    drop(done_tx);

    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            // A failed accept (peer reset mid-handshake) is not a server
            // problem; keep accepting.
            Err(_) => continue,
        };
        if core.shutdown_requested() {
            break;
        }
        match tx.try_send(stream) {
            // The admission gauge rises here and falls at worker pickup;
            // note_admission also spots (and counts) worker saturation.
            Ok(()) => core.metrics().note_admission(),
            Err(TrySendError::Full(stream)) => {
                core.note_overload_shed();
                shed_overloaded(stream, &core);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    drop(tx); // workers drain the queue, then see the hangup

    // Drain under the deadline: workers signal completion through the
    // done channel; whoever is still mid-session when it expires is
    // abandoned (their threads die with the process) and counted.
    let deadline = Instant::now() + core.config.drain_deadline;
    let mut finished = 0usize;
    while finished < n_workers {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match done_rx.recv_timeout(remaining) {
            Ok(()) => finished += 1,
            Err(RecvTimeoutError::Timeout) => {
                core.note_drain_abandoned((n_workers - finished) as u64);
                break;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    core.drain_flush()
}

fn worker_loop(core: &ServerCore, rx: &Mutex<Receiver<TcpStream>>, local: std::net::SocketAddr) {
    loop {
        // Hold the lock only for the dequeue, not the session.
        let conn = match rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        match conn {
            Ok(stream) => {
                core.metrics().queue_depth.dec();
                core.metrics().workers_busy.inc();
                if let Err(e) = handle_conn(core, stream) {
                    // The peer vanished mid-conversation; its retry will
                    // hit the cache. Nothing useful to do with `e`.
                    let _ = e;
                }
                core.metrics().workers_busy.dec();
                if core.shutdown_requested() {
                    // Poke the acceptor awake so it notices the flag;
                    // then keep draining — every admitted connection is
                    // still answered. (After the acceptor exits, the
                    // poke just fails to connect, which is fine.)
                    poke_acceptor(local);
                }
            }
            Err(_) => return, // acceptor hung up and the queue is dry
        }
    }
}

/// Wake the acceptor with an explicit control frame: a loopback
/// connection carrying one `ping`. The frame is what makes it control
/// traffic — a connection that says nothing (port scan, health probe)
/// is counted as empty and otherwise ignored, so the two can never be
/// confused.
fn poke_acceptor(local: std::net::SocketAddr) {
    if let Ok(stream) = TcpStream::connect(local) {
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let mut w = BufWriter::new(stream);
        let _ = write_frame(&mut w, &Request::Ping.encode());
        // Dropping the stream closes it; if the acceptor already exited,
        // nobody reads the ping — equally fine, the connect itself woke
        // the accept loop.
    }
}

/// Best-effort overload refusal: a short write timeout so a slow client
/// cannot turn the shed path itself into a hang.
fn shed_overloaded(stream: TcpStream, _core: &ServerCore) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut w = BufWriter::new(stream);
    let resp = Response::Error {
        code: ErrorCode::Overloaded,
        message: "admission queue full; back off and retry".into(),
        request: String::new(),
    };
    let _ = write_frame(&mut w, &resp.encode());
}

/// Classify a frame-level error for the latency histograms and the
/// flight recorder: a frame over the size cap is `oversized` traffic,
/// anything else torn or malformed is `poison`.
fn frame_error_class(e: &FrameError) -> &'static str {
    match e {
        FrameError::Malformed(m) if m.contains("exceeds cap") => "oversized",
        _ => "poison",
    }
}

/// Send the session-terminal `goaway` frame and account for it. The
/// write is best-effort: the peer may already be gone, which changes
/// nothing about the session ending.
fn end_session(core: &ServerCore, writer: &mut dyn Write, reason: GoawayReason) {
    core.note_goaway(reason);
    let resp = Response::Goaway { reason: reason.label().into() };
    let _ = write_frame(writer, &resp.encode());
}

/// One keep-alive session: answer request frames until the peer closes,
/// the idle timeout fires, the per-session request cap is reached, or
/// the server is draining.
fn handle_conn(core: &ServerCore, stream: TcpStream) -> io::Result<()> {
    // A keep-alive session is a request/response conversation of small
    // frames, each flushed explicitly — exactly the write pattern
    // Nagle's algorithm penalizes with delayed-ACK stalls (~40ms per
    // answer). Disable it; framing already batches what should batch.
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(core.config.idle_timeout))?;
    let write_half = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let mut served = 0usize;
    loop {
        if core.shutdown_requested() {
            end_session(core, &mut writer, GoawayReason::Draining);
            return Ok(());
        }
        let t_read = Instant::now();
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => {
                // Clean EOF between frames: the peer is done with the
                // session. Before any frame at all, it was never a
                // session — a port scan or health probe, counted so the
                // operator can see the noise.
                if served == 0 {
                    core.note_empty_conn();
                }
                return Ok(());
            }
            Err(FrameError::Io(e))
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                // The session idled out. `goaway` tells the peer to
                // reconnect rather than wonder; a one-shot client that
                // already left never sees it.
                end_session(core, &mut writer, GoawayReason::IdleTimeout);
                return Ok(());
            }
            Err(FrameError::Io(e)) => return Err(e),
            Err(e @ (FrameError::Torn | FrameError::Malformed(_))) => {
                // Frame-level poison: the byte stream is out of sync, so
                // this session is unrecoverable — but only this session.
                core.note_protocol_reject();
                let class = frame_error_class(&e);
                core.metrics().observe_latency(class, t_read.elapsed().as_micros() as u64);
                core.recorder().note(class, &format!("{e}"));
                let resp = Response::Error {
                    code: ErrorCode::Protocol,
                    message: format!("{e}"),
                    request: String::new(),
                };
                return write_frame(&mut writer, &resp.encode());
            }
        };
        if served == 0 {
            core.note_session();
        }
        match Request::decode(&payload) {
            Ok(req) => {
                core.handle(&req, &mut |resp| write_frame(&mut writer, &resp.encode()))?;
                served += 1;
                if matches!(req, Request::Shutdown) {
                    // The ack was the session's last frame; the drain
                    // goaway would race the close, so just end it.
                    return Ok(());
                }
                if served >= core.config.max_session_requests.max(1) {
                    end_session(core, &mut writer, GoawayReason::MaxRequests);
                    return Ok(());
                }
            }
            Err(message) => {
                // Well-framed garbage: the framing survived, so the
                // session does too — answer typed and keep reading.
                core.note_protocol_reject();
                core.metrics().observe_latency("poison", t_read.elapsed().as_micros() as u64);
                core.recorder().note("poison", &message);
                let resp =
                    Response::Error { code: ErrorCode::Protocol, message, request: String::new() };
                write_frame(&mut writer, &resp.encode())?;
                served += 1;
            }
        }
    }
}

/// Serve `GET /metrics` as Prometheus text exposition over plain
/// HTTP/1.0 until the core begins shutdown — the scrape sidecar behind
/// `epre serve --metrics-port`. One connection per scrape, answered
/// inline on this thread: a metrics endpoint needs no worker pool, and
/// the nonblocking accept loop re-checks the shutdown flag every 100ms
/// so the listener drains with the daemon.
///
/// # Errors
/// Only listener setup (`set_nonblocking`); per-connection I/O errors
/// are dropped — a vanished scraper is the scraper's problem.
pub fn serve_metrics_http(listener: TcpListener, core: Arc<ServerCore>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if core.shutdown_requested() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = answer_http_scrape(stream, &core);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(_) => continue,
        }
    }
}

fn answer_http_scrape(stream: TcpStream, core: &ServerCore) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers; the answer depends only on the request line.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let mut w = BufWriter::new(stream);
    if method == "GET" && path.trim_end_matches('/') == "/metrics" {
        let body = core.render_metrics("text");
        write!(
            w,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    } else {
        let body = "not found; try GET /metrics\n";
        write!(
            w,
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    }
    w.flush()
}

/// Serve request frames from `stdin`, answering on `stdout`, until EOF
/// or a `shutdown` request, then flush the cache (the stdio transport's
/// graceful drain — there is nothing to abandon, the pipe is serial).
/// Serial by construction — the pipe is the admission queue.
pub fn serve_stdio(
    core: &ServerCore,
    input: &mut dyn Read,
    output: &mut dyn Write,
) -> io::Result<()> {
    let result = serve_stdio_inner(core, input, output);
    let flush = core.drain_flush();
    result.and(flush)
}

fn serve_stdio_inner(
    core: &ServerCore,
    input: &mut dyn Read,
    output: &mut dyn Write,
) -> io::Result<()> {
    let mut reader = BufReader::new(input);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()),
            Err(FrameError::Io(e)) => return Err(e),
            Err(e @ (FrameError::Torn | FrameError::Malformed(_))) => {
                core.note_protocol_reject();
                let class = frame_error_class(&e);
                core.metrics().observe_latency(class, 0);
                core.recorder().note(class, &format!("{e}"));
                let resp = Response::Error {
                    code: ErrorCode::Protocol,
                    message: format!("{e}"),
                    request: String::new(),
                };
                write_frame(output, &resp.encode())?;
                // Framing is lost; there is no resynchronization point.
                return Ok(());
            }
        };
        match Request::decode(&payload) {
            Ok(req) => {
                core.handle(&req, &mut |resp| write_frame(output, &resp.encode()))?;
                if core.shutdown_requested() {
                    return Ok(());
                }
            }
            Err(message) => {
                core.note_protocol_reject();
                core.metrics().observe_latency("poison", 0);
                core.recorder().note("poison", &message);
                let resp =
                    Response::Error { code: ErrorCode::Protocol, message, request: String::new() };
                write_frame(output, &resp.encode())?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::core::ServeConfig;
    use crate::protocol::OptimizeRequest;
    use epre_frontend::{compile, NamingMode};

    const SRC: &str = "function sq(a)\n\
                       integer a\n\
                       begin\n\
                       return a * a\nend\n";

    fn module_text() -> String {
        format!("{}", compile(SRC, NamingMode::Disciplined).unwrap())
    }

    fn optimize_request() -> Request {
        Request::Optimize(OptimizeRequest {
            client: "t".into(),
            level: "partial".into(),
            policy: "best-effort".into(),
            deadline_ms: None,
            idempotency: String::new(),
            request: String::new(),
            module_text: module_text(),
        })
    }

    /// Read response frames until (and including) the request-terminal
    /// frame — the keep-alive way to consume one answer.
    fn read_answer(r: &mut impl std::io::BufRead) -> Vec<Response> {
        let mut frames = Vec::new();
        while let Some(p) = read_frame(r).unwrap() {
            let resp = Response::decode(&p).unwrap();
            let terminal = resp.is_terminal();
            frames.push(resp);
            if terminal {
                break;
            }
        }
        frames
    }

    fn stats_counter(frames: &[Response], name: &str) -> u64 {
        match frames.last() {
            Some(Response::Stats(counters)) => {
                counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap()
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stdio_mode_answers_a_full_conversation() {
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        let mut input = Vec::new();
        write_frame(&mut input, &optimize_request().encode()).unwrap();
        write_frame(&mut input, &Request::Stats.encode()).unwrap();
        write_frame(&mut input, &Request::Shutdown.encode()).unwrap();
        let mut output = Vec::new();
        serve_stdio(&core, &mut &input[..], &mut output).unwrap();
        let mut r = std::io::BufReader::new(&output[..]);
        let mut kinds = Vec::new();
        while let Some(p) = read_frame(&mut r).unwrap() {
            kinds.push(match Response::decode(&p).unwrap() {
                Response::Function(_) => "function",
                Response::Done(_) => "done",
                Response::Error { .. } => "error",
                Response::Stats(_) => "stats",
                Response::Ack { .. } => "ack",
                Response::Goaway { .. } => "goaway",
                Response::Metrics { .. } => "metrics",
            });
        }
        assert_eq!(kinds, ["function", "done", "stats", "ack"]);
    }

    #[test]
    fn stdio_mode_types_garbage_instead_of_hanging() {
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        let mut output = Vec::new();
        serve_stdio(&core, &mut "7\nnot js\n".as_bytes(), &mut output).unwrap();
        let mut r = std::io::BufReader::new(&output[..]);
        let p = read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(
            Response::decode(&p),
            Ok(Response::Error { code: ErrorCode::Protocol, .. })
        ));
    }

    #[test]
    fn tcp_serves_submits_and_sheds_shutdown_cleanly() {
        let core = Arc::new(ServerCore::new(ServeConfig::default(), ResultCache::in_memory()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(core, listener))
        };

        let ask = |req: &Request| -> Vec<Response> {
            let stream = TcpStream::connect(addr).unwrap();
            let mut w = BufWriter::new(stream.try_clone().unwrap());
            write_frame(&mut w, &req.encode()).unwrap();
            let mut r = BufReader::new(stream);
            read_answer(&mut r)
        };

        let frames = ask(&optimize_request());
        assert!(matches!(frames.last(), Some(Response::Done(d)) if d.status == "clean"));

        let frames = ask(&Request::Ping);
        assert_eq!(frames, vec![Response::Ack { what: "pong".into() }]);

        let frames = ask(&Request::Shutdown);
        assert_eq!(frames, vec![Response::Ack { what: "shutdown".into() }]);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn keepalive_session_serves_many_requests_then_goaway_max_requests() {
        let config = ServeConfig { max_session_requests: 3, ..Default::default() };
        let core = Arc::new(ServerCore::new(config, ResultCache::in_memory()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(core, listener))
        };

        // One connection, three requests: two pings and an optimize, then
        // the server ends the session with goaway max-requests.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        write_frame(&mut w, &Request::Ping.encode()).unwrap();
        assert_eq!(read_answer(&mut r), vec![Response::Ack { what: "pong".into() }]);
        write_frame(&mut w, &optimize_request().encode()).unwrap();
        assert!(matches!(read_answer(&mut r).last(), Some(Response::Done(_))));
        write_frame(&mut w, &Request::Ping.encode()).unwrap();
        assert_eq!(read_answer(&mut r), vec![Response::Ack { what: "pong".into() }]);
        // Third request hit the cap: the next frame is the goaway.
        let frames = read_answer(&mut r);
        assert_eq!(frames, vec![Response::Goaway { reason: "max-requests".into() }]);
        // And the server closed the session after it.
        assert!(read_frame(&mut r).unwrap().is_none());

        // The daemon itself is still serving.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w2 = BufWriter::new(stream.try_clone().unwrap());
        write_frame(&mut w2, &Request::Stats.encode()).unwrap();
        let mut r2 = BufReader::new(stream);
        let frames = read_answer(&mut r2);
        assert_eq!(stats_counter(&frames, "goaway_max_requests"), 1);
        assert_eq!(stats_counter(&frames, "sessions"), 2);
        write_frame(&mut w2, &Request::Shutdown.encode()).unwrap();
        assert!(matches!(read_answer(&mut r2).last(), Some(Response::Ack { .. })));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn idle_session_gets_goaway_idle_timeout() {
        let config = ServeConfig { idle_timeout: Duration::from_millis(150), ..Default::default() };
        let core = Arc::new(ServerCore::new(config, ResultCache::in_memory()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(core, listener))
        };

        let stream = TcpStream::connect(addr).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        write_frame(&mut w, &Request::Ping.encode()).unwrap();
        assert_eq!(read_answer(&mut r), vec![Response::Ack { what: "pong".into() }]);
        // Send nothing: the server must end the session, typed.
        let frames = read_answer(&mut r);
        assert_eq!(frames, vec![Response::Goaway { reason: "idle-timeout".into() }]);
        assert!(read_frame(&mut r).unwrap().is_none(), "server closed after goaway");

        let stream = TcpStream::connect(addr).unwrap();
        let mut w2 = BufWriter::new(stream.try_clone().unwrap());
        write_frame(&mut w2, &Request::Shutdown.encode()).unwrap();
        let mut r2 = BufReader::new(stream);
        assert!(matches!(read_answer(&mut r2).last(), Some(Response::Ack { .. })));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn garbage_frame_poisons_only_its_own_session() {
        let core = Arc::new(ServerCore::new(ServeConfig::default(), ResultCache::in_memory()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(core, listener))
        };

        // Session A: a good request, then frame-level garbage mid-session.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        write_frame(&mut w, &Request::Ping.encode()).unwrap();
        assert_eq!(read_answer(&mut r), vec![Response::Ack { what: "pong".into() }]);
        w.write_all(b"%%%this is not a frame%%%\n").unwrap();
        w.flush().unwrap();
        let frames = read_answer(&mut r);
        assert!(
            matches!(frames.last(), Some(Response::Error { code: ErrorCode::Protocol, .. })),
            "poison draws a typed error, {frames:?}"
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "the poisoned session is closed");

        // Session B (concurrent server state): entirely unaffected.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w2 = BufWriter::new(stream.try_clone().unwrap());
        let mut r2 = BufReader::new(stream);
        write_frame(&mut w2, &optimize_request().encode()).unwrap();
        assert!(
            matches!(read_answer(&mut r2).last(), Some(Response::Done(d)) if d.status == "clean")
        );
        write_frame(&mut w2, &Request::Shutdown.encode()).unwrap();
        assert!(matches!(read_answer(&mut r2).last(), Some(Response::Ack { .. })));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn undecodable_but_well_framed_request_keeps_the_session() {
        let core = Arc::new(ServerCore::new(ServeConfig::default(), ResultCache::in_memory()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(core, listener))
        };

        let stream = TcpStream::connect(addr).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        // Perfectly framed payloads the decoder rejects: an unknown kind,
        // and nesting deep enough to overflow a worker's stack if the
        // parser recursed without bound.
        for payload in [r#"{"v":1,"kind":"destroy"}"#.to_string(), "[".repeat(100_000)] {
            write_frame(&mut w, &payload).unwrap();
            let frames = read_answer(&mut r);
            assert!(matches!(
                frames.last(),
                Some(Response::Error { code: ErrorCode::Protocol, .. })
            ));
            // Framing is intact, so the session still answers.
            write_frame(&mut w, &Request::Ping.encode()).unwrap();
            assert_eq!(read_answer(&mut r), vec![Response::Ack { what: "pong".into() }]);
        }
        write_frame(&mut w, &Request::Shutdown.encode()).unwrap();
        assert!(matches!(read_answer(&mut r).last(), Some(Response::Ack { .. })));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn port_scans_are_counted_never_mistaken_for_control_traffic() {
        let core = Arc::new(ServerCore::new(ServeConfig::default(), ResultCache::in_memory()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(core, listener))
        };

        // Three "port scans": connect, say nothing, leave.
        for _ in 0..3 {
            drop(TcpStream::connect(addr).unwrap());
        }
        // The daemon must still be serving (an implicit-shutdown bug
        // would have begun draining here), and must have counted them.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        write_frame(&mut w, &Request::Stats.encode()).unwrap();
        let mut frames = read_answer(&mut r);
        // The worker holding the last scan may not have read its EOF yet
        // when this session's Stats is answered: ask again until it has
        // counted, or a deadline passes.
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats_counter(&frames, "conn_empty") < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            write_frame(&mut w, &Request::Stats.encode()).unwrap();
            frames = read_answer(&mut r);
        }
        assert_eq!(stats_counter(&frames, "conn_empty"), 3);
        assert_eq!(stats_counter(&frames, "goaway_draining"), 0, "no drain began");
        write_frame(&mut w, &Request::Shutdown.encode()).unwrap();
        assert!(matches!(read_answer(&mut r).last(), Some(Response::Ack { .. })));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn drain_deadline_abandons_a_stuck_session_and_returns() {
        // One worker, pinned by a session that never sends its next
        // frame. The drain deadline must bound serve_tcp's return.
        let config = ServeConfig {
            workers: 1,
            idle_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_millis(200),
            ..Default::default()
        };
        let core = Arc::new(ServerCore::new(config, ResultCache::in_memory()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(core, listener))
        };

        // Pin the only worker: send one ping, then hold the session open.
        let pinned = TcpStream::connect(addr).unwrap();
        let mut pw = BufWriter::new(pinned.try_clone().unwrap());
        let mut pr = BufReader::new(pinned.try_clone().unwrap());
        write_frame(&mut pw, &Request::Ping.encode()).unwrap();
        assert_eq!(read_answer(&mut pr), vec![Response::Ack { what: "pong".into() }]);
        // Let the worker re-enter its blocking read; if shutdown lands
        // before it does, the loop-top check would end the session with
        // a draining goaway instead of pinning it.
        std::thread::sleep(Duration::from_millis(300));

        // Request shutdown from outside and poke the acceptor — the
        // SIGTERM path. The pinned worker is blocked reading, so only
        // the drain deadline can end the wait.
        core.request_shutdown();
        poke_acceptor(addr);
        let t0 = Instant::now();
        server.join().unwrap().unwrap();
        let waited = t0.elapsed();
        assert!(
            waited < Duration::from_secs(4),
            "drain returned via deadline, not the 5s idle timeout ({waited:?})"
        );
        let abandoned = core
            .stats_snapshot()
            .into_iter()
            .find(|(k, _)| k == "drain_abandoned")
            .map(|(_, v)| v)
            .unwrap();
        assert_eq!(abandoned, 1, "the pinned session was abandoned and counted");
        drop(pinned);
    }
}
