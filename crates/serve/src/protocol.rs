//! The wire protocol: length-prefixed JSONL frames and their typed
//! request/response shapes.
//!
//! # Framing
//!
//! Every message — in both directions — is one frame:
//!
//! ```text
//! <byte-length of payload, ASCII decimal>\n
//! <payload: one JSON document, no embedded framing>\n
//! ```
//!
//! The length prefix makes torn writes detectable (a killed server
//! leaves a frame shorter than its prefix promised → [`FrameError::Torn`],
//! which the client treats as retryable), and the trailing newline keeps
//! the stream greppable and `nc`-debuggable. Frames are capped at
//! [`MAX_FRAME_BYTES`]; an oversized prefix is a protocol error, not an
//! allocation.
//!
//! # Conversation shape
//!
//! Connections are **keep-alive**: a client may stream many request
//! frames over one connection. Each request is answered with zero or
//! more `function` progress frames followed by exactly one
//! request-terminal frame (`done`, `error`, `stats`, or `ack`), after
//! which the next request may be sent. The server ends the session with
//! a `goaway` frame — sent instead of reading another request — when
//! the connection idles past its timeout, reaches its per-session
//! request cap, or the server is draining; after `goaway` the server
//! closes, and the client reconnects for further work. One-shot clients
//! that close after their terminal frame are simply a one-request
//! session. Clients must tolerate the connection dying at any frame
//! boundary or mid-frame — that is what a SIGKILLed server looks like
//! from outside.
//!
//! Poison isolation: a frame that is not a frame (garbage prefix, torn
//! payload) ends *that session only* with a `protocol` error frame where
//! possible; other sessions and the server are unaffected. A well-framed
//! payload that does not decode (not JSON, nested too deep, an unknown
//! kind) gets a typed `protocol` error and the session goes on. Payloads
//! are encoded and decoded with [`epre_telemetry::json`], whose parser
//! refuses arrays and objects nested more than 64 deep, so no payload can
//! overflow a worker thread's stack.

use std::io::{self, BufRead, Write};

use epre_telemetry::json::{obj, parse, Json};

/// Protocol version; bump on incompatible changes.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on one frame's payload (64 MiB) — far above any real
/// module, low enough that a garbage length prefix cannot OOM the peer.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failed (includes read timeouts).
    Io(io::Error),
    /// The stream ended mid-frame: the peer died between writing the
    /// length prefix and finishing the payload. Retryable.
    Torn,
    /// The bytes are not a frame (bad prefix, missing newline, payload
    /// is not UTF-8, oversized). Not retryable.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o: {e}"),
            FrameError::Torn => write!(f, "stream ended mid-frame (peer died?)"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame: length prefix, payload, trailing newline, flush.
/// A single buffered write + flush, so a crash tears at most this frame.
pub fn write_frame(w: &mut dyn Write, payload: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(payload.len() + 16);
    buf.extend_from_slice(payload.len().to_string().as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(payload.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` is a clean end-of-stream (EOF
/// exactly at a frame boundary); EOF anywhere else is [`FrameError::Torn`].
pub fn read_frame(r: &mut dyn BufRead) -> Result<Option<String>, FrameError> {
    let mut prefix = String::new();
    if r.read_line(&mut prefix)? == 0 {
        return Ok(None); // clean EOF between frames
    }
    let trimmed = prefix.trim_end_matches('\n');
    if trimmed.len() != prefix.len() - 1 {
        return Err(FrameError::Torn); // EOF inside the prefix line
    }
    let len: usize = trimmed
        .parse()
        .map_err(|_| FrameError::Malformed(format!("bad length prefix {trimmed:?}")))?;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Malformed(format!("frame of {len} bytes exceeds cap")));
    }
    let mut payload = vec![0u8; len + 1]; // +1 for the trailing newline
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Torn),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    if payload.pop() != Some(b'\n') {
        return Err(FrameError::Malformed("frame payload not newline-terminated".into()));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::Malformed("frame payload is not UTF-8".into()))
}

/// An `optimize` request: one module plus its optimization contract.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Client identity, the quarantine key. Empty means anonymous (all
    /// anonymous clients share one quarantine bucket).
    pub client: String,
    /// Optimization level label (`baseline` … `distribution+lvn`).
    pub level: String,
    /// Fault policy label (`best-effort` or `retry-then-skip`;
    /// `fail-fast` is rejected — a daemon degrades, it does not die).
    pub policy: String,
    /// Relative deadline in milliseconds; `None` waits indefinitely.
    pub deadline_ms: Option<u64>,
    /// Idempotency key. Clients derive it from the input fingerprint
    /// ([`OptimizeRequest::idempotency_key`]); the server echoes it in
    /// the `done` frame so retries can be correlated.
    pub idempotency: String,
    /// End-to-end trace id. Clients mint it from content + identity
    /// ([`OptimizeRequest::request_id`]); the server echoes it in every
    /// frame of the response stream and keys its per-request spans and
    /// flight-recorder summaries by it, so a client-side latency sample
    /// correlates with the server-side account of the same request.
    /// Empty is legal (old clients); the server then mints the same
    /// derived id itself.
    pub request: String,
    /// The ILOC module text to optimize.
    pub module_text: String,
}

impl OptimizeRequest {
    /// The content-derived idempotency key: a 16-hex-digit FNV-1a
    /// fingerprint over everything that affects the answer (level,
    /// policy, requested deadline, module text). Two retries of the same
    /// request — however long each waited — share a key.
    pub fn idempotency_key(&self) -> String {
        let blob = format!(
            "level={} policy={} deadline_ms={} module:\n{}",
            self.level,
            self.policy,
            self.deadline_ms.map_or_else(|| "none".to_string(), |d| d.to_string()),
            self.module_text
        );
        format!("{:016x}", epre_harness::fingerprint64(&blob))
    }

    /// The content-derived request id: the idempotency fingerprint
    /// salted with the client identity, so two clients submitting the
    /// same module trace as distinct requests while retries of one
    /// request share an id. Derived identically on both ends — a client
    /// that sent an empty `request` field still gets the id it *would*
    /// have minted echoed back.
    pub fn request_id(&self) -> String {
        let blob = format!("request client={} key={}", self.client, self.idempotency_key());
        format!("{:016x}", epre_harness::fingerprint64(&blob))
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Optimize a module.
    Optimize(OptimizeRequest),
    /// Report server counters.
    Stats,
    /// Report the live metrics registry in the given format (`"text"`
    /// for Prometheus-style exposition, `"json"` for the integer-only
    /// JSON render).
    Metrics {
        /// Requested render: `"text"` or `"json"`.
        format: String,
    },
    /// Liveness probe.
    Ping,
    /// Ask the server to stop accepting and drain.
    Shutdown,
}

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Request::Optimize(r) => {
                let mut fields = vec![
                    ("v", Json::U64(PROTOCOL_VERSION)),
                    ("kind", Json::Str("optimize".into())),
                    ("client", Json::Str(r.client.clone())),
                    ("level", Json::Str(r.level.clone())),
                    ("policy", Json::Str(r.policy.clone())),
                ];
                if let Some(d) = r.deadline_ms {
                    fields.push(("deadline_ms", Json::U64(d)));
                }
                fields.push(("idempotency", Json::Str(r.idempotency.clone())));
                if !r.request.is_empty() {
                    fields.push(("request", Json::Str(r.request.clone())));
                }
                fields.push(("module", Json::Str(r.module_text.clone())));
                obj(fields).encode()
            }
            Request::Metrics { format } => obj(vec![
                ("v", Json::U64(PROTOCOL_VERSION)),
                ("kind", Json::Str("metrics".into())),
                ("format", Json::Str(format.clone())),
            ])
            .encode(),
            Request::Stats => simple_kind("stats"),
            Request::Ping => simple_kind("ping"),
            Request::Shutdown => simple_kind("shutdown"),
        }
    }

    /// Decode a frame payload. The error string is safe to echo to the
    /// peer in a `protocol` error response.
    pub fn decode(payload: &str) -> Result<Request, String> {
        let v = parse(payload).map_err(|e| format!("request is not valid JSON: {e}"))?;
        let version = v.get("v").and_then(Json::as_u64).ok_or("missing integer field 'v'")?;
        if version != PROTOCOL_VERSION {
            return Err(format!("unsupported protocol version {version}"));
        }
        let kind = v.get("kind").and_then(Json::as_str).ok_or("missing string field 'kind'")?;
        match kind {
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "metrics" => {
                // `format` is optional: a bare metrics request means text.
                let format = match v.get("format") {
                    None | Some(Json::Null) => "text".to_string(),
                    Some(f) => {
                        f.as_str().map(str::to_string).ok_or("field 'format' must be a string")?
                    }
                };
                Ok(Request::Metrics { format })
            }
            "optimize" => {
                let str_field = |name: &str| -> Result<String, String> {
                    v.get(name)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("missing string field '{name}'"))
                };
                let deadline_ms = match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(d) => Some(d.as_u64().ok_or("field 'deadline_ms' must be an integer")?),
                };
                // `request` is optional for wire compatibility: frames
                // from pre-tracing clients decode with an empty id and
                // the server derives the canonical one itself.
                let request = match v.get("request") {
                    None | Some(Json::Null) => String::new(),
                    Some(r) => {
                        r.as_str().map(str::to_string).ok_or("field 'request' must be a string")?
                    }
                };
                Ok(Request::Optimize(OptimizeRequest {
                    client: str_field("client")?,
                    level: str_field("level")?,
                    policy: str_field("policy")?,
                    deadline_ms,
                    idempotency: str_field("idempotency")?,
                    request,
                    module_text: str_field("module")?,
                }))
            }
            other => Err(format!("unknown request kind {other:?}")),
        }
    }
}

fn simple_kind(kind: &str) -> String {
    obj(vec![("v", Json::U64(PROTOCOL_VERSION)), ("kind", Json::Str(kind.into()))]).encode()
}

/// Why the server refused to answer an `optimize` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission queue was full; back off and retry. Retryable.
    Overloaded,
    /// The request's deadline expired before work could start (or the
    /// module parse left no time). Not retryable with the same deadline.
    Deadline,
    /// This client's faults tripped the per-client quarantine; its
    /// requests are refused until the server restarts. Not retryable.
    Quarantined,
    /// The module text did not parse, or parsed into IR that fails the
    /// structural verifier. Not retryable.
    Parse,
    /// The request frame itself was malformed. Not retryable.
    Protocol,
}

impl ErrorCode {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::Parse => "parse",
            ErrorCode::Protocol => "protocol",
        }
    }

    /// Parse a wire label.
    pub fn from_label(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "overloaded" => ErrorCode::Overloaded,
            "deadline" => ErrorCode::Deadline,
            "quarantined" => ErrorCode::Quarantined,
            "parse" => ErrorCode::Parse,
            "protocol" => ErrorCode::Protocol,
            _ => return None,
        })
    }

    /// Whether a client should retry after seeing this code. Only
    /// overload is worth retrying: the server sheds load in bursts, and
    /// backoff plus jitter spreads the herd. The rest are deterministic
    /// rejections — retrying re-earns the same answer.
    pub fn retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded)
    }
}

/// Per-function accounting in a `done` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionFrame {
    /// Function name.
    pub name: String,
    /// Echo of the request's trace id (empty from pre-tracing servers).
    pub request: String,
    /// Body replayed from the result cache (no pipeline ran).
    pub cached: bool,
    /// Contained pass faults attributed to this function.
    pub faults: u64,
    /// The function was rolled back to its input form (oracle divergence
    /// or fault rollback).
    pub rolled_back: bool,
}

/// The terminal accounting of a completed `optimize` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneFrame {
    /// `"clean"` or `"degraded"` (some function faulted or rolled back).
    pub status: String,
    /// Echo of the request's idempotency key.
    pub idempotency: String,
    /// Echo of the request's trace id (empty from pre-tracing servers).
    pub request: String,
    /// The optimized module text.
    pub module_text: String,
    /// Functions replayed from the result cache.
    pub reused: u64,
    /// Functions freshly optimized.
    pub fresh: u64,
    /// Contained pass faults across the request.
    pub faults: u64,
    /// Functions rolled back to their input form.
    pub rollbacks: u64,
    /// Passes quarantined by the per-request circuit breaker.
    pub quarantined: u64,
    /// Oracle comparisons that ran out of fuel (proved nothing).
    pub inconclusive: u64,
    /// This request's faults tripped the per-client quarantine; later
    /// requests from this client will be refused.
    pub client_quarantined: bool,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Per-function progress (streamed before `done`).
    Function(FunctionFrame),
    /// Terminal success frame.
    Done(DoneFrame),
    /// Terminal refusal frame.
    Error {
        /// Typed refusal reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Echo of the refused request's trace id, when one was parsed
        /// before refusal (empty for frame-level protocol errors).
        request: String,
    },
    /// Terminal metrics frame (answer to `metrics`): the rendered
    /// registry in the requested format.
    Metrics {
        /// The render — Prometheus-style text or integer-only JSON.
        body: String,
    },
    /// Terminal counters frame (answer to `stats`): name/value pairs in
    /// server-chosen stable order.
    Stats(Vec<(String, u64)>),
    /// Terminal acknowledgement (answer to `ping` / `shutdown`).
    Ack {
        /// What is acknowledged (`"pong"` or `"shutdown"`).
        what: String,
    },
    /// Session-terminal frame: the server is ending this keep-alive
    /// session (not answering a particular request) and will close the
    /// connection. The client should reconnect for further work — the
    /// session ending is never a verdict on any request.
    Goaway {
        /// Why the session ended: `"idle-timeout"`, `"max-requests"`,
        /// or `"draining"`.
        reason: String,
    },
}

impl Response {
    /// Is this a request-terminal frame (the last one for the request in
    /// flight)? `goaway` is also *session*-terminal: no more frames
    /// follow on the connection at all.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::Function(_))
    }

    /// Encode to a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Response::Function(f) => obj(vec![
                ("kind", Json::Str("function".into())),
                ("name", Json::Str(f.name.clone())),
                ("request", Json::Str(f.request.clone())),
                ("cached", Json::Bool(f.cached)),
                ("faults", Json::U64(f.faults)),
                ("rolled_back", Json::Bool(f.rolled_back)),
            ])
            .encode(),
            Response::Done(d) => obj(vec![
                ("kind", Json::Str("done".into())),
                ("status", Json::Str(d.status.clone())),
                ("idempotency", Json::Str(d.idempotency.clone())),
                ("request", Json::Str(d.request.clone())),
                ("reused", Json::U64(d.reused)),
                ("fresh", Json::U64(d.fresh)),
                ("faults", Json::U64(d.faults)),
                ("rollbacks", Json::U64(d.rollbacks)),
                ("quarantined", Json::U64(d.quarantined)),
                ("inconclusive", Json::U64(d.inconclusive)),
                ("client_quarantined", Json::Bool(d.client_quarantined)),
                ("module", Json::Str(d.module_text.clone())),
            ])
            .encode(),
            Response::Error { code, message, request } => obj(vec![
                ("kind", Json::Str("error".into())),
                ("code", Json::Str(code.label().into())),
                ("message", Json::Str(message.clone())),
                ("request", Json::Str(request.clone())),
            ])
            .encode(),
            Response::Metrics { body } => {
                obj(vec![("kind", Json::Str("metrics".into())), ("body", Json::Str(body.clone()))])
                    .encode()
            }
            Response::Stats(counters) => obj(vec![
                ("kind", Json::Str("stats".into())),
                (
                    "counters",
                    Json::Obj(counters.iter().map(|(k, v)| (k.clone(), Json::U64(*v))).collect()),
                ),
            ])
            .encode(),
            Response::Ack { what } => {
                obj(vec![("kind", Json::Str("ack".into())), ("what", Json::Str(what.clone()))])
                    .encode()
            }
            Response::Goaway { reason } => obj(vec![
                ("kind", Json::Str("goaway".into())),
                ("reason", Json::Str(reason.clone())),
            ])
            .encode(),
        }
    }

    /// Decode a frame payload (the client side of the conversation).
    pub fn decode(payload: &str) -> Result<Response, String> {
        let v = parse(payload).map_err(|e| format!("response is not valid JSON: {e}"))?;
        let kind = v.get("kind").and_then(Json::as_str).ok_or("missing string field 'kind'")?;
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string field '{name}'"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name).and_then(Json::as_u64).ok_or(format!("missing integer field '{name}'"))
        };
        let bool_field = |name: &str| -> Result<bool, String> {
            v.get(name).and_then(Json::as_bool).ok_or(format!("missing bool field '{name}'"))
        };
        // Trace-id echoes are optional on decode so frames from
        // pre-tracing servers still parse (they read back as empty).
        let request_echo =
            || -> String { v.get("request").and_then(Json::as_str).unwrap_or("").to_string() };
        match kind {
            "function" => Ok(Response::Function(FunctionFrame {
                name: str_field("name")?,
                request: request_echo(),
                cached: bool_field("cached")?,
                faults: u64_field("faults")?,
                rolled_back: bool_field("rolled_back")?,
            })),
            "done" => Ok(Response::Done(DoneFrame {
                status: str_field("status")?,
                idempotency: str_field("idempotency")?,
                request: request_echo(),
                module_text: str_field("module")?,
                reused: u64_field("reused")?,
                fresh: u64_field("fresh")?,
                faults: u64_field("faults")?,
                rollbacks: u64_field("rollbacks")?,
                quarantined: u64_field("quarantined")?,
                inconclusive: u64_field("inconclusive")?,
                client_quarantined: bool_field("client_quarantined")?,
            })),
            "error" => {
                let label = str_field("code")?;
                let code =
                    ErrorCode::from_label(&label).ok_or(format!("unknown error code {label:?}"))?;
                Ok(Response::Error {
                    code,
                    message: str_field("message")?,
                    request: request_echo(),
                })
            }
            "metrics" => Ok(Response::Metrics { body: str_field("body")? }),
            "stats" => {
                let counters = match v.get("counters") {
                    Some(Json::Obj(fields)) => fields
                        .iter()
                        .map(|(k, val)| {
                            val.as_u64()
                                .map(|n| (k.clone(), n))
                                .ok_or(format!("counter {k:?} is not an integer"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("missing object field 'counters'".into()),
                };
                Ok(Response::Stats(counters))
            }
            "ack" => Ok(Response::Ack { what: str_field("what")? }),
            "goaway" => Ok(Response::Goaway { reason: str_field("reason")? }),
            other => Err(format!("unknown response kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_roundtrip_and_eof_is_clean_only_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"a":1}"#).unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(r#"{"a":1}"#));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert!(read_frame(&mut r).unwrap().is_none(), "boundary EOF is clean");
    }

    #[test]
    fn torn_frames_are_torn_not_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello frame").unwrap();
        // Cut the stream at every possible byte: everything after the
        // full frame minus one is Torn; the empty stream is clean EOF.
        for cut in 1..buf.len() {
            let mut r = BufReader::new(&buf[..cut]);
            match read_frame(&mut r) {
                Err(FrameError::Torn) => {}
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_prefixes_are_rejected() {
        for bad in ["x\npayload\n", "-3\nabc\n", "99999999999999999999\n"] {
            let mut r = BufReader::new(bad.as_bytes());
            assert!(
                matches!(read_frame(&mut r), Err(FrameError::Malformed(_))),
                "{bad:?} should be malformed"
            );
        }
        let oversized = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut r = BufReader::new(oversized.as_bytes());
        assert!(matches!(read_frame(&mut r), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Optimize(OptimizeRequest {
                client: "ci".into(),
                level: "distribution".into(),
                policy: "best-effort".into(),
                deadline_ms: Some(5000),
                idempotency: "abc123".into(),
                request: "feedbeef00000001".into(),
                module_text: "function f()\nbegin\nreturn 1\nend\n".into(),
            }),
            Request::Optimize(OptimizeRequest {
                client: String::new(),
                level: "partial".into(),
                policy: "retry-then-skip".into(),
                deadline_ms: None,
                idempotency: String::new(),
                request: String::new(),
                module_text: String::new(),
            }),
            Request::Stats,
            Request::Metrics { format: "text".into() },
            Request::Metrics { format: "json".into() },
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn request_decode_rejects_garbage() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode(r#"{"kind":"optimize"}"#).is_err(), "missing version");
        assert!(Request::decode(r#"{"v":999,"kind":"ping"}"#).is_err(), "bad version");
        assert!(Request::decode(r#"{"v":1,"kind":"destroy"}"#).is_err(), "unknown kind");
        assert!(
            Request::decode(r#"{"v":1,"kind":"optimize","client":"x"}"#).is_err(),
            "missing fields"
        );
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Function(FunctionFrame {
                name: "tri".into(),
                request: "feedbeef00000001".into(),
                cached: true,
                faults: 0,
                rolled_back: false,
            }),
            Response::Done(DoneFrame {
                status: "clean".into(),
                idempotency: "k".into(),
                request: "feedbeef00000001".into(),
                module_text: "module text\n".into(),
                reused: 3,
                fresh: 2,
                faults: 0,
                rollbacks: 0,
                quarantined: 0,
                inconclusive: 1,
                client_quarantined: false,
            }),
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
                request: String::new(),
            },
            Response::Metrics { body: "# TYPE epre_requests_total counter\n".into() },
            Response::Stats(vec![("requests".into(), 7), ("cache_hits".into(), 3)]),
            Response::Ack { what: "pong".into() },
            Response::Goaway { reason: "idle-timeout".into() },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn goaway_is_terminal_and_typed() {
        let g = Response::Goaway { reason: "max-requests".into() };
        assert!(g.is_terminal());
        let payload = g.encode();
        assert!(payload.contains(r#""kind":"goaway""#));
        assert!(payload.contains(r#""reason":"max-requests""#));
        assert!(Response::decode(r#"{"kind":"goaway"}"#).is_err(), "reason is mandatory");
    }

    #[test]
    fn frames_without_request_echo_still_decode() {
        // A pre-tracing peer's frames carry no `request` field; they
        // must decode with an empty id, not error.
        let done = r#"{"kind":"done","status":"clean","idempotency":"k","reused":0,"fresh":1,"faults":0,"rollbacks":0,"quarantined":0,"inconclusive":0,"client_quarantined":false,"module":"m"}"#;
        match Response::decode(done).unwrap() {
            Response::Done(d) => assert_eq!(d.request, ""),
            other => panic!("{other:?}"),
        }
        let fun = r#"{"kind":"function","name":"f","cached":false,"faults":0,"rolled_back":false}"#;
        match Response::decode(fun).unwrap() {
            Response::Function(f) => assert_eq!(f.request, ""),
            other => panic!("{other:?}"),
        }
        let err = r#"{"kind":"error","code":"parse","message":"no"}"#;
        match Response::decode(err).unwrap() {
            Response::Error { request, .. } => assert_eq!(request, ""),
            other => panic!("{other:?}"),
        }
        // Same tolerance on the request side: an optimize frame without
        // `request` decodes with an empty id, and a bare metrics request
        // defaults to the text render.
        match Request::decode(r#"{"v":1,"kind":"metrics"}"#).unwrap() {
            Request::Metrics { format } => assert_eq!(format, "text"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_id_is_content_derived_and_client_salted() {
        let a = OptimizeRequest {
            client: "alice".into(),
            level: "distribution".into(),
            policy: "best-effort".into(),
            deadline_ms: None,
            idempotency: String::new(),
            request: String::new(),
            module_text: "function f()\nbegin\nreturn 1\nend\n".into(),
        };
        let id = a.request_id();
        assert_eq!(id.len(), 16);
        assert_eq!(id, a.request_id(), "stable across retries");
        // Unlike the idempotency key, the request id distinguishes
        // clients: two tenants submitting the same module are two
        // requests in the server's account.
        let mut b = a.clone();
        b.client = "bob".into();
        assert_eq!(a.idempotency_key(), b.idempotency_key());
        assert_ne!(id, b.request_id());
        // And it remains content-derived: different module, different id.
        b.client = "alice".into();
        b.module_text.push('\n');
        assert_ne!(id, b.request_id());
    }

    #[test]
    fn idempotency_key_is_content_derived_and_stable() {
        let mut a = OptimizeRequest {
            client: "alice".into(),
            level: "distribution".into(),
            policy: "best-effort".into(),
            deadline_ms: Some(1000),
            idempotency: String::new(),
            request: String::new(),
            module_text: "function f()\nbegin\nreturn 1\nend\n".into(),
        };
        let k1 = a.idempotency_key();
        assert_eq!(k1.len(), 16);
        // Client identity does not change the answer, but module text,
        // level, and deadline do.
        let mut b = a.clone();
        b.client = "bob".into();
        assert_eq!(k1, b.idempotency_key());
        b.module_text.push('\n');
        assert_ne!(k1, b.idempotency_key());
        a.level = "partial".into();
        assert_ne!(k1, a.idempotency_key());
    }

    #[test]
    fn retryability_is_overload_only() {
        assert!(ErrorCode::Overloaded.retryable());
        for code in
            [ErrorCode::Deadline, ErrorCode::Quarantined, ErrorCode::Parse, ErrorCode::Protocol]
        {
            assert!(!code.retryable(), "{:?}", code);
            assert_eq!(ErrorCode::from_label(code.label()), Some(code));
        }
    }
}
