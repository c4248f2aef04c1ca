//! The flight recorder: a bounded in-memory ring of per-request
//! summaries and daemon events, dumped as deterministic JSONL.
//!
//! The batch telemetry log answers "what happened" when someone thought
//! to enable it; the flight recorder answers "what was the daemon doing
//! *just now*" — after a SIGQUIT checkpoint, around a slow request, or
//! post-mortem after a kill. It is always on (the ring is a few hundred
//! fixed-size entries), and three paths read it:
//!
//! - **SIGQUIT**: the CLI dumps the ring to `--flight-recorder PATH`
//!   (atomic tmp+rename) and keeps serving. Repeatable — a checkpoint,
//!   not a shutdown.
//! - **Slow requests**: any request over `--slow-ms` appends its own
//!   summary line (full span breakdown) to the slow log *before* its
//!   terminal frame is written, so every answer a client holds is
//!   already accounted for on disk.
//! - **Drain**: the graceful-shutdown path writes a final dump, so even
//!   a clean exit leaves the last-moments record.
//!
//! The dump is deterministic in *schema and accounting*: fixed key
//! order, dense ring sequence numbers, in-flight entries sorted by
//! admission order. Durations are wall-clock (that is the point — this
//! is the nondeterministic-world record; the deterministic-replay story
//! lives in the telemetry traces).

use std::collections::VecDeque;
use std::sync::Mutex;

use epre_telemetry::json::{obj, Json};

/// One completed (or refused) request, as the recorder remembers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSummary {
    /// The end-to-end trace id (client-minted or server-derived).
    pub request: String,
    /// Client identity.
    pub client: String,
    /// Traffic class: `cold`/`warm`/`poison`/`oversized`/`shed`.
    pub class: String,
    /// Terminal status: `clean`, `degraded`, or the error code label.
    pub status: String,
    /// Functions replayed from cache.
    pub reused: u64,
    /// Functions freshly optimized.
    pub fresh: u64,
    /// Contained pass faults.
    pub faults: u64,
    /// Wall-clock service time, microseconds.
    pub duration_us: u64,
    /// Per-stage wall-clock breakdown (admission → cache-probe →
    /// governed-run → oracle → respond), microseconds. Empty for
    /// requests refused before the pipeline.
    pub spans: Vec<(String, u64)>,
}

impl RequestSummary {
    fn fields(&self) -> Vec<(&str, Json)> {
        vec![
            ("request", Json::Str(self.request.clone())),
            ("client", Json::Str(self.client.clone())),
            ("class", Json::Str(self.class.clone())),
            ("status", Json::Str(self.status.clone())),
            ("reused", Json::U64(self.reused)),
            ("fresh", Json::U64(self.fresh)),
            ("faults", Json::U64(self.faults)),
            ("duration_us", Json::U64(self.duration_us)),
            (
                "spans",
                Json::Obj(self.spans.iter().map(|(k, v)| (k.clone(), Json::U64(*v))).collect()),
            ),
        ]
    }

    /// The slow-request log line for this summary: the same record as a
    /// ring entry, flagged `"slow":true` instead of sequence-numbered.
    pub fn slow_line(&self) -> String {
        let mut fields = vec![("slow", Json::Bool(true))];
        fields.extend(self.fields());
        obj(fields).encode()
    }
}

#[derive(Debug)]
enum RingEntry {
    Request(RequestSummary),
    Note { kind: String, detail: String },
}

#[derive(Debug, Default)]
struct RecorderState {
    seq: u64,
    dropped: u64,
    ring: VecDeque<(u64, RingEntry)>,
    next_token: u64,
    in_flight: Vec<(u64, String, String)>, // (token, request id, client)
}

/// The bounded ring. All methods take one short mutex hold; the
/// recorder is always on and must never become the hot path's lock.
#[derive(Debug)]
pub struct FlightRecorder {
    state: Mutex<RecorderState>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder remembering the most recent `capacity` entries.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder { state: Mutex::new(RecorderState::default()), capacity: capacity.max(1) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.state.lock().expect("flight recorder poisoned")
    }

    fn push(state: &mut RecorderState, capacity: usize, entry: RingEntry) {
        if state.ring.len() == capacity {
            state.ring.pop_front();
            state.dropped += 1;
        }
        let seq = state.seq;
        state.seq += 1;
        state.ring.push_back((seq, entry));
    }

    /// Mark a request in flight. The token identifies it until
    /// [`FlightRecorder::end`]; tokens are admission-ordered, so a dump
    /// lists in-flight requests oldest-first.
    pub fn begin(&self, request: &str, client: &str) -> u64 {
        let mut s = self.lock();
        let token = s.next_token;
        s.next_token += 1;
        s.in_flight.push((token, request.to_string(), client.to_string()));
        token
    }

    /// Retire an in-flight request into the ring.
    pub fn end(&self, token: u64, summary: RequestSummary) {
        let mut s = self.lock();
        s.in_flight.retain(|(t, _, _)| *t != token);
        Self::push(&mut s, self.capacity, RingEntry::Request(summary));
    }

    /// Record a non-request daemon event (shed, goaway, drain, …).
    pub fn note(&self, kind: &str, detail: &str) {
        let mut s = self.lock();
        Self::push(
            &mut s,
            self.capacity,
            RingEntry::Note { kind: kind.to_string(), detail: detail.to_string() },
        );
    }

    /// Requests currently in flight, admission-ordered.
    pub fn in_flight(&self) -> Vec<(String, String)> {
        self.lock().in_flight.iter().map(|(_, r, c)| (r.clone(), c.clone())).collect()
    }

    /// Render the recorder as JSONL: a header line, one line per
    /// in-flight request (admission-ordered), then the ring in sequence
    /// order. Every line is one JSON object with a fixed key order.
    pub fn dump(&self) -> String {
        let s = self.lock();
        let mut out = String::new();
        out.push_str(
            &obj(vec![
                ("flight_recorder", Json::Bool(true)),
                ("capacity", Json::U64(self.capacity as u64)),
                ("dropped", Json::U64(s.dropped)),
                ("in_flight", Json::U64(s.in_flight.len() as u64)),
                ("recorded", Json::U64(s.ring.len() as u64)),
            ])
            .encode(),
        );
        out.push('\n');
        for (_, request, client) in &s.in_flight {
            out.push_str(
                &obj(vec![
                    ("in_flight", Json::Bool(true)),
                    ("request", Json::Str(request.clone())),
                    ("client", Json::Str(client.clone())),
                ])
                .encode(),
            );
            out.push('\n');
        }
        for (seq, entry) in &s.ring {
            let mut fields = vec![("seq", Json::U64(*seq))];
            match entry {
                RingEntry::Request(summary) => {
                    fields.push(("kind", Json::Str("request".into())));
                    fields.extend(summary.fields());
                }
                RingEntry::Note { kind, detail } => {
                    fields.push(("kind", Json::Str(kind.clone())));
                    fields.push(("detail", Json::Str(detail.clone())));
                }
            }
            out.push_str(&obj(fields).encode());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_telemetry::json::parse;

    fn summary(id: &str, class: &str) -> RequestSummary {
        RequestSummary {
            request: id.to_string(),
            client: "t".into(),
            class: class.into(),
            status: "clean".into(),
            reused: 1,
            fresh: 2,
            faults: 0,
            duration_us: 1234,
            spans: vec![("admission".into(), 5), ("governed-run".into(), 1200)],
        }
    }

    #[test]
    fn every_dump_line_is_json_with_the_documented_shape() {
        let rec = FlightRecorder::new(8);
        let tok = rec.begin("aaaa", "alice");
        rec.end(tok, summary("aaaa", "cold"));
        let _hang = rec.begin("bbbb", "bob");
        rec.note("shed", "overloaded");
        let dump = rec.dump();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4, "header + 1 in-flight + 2 ring:\n{dump}");
        for line in &lines {
            parse(line).unwrap_or_else(|e| panic!("{line} unparseable: {e}"));
        }
        assert!(lines[0].starts_with("{\"flight_recorder\":true,\"capacity\":8,"), "{dump}");
        assert!(lines[1].contains("\"in_flight\":true") && lines[1].contains("\"bbbb\""));
        assert!(lines[2].contains("\"seq\":0") && lines[2].contains("\"kind\":\"request\""));
        assert!(lines[2].contains("\"spans\":{\"admission\":5,\"governed-run\":1200}"), "{dump}");
        assert!(lines[3].contains("\"kind\":\"shed\"") && lines[3].contains("overloaded"));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops_with_dense_seq() {
        let rec = FlightRecorder::new(3);
        for i in 0..10 {
            rec.note("tick", &i.to_string());
        }
        let dump = rec.dump();
        assert!(dump.starts_with("{\"flight_recorder\":true,\"capacity\":3,\"dropped\":7,"));
        // The survivors are the three most recent, with their original
        // (dense, never reused) sequence numbers.
        assert!(dump.contains("\"seq\":7") && dump.contains("\"seq\":9"), "{dump}");
        assert!(!dump.contains("\"seq\":6"), "{dump}");
    }

    #[test]
    fn in_flight_accounting_is_exact() {
        let rec = FlightRecorder::new(4);
        let a = rec.begin("a", "c1");
        let b = rec.begin("b", "c2");
        assert_eq!(rec.in_flight().len(), 2);
        rec.end(a, summary("a", "warm"));
        assert_eq!(rec.in_flight(), vec![("b".to_string(), "c2".to_string())]);
        rec.end(b, summary("b", "cold"));
        assert!(rec.in_flight().is_empty());
    }

    #[test]
    fn slow_line_carries_the_span_breakdown() {
        let line = summary("dead", "cold").slow_line();
        parse(&line).unwrap();
        assert!(line.starts_with("{\"slow\":true,\"request\":\"dead\""), "{line}");
        assert!(line.contains("\"duration_us\":1234"), "{line}");
        assert!(line.contains("\"spans\":{"), "{line}");
    }
}
