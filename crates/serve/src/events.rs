//! Telemetry adapters: serve outcomes as structured trace events.
//!
//! Mirrors `epre_harness::events` — the daemon's accounting (a request's
//! flight-recorder summary, a drain ledger, a cache recovery) rendered as
//! [`Event`]s for the server's `--telemetry` JSON Lines log. Because the
//! events carry no wall-clock reading, a given request sequence always
//! produces the same log (modulo the `seq` numbering, which is per-batch
//! in an append-only log).

use epre_telemetry::json::Json;
use epre_telemetry::Event;

use crate::cache::CacheRecovery;
use crate::recorder::RequestSummary;

/// One completed request as a `request` event: its flight-recorder
/// summary without the wall-clock fields, plus the functions the oracle
/// rolled back. Each function's cache probe either replays it or leaves
/// it to run fresh, so `cache_hits` and `cache_misses` repeat `reused`
/// and `fresh`.
pub fn request_event(summary: &RequestSummary, rollbacks: u64) -> Event {
    Event::instant("request", "", "serve")
        .with("request", Json::Str(summary.request.clone()))
        .with("client", Json::Str(summary.client.clone()))
        .with("status", Json::Str(summary.status.clone()))
        .with("reused", Json::U64(summary.reused))
        .with("fresh", Json::U64(summary.fresh))
        .with("faults", Json::U64(summary.faults))
        .with("rollbacks", Json::U64(rollbacks))
        .with("cache_hits", Json::U64(summary.reused))
        .with("cache_misses", Json::U64(summary.fresh))
}

/// A shed request (overload, expired deadline, client quarantine,
/// or unparsable input) as a `shed` event — the typed alternative to a
/// hang.
pub fn shed_event(code: &str, client: &str) -> Event {
    Event::instant("shed", "", "serve")
        .with("code", Json::Str(code.to_string()))
        .with("client", Json::Str(client.to_string()))
}

/// Cache recovery at startup as a `recover` event.
pub fn recover_event(rec: &CacheRecovery) -> Event {
    Event::instant("recover", "", "serve")
        .with("recovered", Json::U64(rec.recovered as u64))
        .with("resumed_torn", Json::Bool(rec.resumed_torn))
        .with("corrupt_dropped", Json::U64(rec.corrupt_dropped as u64))
        .with("discarded_incompatible", Json::Bool(rec.discarded_incompatible))
}

/// A keep-alive session ended by the server as a `goaway` event.
pub fn goaway_event(reason: &str) -> Event {
    Event::instant("goaway", "", "serve").with("reason", Json::Str(reason.to_string()))
}

/// The final ledger of a graceful drain, rendered into one `drain` event.
#[derive(Debug, Clone, Default)]
pub struct DrainAccounting {
    /// In-flight sessions abandoned at the drain deadline.
    pub abandoned: u64,
    /// Keep-alive sessions served over the process lifetime.
    pub sessions: u64,
    /// Cache entries resident at drain.
    pub cache_entries: u64,
    /// Cache journal file size at drain.
    pub cache_file_bytes: u64,
    /// Entries evicted under the byte cap over the process lifetime.
    pub cache_evictions: u64,
    /// Online + drain compactions over the process lifetime.
    pub cache_compactions: u64,
}

/// Graceful drain completing as a `drain` event.
pub fn drain_event(acc: &DrainAccounting) -> Event {
    Event::instant("drain", "", "serve")
        .with("abandoned", Json::U64(acc.abandoned))
        .with("sessions", Json::U64(acc.sessions))
        .with("cache_entries", Json::U64(acc.cache_entries))
        .with("cache_file_bytes", Json::U64(acc.cache_file_bytes))
        .with("cache_evictions", Json::U64(acc.cache_evictions))
        .with("cache_compactions", Json::U64(acc.cache_compactions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_telemetry::Trace;

    #[test]
    fn serve_events_render_through_the_standard_sinks() {
        let summary = RequestSummary {
            request: "00c0ffee00c0ffee".into(),
            client: "ci".into(),
            class: "cold".into(),
            status: "clean".into(),
            reused: 2,
            fresh: 1,
            faults: 0,
            duration_us: 999,
            spans: vec![("admission".into(), 998)],
        };
        let rec = CacheRecovery { recovered: 5, resumed_torn: true, ..Default::default() };
        let drain = DrainAccounting {
            abandoned: 1,
            sessions: 9,
            cache_entries: 4,
            cache_file_bytes: 2048,
            cache_evictions: 7,
            cache_compactions: 2,
        };
        let trace = Trace::from_events(vec![
            recover_event(&rec),
            request_event(&summary, 0),
            shed_event("overloaded", "ci"),
            goaway_event("idle-timeout"),
            drain_event(&drain),
        ]);
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.contains(r#""kind":"recover""#));
        // The request event's fields and their order, and no wall clock.
        assert!(jsonl.contains(concat!(
            r#"{"seq":1,"kind":"request","function":"","pass":"serve","lane":0,"ts":0,"dur":0,"#,
            r#""request":"00c0ffee00c0ffee","client":"ci","status":"clean","reused":2,"fresh":1,"#,
            r#""faults":0,"rollbacks":0,"cache_hits":2,"cache_misses":1}"#,
            "\n"
        )));
        assert!(jsonl.contains(r#""kind":"shed""#));
        assert!(jsonl.contains(r#""code":"overloaded""#));
        assert!(jsonl.contains(r#""kind":"goaway""#));
        assert!(jsonl.contains(r#""reason":"idle-timeout""#));
        assert!(jsonl.contains(r#""kind":"drain""#));
        assert!(jsonl.contains(r#""cache_compactions":2"#));
    }
}
