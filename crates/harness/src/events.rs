//! Telemetry adapters: harness outcomes as structured trace events.
//!
//! The harness already aggregates its fault handling into typed reports
//! ([`HardenedOutput`], [`JournaledOutcome`]); these adapters render
//! those reports as [`Event`]s after the fact, so a best-effort
//! `epre opt --trace` run exports fault, rollback, quarantine, and
//! journal accounting through the same JSON Lines / Chrome sinks as the
//! clean pipeline's spans. Being derived from the deterministic reports,
//! the event streams are deterministic too.

use epre_telemetry::json::Json;
use epre_telemetry::Event;

use crate::harden::{HardenedOutput, JournaledOutcome};

/// Render a hardened run's fault handling as trace events, in report
/// order: one `fault` per contained [`PassFault`](epre::PassFault), one
/// `rollback` per oracle divergence, one `quarantine` per tripped
/// breaker, and a closing `counter` event with the retry/skip/
/// inconclusive tallies.
pub fn harden_events(out: &HardenedOutput) -> Vec<Event> {
    let mut events = Vec::new();
    for fault in &out.faults {
        events.push(
            Event::instant("fault", &fault.function, &fault.pass)
                .with("fault_kind", Json::Str(fault.kind_label().to_string())),
        );
    }
    for d in &out.divergences {
        events.push(
            Event::instant("rollback", &d.function, "oracle")
                .with("reason", Json::Str("divergence".to_string())),
        );
    }
    for q in &out.quarantined {
        events.push(
            Event::instant("quarantine", &q.tripped_in, &q.pass)
                .with("faults", Json::U64(q.faults as u64)),
        );
    }
    events.push(
        Event::instant("counter", "", "harness")
            .with("retries", Json::U64(out.retries as u64))
            .with("skipped", Json::U64(out.skipped as u64))
            .with("inconclusive", Json::U64(out.inconclusive as u64)),
    );
    events
}

/// [`harden_events`] for a journaled run: the hardened events followed
/// by a `journal` event carrying the reuse/fresh/torn-tail accounting.
pub fn journal_events(out: &JournaledOutcome) -> Vec<Event> {
    let mut events = harden_events(&out.output);
    events.push(
        Event::instant("journal", "", "pipeline")
            .with("reused", Json::U64(out.reused as u64))
            .with("fresh", Json::U64(out.fresh as u64))
            .with("resumed_torn", Json::Bool(out.resumed_torn)),
    );
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre::PassFault;
    use epre_ir::Module;
    use epre_telemetry::Trace;

    fn sample_output() -> HardenedOutput {
        HardenedOutput {
            module: Module::default(),
            faults: vec![PassFault::panic("pre", "foo", "boom".to_string())],
            divergences: Vec::new(),
            retries: 2,
            skipped: 1,
            quarantined: vec![crate::breaker::Quarantine {
                pass: "pre".to_string(),
                faults: 3,
                tripped_in: "bar".to_string(),
            }],
            inconclusive: 0,
        }
    }

    #[test]
    fn harden_events_cover_every_report_row() {
        let out = sample_output();
        let events = harden_events(&out);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, "fault");
        assert_eq!((events[0].function.as_str(), events[0].pass.as_str()), ("foo", "pre"));
        assert_eq!(events[1].kind, "quarantine");
        assert_eq!(events[1].field("faults").and_then(Json::as_u64), Some(3));
        assert_eq!(events[2].field("retries").and_then(Json::as_u64), Some(2));
        assert_eq!(events[2].field("skipped").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn journal_events_append_journal_accounting() {
        let out =
            JournaledOutcome { output: sample_output(), reused: 4, fresh: 6, resumed_torn: true };
        let events = journal_events(&out);
        let j = events.last().unwrap();
        assert_eq!(j.kind, "journal");
        assert_eq!(j.field("reused").and_then(Json::as_u64), Some(4));
        assert_eq!(j.field("fresh").and_then(Json::as_u64), Some(6));
        assert_eq!(j.field("resumed_torn").and_then(Json::as_bool), Some(true));
        // The adapters feed Trace::from_events; the export must parse.
        let trace = Trace::from_events(events);
        assert!(trace.to_jsonl().lines().all(|l| l.starts_with("{\"seq\":")));
    }
}
