//! The flat event record every telemetry producer emits.
//!
//! One struct, no generics: producers in `epre-core`, `epre-passes`, and
//! `epre-harness` all speak [`Event`], and the export formats in
//! [`crate::export`] render it without knowing who produced it.

use crate::json::Json;

/// One telemetry record.
///
/// `kind` is one of a small closed set:
///
/// | kind          | meaning                                            |
/// |---------------|----------------------------------------------------|
/// | `span`        | one pass invocation over one function              |
/// | `provenance`  | opcode-keyed eliminated/inserted delta of a span   |
/// | `cache`       | per-function [`AnalysisCache`] hit/miss totals     |
/// | `fault`       | a contained pass fault (panic/verify/lint/budget)  |
/// | `rollback`    | the harness rolled a function back to its input    |
/// | `quarantine`  | the circuit breaker quarantined a pass             |
/// | `journal`     | journal reuse/fresh/torn-tail accounting           |
/// | `request`     | one serve request: status + per-request accounting |
/// | `shed`        | admission control refused work (overload/deadline/ |
/// |               | client quarantine) — typed, never a hang           |
/// | `recover`     | serve cache recovery after a crash: entries kept,  |
/// |               | torn tail discarded, corrupt records dropped       |
/// | `goaway`      | the server ended a keep-alive session (idle        |
/// |               | timeout, max-requests cap, or draining)            |
/// | `drain`       | graceful drain completed: abandoned sessions and   |
/// |               | the final cache health ledger                      |
///
/// [`AnalysisCache`]: https://docs.rs/epre-analysis
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global sequence number, assigned when lanes are merged into a
    /// [`crate::Trace`]; dense and strictly increasing in the merged
    /// stream.
    pub seq: u64,
    /// Event kind (see the table above).
    pub kind: String,
    /// The function this event concerns (empty for module-level events).
    pub function: String,
    /// The pass this event concerns (`pipeline` for events that belong to
    /// the driver rather than a specific pass).
    pub pass: String,
    /// Lane index: the position of the function in module order, which is
    /// also the Chrome-trace thread id minus one. Deterministic — *not*
    /// the worker thread that happened to run the function.
    pub lane: u32,
    /// Virtual timestamp (per-lane cursor; see the crate docs). Exported.
    pub ts: u64,
    /// Virtual duration (deterministic, derived from input size; zero for
    /// instant events). Exported.
    pub dur: u64,
    /// Extra fields, in producer-chosen (stable) order.
    pub fields: Vec<(String, Json)>,
}

impl Event {
    /// A new instant event (zero duration) with no fields.
    pub fn instant(kind: &str, function: &str, pass: &str) -> Event {
        Event {
            seq: 0,
            kind: kind.to_string(),
            function: function.to_string(),
            pass: pass.to_string(),
            lane: 0,
            ts: 0,
            dur: 0,
            fields: Vec::new(),
        }
    }

    /// Append a field, builder-style.
    #[must_use]
    pub fn with(mut self, name: &str, value: Json) -> Event {
        self.fields.push((name.to_string(), value));
        self
    }

    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&Json> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// Per-pass counters reported by the pass itself during one invocation —
/// the numbers the paper's prose quotes (expressions hoisted, edges
/// split, partitions, ops folded, ops killed, …).
///
/// Counter names are `&'static str` because passes report a fixed
/// vocabulary; insertion order is preserved so renderings are stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassCounters {
    items: Vec<(&'static str, u64)>,
}

impl PassCounters {
    /// An empty counter set.
    pub fn new() -> PassCounters {
        PassCounters::default()
    }

    /// Add `value` to the counter `name`, creating it at zero first.
    pub fn add(&mut self, name: &'static str, value: u64) {
        if let Some(slot) = self.items.iter_mut().find(|(n, _)| *n == name) {
            slot.1 += value;
        } else {
            self.items.push((name, value));
        }
    }

    /// Current value of `name` (zero if never reported).
    pub fn get(&self, name: &str) -> u64 {
        self.items.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }

    /// Iterate counters in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.items.iter().copied()
    }

    /// True if no counter was ever reported.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The counters as a JSON object, in insertion order.
    pub fn to_map(&self) -> Json {
        Json::Obj(self.items.iter().map(|(n, v)| (n.to_string(), Json::U64(*v))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_preserve_order() {
        let mut c = PassCounters::new();
        c.add("rounds", 1);
        c.add("ops_killed", 3);
        c.add("rounds", 2);
        assert_eq!(c.get("rounds"), 3);
        assert_eq!(c.get("ops_killed"), 3);
        assert_eq!(c.get("absent"), 0);
        let names: Vec<_> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["rounds", "ops_killed"]);
        assert!(!c.is_empty());
        assert_eq!(
            c.to_map(),
            Json::Obj(vec![("rounds".into(), Json::U64(3)), ("ops_killed".into(), Json::U64(3))])
        );
    }

    #[test]
    fn event_field_lookup_is_typed() {
        let e = Event::instant("span", "f", "dce")
            .with("changed", Json::Bool(true))
            .with("ops_before", Json::U64(12))
            .with("hist", Json::Obj(vec![("add".into(), Json::U64(2))]));
        assert_eq!(e.field("changed").and_then(Json::as_bool), Some(true));
        assert_eq!(e.field("ops_before").and_then(Json::as_u64), Some(12));
        assert_eq!(e.field("changed").and_then(Json::as_u64), None, "type mismatch yields None");
        assert_eq!(
            e.field("hist").and_then(Json::as_obj).unwrap(),
            &[("add".into(), Json::U64(2))]
        );
        let s = Event::instant("request", "", "serve").with("status", Json::Str("ok".into()));
        assert_eq!(s.field("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(s.field("absent"), None);
    }
}
