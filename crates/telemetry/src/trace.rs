//! Trace sinks: the per-lane buffer and the deterministically merged
//! module trace.
//!
//! The parallel driver gives every function its own [`FunctionTrace`]
//! (keyed by the function's *module position*, not the worker thread), so
//! workers never contend on a shared sink. After the join, the lanes are
//! concatenated in module order and global sequence numbers assigned —
//! the same merge discipline as the journal, and the reason exported
//! traces are byte-identical at `--jobs 1/2/8`.

use crate::event::Event;
use crate::json::Json;

/// The per-function (per-lane) event buffer.
///
/// Every event it records carries the lane index and a virtual timestamp
/// from the lane-local cursor; global `seq` stays zero until the lanes
/// are merged by [`Trace::from_lanes`].
#[derive(Debug, Clone, Default)]
pub struct FunctionTrace {
    function: String,
    lane: u32,
    cursor: u64,
    events: Vec<Event>,
}

impl FunctionTrace {
    /// A fresh lane for `function` at module position `lane`.
    pub fn new(function: &str, lane: u32) -> FunctionTrace {
        FunctionTrace { function: function.to_string(), lane, cursor: 0, events: Vec::new() }
    }

    /// Events recorded so far, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    fn push(&mut self, mut e: Event, dur: u64) {
        e.function.clone_from(&self.function);
        e.lane = self.lane;
        e.ts = self.cursor;
        e.dur = dur;
        self.cursor += dur;
        self.events.push(e);
    }

    /// Record a completed span: one pass invocation of `pass`, with a
    /// deterministic virtual duration `dur` and producer-chosen fields.
    pub fn span(&mut self, pass: &str, dur: u64, fields: Vec<(String, Json)>) {
        let mut e = Event::instant("span", "", pass);
        e.fields = fields;
        self.push(e, dur);
    }

    /// Record an instant event of the given kind.
    pub fn instant(&mut self, kind: &str, pass: &str, fields: Vec<(String, Json)>) {
        let mut e = Event::instant(kind, "", pass);
        e.fields = fields;
        self.push(e, 0);
    }
}

/// A merged module-level trace: all lanes concatenated in module order
/// with dense global sequence numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The merged event stream, `seq`-ordered.
    pub events: Vec<Event>,
}

impl Trace {
    /// Merge per-function lanes, in the order given (the caller passes
    /// module order). Assigns dense `seq` numbers.
    pub fn from_lanes(lanes: Vec<FunctionTrace>) -> Trace {
        let mut t = Trace::default();
        for lane in lanes {
            t.append(lane.events);
        }
        t
    }

    /// A trace over pre-built events (harness adapters use this).
    /// Assigns dense `seq` numbers in the order given.
    pub fn from_events(events: Vec<Event>) -> Trace {
        let mut t = Trace::default();
        t.append(events);
        t
    }

    /// Append events, continuing the dense `seq` numbering.
    pub fn append(&mut self, events: Vec<Event>) {
        for (next, mut e) in (self.events.len() as u64..).zip(events) {
            e.seq = next;
            self.events.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(name: &str, idx: u32, passes: &[&str]) -> FunctionTrace {
        let mut t = FunctionTrace::new(name, idx);
        for p in passes {
            t.span(p, 5, vec![("changed".into(), Json::Bool(true))]);
            t.instant("provenance", p, Vec::new());
        }
        t
    }

    #[test]
    fn lane_cursor_advances_only_on_spans() {
        let t = lane("f", 0, &["dce", "clean"]);
        let ts: Vec<u64> = t.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, [0, 5, 5, 10]);
        assert!(t.events().iter().all(|e| e.function == "f" && e.lane == 0));
    }

    #[test]
    fn merge_order_is_lane_order_not_completion_order() {
        let lanes = vec![lane("a", 0, &["dce"]), lane("b", 1, &["dce", "clean"])];
        let t = Trace::from_lanes(lanes);
        let seqs: Vec<u64> = t.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5], "dense global sequence");
        assert_eq!(t.events[0].function, "a");
        assert_eq!(t.events[2].function, "b");
    }
}
