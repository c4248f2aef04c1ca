//! Transformation provenance: where did every operation go?
//!
//! The pipeline driver snapshots an opcode histogram of each function
//! before and after every pass and emits the difference as a
//! `provenance` event. This module reconstructs per-function ledgers
//! from those events so `epre explain` can print, level by level, which
//! pass eliminated (or inserted) how many of which opcode — the same
//! attribution discipline as the LCM-PRE reproduction this issue cites.
//!
//! The ledgers obey a conservation law checked over the whole benchmark
//! suite: for every pass, and transitively for the whole pipeline,
//!
//! ```text
//! ops_before − Σ eliminated + Σ inserted == ops_after
//! ```
//!
//! which holds *by construction* because both sides are computed from
//! the same histograms.

use crate::event::Event;
use crate::json::Json;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The opcode-keyed difference between two histograms, split into
/// eliminated (count went down) and inserted (count went up) sides.
/// Both sides are sorted by opcode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpcodeDelta {
    /// Opcodes whose count decreased, with the decrease.
    pub eliminated: Vec<(String, u64)>,
    /// Opcodes whose count increased, with the increase.
    pub inserted: Vec<(String, u64)>,
}

impl OpcodeDelta {
    /// Diff `after` against `before` (both opcode → count).
    pub fn between(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> OpcodeDelta {
        let mut d = OpcodeDelta::default();
        let mut keys: Vec<&String> = before.keys().chain(after.keys()).collect();
        keys.sort();
        keys.dedup();
        for k in keys {
            let b = before.get(k).copied().unwrap_or(0);
            let a = after.get(k).copied().unwrap_or(0);
            if a < b {
                d.eliminated.push((k.clone(), b - a));
            } else if a > b {
                d.inserted.push((k.clone(), a - b));
            }
        }
        d
    }

    /// Total operations eliminated across all opcodes.
    pub fn eliminated_total(&self) -> u64 {
        self.eliminated.iter().map(|(_, n)| n).sum()
    }

    /// Total operations inserted across all opcodes.
    pub fn inserted_total(&self) -> u64 {
        self.inserted.iter().map(|(_, n)| n).sum()
    }

    /// True when the pass left the opcode mix untouched.
    pub fn is_empty(&self) -> bool {
        self.eliminated.is_empty() && self.inserted.is_empty()
    }
}

/// One pass's row in a [`FunctionLedger`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassProvenance {
    /// The pass name.
    pub pass: String,
    /// Static operation count when the pass started.
    pub ops_before: u64,
    /// Static operation count when the pass finished.
    pub ops_after: u64,
    /// The opcode-keyed delta the pass produced.
    pub delta: OpcodeDelta,
}

/// The per-function account of where every static-operation change came
/// from, pass by pass, reconstructed from a trace's `provenance` events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionLedger {
    /// The function this ledger describes.
    pub function: String,
    /// Static operations before the first pass ran.
    pub ops_before: u64,
    /// Static operations after the last pass ran.
    pub ops_after: u64,
    /// One entry per pass invocation, in pipeline order.
    pub passes: Vec<PassProvenance>,
}

impl FunctionLedger {
    /// The conservation law: does `ops_before − Σ eliminated +
    /// Σ inserted == ops_after` hold, both per pass and end to end?
    pub fn conserves(&self) -> bool {
        let mut running = i128::from(self.ops_before);
        for p in &self.passes {
            if running != i128::from(p.ops_before) {
                return false;
            }
            running -= i128::from(p.delta.eliminated_total());
            running += i128::from(p.delta.inserted_total());
            if running != i128::from(p.ops_after) {
                return false;
            }
        }
        running == i128::from(self.ops_after)
    }

    /// Render the ledger as an indented text account (used by
    /// `epre explain`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} -> {} static ops",
            self.function, self.ops_before, self.ops_after
        );
        for p in &self.passes {
            if p.delta.is_empty() {
                continue;
            }
            let _ = write!(out, "  {:<24} {:>5} -> {:<5}", p.pass, p.ops_before, p.ops_after);
            let mut parts: Vec<String> = Vec::new();
            for (op, n) in &p.delta.eliminated {
                parts.push(format!("-{n} {op}"));
            }
            for (op, n) in &p.delta.inserted {
                parts.push(format!("+{n} {op}"));
            }
            let _ = writeln!(out, "  {}", parts.join(", "));
        }
        out
    }
}

/// Reconstruct per-function ledgers from a trace's `provenance` events,
/// in first-encounter (module) order.
pub fn ledgers_from_trace(trace: &Trace) -> Vec<FunctionLedger> {
    let mut ledgers: Vec<FunctionLedger> = Vec::new();
    for e in trace.events.iter().filter(|e| e.kind == "provenance") {
        let entry = provenance_entry(e);
        match ledgers.iter_mut().find(|l| l.function == e.function) {
            Some(l) => {
                l.ops_after = entry.ops_after;
                l.passes.push(entry);
            }
            None => ledgers.push(FunctionLedger {
                function: e.function.clone(),
                ops_before: entry.ops_before,
                ops_after: entry.ops_after,
                passes: vec![entry],
            }),
        }
    }
    ledgers
}

fn provenance_entry(e: &Event) -> PassProvenance {
    let count = |name| e.field(name).and_then(Json::as_u64).unwrap_or(0);
    let counts = |name| {
        let fields = e.field(name).and_then(Json::as_obj).unwrap_or(&[]);
        fields.iter().map(|(op, n)| (op.clone(), n.as_u64().unwrap_or(0))).collect()
    };
    PassProvenance {
        pass: e.pass.clone(),
        ops_before: count("ops_before"),
        ops_after: count("ops_after"),
        delta: OpcodeDelta { eliminated: counts("eliminated"), inserted: counts("inserted") },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FunctionTrace;

    fn hist(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn delta_splits_eliminated_and_inserted() {
        let before = hist(&[("add", 3), ("mul", 2), ("copy", 1)]);
        let after = hist(&[("add", 1), ("mul", 2), ("loadi", 4)]);
        let d = OpcodeDelta::between(&before, &after);
        assert_eq!(d.eliminated, vec![("add".to_string(), 2), ("copy".to_string(), 1)]);
        assert_eq!(d.inserted, vec![("loadi".to_string(), 4)]);
        assert_eq!(d.eliminated_total(), 3);
        assert_eq!(d.inserted_total(), 4);
        assert!(!d.is_empty());
        assert!(OpcodeDelta::between(&before, &before).is_empty());
    }

    fn prov_event(t: &mut FunctionTrace, pass: &str, before: u64, after: u64, elim: u64, ins: u64) {
        t.instant(
            "provenance",
            pass,
            vec![
                ("ops_before".into(), Json::U64(before)),
                ("ops_after".into(), Json::U64(after)),
                ("eliminated".into(), Json::Obj(vec![("add".into(), Json::U64(elim))])),
                ("inserted".into(), Json::Obj(vec![("loadi".into(), Json::U64(ins))])),
            ],
        );
    }

    #[test]
    fn ledgers_rebuild_and_conserve() {
        let mut lane = FunctionTrace::new("f", 0);
        prov_event(&mut lane, "pre", 10, 9, 2, 1);
        prov_event(&mut lane, "dce", 9, 7, 2, 0);
        let ledgers = ledgers_from_trace(&Trace::from_lanes(vec![lane]));
        assert_eq!(ledgers.len(), 1);
        let l = &ledgers[0];
        assert_eq!((l.ops_before, l.ops_after), (10, 7));
        assert_eq!(l.passes.len(), 2);
        assert!(l.conserves(), "{l:?}");
        let text = l.render();
        assert!(text.contains("f: 10 -> 7 static ops"), "{text}");
        assert!(text.contains("-2 add"), "{text}");
        assert!(text.contains("+1 loadi"), "{text}");
    }

    #[test]
    fn conservation_detects_a_lying_ledger() {
        let mut lane = FunctionTrace::new("f", 0);
        prov_event(&mut lane, "pre", 10, 9, 5, 1); // 10 - 5 + 1 != 9
        let ledgers = ledgers_from_trace(&Trace::from_lanes(vec![lane]));
        assert!(!ledgers[0].conserves());
    }
}
