//! Trace export: JSON Lines and Chrome `trace_event` renderings.
//!
//! Both formats are rendered from the merged [`Trace`] with hand-rolled
//! JSON (the workspace builds against an offline registry — no serde).
//! Neither rendering includes [`crate::Event::wall_ns`], so equal traces render
//! to byte-identical output regardless of machine load or `--jobs`.

use crate::event::Value;
use crate::trace::Trace;
use std::fmt::Write as _;

/// Escape `s` into `out` as JSON string *contents* (no surrounding
/// quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn value_into(out: &mut String, v: &Value) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        Value::Map(m) => {
            out.push('{');
            for (i, (k, x)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(out, k);
                let _ = write!(out, "\":{x}");
            }
            out.push('}');
        }
    }
}

fn fields_into(out: &mut String, fields: &[(String, Value)]) {
    for (k, v) in fields {
        out.push_str(",\"");
        escape_into(out, k);
        out.push_str("\":");
        value_into(out, v);
    }
}

impl Trace {
    /// Render as JSON Lines: one object per event, fixed key order
    /// (`seq`, `kind`, `function`, `pass`, `lane`, `ts`, `dur`, then the
    /// event's fields), trailing newline per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = write!(out, "{{\"seq\":{},\"kind\":\"", e.seq);
            escape_into(&mut out, &e.kind);
            out.push_str("\",\"function\":\"");
            escape_into(&mut out, &e.function);
            out.push_str("\",\"pass\":\"");
            escape_into(&mut out, &e.pass);
            let _ = write!(out, "\",\"lane\":{},\"ts\":{},\"dur\":{}", e.lane, e.ts, e.dur);
            fields_into(&mut out, &e.fields);
            out.push_str("}\n");
        }
        out
    }

    /// Render in Chrome `trace_event` JSON (the object form with a
    /// `traceEvents` array), loadable in `about://tracing` / Perfetto.
    ///
    /// Each lane becomes a named thread (`tid = lane + 1`); spans render
    /// as complete (`"ph":"X"`) events and everything else as instants
    /// (`"ph":"i"`). Virtual timestamps are used as microseconds.
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: &str, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(s);
        };

        // Thread-name metadata: one per distinct lane, in lane order.
        let mut named: Vec<u32> = Vec::new();
        let mut line = String::new();
        for e in &self.events {
            if named.contains(&e.lane) {
                continue;
            }
            named.push(e.lane);
            line.clear();
            let _ = write!(
                line,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"",
                e.lane + 1
            );
            escape_into(&mut line, &e.function);
            line.push_str("\"}}");
            emit(&line, &mut out);
        }

        for e in &self.events {
            line.clear();
            line.push_str("{\"name\":\"");
            escape_into(&mut line, &e.pass);
            line.push_str("\",\"cat\":\"");
            escape_into(&mut line, &e.kind);
            if e.kind == "span" {
                let _ = write!(
                    line,
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
                    e.lane + 1,
                    e.ts,
                    e.dur
                );
            } else {
                let _ = write!(
                    line,
                    "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{}",
                    e.lane + 1,
                    e.ts
                );
            }
            let _ = write!(line, ",\"args\":{{\"seq\":{},\"function\":\"", e.seq);
            escape_into(&mut line, &e.function);
            line.push('"');
            fields_into(&mut line, &e.fields);
            line.push_str("}}");
            emit(&line, &mut out);
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FunctionTrace, Tracer};

    fn sample() -> Trace {
        let mut lane = FunctionTrace::new("f\"1", 0);
        lane.span(
            "pre",
            7,
            999,
            vec![
                ("changed".into(), Value::Bool(true)),
                ("counters".into(), Value::Map(vec![("edges_split".into(), 2)])),
            ],
        );
        lane.instant("provenance", "pre", vec![("ops_before".into(), Value::U64(9))]);
        Trace::from_lanes(vec![lane])
    }

    #[test]
    fn jsonl_has_fixed_prefix_and_escapes() {
        let s = sample().to_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with(
                "{\"seq\":0,\"kind\":\"span\",\"function\":\"f\\\"1\",\"pass\":\"pre\""
            ),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"counters\":{\"edges_split\":2}"));
        assert!(lines[1].contains("\"ops_before\":9"));
        assert!(!s.contains("999"), "wall_ns must not be exported");
    }

    #[test]
    fn chrome_has_metadata_span_and_instant() {
        let s = sample().to_chrome();
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("]}\n"));
        assert!(s.contains("\"ph\":\"M\""));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"tid\":1"));
        assert!(!s.contains("999"), "wall_ns must not be exported");
    }

    #[test]
    fn escaping_covers_control_chars() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}
