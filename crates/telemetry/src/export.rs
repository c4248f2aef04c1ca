//! Trace export: JSON Lines and Chrome `trace_event` renderings.
//!
//! Both formats build [`Json`] values from the merged [`Trace`] and
//! encode them with the workspace codec. Events hold no wall-clock
//! reading, so equal traces render to byte-identical output regardless
//! of machine load or `--jobs`.

use crate::json::{obj, Json};
use crate::trace::Trace;

impl Trace {
    /// Render as JSON Lines: one object per event, fixed key order
    /// (`seq`, `kind`, `function`, `pass`, `lane`, `ts`, `dur`, then the
    /// event's fields), trailing newline per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let mut fields = vec![
                ("seq", Json::U64(e.seq)),
                ("kind", Json::Str(e.kind.clone())),
                ("function", Json::Str(e.function.clone())),
                ("pass", Json::Str(e.pass.clone())),
                ("lane", Json::U64(u64::from(e.lane))),
                ("ts", Json::U64(e.ts)),
                ("dur", Json::U64(e.dur)),
            ];
            fields.extend(e.fields.iter().map(|(k, v)| (k.as_str(), v.clone())));
            out.push_str(&obj(fields).encode());
            out.push('\n');
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
        let mut items = Vec::new();

        // Thread-name metadata: one per distinct lane, in lane order.
        let mut named: Vec<u32> = Vec::new();
        for e in &self.events {
            if named.contains(&e.lane) {
                continue;
            }
            named.push(e.lane);
            items.push(obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(u64::from(e.lane) + 1)),
                ("args", obj(vec![("name", Json::Str(e.function.clone()))])),
            ]));
        }

        for e in &self.events {
            let span = e.kind == "span";
            let mut item = vec![
                ("name", Json::Str(e.pass.clone())),
                ("cat", Json::Str(e.kind.clone())),
                ("ph", Json::Str(if span { "X" } else { "i" }.into())),
            ];
            if !span {
                item.push(("s", Json::Str("t".into())));
            }
            item.push(("pid", Json::U64(1)));
            item.push(("tid", Json::U64(u64::from(e.lane) + 1)));
            item.push(("ts", Json::U64(e.ts)));
            if span {
                item.push(("dur", Json::U64(e.dur)));
            }
            let mut args =
                vec![("seq", Json::U64(e.seq)), ("function", Json::Str(e.function.clone()))];
            args.extend(e.fields.iter().map(|(k, v)| (k.as_str(), v.clone())));
            item.push(("args", obj(args)));
            items.push(obj(item));
        }
        let mut out = obj(vec![("traceEvents", Json::Arr(items))]).encode();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FunctionTrace;

    fn sample() -> Trace {
        let mut lane = FunctionTrace::new("f\"1", 0);
        lane.span(
            "pre",
            7,
            vec![
                ("changed".into(), Json::Bool(true)),
                ("counters".into(), Json::Obj(vec![("edges_split".into(), Json::U64(2))])),
            ],
        );
        lane.instant("provenance", "pre", vec![("ops_before".into(), Json::U64(9))]);
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
    }

    #[test]
    fn chrome_has_metadata_span_and_instant() {
        // Thread metadata, then the span and the instant.
        assert_eq!(
            sample().to_chrome(),
            concat!(
                r#"{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"f\"1"}},"#,
                r#"{"name":"pre","cat":"span","ph":"X","pid":1,"tid":1,"ts":0,"dur":7,"args":{"seq":0,"function":"f\"1","changed":true,"counters":{"edges_split":2}}},"#,
                r#"{"name":"pre","cat":"provenance","ph":"i","s":"t","pid":1,"tid":1,"ts":7,"args":{"seq":1,"function":"f\"1","ops_before":9}}]}"#,
                "\n"
            )
        );
    }
}
