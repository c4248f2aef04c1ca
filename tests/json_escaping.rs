//! Every JSON writer escapes what it is given: names containing a quote,
//! a backslash, a newline and a control character parse back unchanged
//! with the workspace codec. The Prometheus text render escapes them as
//! its format requires.

use effective_pre::lint_json::lint_json;
use epre_lint::{Location, Report, Rule};
use epre_telemetry::json::{parse, Json};
use epre_telemetry::{FunctionTrace, Snapshot, Table1, Table1Row, Trace};

const NAME: &str = "a\"b\\c\nd\u{1}e";

fn str_at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a str> {
    path.iter().try_fold(v, |v, key| v.get(key)).and_then(Json::as_str)
}

fn trace() -> Trace {
    let mut lane = FunctionTrace::new(NAME, 0);
    lane.span(NAME, 1, vec![(NAME.into(), Json::Str(NAME.into()))]);
    lane.instant(NAME, NAME, Vec::new());
    Trace::from_lanes(vec![lane])
}

#[test]
fn trace_jsonl_round_trips_names() {
    let jsonl = trace().to_jsonl();
    let lines: Vec<Json> = jsonl.lines().map(|l| parse(l).unwrap()).collect();
    let (span, instant) = (&lines[0], &lines[1]);
    assert_eq!(str_at(span, &["function"]), Some(NAME));
    assert_eq!(str_at(span, &["pass"]), Some(NAME));
    assert_eq!(str_at(span, &[NAME]), Some(NAME));
    assert_eq!(str_at(instant, &["kind"]), Some(NAME));
}

#[test]
fn chrome_trace_round_trips_names() {
    let doc = parse(&trace().to_chrome()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let (thread, span, instant) = (&events[0], &events[1], &events[2]);
    assert_eq!(str_at(thread, &["args", "name"]), Some(NAME));
    assert_eq!(str_at(span, &["name"]), Some(NAME));
    assert_eq!(str_at(span, &["args", "function"]), Some(NAME));
    assert_eq!(str_at(span, &["args", NAME]), Some(NAME));
    assert_eq!(str_at(instant, &["cat"]), Some(NAME));
}

#[test]
fn table1_round_trips_names() {
    let table = Table1 {
        levels: vec![NAME.into()],
        rows: vec![Table1Row { name: NAME.into(), counts: vec![1] }],
    };
    let doc = parse(&table.to_json()).unwrap();
    let levels = doc.get("levels").and_then(Json::as_arr).unwrap();
    assert_eq!(levels[0].as_str(), Some(NAME));
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(str_at(&rows[0], &["name"]), Some(NAME));
}

#[test]
fn metrics_render_round_trips_names() {
    let mut snap = Snapshot::new();
    snap.push_counter(NAME, Some((NAME, NAME)), "", 1);
    let doc = parse(&snap.to_json()).unwrap();
    let metric = &doc.get("metrics").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(str_at(metric, &["name"]), Some(NAME));
    assert_eq!(str_at(metric, &["label"]), Some(format!("{NAME}={NAME}").as_str()));
}

/// The Prometheus text exposition has no JSON to round-trip through: it
/// must escape `\`, `"` and newline in a label value and `\` and newline
/// in HELP text, so that each sample stays on one line.
#[test]
fn metrics_text_escapes_label_values_and_help() {
    let mut snap = Snapshot::new();
    snap.push_counter("epre_escape_total", Some(("name", NAME)), NAME, 1);
    assert_eq!(
        snap.to_text(),
        concat!(
            "# HELP epre_escape_total a\"b\\\\c\\nd\u{1}e\n",
            "# TYPE epre_escape_total counter\n",
            "epre_escape_total{name=\"a\\\"b\\\\c\\nd\u{1}e\"} 1\n"
        )
    );
}

#[test]
fn lint_json_round_trips_names() {
    let mut report = Report::new();
    report.push(Rule::NoBlocks, Location::function(NAME), NAME.into());
    let doc = parse(&lint_json(&report)).unwrap();
    let finding = &doc.as_arr().unwrap()[0];
    assert_eq!(str_at(finding, &["function"]), Some(NAME));
    assert_eq!(str_at(finding, &["message"]), Some(NAME));
}
