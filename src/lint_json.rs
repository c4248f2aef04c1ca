//! `epre lint --json`: a lint [`Report`] as a JSON array, built from the
//! report's public fields with the workspace codec. It lives here rather
//! than in `epre-lint`, which stays independent of `epre-telemetry`.

use epre_lint::Report;
use epre_telemetry::json::{obj, Json};

/// Render the report as a JSON array of finding objects. Keys: `code`,
/// `rule`, `severity`, `function`, `block` (number or null), `inst`
/// (number or null), `message`.
pub fn lint_json(report: &Report) -> String {
    let number = |n: Option<u64>| n.map_or(Json::Null, Json::U64);
    let findings = report.diagnostics.iter().map(|d| {
        obj(vec![
            ("code", Json::Str(d.rule.code().into())),
            ("rule", Json::Str(d.rule.slug().into())),
            ("severity", Json::Str(d.severity().label().into())),
            ("function", Json::Str(d.location.function.clone())),
            ("block", number(d.location.block.map(|b| u64::from(b.0)))),
            ("inst", number(d.location.inst.map(|i| i as u64))),
            ("message", Json::Str(d.message.clone())),
        ])
    });
    Json::Arr(findings.collect()).encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::parse_module;
    use epre_lint::{lint_module, LintOptions, Location, Rule};

    #[test]
    fn json_escapes_and_nulls() {
        let mut r = Report::new();
        r.push(Rule::NoBlocks, Location::function("f\"g"), "no \"blocks\"\n".into());
        assert_eq!(
            lint_json(&r),
            r#"[{"code":"L001","rule":"no-blocks","severity":"error","function":"f\"g","block":null,"inst":null,"message":"no \"blocks\"\n"}]"#
        );
    }

    #[test]
    fn corpus_diagnostics_render_code_and_function() {
        let text = include_str!("../crates/suite/tests/corpus/use_before_def.iloc");
        let report = lint_module(&parse_module(text).unwrap(), &LintOptions::default());
        let json = lint_json(&report);
        assert!(json.contains("\"code\":\"L020\""), "{json}");
        assert!(json.contains("\"function\":\"use_before_def\""), "{json}");
    }
}
