//! SARIF 2.1.0 rendering (minimal profile).
//!
//! Emits a single-run log: `runs[0].tool.driver` lists every rule with
//! its id and short description; `runs[0].results` carries one result
//! per finding with `ruleId`, `level`, `message.text`, and a physical
//! location (region omitted when the finding has no line, e.g.
//! workspace-level layering findings). Waived findings are emitted too,
//! with an `inSource` suppression carrying the waiver's justification —
//! SARIF viewers show them greyed out instead of hiding them, matching
//! how the text renderer treats waivers as reviewable artifacts.

use crate::diag::{Finding, Severity};
use crate::engine::Report;
use crate::json::escape;
use crate::rules::all_rules;

const SARIF_VERSION: &str = "2.1.0";
const SARIF_SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

fn level(severity: Severity) -> &'static str {
    match severity {
        Severity::Warn => "warning",
        Severity::Error => "error",
    }
}

fn result_json(f: &Finding, suppressed: bool) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"ruleId\":\"{}\",\"level\":\"{}\",\"message\":{{\"text\":\"{}\"}}",
        escape(f.rule),
        level(f.severity),
        escape(&f.message)
    ));
    out.push_str(&format!(
        ",\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}}",
        escape(&f.file)
    ));
    if f.line > 0 {
        out.push_str(&format!(",\"region\":{{\"startLine\":{}}}", f.line));
    }
    out.push_str("}}]");
    if suppressed {
        let justification = f.waive_reason.as_deref().unwrap_or("");
        out.push_str(&format!(
            ",\"suppressions\":[{{\"kind\":\"inSource\",\"justification\":\"{}\"}}]",
            escape(justification)
        ));
    }
    out.push('}');
    out
}

/// Render the report as a SARIF 2.1.0 document.
pub fn render_sarif(report: &Report) -> String {
    let rules: Vec<String> = all_rules()
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\
                 \"defaultConfiguration\":{{\"level\":\"{}\"}}}}",
                escape(r.id()),
                escape(r.description()),
                level(r.severity())
            )
        })
        .collect();

    let mut results: Vec<String> = Vec::new();
    for f in &report.findings {
        results.push(result_json(f, false));
    }
    for f in &report.waived {
        results.push(result_json(f, true));
    }

    format!(
        "{{\"$schema\":\"{SARIF_SCHEMA}\",\"version\":\"{SARIF_VERSION}\",\"runs\":[{{\
         \"tool\":{{\"driver\":{{\"name\":\"css-lint\",\"rules\":[{}]}}}},\
         \"results\":[{}]}}]}}\n",
        rules.join(","),
        results.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::parse_json;
    use crate::diag::Finding;

    fn sample_report() -> Report {
        Report {
            root: ".".into(),
            findings: vec![Finding {
                rule: "identity-taint",
                severity: Severity::Error,
                crate_name: "css-bus".into(),
                file: "crates/bus/src/a.rs".into(),
                line: 9,
                message: "tainted".into(),
                waive_reason: None,
            }],
            waived: vec![Finding {
                rule: "no-panic-hot-path",
                severity: Severity::Error,
                crate_name: "css-bus".into(),
                file: "crates/bus/src/b.rs".into(),
                line: 3,
                message: "unwrap".into(),
                waive_reason: Some("bounded test harness".into()),
            }],
            files_scanned: 2,
            sizes: Vec::new(),
            timing: None,
        }
    }

    #[test]
    fn sarif_is_valid_json_with_rules_and_results() {
        let doc = parse_json(&render_sarif(&sample_report())).expect("valid json");
        assert_eq!(doc.get("version").unwrap().as_str(), Some("2.1.0"));
        let runs = doc.get("runs").unwrap().as_arr().unwrap();
        let driver = runs[0].get("tool").unwrap().get("driver").unwrap();
        assert_eq!(driver.get("name").unwrap().as_str(), Some("css-lint"));
        let rules = driver.get("rules").unwrap().as_arr().unwrap();
        assert_eq!(rules.len(), all_rules().len());
        let results = runs[0].get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("ruleId").unwrap().as_str(),
            Some("identity-taint")
        );
        assert_eq!(results[0].get("level").unwrap().as_str(), Some("error"));
        let region = results[0].get("locations").unwrap().as_arr().unwrap()[0]
            .get("physicalLocation")
            .unwrap()
            .get("region")
            .unwrap();
        assert_eq!(region.get("startLine").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn waived_findings_carry_in_source_suppressions() {
        let doc = parse_json(&render_sarif(&sample_report())).expect("valid json");
        let results = doc.get("runs").unwrap().as_arr().unwrap()[0]
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap();
        assert!(results[0].get("suppressions").is_none());
        let sup = results[1].get("suppressions").unwrap().as_arr().unwrap();
        assert_eq!(sup[0].get("kind").unwrap().as_str(), Some("inSource"));
        assert_eq!(
            sup[0].get("justification").unwrap().as_str(),
            Some("bounded test harness")
        );
    }

    #[test]
    fn findings_without_a_line_omit_the_region() {
        let mut report = sample_report();
        report.findings[0].line = 0;
        let doc = parse_json(&render_sarif(&report)).expect("valid json");
        let loc = &doc.get("runs").unwrap().as_arr().unwrap()[0]
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .get("locations")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert!(loc.get("physicalLocation").unwrap().get("region").is_none());
    }
}
