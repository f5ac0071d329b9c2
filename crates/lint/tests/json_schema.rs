//! Structural checks on the `--format json` output (schema version 2).
//! These assert on the exact serialized shape — which is itself the
//! compatibility contract for downstream consumers of
//! `LINT_REPORT.json` — and then re-parse the document with the crate's
//! own JSON value parser as a well-formedness check.

use css_lint::json::parse_json;
use css_lint::{render_json, Finding, Report, Severity, Timing};

fn sample_report() -> Report {
    Report {
        root: "/tmp/ws".into(),
        findings: vec![Finding {
            rule: "no-panic-hot-path",
            severity: Severity::Error,
            crate_name: "css-storage".into(),
            file: "crates/storage/src/kv.rs".into(),
            line: 42,
            message: "`.unwrap()` with \"quotes\"\nand a newline".into(),
            waive_reason: None,
        }],
        waived: vec![Finding {
            rule: "audit-before-release",
            severity: Severity::Error,
            crate_name: "css-gateway".into(),
            file: "crates/gateway/src/gateway.rs".into(),
            line: 7,
            message: "release without audit".into(),
            waive_reason: Some("E12 demo path".into()),
        }],
        files_scanned: 2,
        sizes: Vec::new(),
        timing: None,
    }
}

#[test]
fn json_has_versioned_envelope_and_summary() {
    let json = render_json(&sample_report());
    assert!(json.starts_with("{\"version\":2,\"root\":\"/tmp/ws\""));
    assert!(json.contains("\"rules\":["));
    assert!(
        json.contains("\"summary\":{\"errors\":1,\"warnings\":0,\"waived\":1,\"files_scanned\":2}")
    );
    assert!(json.ends_with("}\n"));
    assert!(parse_json(&json).is_some(), "report must be well-formed");
}

#[test]
fn json_lists_all_eleven_rules_with_severities() {
    let json = render_json(&Report::default());
    for rule in [
        "detail-confinement",
        "permit-provenance",
        "audit-before-release",
        "identity-taint",
        "no-panic-hot-path",
        "lock-across-io",
        "shard-lock-order",
        "unchecked-backpressure",
        "trace-hygiene",
        "dom-free-read-path",
        "layering",
    ] {
        assert!(
            json.contains(&format!("\"id\":\"{rule}\"")),
            "missing {rule}"
        );
    }
    assert!(json.contains("\"id\":\"lock-across-io\",\"severity\":\"warn\""));
    assert!(json.contains("\"id\":\"unchecked-backpressure\",\"severity\":\"warn\""));
    assert!(json.contains("\"id\":\"identity-taint\",\"severity\":\"error\""));
    assert!(json.contains("\"id\":\"shard-lock-order\",\"severity\":\"error\""));
    assert!(json.contains("\"id\":\"layering\",\"severity\":\"error\""));
}

#[test]
fn json_escapes_messages_and_carries_waive_reasons() {
    let json = render_json(&sample_report());
    // The quotes and newline in the message must be escaped, never raw.
    assert!(json.contains("\\\"quotes\\\"\\nand a newline"));
    assert!(!json.contains("and a newline\","));
    // Waived entries carry their reason; active ones have none.
    assert!(json.contains("\"reason\":\"E12 demo path\""));
    let findings_section =
        &json[json.find("\"findings\":").unwrap()..json.find("\"waived\":").unwrap()];
    assert!(!findings_section.contains("\"reason\""));
}

#[test]
fn finding_fields_appear_in_contract_order() {
    let json = render_json(&sample_report());
    let f = &json[json.find("\"findings\":").unwrap()..];
    let order = [
        "\"rule\":",
        "\"severity\":",
        "\"crate\":",
        "\"file\":",
        "\"line\":",
        "\"message\":",
    ];
    let mut last = 0usize;
    for key in order {
        let at = f.find(key).unwrap_or_else(|| panic!("missing {key}"));
        assert!(at > last, "{key} out of order");
        last = at;
    }
}

#[test]
fn timing_is_absent_by_default_and_rendered_when_set() {
    let mut report = sample_report();
    assert!(!render_json(&report).contains("\"timing\""));
    report.timing = Some(Timing {
        wall_ms: 123,
        files_reused: 0,
        files_parsed: 42,
    });
    let json = render_json(&report);
    assert!(json.contains("\"timing\":{\"wall_ms\":123,\"files_reused\":0,\"files_parsed\":42}"));
    assert!(parse_json(&json).is_some());
}
