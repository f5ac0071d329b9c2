//! Structural checks on the `--format json` output (schema version 2).
//! These assert on the exact serialized shape — which is itself the
//! compatibility contract for downstream consumers of
//! `target/LINT_REPORT.json` — and then re-parse the document with the crate's
//! own JSON value parser as a well-formedness check.

use css_lint::json::parse_json;
use css_lint::{render_json, Finding, Report, Severity, Timing};

fn sample_report() -> Report {
    Report {
        root: "/tmp/ws".into(),
        findings: vec![Finding {
            rule: "dom-free-read-path",
            severity: Severity::Error,
            crate_name: "css-storage".into(),
            file: "crates/storage/src/kv.rs".into(),
            line: 42,
            message: "`.unwrap()` with \"quotes\"\nand a newline".into(),
            waive_reason: None,
        }],
        waived: vec![Finding {
            rule: "identity-taint",
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
fn json_lists_all_six_rules_with_severities() {
    let json = render_json(&Report::default());
    for rule in [
        "detail-confinement",
        "identity-taint",
        "dom-free-read-path",
        "layering",
    ] {
        assert!(
            json.contains(&format!("\"id\":\"{rule}\"")),
            "missing {rule}"
        );
    }
    assert_eq!(json.matches("\"id\":").count(), 4);
    assert!(json.contains("\"id\":\"detail-confinement\",\"severity\":\"error\""));
    assert!(json.contains("\"id\":\"identity-taint\",\"severity\":\"error\""));
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

/// The four rule entries as the `escape` + `format!` writer this crate
/// had before `JsonBuf` rendered them (PR 22's binary, run on this
/// report; its seven retired rules' entries taken out).
const RULES_BY_THE_OLD_WRITER: [&str; 4] = [
    r#"{"id":"detail-confinement","severity":"error","description":"detail-payload types must not appear in controller/bus/registry/health non-test code"}"#,
    r#"{"id":"identity-taint","severity":"error","description":"identity-derived values (fields, decrypted notifications, the one-visit detail lookup) must not reach span attrs, metric names, bus publishes, or ops responses"}"#,
    r#"{"id":"dom-free-read-path","severity":"error","description":"gateway/audit/controller/storage production code decodes stored records from tokens (`css_xml::Stored`) or, for the gateway's detail records, directly (`css_event::StoredDetail`), never via `css_xml::parse`"}"#,
    r#"{"id":"layering","severity":"error","description":"crate dependencies must point strictly down the layer stack; compat shims depend on nothing"}"#,
];

/// `JsonBuf` writes what the `format!` writer wrote, byte for byte:
/// every escape class (quote, backslash, `\n` `\r` `\t`, a `\u00XX`
/// control, non-ASCII passed through), a waived finding with a reason,
/// the timing object — and, for an empty report, empty arrays.
#[test]
fn json_is_byte_identical_to_the_format_writer() {
    let rules = RULES_BY_THE_OLD_WRITER.join(",");
    let report = Report {
        root: "/tmp/w \"s\"\\x".into(),
        findings: vec![Finding {
            rule: "dom-free-read-path",
            severity: Severity::Error,
            crate_name: "css-storage".into(),
            file: "crates/storage/src/kv.rs".into(),
            line: 42,
            message: "tab\there, \"quotes\", back\\slash,\nnewline, \r return, \u{1} control, caf\u{e9} \u{2192}"
                .into(),
            waive_reason: None,
        }],
        waived: vec![Finding {
            rule: "identity-taint",
            severity: Severity::Warn,
            crate_name: "css-gateway".into(),
            file: "crates/gateway/src/gateway.rs".into(),
            line: 0,
            message: "release without audit".into(),
            waive_reason: Some("demo \"path\"\nonly".into()),
        }],
        files_scanned: 2,
        sizes: Vec::new(),
        timing: Some(Timing {
            wall_ms: 123,
            files_reused: 0,
            files_parsed: 42,
        }),
    };
    let expected = [
        r#"{"version":2,"root":"/tmp/w \"s\"\\x","rules":["#,
        &rules,
        r#"],"findings":[{"rule":"dom-free-read-path","severity":"error","crate":"css-storage","file":"crates/storage/src/kv.rs","line":42,"message":"tab\there, \"quotes\", back\\slash,\nnewline, \r return, \u0001 control, café →"}],"waived":[{"rule":"identity-taint","severity":"warn","crate":"css-gateway","file":"crates/gateway/src/gateway.rs","line":0,"message":"release without audit","reason":"demo \"path\"\nonly"}],"summary":{"errors":1,"warnings":0,"waived":1,"files_scanned":2},"timing":{"wall_ms":123,"files_reused":0,"files_parsed":42}}"#,
        "\n",
    ]
    .concat();
    assert_eq!(render_json(&report), expected);

    let expected_empty = [
        r#"{"version":2,"root":"","rules":["#,
        &rules,
        r#"],"findings":[],"waived":[],"summary":{"errors":0,"warnings":0,"waived":0,"files_scanned":0}}"#,
        "\n",
    ]
    .concat();
    assert_eq!(render_json(&Report::default()), expected_empty);
}
