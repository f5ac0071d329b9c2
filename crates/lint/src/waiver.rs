//! Inline waivers: `// css-lint: allow(<rule>): <reason>`.
//!
//! A waiver suppresses findings of the named rule on the waiver's own
//! line (trailing comment) or on the line directly below it (a comment
//! on its own line above the offending statement). The reason is
//! mandatory: an allow without a stated justification is itself
//! reported, so every suppression stays reviewable — the same
//! traceability discipline the audit log applies to data releases.

use crate::diag::{Finding, Severity};
use crate::scanner::LineComment;

/// A parsed waiver comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    pub rule: String,
    pub reason: String,
    /// Line the waiver comment is on (1-based).
    pub line: u32,
}

impl Waiver {
    /// Whether this waiver covers a finding of `rule` on `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && (self.line == line || self.line + 1 == line)
    }
}

/// Parse the waivers out of a file's line comments. Malformed waivers
/// (no rule, or no reason) come back as findings so they cannot silently
/// suppress anything.
pub fn parse_waivers(comments: &[LineComment], file: &str) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for comment in comments {
        // Strip leading slashes (handles `//`, `///`, `//!`) and space.
        let body = comment
            .text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim();
        let Some(rest) = body.strip_prefix("css-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let malformed = |msg: &str| Finding {
            rule: "waiver-syntax",
            severity: Severity::Error,
            crate_name: String::new(),
            file: file.to_string(),
            line: comment.line,
            message: format!("{msg}: `{}`", comment.text.trim()),
            waive_reason: None,
        };
        let Some(rest) = rest.strip_prefix("allow(") else {
            findings.push(malformed("waiver must be `allow(<rule>): <reason>`"));
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(malformed("unclosed rule name in waiver"));
            continue;
        };
        let rule = rest[..close].trim();
        let after = rest[close + 1..].trim();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if rule.is_empty() {
            findings.push(malformed("waiver names no rule"));
            continue;
        }
        if reason.is_empty() {
            findings.push(malformed("waiver gives no reason"));
            continue;
        }
        waivers.push(Waiver {
            rule: rule.to_string(),
            reason: reason.to_string(),
            line: comment.line,
        });
    }
    (waivers, findings)
}

/// Mark findings covered by a waiver, moving the waiver's reason into
/// the finding. Returns the findings with `waive_reason` filled in where
/// applicable.
pub fn apply_waivers(mut findings: Vec<Finding>, waivers: &[Waiver]) -> Vec<Finding> {
    for finding in &mut findings {
        if finding.waive_reason.is_some() {
            continue;
        }
        if let Some(w) = waivers
            .iter()
            .find(|w| w.covers(finding.rule, finding.line))
        {
            finding.waive_reason = Some(w.reason.clone());
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn waivers_of(src: &str) -> (Vec<Waiver>, Vec<Finding>) {
        let s = scan(src);
        parse_waivers(&s.comments, "f.rs")
    }

    #[test]
    fn parses_well_formed_waiver() {
        let (ws, bad) = waivers_of(
            "// css-lint: allow(dom-free-read-path): length checked above\ncss_xml::parse(x);",
        );
        assert!(bad.is_empty());
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, "dom-free-read-path");
        assert_eq!(ws[0].reason, "length checked above");
        assert!(ws[0].covers("dom-free-read-path", 2));
        assert!(ws[0].covers("dom-free-read-path", 1));
        assert!(!ws[0].covers("dom-free-read-path", 3));
        assert!(!ws[0].covers("layering", 2));
    }

    #[test]
    fn reason_is_mandatory() {
        let (ws, bad) = waivers_of("// css-lint: allow(layering)\n");
        assert!(ws.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "waiver-syntax");
        assert!(bad[0].message.contains("no reason"));
    }

    #[test]
    fn malformed_waiver_is_reported() {
        let (ws, bad) = waivers_of("// css-lint: suppress everything please\n");
        assert!(ws.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn unrelated_comments_ignored() {
        let (ws, bad) = waivers_of("// just a comment about css-lint the tool\n");
        assert!(ws.is_empty());
        assert!(bad.is_empty());
    }

    #[test]
    fn waiver_moves_reason_into_finding() {
        let finding = Finding {
            rule: "dom-free-read-path",
            severity: Severity::Error,
            crate_name: "c".into(),
            file: "f.rs".into(),
            line: 2,
            message: "m".into(),
            waive_reason: None,
        };
        let (ws, _) =
            waivers_of("// css-lint: allow(dom-free-read-path): fine here\ncss_xml::parse(x);");
        let out = apply_waivers(vec![finding], &ws);
        assert_eq!(out[0].waive_reason.as_deref(), Some("fine here"));
    }
}
