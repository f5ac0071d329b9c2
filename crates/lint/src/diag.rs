//! Diagnostics: the finding every rule reports.

use std::fmt;

/// One rule violation at one source location. Every finding is an
/// error: it fails `css-lint` (exit 1), and no comment suppresses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `identity-taint`.
    pub rule: &'static str,
    /// Workspace crate the finding is in.
    pub crate_name: String,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line; 0 for manifest-level findings.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error: [{}] {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_rule_and_location() {
        let finding = Finding {
            rule: "dom-free-read-path",
            crate_name: "css-bus".into(),
            file: "crates/bus/src/broker.rs".into(),
            line: 42,
            message: "`css_xml::parse` in production code".into(),
        };
        assert_eq!(
            finding.to_string(),
            "error: [dom-free-read-path] crates/bus/src/broker.rs:42: \
             `css_xml::parse` in production code"
        );
    }
}
