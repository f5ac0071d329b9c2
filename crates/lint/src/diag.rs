//! Diagnostics: severities and findings.

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; never fails the build.
    Warn,
    /// A privacy-invariant violation; fails `css-lint` (exit 1).
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `identity-taint`.
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace crate the finding is in (empty for workspace-level
    /// findings such as layering).
    pub crate_name: String,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line; 0 for manifest-level findings.
    pub line: u32,
    pub message: String,
    /// `Some(reason)` when an inline waiver suppressed this finding.
    pub waive_reason: Option<String>,
}

impl Finding {
    pub fn is_waived(&self) -> bool {
        self.waive_reason.is_some()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}:{}: {}",
            self.severity, self.rule, self.file, self.line, self.message
        )?;
        if let Some(reason) = &self.waive_reason {
            write!(f, " (waived: {reason})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_rule_location_and_waiver() {
        let mut finding = Finding {
            rule: "dom-free-read-path",
            severity: Severity::Error,
            crate_name: "css-bus".into(),
            file: "crates/bus/src/broker.rs".into(),
            line: 42,
            message: "`css_xml::parse` in production code".into(),
            waive_reason: None,
        };
        let text = finding.to_string();
        assert!(text.starts_with("error: [dom-free-read-path]"));
        assert!(text.contains("broker.rs:42"));
        finding.waive_reason = Some("checked above".into());
        assert!(finding.to_string().contains("waived: checked above"));
    }

    #[test]
    fn error_outranks_warn() {
        assert!(Severity::Error > Severity::Warn);
    }
}
