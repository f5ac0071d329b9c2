//! Component health statuses and the rolled-up report.

use std::fmt;

use css_telemetry::JsonBuf;

/// One component's condition at probe time.
///
/// `Degraded` means the component still serves requests but an operator
/// should look (a threshold crossed, a cache running cold); `Unhealthy`
/// means the component cannot currently do its job (a failed storage
/// round-trip). Both carry a machine-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthStatus {
    /// Operating normally.
    Healthy,
    /// Serving, but outside normal operating parameters.
    Degraded {
        /// What crossed the line, with the numbers that crossed it.
        reason: String,
    },
    /// Not currently able to serve.
    Unhealthy {
        /// What failed, with the observed error.
        reason: String,
    },
}

impl HealthStatus {
    /// Degraded with a reason.
    pub fn degraded(reason: impl Into<String>) -> Self {
        HealthStatus::Degraded {
            reason: reason.into(),
        }
    }

    /// Unhealthy with a reason.
    pub fn unhealthy(reason: impl Into<String>) -> Self {
        HealthStatus::Unhealthy {
            reason: reason.into(),
        }
    }

    /// Severity rank for rollups: higher is worse.
    fn rank(&self) -> u8 {
        match self {
            HealthStatus::Healthy => 0,
            HealthStatus::Degraded { .. } => 1,
            HealthStatus::Unhealthy { .. } => 2,
        }
    }

    /// Wire code: `healthy` / `degraded` / `unhealthy`.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded { .. } => "degraded",
            HealthStatus::Unhealthy { .. } => "unhealthy",
        }
    }

    /// The carried reason, if any.
    pub(crate) fn reason(&self) -> Option<&str> {
        match self {
            HealthStatus::Healthy => None,
            HealthStatus::Degraded { reason } | HealthStatus::Unhealthy { reason } => Some(reason),
        }
    }
}

impl fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason() {
            None => f.write_str(self.code()),
            Some(reason) => write!(f, "{}: {reason}", self.code()),
        }
    }
}

/// One named component's probe result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ComponentHealth {
    /// Component name (`storage`, `bus`, `policy`, `gateway`, `trace`).
    pub component: String,
    /// The probe's verdict.
    pub status: HealthStatus,
}

/// Every component's status at one instant, plus the rollup.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct HealthReport {
    /// Per-component results, in registration order.
    pub components: Vec<ComponentHealth>,
}

impl HealthReport {
    /// The worst status across all components (`Healthy` when empty:
    /// an ops plane with no probes has nothing to report against).
    pub(crate) fn rollup(&self) -> HealthStatus {
        self.components
            .iter()
            .max_by_key(|c| c.status.rank())
            .map(|c| c.status.clone())
            .unwrap_or(HealthStatus::Healthy)
    }

    /// Whether the platform should answer 200 on `/health`: anything
    /// short of `Unhealthy` still serves.
    pub(crate) fn is_serving(&self) -> bool {
        !matches!(self.rollup(), HealthStatus::Unhealthy { .. })
    }

    /// The JSON document served on `GET /health`.
    pub(crate) fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_object();
        j.key("status").string(self.rollup().code());
        j.key("components").begin_array();
        for c in &self.components {
            j.begin_object();
            j.key("component").string(&c.component);
            j.key("status").string(c.status.code());
            if let Some(reason) = c.status.reason() {
                j.key("reason").string(reason);
            }
            j.end_object();
        }
        j.end_array();
        j.end_object();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(statuses: &[(&str, HealthStatus)]) -> HealthReport {
        HealthReport {
            components: statuses
                .iter()
                .map(|(n, s)| ComponentHealth {
                    component: n.to_string(),
                    status: s.clone(),
                })
                .collect(),
        }
    }

    #[test]
    fn rollup_takes_the_worst_status() {
        let r = report(&[
            ("storage", HealthStatus::Healthy),
            ("bus", HealthStatus::degraded("queue depth 2048 > 1024")),
            ("policy", HealthStatus::Healthy),
        ]);
        assert_eq!(r.rollup().code(), "degraded");
        assert!(r.is_serving());

        let r = report(&[
            ("bus", HealthStatus::degraded("x")),
            ("storage", HealthStatus::unhealthy("probe read failed")),
        ]);
        assert_eq!(r.rollup().code(), "unhealthy");
        assert!(!r.is_serving());
    }

    #[test]
    fn empty_report_is_healthy() {
        let r = HealthReport::default();
        assert_eq!(r.rollup(), HealthStatus::Healthy);
        assert!(r.is_serving());
        assert_eq!(r.to_json(), r#"{"status":"healthy","components":[]}"#);
    }

    #[test]
    fn json_carries_machine_readable_reasons() {
        let r = report(&[
            ("storage", HealthStatus::unhealthy("append: disk full")),
            ("trace", HealthStatus::Healthy),
        ]);
        assert_eq!(
            r.to_json(),
            r#"{"status":"unhealthy","components":[{"component":"storage","status":"unhealthy","reason":"append: disk full"},{"component":"trace","status":"healthy"}]}"#
        );
    }

    #[test]
    fn display_shows_code_and_reason() {
        assert_eq!(HealthStatus::Healthy.to_string(), "healthy");
        assert_eq!(HealthStatus::degraded("lag").to_string(), "degraded: lag");
    }
}
