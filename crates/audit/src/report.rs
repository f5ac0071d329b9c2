//! Aggregate audit reports.
//!
//! The governing body in the scenario uses platform data "to assess the
//! efficiency of the services being delivered"; the privacy guarantor
//! wants denial rates and purpose breakdowns. This module computes
//! those aggregates from a record stream.

use std::collections::BTreeMap;

use crate::record::{AuditAction, AuditRecord};

/// Aggregate view over a set of audit records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Total records considered.
    pub total: usize,
    /// Denied records.
    pub denied: usize,
    /// Records per action code.
    pub by_action: BTreeMap<&'static str, usize>,
    /// Records per purpose code (records with a purpose only).
    pub by_purpose: BTreeMap<String, usize>,
    /// Denials per deny reason.
    pub deny_reasons: BTreeMap<String, usize>,
    /// Records per acting party (rendered actor id).
    pub by_actor: BTreeMap<String, usize>,
}

impl AuditReport {
    /// Build a report from a record iterator.
    pub fn from_records<'a>(records: impl Iterator<Item = &'a AuditRecord>) -> Self {
        let mut report = AuditReport::default();
        for r in records {
            report.total += 1;
            *report.by_action.entry(r.action.code()).or_default() += 1;
            *report.by_actor.entry(r.actor.to_string()).or_default() += 1;
            if let Some(p) = &r.purpose {
                *report.by_purpose.entry(p.code().to_string()).or_default() += 1;
            }
            if let crate::record::AuditOutcome::Denied(reason) = &r.outcome {
                report.denied += 1;
                *report.deny_reasons.entry(reason.clone()).or_default() += 1;
            }
        }
        report
    }

    /// Count for one action.
    pub fn action_count(&self, action: AuditAction) -> usize {
        self.by_action.get(action.code()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_types::{ActorId, Purpose, Timestamp};

    #[test]
    fn aggregates_actions_purposes_denials() {
        let records = [
            AuditRecord::new(Timestamp(0), ActorId(1), AuditAction::Publish),
            AuditRecord::new(Timestamp(1), ActorId(2), AuditAction::DetailRequest)
                .purpose(Purpose::HealthcareTreatment),
            AuditRecord::new(Timestamp(2), ActorId(2), AuditAction::DetailRequest)
                .purpose(Purpose::HealthcareTreatment)
                .denied("purpose not allowed"),
            AuditRecord::new(Timestamp(3), ActorId(3), AuditAction::DetailRequest)
                .purpose(Purpose::StatisticalAnalysis)
                .denied("no matching policy"),
        ];
        let report = AuditReport::from_records(records.iter());
        assert_eq!(report.total, 4);
        assert_eq!(report.denied, 2);
        assert_eq!(report.action_count(AuditAction::DetailRequest), 3);
        assert_eq!(report.action_count(AuditAction::Publish), 1);
        assert_eq!(report.by_purpose["healthcare-treatment"], 2);
        assert_eq!(report.deny_reasons["no matching policy"], 1);
        assert_eq!(report.by_actor["act-00000002"], 2);
        assert_eq!(report.by_actor.len(), 3);
    }

    #[test]
    fn empty_report() {
        let report = AuditReport::from_records(std::iter::empty());
        assert_eq!(report.total, 0);
        assert_eq!(report.action_count(AuditAction::Publish), 0);
    }
}
