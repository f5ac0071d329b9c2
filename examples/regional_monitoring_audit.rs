//! Regional process monitoring and audit, the governing body's view.
//!
//! Run with: `cargo run --example regional_monitoring_audit`
//!
//! Drives a randomized region-wide workload, then shows the two
//! accountability faces of the platform: the governance computing
//! statistics from purpose-limited detail requests (only
//! age/sex/autonomy-score, per the paper's example policy), and an
//! audit inquiry answering "who accessed this citizen's data and why?".

use css::audit::{AuditAction, AuditQuery};
use css::prelude::*;
use css::sim::{run_workload, Scenario, ScenarioConfig, WorkloadConfig};

fn main() -> CssResult<()> {
    let scenario = Scenario::build(ScenarioConfig {
        persons: 40,
        family_doctors: 3,
        seed: 7,
    })?;

    // A month of regional activity.
    let report = run_workload(
        &scenario,
        WorkloadConfig {
            events: 500,
            detail_request_prob: 0.35,
            wrong_purpose_prob: 0.05,
            seed: 99,
        },
    );
    println!("regional workload:");
    println!("  events published        : {}", report.published);
    println!(
        "  notifications delivered : {}",
        report.notifications_delivered
    );
    println!(
        "  detail requests permitted / denied: {} / {}",
        report.detail_permits, report.detail_denies
    );
    println!(
        "  bytes released (all / sensitive) : {} / {}",
        report.released_bytes, report.sensitive_released_bytes
    );

    // Governance statistics: autonomy scores across the population,
    // via purpose-limited detail requests.
    let governance = scenario.platform.consumer(scenario.orgs.governance)?;
    let assessments = governance.inquire_by_type(&EventTypeId::v1("autonomy-assessment"))?;
    let mut scores = Vec::new();
    for n in &assessments {
        let response = governance.request_details(n, Purpose::StatisticalAnalysis)?;
        // The policy limits governance to Age, Sex, AutonomyScore; the
        // psych notes are blanked.
        assert!(response.details.get("PsychNotes").unwrap().is_empty());
        if let Some(FieldValue::Integer(score)) = response.details.get("AutonomyScore") {
            scores.push(*score);
        }
    }
    if !scores.is_empty() {
        let avg = scores.iter().sum::<i64>() as f64 / scores.len() as f64;
        println!(
            "\ngovernance statistics: {} assessments, mean autonomy score {avg:.2}",
            scores.len()
        );
    }

    // Audit inquiry: a citizen (or the privacy guarantor) asks who
    // touched this person's data.
    let person = scenario.persons[0].id;
    let trail = scenario.platform.audit_query(
        &AuditQuery::new()
            .person(person)
            .action(AuditAction::DetailRequest),
    )?;
    println!("\ndetail requests about person {person}:");
    for record in trail.iter().take(10) {
        println!(
            "  {} actor={} purpose={:?} outcome={:?}",
            record.at,
            record.actor,
            record.purpose.as_ref().map(|p| p.code()),
            record.outcome
        );
    }

    // Denial statistics for the privacy guarantor.
    let denials = scenario
        .platform
        .audit_report(&AuditQuery::new().denied_only())?;
    println!("\ndenials by reason:");
    for (reason, count) in &denials.deny_reasons {
        println!("  {reason:30} {count}");
    }

    scenario.platform.verify_audit()?;
    println!(
        "\naudit hash chain verified over {} records",
        scenario.platform.audit_report(&AuditQuery::new())?.total
    );
    Ok(())
}
