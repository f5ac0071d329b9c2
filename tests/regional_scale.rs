//! Region-scale stress test. The default test run exercises a trimmed
//! version; the full-size sweep is `#[ignore]`d and run explicitly with
//! `cargo test --test regional_scale -- --ignored`.

use css::audit::AuditQuery;
use css::sim::{run_workload, Scenario, ScenarioConfig, WorkloadConfig};

fn run(persons: usize, events: usize) {
    let scenario = Scenario::build(ScenarioConfig {
        persons,
        family_doctors: 5,
        seed: 1,
    })
    .unwrap();
    let report = run_workload(
        &scenario,
        WorkloadConfig {
            events,
            detail_request_prob: 0.3,
            wrong_purpose_prob: 0.05,
            seed: 2,
        },
    );
    assert_eq!(report.published, events);
    assert!(
        report.notifications_delivered >= events,
        "every event has >=1 subscriber"
    );
    // Accounting closes: audit knows every publish, delivery and request.
    let audit = scenario.platform.audit_report(&AuditQuery::new()).unwrap();
    assert_eq!(audit.action_count(css::audit::AuditAction::Publish), events);
    assert_eq!(
        audit.action_count(css::audit::AuditAction::Delivery),
        report.notifications_delivered
    );
    assert_eq!(
        audit.action_count(css::audit::AuditAction::DetailRequest),
        report.detail_permits + report.detail_denies
    );
    scenario.platform.verify_audit().unwrap();
}

#[test]
fn medium_region() {
    run(100, 500);
}

#[test]
#[ignore = "full-scale run; invoke with --ignored"]
fn full_region() {
    run(1_000, 5_000);
}
