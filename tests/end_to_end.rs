//! Cross-crate integration tests over the umbrella crate: the full
//! Trentino scenario, driven through the public API only.

use css::audit::{AuditAction, AuditQuery};
use css::prelude::*;
use css::sim::{run_pathway, run_workload, Scenario, ScenarioConfig, WorkloadConfig};

fn small_scenario() -> Scenario {
    Scenario::build(ScenarioConfig {
        persons: 12,
        family_doctors: 2,
        seed: 21,
    })
    .unwrap()
}

#[test]
fn region_wide_workload_respects_privacy_invariants() {
    let scenario = small_scenario();
    let report = run_workload(
        &scenario,
        WorkloadConfig {
            events: 150,
            detail_request_prob: 0.5,
            wrong_purpose_prob: 0.1,
            seed: 5,
        },
    );
    assert_eq!(report.published, 150);
    assert!(report.detail_permits > 0);
    assert!(report.detail_denies > 0, "wrong-purpose requests must deny");
    // Sensitive bytes released must be strictly less than total bytes:
    // identifying/administrative fields dominate what policies allow.
    assert!(report.sensitive_released_bytes < report.released_bytes);
    scenario.platform.verify_audit().unwrap();
    // The audit knows exactly as many detail requests as we made.
    let audit = scenario.platform.audit_report(&AuditQuery::new()).unwrap();
    assert_eq!(
        audit.action_count(AuditAction::DetailRequest),
        report.detail_permits + report.detail_denies
    );
}

#[test]
fn cross_institution_profile_composition() {
    let scenario = small_scenario();
    let person = scenario.persons[3].clone();
    run_pathway(&scenario, &person, 3, 17).unwrap();

    // Welfare composes the social profile from 4 different producers.
    let welfare = scenario.platform.consumer(scenario.orgs.welfare).unwrap();
    let profile = welfare.inquire_by_person(person.id).unwrap();
    let producers: std::collections::HashSet<ActorId> =
        profile.iter().map(|n| n.producer).collect();
    assert!(
        producers.len() >= 3,
        "profile should span hospital, telecare, municipality: {producers:?}"
    );

    // Every detail welfare obtains is privacy safe and PsychNotes /
    // Diagnosis never leak to it.
    for n in &profile {
        match welfare.request_details(n, Purpose::SocialAssistance) {
            Ok(response) => {
                assert!(response.is_privacy_safe());
                for hidden in ["Diagnosis", "PsychNotes"] {
                    if let Some(v) = response.details.get(hidden) {
                        assert!(v.is_empty(), "{hidden} leaked to welfare");
                    }
                }
            }
            Err(CssError::AccessDenied(_)) => {} // some classes not granted
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

#[test]
fn governance_never_sees_identifying_clinical_data() {
    let scenario = small_scenario();
    run_workload(
        &scenario,
        WorkloadConfig {
            events: 100,
            detail_request_prob: 0.0,
            wrong_purpose_prob: 0.0,
            seed: 9,
        },
    );
    let governance = scenario
        .platform
        .consumer(scenario.orgs.governance)
        .unwrap();
    // Governance can inquire autonomy assessments...
    let assessments = governance
        .inquire_by_type(&EventTypeId::v1("autonomy-assessment"))
        .unwrap();
    for n in assessments.iter().take(5) {
        let response = governance
            .request_details(n, Purpose::StatisticalAnalysis)
            .unwrap();
        // ...but only the statistical fields.
        let exposed: Vec<&str> = response.details.non_empty_fields().collect();
        for field in exposed {
            assert!(
                ["Age", "Sex", "AutonomyScore"].contains(&field),
                "governance saw unexpected field {field}"
            );
        }
    }
    // Blood tests are entirely invisible to it.
    let blood = governance
        .inquire_by_type(&EventTypeId::v1("blood-test"))
        .unwrap();
    assert!(blood.is_empty());
}

#[test]
fn detail_requests_work_months_after_notification() {
    let scenario = small_scenario();
    let person = scenario.persons[0].clone();
    run_pathway(&scenario, &person, 1, 3).unwrap();
    let doctor = scenario
        .platform
        .consumer(scenario.orgs.family_doctors[0])
        .unwrap();
    let seen = doctor.inquire_by_person(person.id).unwrap();
    let discharge = seen
        .iter()
        .find(|n| n.event_type.code() == "hospital-discharge")
        .unwrap()
        .clone();
    // Six months pass.
    scenario.clock.advance(Duration::days(180));
    let response = doctor
        .request_details(&discharge, Purpose::HealthcareTreatment)
        .unwrap();
    assert!(!response.details.get("Diagnosis").unwrap().is_empty());
}

#[test]
fn audit_answers_the_guarantors_questions() {
    let scenario = small_scenario();
    run_workload(
        &scenario,
        WorkloadConfig {
            events: 80,
            detail_request_prob: 0.4,
            wrong_purpose_prob: 0.2,
            seed: 31,
        },
    );
    let platform = &scenario.platform;

    // Q1: who accessed person X's data, for which purposes?
    let person = scenario.persons[0].id;
    let accesses = platform
        .audit_query(
            &AuditQuery::new()
                .person(person)
                .action(AuditAction::DetailRequest),
        )
        .unwrap();
    for a in &accesses {
        assert!(a.purpose.is_some(), "every detail request states a purpose");
    }

    // Q2: what is the platform-wide denial profile?
    let report = platform
        .audit_report(&AuditQuery::new().denied_only())
        .unwrap();
    assert!(report.deny_reasons.contains_key("purpose not allowed"));

    // Q3: is the log intact?
    platform.verify_audit().unwrap();
}

#[test]
fn bus_delivery_matches_policy_grants() {
    let scenario = small_scenario();
    // Doctors never receive autonomy assessments (no policy), even when
    // hundreds of them are published.
    let doctor = scenario
        .platform
        .consumer(scenario.orgs.family_doctors[0])
        .unwrap();
    assert!(doctor
        .subscribe(&EventTypeId::v1("autonomy-assessment"))
        .is_err());
    run_workload(
        &scenario,
        WorkloadConfig {
            events: 60,
            detail_request_prob: 0.0,
            wrong_purpose_prob: 0.0,
            seed: 77,
        },
    );
    // And their inquiry into that class yields nothing.
    let hidden = doctor
        .inquire_by_type(&EventTypeId::v1("autonomy-assessment"))
        .unwrap();
    assert!(hidden.is_empty());
}
