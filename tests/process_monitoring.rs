//! Integration of the process monitor with the platform: monitoring
//! works on notifications alone, and the monitor's view matches what the
//! pathway generator actually produced.

use css::prelude::*;
use css::sim::monitor::{InstanceStatus, ProcessDefinition, ProcessMonitor, Step};
use css::sim::{run_pathway, Scenario, ScenarioConfig};

#[test]
fn monitor_tracks_generated_pathways() {
    let scenario = Scenario::build(ScenarioConfig {
        persons: 6,
        family_doctors: 1,
        seed: 15,
    })
    .unwrap();
    let office = scenario
        .platform
        .consumer(scenario.orgs.elderly_office)
        .unwrap();
    let mut monitor = ProcessMonitor::new();
    monitor.register(ProcessDefinition::elderly_care());

    for person in scenario.persons.iter().take(4) {
        run_pathway(&scenario, &person.clone(), 2, person.id.value()).unwrap();
    }
    for person in scenario.persons.iter().take(4) {
        for n in office.inquire_by_person(person.id).unwrap() {
            monitor.feed(&n);
        }
    }
    let kpis = monitor.kpis();
    assert_eq!(kpis.total, 4);
    assert_eq!(kpis.completed, 4, "generated pathways respect deadlines");
    assert_eq!(kpis.deadline_violations, 0);
}

#[test]
fn monitor_never_touches_sensitive_data() {
    // Structural assertion of the paper's claim: the monitor's entire
    // input is notification messages, which carry identifying fields
    // only. We verify the notifications fed to it expose no detail
    // fields whatsoever.
    let scenario = Scenario::build(ScenarioConfig {
        persons: 2,
        family_doctors: 1,
        seed: 3,
    })
    .unwrap();
    let person = scenario.persons[0].clone();
    run_pathway(&scenario, &person, 1, 5).unwrap();
    let office = scenario
        .platform
        .consumer(scenario.orgs.elderly_office)
        .unwrap();
    for n in office.inquire_by_person(person.id).unwrap() {
        let xml = css::xml::to_string(&n.to_xml());
        // No clinical field names appear anywhere in the wire form.
        for sensitive in ["Diagnosis", "PsychNotes", "CareNotes", "AutonomyScore"] {
            assert!(
                !xml.contains(sensitive),
                "notification leaked a detail field name: {sensitive}"
            );
        }
    }
}

#[test]
fn deadline_violation_detected_region_wide() {
    // A citizen discharged but never assessed shows up as a violation
    // after the deadline, purely from the notification stream.
    let scenario = Scenario::build(ScenarioConfig {
        persons: 2,
        family_doctors: 1,
        seed: 9,
    })
    .unwrap();
    let person = scenario.persons[0].clone();
    let hospital = scenario.platform.producer(scenario.orgs.hospital).unwrap();
    let details = css::sim::synth_details(
        &EventTypeId::v1("hospital-discharge"),
        person.id,
        &mut rand::SeedableRng::seed_from_u64(1),
    );
    hospital
        .publish(
            person.clone(),
            "discharge",
            details,
            scenario.platform.clock().now(),
        )
        .unwrap();

    let office = scenario
        .platform
        .consumer(scenario.orgs.elderly_office)
        .unwrap();
    let mut monitor = ProcessMonitor::new();
    monitor.register(ProcessDefinition::elderly_care());
    for n in office.inquire_by_person(person.id).unwrap() {
        monitor.feed(&n);
    }
    // 10 silent days later...
    scenario.clock.advance(Duration::days(10));
    let flagged = monitor.check_deadlines(scenario.platform.clock().now());
    assert_eq!(flagged, 1);
    let inst = monitor.instance("elderly-care", person.id).unwrap();
    assert!(matches!(inst.status, InstanceStatus::Violated(_)));
}

#[test]
fn custom_process_definitions_compose() {
    // A second, unrelated process tracked concurrently over the same
    // stream.
    let mut monitor = ProcessMonitor::new();
    monitor.register(ProcessDefinition::elderly_care());
    monitor.register(
        ProcessDefinition::new("lab-follow-up", "Lab follow-up")
            .step(Step::required("test", EventTypeId::v1("blood-test")))
            .step(
                Step::required("report", EventTypeId::v1("radiology-report"))
                    .within(Duration::days(30)),
            ),
    );
    let make = |id: u64, ty: &str, at: u64| css::event::NotificationMessage {
        global_id: GlobalEventId(id),
        event_type: EventTypeId::v1(ty),
        person: PersonIdentity {
            id: PersonId(1),
            fiscal_code: "x".into(),
            name: "n".into(),
            surname: "s".into(),
        },
        description: String::new(),
        occurred_at: Timestamp(at),
        producer: ActorId(1),
    };
    monitor.feed(&make(1, "hospital-discharge", 0));
    monitor.feed(&make(2, "blood-test", 1));
    monitor.feed(&make(3, "radiology-report", 2));
    let kpis = monitor.kpis();
    assert_eq!(kpis.total, 2);
    assert_eq!(kpis.completed, 1); // lab follow-up done
    assert_eq!(kpis.running, 1); // elderly care still going
}
