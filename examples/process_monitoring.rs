//! Multi-institution process monitoring — the project's raison d'être.
//!
//! Run with: `cargo run --example process_monitoring`
//!
//! The province monitors the elderly-care pathway (discharge →
//! assessment within 7 days → home care within 14) across the whole
//! region. The monitor consumes **only notification messages** — no
//! sensitive payloads — which is exactly what the paper's two-phase
//! design makes possible: process visibility without data disclosure.

use css::prelude::*;
use css::sim::monitor::{InstanceStatus, ProcessDefinition, ProcessMonitor};
use css::sim::{run_pathway, Scenario, ScenarioConfig};

fn main() -> CssResult<()> {
    let scenario = Scenario::build(ScenarioConfig {
        persons: 8,
        family_doctors: 1,
        seed: 33,
    })?;

    // The elderly-care office (authorized for all the social events,
    // including its department's own autonomy assessments) acts as the
    // monitoring node.
    let welfare = scenario.platform.consumer(scenario.orgs.elderly_office)?;
    let mut monitor = ProcessMonitor::new();
    monitor.register(ProcessDefinition::elderly_care());

    // Run pathways for several citizens (with different shapes).
    for (i, person) in scenario.persons.iter().take(6).cloned().enumerate() {
        run_pathway(&scenario, &person, 1 + i % 3, 100 + i as u64)?;
    }

    // The monitor feeds on the notification stream from the index.
    for person in scenario.persons.iter().take(6) {
        for n in welfare.inquire_by_person(person.id)? {
            monitor.feed(&n);
        }
    }
    monitor.check_deadlines(scenario.platform.clock().now());

    println!("tracked care pathways:");
    for inst in monitor.instances() {
        println!(
            "  person {:6}  steps={}  span={}d  status={:?}",
            inst.person.to_string(),
            inst.history.len(),
            inst.span().as_millis() / 86_400_000,
            match &inst.status {
                InstanceStatus::Running => "running".to_string(),
                InstanceStatus::Completed => "completed".to_string(),
                InstanceStatus::Violated(v) => format!("VIOLATED: {v:?}"),
            }
        );
    }

    let kpis = monitor.kpis();
    println!("\nregional KPIs:");
    println!("  pathways tracked    : {}", kpis.total);
    println!("  completed           : {}", kpis.completed);
    println!("  deadline violations : {}", kpis.deadline_violations);
    println!(
        "  mean setup time     : {} days",
        kpis.mean_completion.as_millis() / 86_400_000
    );
    println!(
        "  completion rate     : {:.0}%",
        kpis.completion_rate() * 100.0
    );
    println!(
        "  events outside known processes: {}",
        kpis.unmatched_events
    );
    Ok(())
}
