//! Seeded random workloads over the scenario.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use css_core::{ConsumerHandle, MemoryProvider, Subscription};
use css_event::{EventDetails, FieldValue};
use css_types::{CssError, Duration, EventTypeId, PersonId, Purpose};

use crate::scenario::{types, Scenario};

/// Workload knobs.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of events to publish.
    pub events: usize,
    /// Probability that a notified consumer requests the details.
    pub detail_request_prob: f64,
    /// Probability that a detail request states a purpose outside the
    /// consumer's grants (modelling mistaken or over-reaching requests;
    /// these exercise the deny path and show up in audit reports).
    pub wrong_purpose_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            events: 200,
            detail_request_prob: 0.3,
            wrong_purpose_prob: 0.05,
            seed: 99,
        }
    }
}

/// What happened during a workload run.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadReport {
    /// Events successfully published.
    pub published: usize,
    /// Notification deliveries across all subscriptions.
    pub notifications_delivered: usize,
    /// Detail requests that were permitted.
    pub detail_permits: usize,
    /// Detail requests that were denied.
    pub detail_denies: usize,
    /// Bytes of field values released through permitted detail
    /// responses.
    pub released_bytes: usize,
    /// Bytes of *sensitive* field values released (fields the schema
    /// marks sensitive never leave unless a policy allows them; this
    /// counts what policies did allow).
    pub sensitive_released_bytes: usize,
}

/// Generate schema-valid synthetic details for a scenario event type.
pub fn synth_details(ty: &EventTypeId, person: PersonId, rng: &mut StdRng) -> EventDetails {
    let pid = FieldValue::Integer(person.value() as i64);
    let when = FieldValue::DateTime(css_types::Timestamp(
        1_262_304_000_000 + rng.gen_range(0..31_536_000_000u64),
    ));
    match ty.code() {
        "blood-test" => EventDetails::new(ty.clone())
            .with("PatientId", pid)
            .with("CollectedAt", when)
            .with(
                "Result",
                FieldValue::Code(
                    if rng.gen_bool(0.9) {
                        "negative"
                    } else {
                        "positive"
                    }
                    .into(),
                ),
            )
            .with(
                "Hemoglobin",
                FieldValue::Decimal(
                    format!("{}.{}", rng.gen_range(10..18), rng.gen_range(0..10))
                        .parse()
                        .unwrap(),
                ),
            )
            .with("HivResult", FieldValue::Text("negative".into())),
        "radiology-report" => EventDetails::new(ty.clone())
            .with("PatientId", pid)
            .with(
                "Modality",
                FieldValue::Code(["xray", "ct", "mri"][rng.gen_range(0..3)].into()),
            )
            .with(
                "Report",
                FieldValue::Text("no acute findings; follow-up in 6 months".into()),
            ),
        "hospital-discharge" => EventDetails::new(ty.clone())
            .with("PatientId", pid)
            .with("Ward", FieldValue::Text("geriatrics".into()))
            .with("DischargedAt", when)
            .with(
                "Diagnosis",
                FieldValue::Text("hip fracture, recovering".into()),
            )
            .with("CarePlan", FieldValue::Text("home care 3x weekly".into())),
        "home-care-service-event" => EventDetails::new(ty.clone())
            .with("PatientId", pid)
            .with(
                "Service",
                FieldValue::Text(["cleaning", "nursing", "bathing"][rng.gen_range(0..3)].into()),
            )
            .with(
                "DurationMinutes",
                FieldValue::Integer(rng.gen_range(20..120)),
            )
            .with(
                "CareNotes",
                FieldValue::Text("patient in good spirits".into()),
            ),
        "telecare-alarm" => EventDetails::new(ty.clone())
            .with("PatientId", pid)
            .with(
                "AlarmKind",
                FieldValue::Code(["fall", "panic", "inactivity"][rng.gen_range(0..3)].into()),
            )
            .with(
                "Outcome",
                FieldValue::Text("operator call, no ambulance".into()),
            ),
        "autonomy-assessment" => EventDetails::new(ty.clone())
            .with("PatientId", pid)
            .with("Age", FieldValue::Integer(rng.gen_range(65..95)))
            .with(
                "Sex",
                FieldValue::Code(if rng.gen_bool(0.5) { "m" } else { "f" }.into()),
            )
            .with("AutonomyScore", FieldValue::Integer(rng.gen_range(1..10)))
            .with("PsychNotes", FieldValue::Text("mild memory decline".into())),
        "meal-delivery" => EventDetails::new(ty.clone())
            .with("PatientId", pid)
            .with("MealType", FieldValue::Text("low sodium".into()))
            .with("DietNotes", FieldValue::Text("diabetic diet".into())),
        other => panic!("unknown scenario event type {other}"),
    }
}

struct ActiveConsumer<'a> {
    handle: ConsumerHandle<MemoryProvider>,
    subs: Vec<Subscription>,
    purpose_for: fn(&EventTypeId) -> Purpose,
    _marker: std::marker::PhantomData<&'a ()>,
}

fn doctor_purpose(_ty: &EventTypeId) -> Purpose {
    Purpose::HealthcareTreatment
}

fn welfare_purpose(_ty: &EventTypeId) -> Purpose {
    Purpose::SocialAssistance
}

fn governance_purpose(ty: &EventTypeId) -> Purpose {
    if ty.code() == "autonomy-assessment" {
        Purpose::StatisticalAnalysis
    } else {
        Purpose::Reimbursement
    }
}

/// Run a random workload: publish events, drain subscriptions, request
/// details with per-role purposes.
pub fn run_workload(scenario: &Scenario, config: WorkloadConfig) -> WorkloadReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut report = WorkloadReport::default();

    // Stand up the consumer fleet.
    let mut consumers: Vec<ActiveConsumer<'_>> = Vec::new();
    for doctor in &scenario.orgs.family_doctors {
        let handle = scenario.platform.consumer(*doctor).expect("doctor joined");
        let subs = [
            types::blood_test(),
            types::radiology_report(),
            types::discharge(),
            types::telecare_alarm(),
            types::home_care(),
        ]
        .iter()
        .map(|ty| handle.subscribe(ty).expect("doctor policy exists"))
        .collect();
        consumers.push(ActiveConsumer {
            handle,
            subs,
            purpose_for: doctor_purpose,
            _marker: Default::default(),
        });
    }
    {
        let handle = scenario
            .platform
            .consumer(scenario.orgs.welfare)
            .expect("welfare joined");
        let subs = [
            types::discharge(),
            types::home_care(),
            types::telecare_alarm(),
            types::meal_delivery(),
        ]
        .iter()
        .map(|ty| handle.subscribe(ty).expect("welfare policy exists"))
        .collect();
        consumers.push(ActiveConsumer {
            handle,
            subs,
            purpose_for: welfare_purpose,
            _marker: Default::default(),
        });
    }
    {
        let handle = scenario
            .platform
            .consumer(scenario.orgs.governance)
            .expect("governance joined");
        let subs = [
            types::autonomy(),
            types::home_care(),
            types::meal_delivery(),
        ]
        .iter()
        .map(|ty| handle.subscribe(ty).expect("governance policy exists"))
        .collect();
        consumers.push(ActiveConsumer {
            handle,
            subs,
            purpose_for: governance_purpose,
            _marker: Default::default(),
        });
    }

    let all_types = types::all();
    for _ in 0..config.events {
        let ty = &all_types[rng.gen_range(0..all_types.len())];
        let person = &scenario.persons[rng.gen_range(0..scenario.persons.len())];
        let producer_org = scenario.producer_of(ty);
        let producer = scenario
            .platform
            .producer(producer_org)
            .expect("producer joined");
        let details = synth_details(ty, person.id, &mut rng);
        scenario
            .clock
            .advance(Duration::minutes(rng.gen_range(1..120)));
        let occurred_at = {
            use css_types::Clock;
            scenario.clock.now()
        };
        match producer.publish(
            person.clone(),
            format!("{} occurred", ty.code()),
            details,
            occurred_at,
        ) {
            Ok(_) => report.published += 1,
            Err(CssError::ConsentWithheld(_)) => continue,
            Err(e) => panic!("unexpected publish failure: {e}"),
        }

        // Consumers drain and maybe chase details.
        for consumer in &consumers {
            for sub in &consumer.subs {
                for n in sub.drain().expect("subscription alive") {
                    report.notifications_delivered += 1;
                    if rng.gen_bool(config.detail_request_prob) {
                        let purpose = if rng.gen_bool(config.wrong_purpose_prob) {
                            Purpose::Custom("over-reach".into())
                        } else {
                            (consumer.purpose_for)(&n.event_type)
                        };
                        match consumer.handle.request_details(&n, purpose) {
                            Ok(response) => {
                                report.detail_permits += 1;
                                report.released_bytes += response.details.exposed_bytes();
                                // Sensitive = fields the producer's schema
                                // marks sensitive.
                                let schema = scenario
                                    .platform
                                    .controller()
                                    .catalog()
                                    .schema(&n.event_type)
                                    .expect("declared");
                                let sensitive: std::collections::HashSet<&str> =
                                    schema.sensitive_fields().collect();
                                report.sensitive_released_bytes += response
                                    .details
                                    .iter()
                                    .filter(|(name, _)| sensitive.contains(name))
                                    .map(|(_, v)| v.byte_size())
                                    .sum::<usize>();
                            }
                            Err(CssError::AccessDenied(_)) => report.detail_denies += 1,
                            Err(e) => panic!("unexpected detail failure: {e}"),
                        }
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioConfig};

    #[test]
    fn workload_runs_and_counts() {
        let scenario = Scenario::build(ScenarioConfig {
            persons: 10,
            family_doctors: 2,
            seed: 3,
        })
        .unwrap();
        let report = run_workload(
            &scenario,
            WorkloadConfig {
                events: 50,
                detail_request_prob: 0.5,
                wrong_purpose_prob: 0.05,
                seed: 4,
            },
        );
        assert_eq!(report.published, 50);
        assert!(report.notifications_delivered > 0);
        assert!(report.detail_permits > 0);
        assert!(report.released_bytes > 0);
        // Audit log saw everything and still verifies.
        scenario.platform.verify_audit().unwrap();
    }

    #[test]
    fn workload_deterministic_under_seed() {
        let build = || {
            let scenario = Scenario::build(ScenarioConfig {
                persons: 8,
                family_doctors: 1,
                seed: 1,
            })
            .unwrap();
            let r = run_workload(
                &scenario,
                WorkloadConfig {
                    events: 30,
                    detail_request_prob: 0.4,
                    wrong_purpose_prob: 0.05,
                    seed: 2,
                },
            );
            (
                r.published,
                r.notifications_delivered,
                r.detail_permits,
                r.released_bytes,
            )
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn zero_probability_means_no_detail_requests() {
        let scenario = Scenario::build(ScenarioConfig {
            persons: 5,
            family_doctors: 1,
            seed: 1,
        })
        .unwrap();
        let report = run_workload(
            &scenario,
            WorkloadConfig {
                events: 20,
                detail_request_prob: 0.0,
                wrong_purpose_prob: 0.05,
                seed: 2,
            },
        );
        assert_eq!(report.detail_permits + report.detail_denies, 0);
        assert_eq!(report.released_bytes, 0);
    }

    #[test]
    fn synth_details_validate_against_schemas() {
        let scenario = Scenario::build(ScenarioConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let controller = scenario.platform.controller();
        for ty in types::all() {
            let details = synth_details(&ty, PersonId(1), &mut rng);
            let schema = controller.catalog().schema(&ty).unwrap();
            schema.validate(&details).unwrap_or_else(|e| {
                panic!("synthetic details for {ty} invalid: {e}");
            });
        }
    }
}
