//! Care-process monitoring over notification streams.
//!
//! The CSS project exists "to monitor, control and trace the clinical
//! and assistive processes" that span multiple institutions (Section 1).
//! This module is that monitoring layer. Its defining property — and
//! the point the paper's privacy design makes possible — is that it
//! operates **exclusively on notification messages**: the *who / what /
//! when / where* summaries that carry no sensitive payload. A process
//! monitor therefore needs no privacy policy grants beyond notification
//! visibility.
//!
//! - [`ProcessDefinition`]: the expected step sequence of a care
//!   pathway (event class per step, optional deadline from the previous
//!   step, optional steps);
//! - [`ProcessMonitor`]: consumes notifications, tracks one
//!   [`ProcessInstance`] per (definition, person), advances steps,
//!   flags deadline violations and unexpected regressions;
//! - [`Kpis`]: the aggregate view the governing body wants — completion
//!   rates, step latencies, violations by kind.

use std::collections::HashMap;

use css_event::NotificationMessage;
use css_trace::TraceId;
use css_types::{PersonId, Timestamp};

pub use crate::definition::{ProcessDefinition, Step};
use crate::instance::StepRecord;
pub use crate::instance::{InstanceStatus, ProcessInstance, Violation};
pub use crate::kpi::Kpis;

/// Tracks process instances across the notification stream.
///
/// Feed it every notification an authorized monitoring consumer
/// receives; call [`ProcessMonitor::check_deadlines`] periodically (or
/// with the current simulated time) to surface overdue steps.
#[derive(Debug, Default)]
pub struct ProcessMonitor {
    definitions: Vec<ProcessDefinition>,
    /// (definition id, person) → instance.
    instances: HashMap<(String, PersonId), ProcessInstance>,
    /// Notifications that matched no definition step (monitoring blind
    /// spots worth reporting).
    pub unmatched: u64,
}

impl ProcessMonitor {
    /// A monitor with no definitions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a process definition.
    pub fn register(&mut self, definition: ProcessDefinition) {
        self.definitions.push(definition);
    }

    /// Consume one notification, updating instances.
    pub fn feed(&mut self, notification: &NotificationMessage) {
        self.feed_traced(notification, None);
    }

    /// [`ProcessMonitor::feed`], also recording the trace id of the
    /// publish that delivered the notification (the bus `Delivery`
    /// carries one when the producer published traced), so a violated
    /// step can be joined back to its span tree and audit records.
    pub fn feed_traced(&mut self, notification: &NotificationMessage, trace: Option<TraceId>) {
        let mut matched = false;
        for def in &self.definitions {
            let Some(step_idx) = def.step_for(&notification.event_type) else {
                continue;
            };
            matched = true;
            let key = (def.id.clone(), notification.person.id);
            let record = StepRecord {
                step: step_idx,
                event: notification.global_id,
                at: notification.occurred_at,
                trace,
            };
            match self.instances.get_mut(&key) {
                None => {
                    // Only the first step starts an instance; a later
                    // step without a start is ignored (the process began
                    // before monitoring did).
                    if step_idx == 0 {
                        self.instances.insert(
                            key,
                            ProcessInstance::start(def.id.clone(), notification.person.id, record),
                        );
                    }
                }
                Some(instance) if instance.is_running() => {
                    let step = &def.steps[step_idx];
                    if step_idx < instance.furthest_step && !step.repeatable {
                        instance.status =
                            InstanceStatus::Violated(Violation::UnexpectedRegression {
                                step: step.name.clone(),
                                event: notification.global_id,
                            });
                        continue;
                    }
                    // Deadline check for forward progress.
                    if step_idx > instance.furthest_step {
                        if let Some(limit) = step.within {
                            let due = instance.last_progress_at().plus(limit);
                            if notification.occurred_at > due {
                                instance.status =
                                    InstanceStatus::Violated(Violation::DeadlineExceeded {
                                        step: step.name.clone(),
                                        due_at: due,
                                    });
                                continue;
                            }
                        }
                        instance.furthest_step = step_idx;
                    }
                    instance.history.push(record);
                    if let Some(last_required) = def.last_required_step() {
                        let all_required_done = (0..=last_required)
                            .filter(|i| def.steps[*i].required)
                            .all(|i| instance.history.iter().any(|r| r.step == i));
                        if all_required_done {
                            instance.status = InstanceStatus::Completed;
                        }
                    }
                }
                Some(_) => {} // completed or violated: ignore further events
            }
        }
        if !matched {
            self.unmatched += 1;
        }
    }

    /// Flag running instances whose next required step is overdue at
    /// `now`. Returns how many instances were newly flagged.
    pub fn check_deadlines(&mut self, now: Timestamp) -> usize {
        let mut flagged = 0;
        for instance in self.instances.values_mut() {
            if !instance.is_running() {
                continue;
            }
            let def = self
                .definitions
                .iter()
                .find(|d| d.id == instance.definition)
                .expect("instance references registered definition");
            // The next required step after the furthest progress.
            let next = def
                .steps
                .iter()
                .enumerate()
                .skip(instance.furthest_step + 1)
                .find(|(_, s)| s.required);
            if let Some((_, step)) = next {
                if let Some(limit) = step.within {
                    let due = instance.last_progress_at().plus(limit);
                    if now > due {
                        instance.status = InstanceStatus::Violated(Violation::DeadlineExceeded {
                            step: step.name.clone(),
                            due_at: due,
                        });
                        flagged += 1;
                    }
                }
            }
        }
        flagged
    }

    /// All tracked instances.
    pub fn instances(&self) -> impl Iterator<Item = &ProcessInstance> {
        self.instances.values()
    }

    /// The instance for one (definition, person), if tracked.
    pub fn instance(&self, definition: &str, person: PersonId) -> Option<&ProcessInstance> {
        self.instances.get(&(definition.to_string(), person))
    }

    /// Aggregate KPIs over all instances.
    pub fn kpis(&self) -> Kpis {
        Kpis::compute(self.instances.values(), self.unmatched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::definition::{ProcessDefinition, Step};
    use css_types::{ActorId, EventTypeId, GlobalEventId, PersonIdentity};

    fn notif(id: u64, person: u64, ty: &str, at: u64) -> NotificationMessage {
        NotificationMessage {
            global_id: GlobalEventId(id),
            event_type: EventTypeId::v1(ty),
            person: PersonIdentity {
                id: PersonId(person),
                fiscal_code: "x".into(),
                name: "n".into(),
                surname: "s".into(),
            },
            description: String::new(),
            occurred_at: Timestamp(at),
            producer: ActorId(1),
        }
    }

    fn monitor() -> ProcessMonitor {
        let mut m = ProcessMonitor::new();
        m.register(ProcessDefinition::elderly_care());
        m
    }

    const DAY: u64 = 86_400_000;

    #[test]
    fn happy_path_completes() {
        let mut m = monitor();
        m.feed(&notif(1, 1, "hospital-discharge", 0));
        m.feed(&notif(2, 1, "autonomy-assessment", 2 * DAY));
        m.feed(&notif(3, 1, "home-care-service-event", 5 * DAY));
        let inst = m.instance("elderly-care", PersonId(1)).unwrap();
        assert_eq!(inst.status, InstanceStatus::Completed);
        assert_eq!(inst.history.len(), 3);
    }

    #[test]
    fn late_assessment_is_a_deadline_violation() {
        let mut m = monitor();
        m.feed(&notif(1, 1, "hospital-discharge", 0));
        m.feed(&notif(2, 1, "autonomy-assessment", 9 * DAY)); // > 7 days
        let inst = m.instance("elderly-care", PersonId(1)).unwrap();
        assert!(matches!(
            inst.status,
            InstanceStatus::Violated(Violation::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn check_deadlines_flags_silence() {
        let mut m = monitor();
        m.feed(&notif(1, 1, "hospital-discharge", 0));
        // Nothing happens for 10 days.
        assert_eq!(m.check_deadlines(Timestamp(6 * DAY)), 0);
        assert_eq!(m.check_deadlines(Timestamp(10 * DAY)), 1);
        // Already flagged: not double counted.
        assert_eq!(m.check_deadlines(Timestamp(20 * DAY)), 0);
    }

    #[test]
    fn repeatable_steps_do_not_regress() {
        // Repeatable steps may recur while the instance is running; a
        // definition whose last required step comes later shows this.
        let def = ProcessDefinition::new("visits", "Visits")
            .step(Step::required(
                "start",
                EventTypeId::v1("hospital-discharge"),
            ))
            .step(Step::required("visit", EventTypeId::v1("home-care-service-event")).repeatable())
            .step(Step::required(
                "closure",
                EventTypeId::v1("autonomy-assessment"),
            ));
        let mut m = ProcessMonitor::new();
        m.register(def);
        m.feed(&notif(1, 1, "hospital-discharge", 0));
        m.feed(&notif(2, 1, "home-care-service-event", DAY));
        m.feed(&notif(3, 1, "home-care-service-event", 2 * DAY));
        m.feed(&notif(4, 1, "home-care-service-event", 3 * DAY));
        let inst = m.instance("visits", PersonId(1)).unwrap();
        assert_eq!(inst.status, InstanceStatus::Running);
        assert_eq!(inst.history.len(), 4);
        m.feed(&notif(5, 1, "autonomy-assessment", 4 * DAY));
        let inst = m.instance("visits", PersonId(1)).unwrap();
        assert_eq!(inst.status, InstanceStatus::Completed);
        assert_eq!(inst.history.len(), 5);
        // Post-completion events are ignored by design.
        m.feed(&notif(6, 1, "home-care-service-event", 5 * DAY));
        assert_eq!(m.instance("visits", PersonId(1)).unwrap().history.len(), 5);
    }

    #[test]
    fn regression_on_non_repeatable_step() {
        let mut m = monitor();
        m.feed(&notif(1, 1, "hospital-discharge", 0));
        m.feed(&notif(2, 1, "autonomy-assessment", DAY));
        m.feed(&notif(3, 1, "home-care-service-event", 2 * DAY));
        // The process completed at event 3... a *second* discharge for
        // a completed instance is simply ignored.
        m.feed(&notif(4, 1, "hospital-discharge", 3 * DAY));
        assert_eq!(
            m.instance("elderly-care", PersonId(1)).unwrap().status,
            InstanceStatus::Completed
        );
        // But a regression during a RUNNING instance is flagged.
        let mut m2 = monitor();
        m2.feed(&notif(1, 2, "hospital-discharge", 0));
        m2.feed(&notif(2, 2, "autonomy-assessment", DAY));
        m2.feed(&notif(3, 2, "hospital-discharge", 2 * DAY));
        assert!(matches!(
            m2.instance("elderly-care", PersonId(2)).unwrap().status,
            InstanceStatus::Violated(Violation::UnexpectedRegression { .. })
        ));
    }

    #[test]
    fn mid_process_start_ignored_until_first_step() {
        let mut m = monitor();
        m.feed(&notif(1, 1, "autonomy-assessment", 0));
        assert!(m.instance("elderly-care", PersonId(1)).is_none());
        m.feed(&notif(2, 1, "hospital-discharge", DAY));
        assert!(m.instance("elderly-care", PersonId(1)).is_some());
    }

    #[test]
    fn persons_tracked_independently() {
        let mut m = monitor();
        m.feed(&notif(1, 1, "hospital-discharge", 0));
        m.feed(&notif(2, 2, "hospital-discharge", 0));
        m.feed(&notif(3, 1, "autonomy-assessment", DAY));
        assert_eq!(
            m.instance("elderly-care", PersonId(1))
                .unwrap()
                .furthest_step,
            1
        );
        assert_eq!(
            m.instance("elderly-care", PersonId(2))
                .unwrap()
                .furthest_step,
            0
        );
    }

    #[test]
    fn unmatched_counted() {
        let mut m = monitor();
        m.feed(&notif(1, 1, "blood-test", 0));
        assert_eq!(m.unmatched, 1);
    }

    #[test]
    fn deadline_exactly_at_now_is_not_flagged() {
        // The contract is strict lateness (`now > due`): an instance
        // whose deadline expires exactly at the observation instant is
        // still on time, and the KPI counts reflect that.
        let mut m = monitor();
        m.feed(&notif(1, 1, "hospital-discharge", 0));
        let due = Timestamp(7 * DAY); // assessment due within 7 days
        assert_eq!(m.check_deadlines(due), 0);
        assert_eq!(m.kpis().deadline_violations, 0);
        assert_eq!(m.check_deadlines(Timestamp(due.0 + 1)), 1);
        assert_eq!(m.kpis().deadline_violations, 1);
    }

    #[test]
    fn repeated_feed_of_same_notification_keeps_kpis_stable() {
        // A redelivered notification (bus retry) appends to history but
        // must not double-start, regress, or complete the instance.
        let mut m = monitor();
        let first = notif(1, 1, "hospital-discharge", 0);
        m.feed(&first);
        m.feed(&first);
        let inst = m.instance("elderly-care", PersonId(1)).unwrap();
        assert_eq!(inst.status, InstanceStatus::Running);
        assert_eq!(inst.furthest_step, 0);
        let k = m.kpis();
        assert_eq!(k.running, 1);
        assert_eq!(k.completed, 0);
        assert_eq!(k.deadline_violations + k.regressions, 0);
    }

    #[test]
    fn feed_traced_records_trace_on_step_history() {
        let mut m = monitor();
        let trace = "00000000000003e9".parse::<css_trace::TraceId>().unwrap();
        m.feed_traced(&notif(1, 1, "hospital-discharge", 0), Some(trace));
        m.feed(&notif(2, 1, "autonomy-assessment", DAY));
        let inst = m.instance("elderly-care", PersonId(1)).unwrap();
        assert_eq!(inst.history[0].trace, Some(trace));
        assert_eq!(inst.history[1].trace, None);
    }
}
