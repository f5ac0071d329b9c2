//! Executes one generated operation against the platform through the
//! public handles, stops the clock, then checks the result against the
//! oracle and advances the model.

use std::time::Instant;

use css_controller::ConsentScope;
use css_core::BackendProvider;
use css_types::{CssError, CssResult, Timestamp};

use crate::model::{churn_purpose, EventRef, Model, Op};
use crate::oracle::{check_detail, check_ids};
use crate::trace::{Recorder, SpanKind};
use crate::world::World;

/// The result of one executed operation.
pub struct Done {
    /// When the last platform call of the operation returned.
    pub end: Instant,
    /// `Some(why)` when the platform's answer differs from the oracle's.
    pub failure: Option<String>,
    /// Subscribers the operation notified (publishes only).
    pub notified: usize,
    /// The event the operation published, for the shared timeline.
    pub published: Option<(Timestamp, EventRef)>,
}

/// Runs operations against one world; with a recorder, wraps every
/// platform call in an operation span.
pub struct Executor<'a, P: BackendProvider> {
    pub world: &'a World<P>,
    pub recorder: Option<&'a Recorder>,
    /// With more than one client thread a subscription may hand a
    /// thread another thread's notification, so deliveries are only
    /// counted, not matched to the receipt.
    pub shared_subscriptions: bool,
}

impl<P: BackendProvider> Executor<'_, P> {
    /// Run `call` inside an operation span named `name` (when tracing).
    fn span<T>(&self, name: &'static str, op_id: u32, call: impl FnOnce() -> T) -> T {
        match self.recorder {
            None => call(),
            Some(rec) => {
                rec.enter(op_id);
                let start = rec.now_ns();
                let out = call();
                rec.record(SpanKind::Op(name), start, op_id, 0);
                rec.enter(0);
                out
            }
        }
    }

    /// Execute `op`, check it, and apply its effect to `model`.
    /// `op_id` (≥ 1) labels the operation's spans.
    pub fn run(&self, model: &mut Model, op: Op, op_id: u32) -> Done {
        let w = self.world;
        let mut notified = 0;
        let mut published = None;
        let (end, outcome): (Instant, Result<(), String>) = match op {
            Op::Notify {
                citizen,
                class,
                details,
                at,
            } => {
                let c = &w.classes[class as usize];
                let receipt = self.span("publish", op_id, || {
                    w.producers[c.producer].publish(
                        w.persons[citizen as usize].clone(),
                        c.description.clone(),
                        details,
                        at,
                    )
                });
                match receipt {
                    Err(e) => (Instant::now(), Err(format!("publish failed: {e}"))),
                    Ok(receipt) => {
                        let subs = &w.subs[class as usize];
                        let delivered = self.span("deliver", op_id, || {
                            subs.iter()
                                .map(|(_, sub)| sub.next())
                                .collect::<CssResult<Vec<_>>>()
                        });
                        let end = Instant::now();
                        notified = receipt.notified.len();
                        let check = || -> Result<(), String> {
                            if !receipt
                                .notified
                                .iter()
                                .copied()
                                .eq(w.subscribers(class as usize))
                            {
                                return Err(format!("notified {:?}", receipt.notified));
                            }
                            let delivered = delivered.map_err(|e| format!("delivery: {e}"))?;
                            for d in &delivered {
                                match d {
                                    None => return Err("a subscriber got nothing".into()),
                                    Some(d)
                                        if !self.shared_subscriptions
                                            && d.message.global_id != receipt.global_id =>
                                    {
                                        return Err(format!(
                                            "delivered {} for {}",
                                            d.message.global_id, receipt.global_id
                                        ));
                                    }
                                    Some(_) => {}
                                }
                            }
                            Ok(())
                        };
                        let checked = check();
                        model.published(citizen, class, receipt.global_id, notified);
                        published = Some((
                            at,
                            EventRef {
                                gid: receipt.global_id,
                                class,
                            },
                        ));
                        (end, checked)
                    }
                }
            }
            Op::Detail {
                who,
                citizen,
                class,
                gid,
                purpose,
                expect,
            } => {
                let c = &w.classes[class as usize];
                let name = if expect.is_ok() {
                    "detail_permit"
                } else {
                    "detail_deny"
                };
                let got = self.span(name, op_id, || {
                    w.requesters[who as usize].handle.request_details_by_id(
                        c.ty.clone(),
                        gid,
                        purpose.clone(),
                    )
                });
                let end = Instant::now();
                model.touched(citizen);
                (end, check_detail(c, gid, &expect, &got))
            }
            Op::Inquiry {
                who,
                citizen,
                expect,
                slot,
            } => {
                let got = self.span("inquiry", op_id, || {
                    w.requesters[who as usize]
                        .handle
                        .inquire_by_person(w.persons[citizen as usize].id)
                });
                let end = Instant::now();
                model.audited(1);
                if let Some(slot) = slot {
                    model.marked(slot);
                }
                let checked = match got {
                    Ok(got) => check_ids(&expect, &got),
                    Err(e) => Err(format!("inquiry failed: {e}")),
                };
                (end, checked)
            }
            Op::Between {
                who,
                from,
                to,
                expect,
            } => {
                let got = self.span("inquiry_between", op_id, || {
                    w.requesters[who as usize].handle.inquire_between(from, to)
                });
                let end = Instant::now();
                model.audited(1);
                let checked = match (got, expect) {
                    (Ok(got), Some(expect)) => check_ids(&expect, &got),
                    // Other threads publish into the window: only the
                    // window itself can be checked.
                    (Ok(got), None) => got
                        .iter()
                        .all(|n| (from..=to).contains(&n.occurred_at))
                        .then_some(())
                        .ok_or_else(|| "event outside the inquired window".to_string()),
                    (Err(e), _) => Err(format!("inquire_between failed: {e}")),
                };
                (end, checked)
            }
            Op::Profile { citizen, expect } => {
                let handle = w.platform.citizen(w.persons[citizen as usize].id);
                let got = self.span("profile", op_id, || handle.my_profile());
                let end = Instant::now();
                model.touched(citizen);
                (end, check_len("profile", expect, got.map(|v| v.len())))
            }
            Op::Trail { citizen, expect } => {
                let handle = w.platform.citizen(w.persons[citizen as usize].id);
                let got = self.span("audit_trail", op_id, || handle.who_accessed_my_data());
                let end = Instant::now();
                model.touched(citizen);
                (end, check_len("audit trail", expect, got.map(|v| v.len())))
            }
            Op::Consent { citizen, out } => {
                let handle = w.platform.citizen(w.persons[citizen as usize].id);
                let got = self.span("consent_change", op_id, || {
                    if out {
                        handle.opt_out(ConsentScope::All)
                    } else {
                        handle.opt_in(ConsentScope::All)
                    }
                });
                let end = Instant::now();
                model.consented(citizen, out);
                (end, got.map_err(|e| format!("consent change failed: {e}")))
            }
            Op::Define { slot } => {
                let s = &model.slots[slot];
                let c = &w.classes[s.class as usize];
                let grantee = w.requesters[s.who as usize].id;
                let got = self.span("policy_change", op_id, || {
                    w.producers[c.producer]
                        .policy_wizard(&c.ty)?
                        .select_all_fields()
                        .grant_to([grantee])
                        .map_err(CssError::from)?
                        .for_purposes([churn_purpose()])
                        .labeled("churn", "macrobench churned policy")
                        .save()
                });
                let end = Instant::now();
                match got {
                    Ok(ids) if ids.len() == 1 => {
                        model.defined(slot, ids[0]);
                        (end, Ok(()))
                    }
                    Ok(ids) => (end, Err(format!("wizard saved {} policies", ids.len()))),
                    Err(e) => (end, Err(format!("policy define failed: {e}"))),
                }
            }
            Op::Revoke { slot } => {
                let s = &model.slots[slot];
                let c = &w.classes[s.class as usize];
                let id = s.policy.expect("only defined slots are revoked");
                let got = self.span("policy_change", op_id, || {
                    w.producers[c.producer].revoke_policy(id)
                });
                let end = Instant::now();
                model.revoked(slot);
                (end, got.map_err(|e| format!("policy revoke failed: {e}")))
            }
        };
        Done {
            end,
            failure: outcome.err(),
            notified,
            published,
        }
    }
}

fn check_len(what: &str, expect: usize, got: CssResult<usize>) -> Result<(), String> {
    match got {
        Ok(n) if n == expect => Ok(()),
        Ok(n) => Err(format!("{what}: {n} entries, expected {expect}")),
        Err(e) => Err(format!("{what} failed: {e}")),
    }
}
