//! The Policy Enforcement Point — Algorithm 1.
//!
//! `GETEVENTDETAILS(R) → e` with `R = {a, τ_e, eID, s}`:
//!
//! 1. `src_eID ← retrieveEventProducerId(eID)` — the PIP mapping,
//!    resolved against the events index;
//! 2. `⟨A, e_j, S, F⟩ ← matchingPolicy(R)` — the PDP finds matching
//!    policies;
//! 3. if the evaluation permits, ask the producer's gateway for
//!    `getResponse(src_eID, F)` — only the allowed fields ever leave
//!    the producer;
//! 4. otherwise return *deny* (an Access Denied message).
//!
//! On top of the literal algorithm the PEP enforces two deployment
//! preconditions: the requester must have **been notified** of the event
//! (the notification "is a pre-requisite to issue the request for
//! details"), and the data subject must not have **opted out**.
//! Every request — permitted or denied — is written to the audit log.
//!
//! The PEP borrows the controller's sharded planes and locked
//! registries; it takes each registry read guard only for the stage
//! that needs it (pdp before actors when both are held) and clones the
//! gateway handle out of its registry before the network call, so no
//! lock spans producer I/O.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use css_audit::{AuditAction, AuditRecord, AuditShards};
use css_event::PrivacyAwareEvent;
use css_policy::{Decision, DetailRequest, PolicyDecisionPoint};
use css_storage::LogBackend;
use css_telemetry::{MetricsRegistry, StageTimer};
use css_trace::{SpanAttr, SpanStatus, TraceContext};
use css_types::{ActorId, ActorRegistry, CssError, CssResult, DenyReason, Timestamp};

use crate::consent::ConsentRegistry;
use crate::controller::RequestCounters;
use crate::gateway_client::GatewayClient;
use crate::index::DetailResolution;
use crate::shards::IndexShards;

/// A per-request enforcement context borrowing the controller's parts.
pub struct PolicyEnforcementPoint<'a, B: LogBackend> {
    /// Sharded events index (PIP + notified-set).
    pub index: &'a IndexShards<B>,
    /// Policy decision point.
    pub pdp: &'a RwLock<PolicyDecisionPoint>,
    /// Organizational hierarchy.
    pub actors: &'a RwLock<ActorRegistry>,
    /// Data-subject consent.
    pub consent: &'a RwLock<ConsentRegistry>,
    /// Sharded audit plane (every request is recorded).
    pub audit: &'a AuditShards<B>,
    /// Producer gateways, keyed by producer organization.
    pub gateways: &'a RwLock<HashMap<ActorId, Arc<dyn GatewayClient>>>,
    /// Per-stage latency histograms (`stage.*`).
    pub telemetry: &'a MetricsRegistry,
    /// Request and decision-cache counters, resolved by the controller.
    pub(crate) counters: &'a RequestCounters,
    /// Causal trace of the enclosing detail request; each Algorithm 1
    /// stage becomes a child span, and the trace id is stamped into the
    /// audit record. Disabled context when tracing is off.
    pub trace: TraceContext,
    /// Evaluation instant.
    pub now: Timestamp,
}

impl<'a, B: LogBackend> PolicyEnforcementPoint<'a, B> {
    /// Algorithm 1. Returns the privacy-aware event on permit.
    ///
    /// Each stage records its latency into a `stage.*` histogram; a
    /// denied or failed request records only the stages it reached
    /// (plus the `controller.detail_denies` counter and, via the
    /// timer's drop guard, `stage.partial` and `stage.total`), a
    /// permitted one records all six and `stage.total`.
    pub fn get_event_details(&self, request: &DetailRequest) -> CssResult<PrivacyAwareEvent> {
        self.counters.detail_requests.inc();
        let denies = &self.counters.detail_denies;
        let mut timer = StageTimer::start(self.telemetry, "stage");
        let trace_id = self.trace.trace_id();
        if let Some(t) = trace_id {
            // Exemplar: whichever bucket this pass lands in keeps the
            // trace id, so a p99 outlier joins back to its span tree.
            timer.exemplar(t.value(), self.now.0);
        }
        let audit_base = || {
            AuditRecord::new(self.now, request.actor, AuditAction::DetailRequest)
                .event(request.event_id)
                .event_type(request.event_type.clone())
                .purpose(request.purpose.clone())
                .request(request.request_id)
                .trace(trace_id)
        };

        // Step 1 — PIP: eID → (producer, src_eID, type). One visit to
        // the event's owner shard answers this stage and the two
        // preconditions after it; each is still checked, timed and
        // audited at its own boundary below. The ancestor chain is
        // resolved first: the registry lock is not taken under a
        // shard's.
        let mut span = self.trace.child("pep.pip_resolve");
        let ancestors = self.actors.read().ancestors(request.actor);
        let resolution = match self.index.resolve_detail_request(
            request.event_id,
            &request.event_type,
            request.actor,
            &ancestors,
        ) {
            Ok(r) => r,
            Err(e) => {
                timer.stage("pip_resolve");
                span.set_status(SpanStatus::Error);
                denies.inc();
                self.audit
                    .append(audit_base().denied("event not found in index"))?;
                return Err(e);
            }
        };
        if let DetailResolution::TypeMismatch(indexed_type) = &resolution {
            timer.stage("pip_resolve");
            span.set_status(SpanStatus::Denied);
            denies.inc();
            self.audit
                .append(audit_base().denied("declared event type mismatch"))?;
            return Err(CssError::Invalid(format!(
                "request declares type {} but event {} is a {}",
                request.event_type, request.event_id, indexed_type
            )));
        }
        timer.stage("pip_resolve");
        span.finish();

        // Precondition: the requester (or an enclosing organization)
        // received the notification.
        let mut span = self.trace.child("pep.notified_check");
        timer.stage("notified_check");
        let DetailResolution::Resolved {
            producer,
            src_event_id,
            subject,
        } = resolution
        else {
            span.set_status(SpanStatus::Denied);
            denies.inc();
            self.audit
                .append(audit_base().denied(DenyReason::NotNotified.to_string()))?;
            return Err(CssError::AccessDenied(DenyReason::NotNotified));
        };
        span.finish();

        // Precondition: data-subject consent (needs the person id, so
        // the controller unsealed the identity it sealed at publish
        // time — only once the checks above had passed).
        let mut span = self.trace.child("pep.consent_check");
        let subject = subject?;
        let consented = self
            .consent
            .read()
            .allows(subject, producer, &request.event_type);
        timer.stage("consent_check");
        if !consented {
            span.set_status(SpanStatus::Denied);
            denies.inc();
            self.audit.append(
                audit_base()
                    .person(subject)
                    .denied(DenyReason::ConsentWithheld.to_string()),
            )?;
            return Err(CssError::AccessDenied(DenyReason::ConsentWithheld));
        }
        span.finish();

        // Steps 2–3 — PDP: find and evaluate the matching policy. The
        // PDP answers repeat (actor, type, purpose) requests from its
        // segmented decision cache; hits and misses are counted
        // separately so the cache-hit rate is visible in a telemetry
        // snapshot.
        let mut span = self.trace.child("pep.pdp_evaluate");
        let (decision, cache_hit) = {
            let pdp = self.pdp.read();
            let actors = self.actors.read();
            pdp.evaluate_traced(request, &actors, self.now)
        };
        timer.stage("pdp_evaluate");
        span.attr(SpanAttr::cache_hit(cache_hit));
        span.attr(SpanAttr::decision(matches!(
            decision,
            Decision::Permit { .. }
        )));
        if cache_hit {
            self.counters.pdp_cache_hit.inc();
        } else {
            self.counters.pdp_cache_miss.inc();
        }
        match decision {
            Decision::Deny(reason) => {
                span.set_status(SpanStatus::Denied);
                drop(span);
                denies.inc();
                self.audit
                    .append(audit_base().person(subject).denied(reason.to_string()))?;
                Err(CssError::AccessDenied(reason))
            }
            Decision::Permit {
                allowed_fields,
                matched_policies,
                ..
            } => {
                span.finish();
                // Step 4 — getResponse at the producer. Failures here
                // are infrastructure faults, not policy denials, but
                // they are audited all the same. The gateway continues
                // the trace with its own Algorithm 2 stage spans. The
                // handle is cloned out of the registry so no lock is
                // held across the call.
                let gateway = self.gateways.read().get(&producer).cloned();
                let gateway = match gateway {
                    Some(g) => g,
                    None => {
                        denies.inc();
                        self.audit.append(
                            audit_base()
                                .person(subject)
                                .denied("producer gateway not registered"),
                        )?;
                        return Err(CssError::NotFound(format!(
                            "no gateway registered for producer {producer}"
                        )));
                    }
                };
                let details =
                    match gateway.get_response(src_event_id, &allowed_fields, Some(&self.trace)) {
                        Ok(d) => d,
                        Err(e) => {
                            timer.stage("gateway_retrieve");
                            denies.inc();
                            self.audit.append(
                                audit_base()
                                    .person(subject)
                                    .denied(format!("gateway failure: {e}")),
                            )?;
                            return Err(e);
                        }
                    };
                timer.stage("gateway_retrieve");
                let span = self.trace.child("pep.obligation_filter");
                let response =
                    PrivacyAwareEvent::release(request.event_id, producer, details, allowed_fields);
                timer.stage("obligation_filter");
                span.finish();
                let matched = matched_policies
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                self.audit.append(
                    audit_base()
                        .person(subject)
                        .with_detail(format!("matched: {matched}")),
                )?;
                timer.finish();
                self.counters.detail_permits.inc();
                Ok(response)
            }
        }
    }
}
