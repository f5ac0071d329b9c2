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
//! The PEP is a method of the controller, reading its sharded planes
//! and locked registries per request; it takes each registry read
//! guard only for the stage that needs it (pdp before actors when both
//! are held) and clones the gateway handle out of its registry before
//! the network call, so no lock spans producer I/O.

use std::sync::Arc;

use css_audit::{AuditAction, AuditRecord};
use css_event::PrivacyAwareEvent;
use css_policy::DetailRequest;
use css_storage::LogBackend;
use css_trace::SpanAttr;
use css_types::{CssError, CssResult, DenyReason, Timestamp};

use crate::controller::DataController;
use crate::index::DetailResolution;

impl<B: LogBackend> DataController<B> {
    /// Algorithm 1, as one timed pass under a fresh `detail_request`
    /// root span. Returns the privacy-aware event on permit.
    ///
    /// Each stage records its latency into a `stage.*` histogram and,
    /// traced, a child span of its name; a denied or failed request
    /// records only the stages it reached (plus the
    /// `controller.detail_denies` counter and, via the pass's drop,
    /// `stage.partial` and `stage.total`, its root `Denied` or
    /// `Error`), a permitted one records all seven and `stage.total`.
    pub(crate) fn get_event_details(
        &self,
        request: &DetailRequest,
        now: Timestamp,
    ) -> CssResult<PrivacyAwareEvent> {
        self.counters.detail_requests.inc();
        let timer = self.counters.detail_stages.start();
        let mut pass = self.tracer().pass(timer, "detail_request", now);
        pass.attr(|| SpanAttr::actor(request.actor));
        pass.attr(|| SpanAttr::event(request.event_id));
        pass.attr(|| SpanAttr::event_type(&request.event_type));
        pass.attr(|| SpanAttr::purpose(&request.purpose));
        let trace_id = pass.trace_id();
        let audit_base = || {
            AuditRecord::new(now, request.actor, AuditAction::DetailRequest)
                .event(request.event_id)
                .event_type(request.event_type.clone())
                .purpose(request.purpose.clone())
                .request(request.request_id)
                .trace(trace_id)
        };
        // A request that releases nothing: counted, audited, refused.
        let refuse = |record: AuditRecord, err: CssError| -> CssResult<PrivacyAwareEvent> {
            self.counters.detail_denies.inc();
            self.audit.append(record)?;
            Err(err)
        };

        // Step 1 — PIP: eID → (producer, src_eID, type). One visit to
        // the event's owner shard answers this stage and the two
        // preconditions after it; each is still checked, timed and
        // audited at its own boundary below. The ancestor chain is
        // resolved first: the registry lock is not taken under a
        // shard's.
        let ancestors = self.actors.read().ancestors(request.actor);
        let resolution = self.index.resolve_detail_request(
            request.event_id,
            &request.event_type,
            request.actor,
            &ancestors,
        );
        pass.stage("pip_resolve");
        let resolution = match resolution {
            Ok(r) => r,
            Err(e) => return refuse(audit_base().denied("event not found in index"), e),
        };
        if let DetailResolution::TypeMismatch(indexed_type) = &resolution {
            let (declared, id) = (&request.event_type, request.event_id);
            let err =
                format!("request declares type {declared} but event {id} is a {indexed_type}");
            return refuse(
                audit_base().denied("declared event type mismatch"),
                CssError::Invalid(err),
            );
        }

        // Precondition: the requester (or an enclosing organization)
        // received the notification.
        pass.stage("notified_check");
        let DetailResolution::Resolved {
            producer,
            src_event_id,
            subject,
        } = resolution
        else {
            pass.deny();
            let reason = DenyReason::NotNotified;
            return refuse(
                audit_base().denied(reason.to_string()),
                CssError::AccessDenied(reason),
            );
        };

        // Precondition: data-subject consent (needs the person id,
        // which the index hands out only once the checks above had
        // passed: its bucket's, learned from the identity the
        // controller sealed at publish time).
        let subject = match subject {
            Ok(subject) => subject,
            Err(e) => {
                pass.stage("consent_check");
                return refuse(audit_base().denied("data subject unavailable"), e);
            }
        };
        let consented = self
            .consent
            .read()
            .allows(subject, producer, &request.event_type);
        pass.stage("consent_check");
        if !consented {
            pass.deny();
            let (reason, record) = (DenyReason::ConsentWithheld, audit_base().person(subject));
            return refuse(
                record.denied(reason.to_string()),
                CssError::AccessDenied(reason),
            );
        }

        // Steps 2–3 — PDP: find and evaluate the matching policy. The
        // PDP answers repeat (actor, type, purpose) requests from its
        // segmented decision cache, with the permit its miss built
        // (fields, policies and audit text derived once); hits and
        // misses are counted separately so the cache-hit rate is
        // visible in a telemetry snapshot.
        let (verdict, cache_hit) = {
            let pdp = self.pdp.read();
            let actors = self.actors.read();
            pdp.decide(request, &actors, now)
        };
        pass.stage_with("pdp_evaluate", || {
            [
                SpanAttr::cache_hit(cache_hit),
                SpanAttr::decision(verdict.is_ok()),
            ]
        });
        if cache_hit {
            self.counters.pdp_cache_hit.inc();
        } else {
            self.counters.pdp_cache_miss.inc();
        }
        let permit = match verdict {
            Ok(permit) => permit,
            Err(reason) => {
                pass.deny();
                let record = audit_base().person(subject).denied(reason.to_string());
                return refuse(record, CssError::AccessDenied(reason));
            }
        };

        // Step 4 — getResponse at the producer. Failures here are
        // infrastructure faults, not policy denials, but they are
        // audited all the same. The gateway continues the trace with
        // its own Algorithm 2 spans. The handle is cloned out of the
        // registry so no lock is held across the call.
        let Some(gateway) = self.gateways.read().get(&producer).cloned() else {
            let record = audit_base()
                .person(subject)
                .denied("producer gateway not registered");
            let err = format!("no gateway registered for producer {producer}");
            return refuse(record, CssError::NotFound(err));
        };
        let allowed = permit.allowed_fields();
        let details = gateway.get_response(src_event_id, allowed, Some(&pass.context()));
        pass.stage("gateway_retrieve");
        let details = match details {
            Ok(d) => d,
            Err(e) => {
                let record = audit_base().person(subject);
                return refuse(record.denied(format!("gateway failure: {e}")), e);
            }
        };
        let response =
            PrivacyAwareEvent::release(request.event_id, producer, details, Arc::clone(allowed));
        pass.stage("obligation_filter");
        self.audit.append(
            audit_base()
                .person(subject)
                .with_detail(permit.audit_detail()),
        )?;
        pass.stage("audit");
        pass.finish();
        self.counters.detail_permits.inc();
        Ok(response)
    }
}
