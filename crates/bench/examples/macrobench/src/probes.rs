//! Layer probes: each layer's public functions called directly on
//! stand-alone instances, with inputs shaped like the workload's own
//! (same schemas, same policy table, same fan-out, same backend kind).
//! A probe is the median over batches of the mean time per call.
//!
//! Probes use only constructors and functions ROADMAP item 4 keeps: no
//! `*_traced` twin, no `_sequenced` constructor, nothing deprecated.

use std::collections::{BTreeSet, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use css_audit::{AuditAction, AuditQuery, AuditRecord, AuditShards};
use css_bus::{Bus, PublishOptions, SubscriptionConfig};
use css_controller::{ConsentDecision, ConsentRegistry, ConsentScope, EventsIndex};
use css_core::BackendProvider;
use css_crypto::{hmac_sha256, HashChain, SealedBox};
use css_event::{DetailMessage, EventDetails, NotificationMessage};
use css_gateway::LocalCooperationGateway;
use css_policy::{DetailRequest, PolicyDecisionPoint, PrivacyPolicy};
use css_registry::EventCatalog;
use css_sim::synth_details;
use css_telemetry::{MetricsRegistry, StageTimer};
use css_trace::Tracer;
use css_types::{
    Actor, ActorId, ActorRegistry, CssResult, GlobalEventId, PersonId, PolicyId, Purpose,
    RequestId, SourceEventId, Timestamp,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;
use crate::trace::{Recorder, SpanKind, TimedProvider};
use crate::workload::SHARDS;
use crate::world::{World, T0};

/// Batches per probe (the probe's value is their median).
const BATCHES: usize = 15;
/// Master key of the stand-alone crypto and index instances.
const KEY: &[u8] = b"macrobench-probe-key";

/// Median over [`BATCHES`] batches of the mean microseconds per call of
/// `call`, `iters` calls per batch.
fn probe(iters: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut batch_us = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let start = Instant::now();
        for i in 0..iters {
            call(b * iters + i);
        }
        batch_us.push(start.elapsed().as_secs_f64() * 1e6 / iters as f64);
    }
    median(&batch_us).expect("BATCHES ≥ 1")
}

/// What the traced replay observed, so probes run at the workload's
/// own operating point.
pub struct Shape {
    /// Mean subscribers notified per publish.
    pub fanout: usize,
    /// Mean events returned per `inquire_by_person`.
    pub events_per_inquiry: usize,
}

/// Every probe result, microseconds per call unless the name says
/// otherwise, as `(metric name, value)`.
pub fn run<P: BackendProvider, Q: BackendProvider>(
    world: &World<P>,
    storage: &Q,
    shape: &Shape,
) -> CssResult<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x009B_0BE5);
    let fanout = shape.fanout.max(1);

    // Inputs every layer shares: one event of the first class.
    let class = &world.classes[0];
    let person = world.persons[0].clone();
    let details = synth_details(&class.ty, person.id, &mut rng);
    let notification = |gid: u64| NotificationMessage {
        global_id: GlobalEventId(gid),
        event_type: class.ty.clone(),
        person: person.clone(),
        description: class.description.clone(),
        occurred_at: T0,
        producer: class.producer_id,
    };

    // ---- crypto ----
    let sealer = SealedBox::new(KEY);
    let identity = person.to_bytes();
    out.push((
        "crypto.seal_us",
        probe(2_000, |i| {
            black_box(sealer.seal(i as u64, black_box(&identity)));
        }),
    ));
    let sealed = sealer.seal(1, &identity);
    out.push((
        "crypto.open_us",
        probe(2_000, |_| {
            black_box(sealer.open(black_box(&sealed)).expect("sealed by this box"));
        }),
    ));
    out.push((
        "crypto.person_tag_us",
        probe(2_000, |i| {
            black_box(hmac_sha256(KEY, &(i as u64).to_le_bytes()));
        }),
    ));
    let audit_record = |i: usize| {
        AuditRecord::new(T0, class.producer_id, AuditAction::DetailRequest)
            .event(GlobalEventId(i as u64))
            .event_type(class.ty.clone())
            .person(person.id)
            .purpose(Purpose::HealthcareTreatment)
            .request(RequestId(i as u64))
            .with_detail("matched: pol-00000001")
    };
    let record_xml = css_xml::to_string(&audit_record(1).to_xml()).into_bytes();
    let mut chain = HashChain::new();
    out.push((
        "crypto.chain_append_us",
        probe(2_000, |_| {
            black_box(chain.append(record_xml.clone()));
        }),
    ));

    // ---- event (+ xml) ----
    let n = notification(1);
    out.push((
        "event.notification_encode_us",
        probe(1_000, |_| {
            black_box(css_xml::to_string(&black_box(&n).to_xml()));
        }),
    ));
    let n_xml = css_xml::to_string(&n.to_xml());
    out.push((
        "event.notification_decode_us",
        probe(1_000, |_| {
            let parsed = css_xml::parse(black_box(&n_xml)).expect("own encoding parses");
            black_box(NotificationMessage::from_xml(&parsed).expect("own encoding decodes"));
        }),
    ));
    out.push((
        "event.details_encode_us",
        probe(1_000, |_| {
            black_box(css_xml::to_string(
                &black_box(&details).to_xml(&class.schema, Some("src-00000001")),
            ));
        }),
    ));
    let d_xml = css_xml::to_string(&details.to_xml(&class.schema, Some("src-00000001")));
    out.push((
        "event.details_decode_us",
        probe(1_000, |_| {
            let parsed = css_xml::parse(black_box(&d_xml)).expect("own encoding parses");
            black_box(
                EventDetails::from_xml(&class.schema, &parsed).expect("own encoding decodes"),
            );
        }),
    ));

    // ---- registry ----
    let mut actors = ActorRegistry::new();
    let mut by_depth: Vec<&Vec<ActorId>> = world.requesters.iter().map(|r| &r.chain).collect();
    by_depth.sort_by_key(|chain| chain.len());
    for c in &world.classes {
        if actors.get(c.producer_id).is_none() {
            actors.register(Actor::organization(
                c.producer_id,
                format!("producer {}", c.producer_id),
            ))?;
        }
    }
    for chain in by_depth {
        if actors.get(chain[0]).is_some() {
            continue;
        }
        let name = format!("actor {}", chain[0]);
        actors.register(match chain.len() {
            1 => Actor::organization(chain[0], name),
            2 => Actor::unit(chain[0], name, chain[1]),
            _ => Actor::role(chain[0], name, chain[1]),
        })?;
    }
    // The deepest requester: a role at depth 3 where the world has one.
    let deepest = world
        .requesters
        .iter()
        .max_by_key(|r| r.chain.len())
        .expect("the world has requesters");
    out.push((
        "registry.ancestors_us",
        probe(5_000, |_| {
            black_box(actors.ancestors(black_box(deepest.id)));
        }),
    ));
    let mut catalog = EventCatalog::new();
    for c in &world.classes {
        catalog.declare(&c.schema, None)?;
    }
    out.push((
        "registry.schema_lookup_us",
        probe(2_000, |_| {
            black_box(catalog.schema(black_box(&class.ty)).expect("declared"));
        }),
    ));

    // ---- policy ----
    let policy_of = |id: u64, g: &crate::world::Grant| {
        let c = &world.classes[g.class];
        PrivacyPolicy::new(
            PolicyId(id),
            c.producer_id,
            g.actor,
            c.ty.clone(),
            g.purposes.iter().cloned(),
            c.names(g.fields).map(str::to_string),
        )
    };
    let mut pdp = PolicyDecisionPoint::new();
    for (i, g) in world.grants.iter().enumerate() {
        pdp.install(policy_of(i as u64 + 1, g));
    }
    // A request the matrix permits: the first grant's actor and purpose.
    let g0 = &world.grants[0];
    let request = DetailRequest::new(
        RequestId(1),
        g0.actor,
        world.classes[g0.class].ty.clone(),
        GlobalEventId(1),
        g0.purposes[0].clone(),
    );
    assert!(pdp.evaluate(&request, &actors, T0).is_permit());
    out.push((
        "policy.evaluate_hit_us",
        probe(5_000, |_| {
            black_box(pdp.evaluate(black_box(&request), &actors, T0));
        }),
    ));
    let invalidate_us = probe(5_000, |_| pdp.invalidate_cache());
    let miss_us = probe(2_000, |_| {
        pdp.invalidate_cache();
        black_box(pdp.evaluate(black_box(&request), &actors, T0));
    });
    out.push((
        "policy.evaluate_miss_us",
        (miss_us - invalidate_us).max(0.0),
    ));
    out.push((
        "policy.is_authorized_us",
        probe(5_000, |_| {
            black_box(pdp.is_authorized(g0.actor, &request.event_type, &actors, T0));
        }),
    ));
    let next_id = world.grants.len() as u64 + 1;
    out.push((
        "policy.install_us",
        probe(500, |i| pdp.install(policy_of(next_id + i as u64, g0))),
    ));
    out.push((
        "policy.revoke_us",
        probe(500, |i| {
            black_box(pdp.revoke(PolicyId(next_id + i as u64)));
        }),
    ));

    // ---- controller ----
    let mut consent = ConsentRegistry::new();
    for p in 0..64 {
        consent.record(
            PersonId(p * 3 + 1),
            ConsentScope::All,
            ConsentDecision::OptOut,
            T0,
        );
    }
    out.push((
        "controller.consent_allows_us",
        probe(5_000, |i| {
            black_box(consent.allows(PersonId(i as u64 % 200 + 1), class.producer_id, &class.ty));
        }),
    ));
    let notified: HashSet<ActorId> = world.subscribers(0).take(fanout).collect();
    let mut index = EventsIndex::open(KEY, storage.backend("probe-index")?)?;
    out.push((
        "controller.index_insert_us",
        probe(500, |i| {
            index
                .insert(
                    &notification(i as u64 + 1),
                    SourceEventId(i as u64 + 1),
                    notified.clone(),
                )
                .expect("fresh event id");
        }),
    ));
    out.push((
        "controller.index_resolve_us",
        probe(5_000, |i| {
            black_box(
                index
                    .resolve_source(GlobalEventId(i as u64 % 500 + 1))
                    .expect("indexed"),
            );
        }),
    ));
    out.push((
        "controller.index_decrypt_us",
        probe(2_000, |i| {
            black_box(
                index
                    .decrypt_notification(GlobalEventId(i as u64 % 500 + 1))
                    .expect("indexed"),
            );
        }),
    ));
    // Every probe event is about the same person: filter a history of
    // the workload's mean inquiry length.
    let history: Vec<GlobalEventId> = index
        .events_of_person(person.id)
        .into_iter()
        .take(shape.events_per_inquiry.max(1))
        .collect();
    let reader = deepest.id;
    let filter_us = probe(200, |_| {
        black_box(
            index
                .filter_authorized(&history, reader, |_| true)
                .expect("indexed events decrypt"),
        );
    });
    out.push((
        "controller.index_filter_us_per_event",
        filter_us / history.len() as f64,
    ));

    // ---- audit ----
    let backends = (0..SHARDS)
        .map(|i| storage.backend(&format!("probe-audit-{i}")))
        .collect::<CssResult<Vec<_>>>()?;
    let audit = AuditShards::open(backends)?;
    out.push((
        "audit.append_us",
        probe(1_000, |i| {
            black_box(audit.append(audit_record(i)).expect("append"));
        }),
    ));
    out.push((
        "audit.append_batch_us",
        probe(300, |i| {
            let batch = (0..=fanout).map(|k| audit_record(i * 8 + k)).collect();
            black_box(audit.append_batch(batch).expect("append batch"));
        }),
    ));
    let records = audit.len();
    let query = AuditQuery::new().person(PersonId(u64::MAX));
    let query_us = probe(3, |_| {
        black_box(audit.query(black_box(&query)));
    });
    out.push((
        "audit.query_person_us_per_krecord",
        query_us / (records as f64 / 1e3),
    ));
    let verify_us = probe(1, |_| audit.verify().expect("untampered chain"));
    out.push(("audit.verify_us_per_record", verify_us / records as f64));

    // ---- bus ----
    let bus: Bus<NotificationMessage> = Bus::in_memory();
    bus.create_topic("probe");
    let subscribers = (0..fanout)
        .map(|_| bus.subscribe("probe", SubscriptionConfig::default()))
        .collect::<CssResult<Vec<_>>>()?;
    let (mut publish_us, mut poll_ack_us) = (Vec::new(), Vec::new());
    for batch in 0..BATCHES {
        const ITERS: usize = 300;
        let (mut publishing, mut draining) = (0.0, 0.0);
        for i in 0..ITERS {
            let key = format!("{}:{}", class.producer_id, batch * ITERS + i);
            let start = Instant::now();
            bus.publish_opts("probe", n.clone(), PublishOptions::new().dedup_key(&key))
                .expect("topic exists");
            publishing += start.elapsed().as_secs_f64();
            let start = Instant::now();
            for s in &subscribers {
                let d = s.poll().expect("subscribed").expect("just published");
                s.ack(d.delivery_id).expect("in flight");
            }
            draining += start.elapsed().as_secs_f64();
        }
        publish_us.push(publishing * 1e6 / ITERS as f64);
        poll_ack_us.push(draining * 1e6 / (ITERS * fanout) as f64);
    }
    out.push(("bus.publish_us", median(&publish_us).expect("BATCHES ≥ 1")));
    out.push((
        "bus.poll_ack_us",
        median(&poll_ack_us).expect("BATCHES ≥ 1"),
    ));

    // ---- gateway ----
    let recorder = Arc::new(Recorder::default());
    let timed = TimedProvider::new(StorageRef(storage), recorder.clone());
    let mut gateway =
        LocalCooperationGateway::open(class.producer_id, timed.backend("probe-gateway")?)?;
    gateway.register_schema(class.schema.clone())?;
    let message = |i: usize| DetailMessage {
        src_event_id: SourceEventId(i as u64 + 1),
        producer: class.producer_id,
        details: details.clone(),
    };
    out.push((
        "gateway.persist_us",
        probe(300, |i| {
            gateway.persist(&message(i)).expect("schema-valid details")
        }),
    ));
    let allowed: BTreeSet<String> = class.names(class.plain_mask).map(str::to_string).collect();
    recorder.take();
    let calls = BATCHES * 1_000;
    let response_us = probe(1_000, |i| {
        black_box(
            gateway
                .get_response(SourceEventId(i as u64 % 300 + 1), &allowed, None)
                .expect("persisted above"),
        );
    });
    let read_us: f64 = recorder
        .take()
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Read(_)))
        .map(|s| s.ns() as f64 / 1e3)
        .sum::<f64>()
        / calls as f64;
    out.push(("gateway.get_response_us", response_us));
    out.push((
        "gateway.get_response_self_us",
        (response_us - read_us).max(0.0),
    ));

    // ---- telemetry (+ trace) ----
    let registry = MetricsRegistry::new();
    out.push((
        "telemetry.counter_lookup_us",
        probe(5_000, |_| {
            registry.counter("controller.detail_requests").inc()
        }),
    ));
    out.push((
        "telemetry.stage_timer_us",
        probe(2_000, |_| {
            let mut timer = StageTimer::start(&registry, "stage");
            for stage in [
                "pip_resolve",
                "notified_check",
                "consent_check",
                "pdp_evaluate",
                "gateway_retrieve",
                "obligation_filter",
            ] {
                timer.stage(stage);
            }
            timer.finish();
        }),
    ));
    let tracer = Tracer::disabled();
    out.push((
        "trace.disabled_span_us",
        probe(5_000, |_| {
            let root = tracer.root("detail_request", Timestamp(0));
            let child = root.context().child("pep.pdp_evaluate");
            child.finish();
            root.finish();
        }),
    ));
    Ok(out)
}

/// Lets a borrowed provider be wrapped by [`TimedProvider`].
struct StorageRef<'a, Q>(&'a Q);

impl<Q: BackendProvider> BackendProvider for StorageRef<'_, Q> {
    type Backend = Q::Backend;

    fn backend(&self, name: &str) -> CssResult<Q::Backend> {
        self.0.backend(name)
    }
}
