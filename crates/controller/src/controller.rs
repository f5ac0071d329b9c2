//! The Data Controller facade.
//!
//! Since the sharded data plane (see [`crate::shards`]) every method
//! takes `&self`: the controller's registries sit behind their own
//! `RwLock`s, the events index and audit log are partitioned by
//! citizen into independently locked shards, and id generators are
//! atomic. Callers share one controller with a plain `Arc` — no outer
//! mutex — and operations on different citizens proceed in parallel.
//!
//! Lock ordering (to stay deadlock-free): registry read guards (`pdp`
//! before `actors` when both are held) are taken before any index
//! shard lock; audit shard locks are taken last, with no other guard
//! held. Cross-shard operations hold one shard lock at a time.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

use css_audit::{AuditAction, AuditQuery, AuditRecord, AuditReport, AuditShards};
use css_bus::{Bus, BusDriver, PublishOptions, SubscriberHandle, SubscriptionConfig};
use css_event::{EventSchema, NotificationMessage};
use css_policy::{DetailRequest, PolicyDecisionPoint, PrivacyPolicy};
use css_registry::EventCatalog;
use css_storage::LogBackend;
use css_telemetry::{Counter, MetricsRegistry, StageTimer};
use css_trace::{SpanAttr, SpanStatus, Tracer};
use css_types::{
    Actor, ActorId, ActorRegistry, Clock, CssError, CssResult, DenyReason, EventTypeId,
    GlobalEventId, IdGenerator, PersonId, PersonIdentity, PolicyId, Purpose, SourceEventId,
    SubscriptionId, Timestamp,
};

use crate::consent::{ConsentDecision, ConsentRegistry, ConsentScope};
use crate::contract::{ContractRegistry, ParticipantContract, ParticipantRole};
use crate::gateway_client::GatewayClient;
use crate::pep::PolicyEnforcementPoint;
use crate::shards::IndexShards;

/// Which events an index inquiry considers.
enum Candidates {
    /// Every event about one person: looked up inside the owner shard.
    OfPerson(PersonId),
    /// Ids gathered across shards beforehand (by type, by time).
    Listed(Vec<GlobalEventId>),
}

/// Construction parameters for a controller.
pub struct ControllerConfig {
    /// Master key for sealing identifying data in the events index.
    pub master_key: Vec<u8>,
    /// Clock used for policy evaluation, notifications and audit.
    pub clock: Arc<dyn Clock>,
    /// Registry the controller and its bus record metrics into. Share
    /// one registry across subsystems to get a platform-wide snapshot.
    pub telemetry: MetricsRegistry,
    /// Tracer the controller mints causal spans into (publish → route →
    /// deliver, inquiry, detail request → PEP stages). Disabled by
    /// default, making every span a no-op.
    pub tracer: Tracer,
    /// Bus driver the controller routes notifications through. `None`
    /// (the default) builds a private in-memory broker instrumented
    /// against `telemetry`; supply a driver to swap the transport (e.g.
    /// a [`css_bus::RecordingDriver`] in tests, a networked broker in a
    /// multi-site deployment). The bus carries a pointer to the one
    /// notification a publish builds.
    pub bus_driver: Option<Arc<dyn BusDriver<Arc<NotificationMessage>>>>,
}

impl ControllerConfig {
    /// A configuration with the given clock and a test-grade master key.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        ControllerConfig {
            master_key: b"css-demo-master-key".to_vec(),
            clock,
            telemetry: MetricsRegistry::new(),
            tracer: Tracer::disabled(),
            bus_driver: None,
        }
    }

    /// Use an existing registry (e.g. the platform's) instead of a
    /// private one.
    pub fn with_telemetry(mut self, registry: MetricsRegistry) -> Self {
        self.telemetry = registry;
        self
    }

    /// Use an existing tracer (e.g. the platform's) so controller spans
    /// land in a shared collector.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Route notifications through the given driver instead of a
    /// private in-memory broker. The driver is payload-blind; detail
    /// confinement holds regardless of the transport chosen here.
    pub fn with_bus_driver(mut self, driver: Arc<dyn BusDriver<Arc<NotificationMessage>>>) -> Self {
        self.bus_driver = Some(driver);
        self
    }
}

/// Counters of the request paths, resolved once at
/// [`DataController::open`] like the bus's and the index plane's
/// instruments: a request increments them without consulting the
/// registry.
pub(crate) struct RequestCounters {
    /// `controller.published` — publishes routed, indexed and audited.
    published: Counter,
    /// `controller.publish_denied` — publishes the consent gate refused.
    publish_denied: Counter,
    /// `controller.publish_deduped` — producer retries the bus dropped.
    publish_deduped: Counter,
    /// `controller.detail_requests` — Algorithm 1 invocations.
    pub(crate) detail_requests: Counter,
    /// `controller.detail_denies` — requests that released nothing.
    pub(crate) detail_denies: Counter,
    /// `controller.detail_permits` — requests that released details.
    pub(crate) detail_permits: Counter,
    /// `pdp.cache_hit` — decisions answered from the decision cache.
    pub(crate) pdp_cache_hit: Counter,
    /// `pdp.cache_miss` — decisions that evaluated the policy set.
    pub(crate) pdp_cache_miss: Counter,
}

impl RequestCounters {
    fn resolve(registry: &MetricsRegistry) -> Self {
        RequestCounters {
            published: registry.counter("controller.published"),
            publish_denied: registry.counter("controller.publish_denied"),
            publish_deduped: registry.counter("controller.publish_deduped"),
            detail_requests: registry.counter("controller.detail_requests"),
            detail_denies: registry.counter("controller.detail_denies"),
            detail_permits: registry.counter("controller.detail_permits"),
            pdp_cache_hit: registry.counter("pdp.cache_hit"),
            pdp_cache_miss: registry.counter("pdp.cache_miss"),
        }
    }
}

/// How notifications of one declared class reach their consumers.
struct ClassRoute {
    /// The class's bus topic: the canonical text of its id.
    topic: String,
    /// The live subscriptions, consumers ascending: a publish reads
    /// them already in the order the receipt and the Delivery records
    /// want.
    receivers: Vec<(SubscriptionId, ActorId)>,
}

/// Outcome of a successful publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishReceipt {
    /// The global event id the controller minted.
    pub global_id: GlobalEventId,
    /// Consumer organizations the notification was routed to.
    pub notified: Vec<ActorId>,
}

/// The central coordination node (Fig. 2).
///
/// Generic over the storage backend of its audit log so tests run in
/// memory and deployments on disk. All methods take `&self`; share a
/// controller between threads with `Arc<DataController<_>>`.
pub struct DataController<B: LogBackend> {
    actors: RwLock<ActorRegistry>,
    contracts: RwLock<ContractRegistry>,
    catalog: RwLock<EventCatalog>,
    /// Payload-blind and handed a pointer: every queue entry, delivery
    /// and dead-lettered message of one publish is the one notification
    /// that publish built.
    bus: Bus<Arc<NotificationMessage>>,
    index: IndexShards<B>,
    pdp: RwLock<PolicyDecisionPoint>,
    consent: RwLock<ConsentRegistry>,
    audit: AuditShards<B>,
    gateways: RwLock<HashMap<ActorId, Arc<dyn GatewayClient>>>,
    /// What a publish needs to route a declared class, written at
    /// declare / subscribe / unsubscribe.
    routes: RwLock<HashMap<EventTypeId, ClassRoute>>,
    clock: Arc<dyn Clock>,
    telemetry: MetricsRegistry,
    counters: RequestCounters,
    tracer: Tracer,
    eid_gen: IdGenerator,
    policy_gen: IdGenerator,
    request_gen: IdGenerator,
}

impl<B: LogBackend> DataController<B> {
    /// Open a controller with one audit backend and one index backend
    /// **per shard**: the shard count of the data plane (events index +
    /// audit) **is** the length of the two vectors, which must be equal.
    /// One backend each is the unsharded layout; `MemBackend`s give an
    /// in-memory controller; a multicore deployment wants one shard per
    /// expected concurrent writer, e.g. `min(8, cores)`. Both planes
    /// replay what their backends hold, and index replay re-routes
    /// every persisted entry to its current owner shard, so reopening
    /// with more shards loses nothing.
    pub fn open(
        config: ControllerConfig,
        audit_backends: Vec<B>,
        index_backends: Vec<B>,
    ) -> CssResult<Self> {
        if audit_backends.len() != index_backends.len() {
            return Err(CssError::Invalid(format!(
                "shard backend mismatch: {} audit vs {} index",
                audit_backends.len(),
                index_backends.len()
            )));
        }
        let mut index = IndexShards::open(&config.master_key, index_backends)?;
        let audit = AuditShards::open(audit_backends)?;
        index.instrument(&config.telemetry);
        // Continue minting global ids after the highest recovered one so
        // restarts never reuse an eID (nonce safety for the sealer).
        let next_eid = index.max_event_id().map(|m| m.value() + 1).unwrap_or(1);
        Ok(DataController {
            actors: RwLock::new(ActorRegistry::new()),
            contracts: RwLock::new(ContractRegistry::new()),
            catalog: RwLock::new(EventCatalog::new()),
            bus: match config.bus_driver {
                Some(driver) => Bus::from_driver(driver),
                None => Bus::in_memory_with_telemetry(&config.telemetry),
            },
            index,
            pdp: RwLock::new(PolicyDecisionPoint::new()),
            consent: RwLock::new(ConsentRegistry::new()),
            audit,
            gateways: RwLock::new(HashMap::new()),
            routes: RwLock::new(HashMap::new()),
            clock: config.clock,
            counters: RequestCounters::resolve(&config.telemetry),
            telemetry: config.telemetry,
            tracer: config.tracer,
            eid_gen: IdGenerator::starting_at(next_eid),
            policy_gen: IdGenerator::default(),
            request_gen: IdGenerator::default(),
        })
    }

    /// The registry this controller (and its bus) records into.
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// The tracer this controller mints spans into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current controller time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// How many data-plane shards this controller runs.
    pub fn shard_count(&self) -> usize {
        self.index.shard_count()
    }

    /// Indexed events per shard — the balance picture behind the
    /// imbalance gauge and health check.
    pub fn index_shard_lens(&self) -> Vec<usize> {
        self.index.shard_lens()
    }

    /// Audit records per shard.
    pub fn audit_shard_lens(&self) -> Vec<usize> {
        self.audit.shard_lens()
    }

    // ---- onboarding --------------------------------------------------

    /// Register an actor in the organizational registry.
    pub fn register_actor(&self, actor: Actor) -> CssResult<()> {
        self.actors.write().register(actor)?;
        // The hierarchy is an input to policy matching (a new unit under
        // an organization inherits its grants), so cached decisions are
        // no longer trustworthy.
        self.pdp.read().invalidate_cache();
        Ok(())
    }

    /// Read access to the actor registry.
    pub fn actors(&self) -> RwLockReadGuard<'_, ActorRegistry> {
        self.actors.read()
    }

    /// Sign a participation contract for a (top-level) actor.
    pub fn sign_contract(&self, actor: ActorId, role: ParticipantRole) -> CssResult<()> {
        if self.actors.read().get(actor).is_none() {
            return Err(CssError::NotFound(format!("actor {actor} not registered")));
        }
        let now = self.now();
        self.contracts.write().sign(ParticipantContract {
            actor,
            role,
            signed_at: now,
        });
        self.audit
            .append(AuditRecord::new(now, actor, AuditAction::ContractSigned))?;
        Ok(())
    }

    /// Connect a producer's gateway endpoint.
    pub fn register_gateway(&self, producer: ActorId, client: Box<dyn GatewayClient>) {
        self.gateways.write().insert(producer, Arc::from(client));
    }

    /// Producer declares a class of events in the catalog; the bus topic
    /// is created alongside.
    pub fn declare_event_class(&self, schema: &EventSchema, domain: Option<&str>) -> CssResult<()> {
        self.contracts.read().require_producer(schema.producer)?;
        self.catalog.write().declare(schema, domain)?;
        let topic = schema.id.to_string();
        self.bus.create_topic(&topic);
        self.routes
            .write()
            .entry(schema.id.clone())
            .or_insert_with(|| ClassRoute {
                topic,
                receivers: Vec::new(),
            });
        Ok(())
    }

    /// Read access to the event catalog (visible to every contracted
    /// participant).
    pub fn catalog(&self) -> RwLockReadGuard<'_, EventCatalog> {
        self.catalog.read()
    }

    // ---- policies -----------------------------------------------------

    /// Mint a fresh policy id (used by the elicitation tool).
    pub fn next_policy_id(&self) -> PolicyId {
        self.policy_gen.next_id()
    }

    /// Producer installs a privacy policy for one of its event classes.
    ///
    /// Validates ownership (only the declaring producer may protect its
    /// classes) and that `F` only names declared fields.
    pub fn define_policy(&self, policy: PrivacyPolicy) -> CssResult<()> {
        self.contracts.read().require_producer(policy.producer)?;
        {
            let catalog = self.catalog.read();
            let schema = catalog.schema(&policy.event_type)?;
            if schema.producer != policy.producer {
                return Err(CssError::Invalid(format!(
                    "event class {} belongs to {}, not to {}",
                    policy.event_type, schema.producer, policy.producer
                )));
            }
            for field in &policy.fields {
                if schema.field_def(field).is_none() {
                    return Err(CssError::Invalid(format!(
                        "policy names unknown field {field:?} of {}",
                        policy.event_type
                    )));
                }
            }
        }
        if self.actors.read().get(policy.actor).is_none() {
            return Err(CssError::NotFound(format!(
                "policy subject {} not registered",
                policy.actor
            )));
        }
        let record = AuditRecord::new(self.now(), policy.producer, AuditAction::PolicyChange)
            .event_type(policy.event_type.clone())
            .with_detail(format!("defined {}", policy.id));
        self.pdp.write().install(policy);
        self.audit.append(record)?;
        Ok(())
    }

    /// Restore a policy from the certified repository after a restart.
    ///
    /// Skips the ownership/field validation of
    /// [`DataController::define_policy`] (the repository content was
    /// validated when first defined) and writes no audit record (the
    /// original definition is already on the log).
    pub fn restore_policy(&self, policy: PrivacyPolicy) {
        // Keep the id generator ahead of restored ids.
        self.policy_gen.advance_past(policy.id.value());
        self.pdp.write().install(policy);
    }

    /// Producer revokes one of its policies.
    pub fn revoke_policy(&self, producer: ActorId, id: PolicyId) -> CssResult<()> {
        let owned = self
            .pdp
            .read()
            .iter()
            .any(|p| p.id == id && p.producer == producer);
        if !owned {
            return Err(CssError::NotFound(format!(
                "policy {id} not found for producer {producer}"
            )));
        }
        self.pdp.write().revoke(id);
        let record = AuditRecord::new(self.now(), producer, AuditAction::PolicyChange)
            .with_detail(format!("revoked {id}"));
        self.audit.append(record)?;
        Ok(())
    }

    /// Number of installed policies.
    pub fn policy_count(&self) -> usize {
        self.pdp.read().len()
    }

    /// Whether any policy (valid now, not revoked) authorizes `consumer`
    /// for events of `event_type` — the subscription / inquiry gate.
    /// Served from the PDP's generation-stamped cache on repeat checks;
    /// the cache is segment-local but its generation stamp is global, so
    /// a revocation anywhere denies everywhere on the next request.
    pub fn is_authorized_consumer(&self, consumer: ActorId, event_type: &EventTypeId) -> bool {
        let now = self.now();
        let pdp = self.pdp.read();
        let actors = self.actors.read();
        pdp.is_authorized(consumer, event_type, &actors, now)
    }

    // ---- subscription --------------------------------------------------

    /// Consumer subscribes to a class of events.
    ///
    /// Deny-by-default: rejected unless a privacy policy authorizes this
    /// consumer for the class (Section 5.2).
    pub fn subscribe(
        &self,
        consumer: ActorId,
        event_type: &EventTypeId,
    ) -> CssResult<SubscriberHandle<Arc<NotificationMessage>>> {
        self.subscribe_inner(consumer, event_type, None)
    }

    /// Consumer subscribes a *worker group*: every call with the same
    /// `group` name joins one competing-consumer group, so N workers of
    /// the same organization split the notification stream instead of
    /// each receiving every message. The group is scoped to the consumer
    /// (two organizations using the same group name never share a
    /// queue), and each member passes the same deny-by-default
    /// authorization gate as [`DataController::subscribe`].
    pub fn subscribe_grouped(
        &self,
        consumer: ActorId,
        event_type: &EventTypeId,
        group: &str,
    ) -> CssResult<SubscriberHandle<Arc<NotificationMessage>>> {
        let scoped = format!("{consumer}:{group}");
        self.subscribe_inner(consumer, event_type, Some(&scoped))
    }

    fn subscribe_inner(
        &self,
        consumer: ActorId,
        event_type: &EventTypeId,
        group: Option<&str>,
    ) -> CssResult<SubscriberHandle<Arc<NotificationMessage>>> {
        let org = self
            .actors
            .read()
            .organization_of(consumer)
            .ok_or_else(|| CssError::NotFound(format!("actor {consumer} not registered")))?;
        self.contracts.read().require_consumer(org)?;
        let now = self.now();
        if !self.catalog.read().contains(event_type) {
            return Err(CssError::NotFound(format!(
                "event class {event_type} not declared"
            )));
        }
        if !self.is_authorized_consumer(consumer, event_type) {
            self.audit.append(
                AuditRecord::new(now, consumer, AuditAction::Subscribe)
                    .event_type(event_type.clone())
                    .denied(DenyReason::NoMatchingPolicy.to_string()),
            )?;
            return Err(CssError::AccessDenied(DenyReason::NoMatchingPolicy));
        }
        let mut routes = self.routes.write();
        let route = routes
            .get_mut(event_type)
            .ok_or_else(|| CssError::NotFound(format!("event class {event_type} not declared")))?;
        let config = SubscriptionConfig::default();
        let handle = match group {
            Some(g) => self.bus.subscribe_group(&route.topic, g, config)?,
            None => self.bus.subscribe(&route.topic, config)?,
        };
        let at = route
            .receivers
            .partition_point(|(_, actor)| *actor <= consumer);
        route.receivers.insert(at, (handle.id(), consumer));
        drop(routes);
        let record =
            AuditRecord::new(now, consumer, AuditAction::Subscribe).event_type(event_type.clone());
        if let Err(unlogged) = self.audit.append(record) {
            // A dropped handle stays attached (subscriptions are
            // durable): left in place, its queue fills with nobody to
            // drain it and then rejects every publish of the class.
            let _ = self.unsubscribe(handle);
            return Err(unlogged);
        }
        Ok(handle)
    }

    /// Remove a subscription (consumer-initiated).
    pub fn unsubscribe(&self, handle: SubscriberHandle<Arc<NotificationMessage>>) -> CssResult<()> {
        for route in self.routes.write().values_mut() {
            route.receivers.retain(|(id, _)| *id != handle.id());
        }
        handle.unsubscribe()
    }

    // ---- publish --------------------------------------------------------

    /// Producer publishes an event: the notification is validated,
    /// consent-checked, indexed (identity sealed) and routed to every
    /// authorized subscriber. The detail message must already be
    /// persisted in the producer's gateway under `src_event_id`.
    ///
    /// `(producer, src_event_id)` doubles as the publish **idempotency
    /// key**: re-publishing the same source event (a producer retry
    /// after a timeout, a crash-recovery replay) is dropped by the bus's
    /// dedup window and reported as [`CssError::AlreadyExists`] instead
    /// of notifying every consumer twice.
    ///
    /// A fresh `publish` root span is minted. The span covers
    /// the consent gate through the audit group commit; `bus.route`,
    /// `bus.deliver` and `index.insert` become children, and the trace
    /// id is stamped into the Publish and Delivery audit records.
    ///
    /// Concurrency: publishes about different citizens touch disjoint
    /// index and audit shards, so they serialize only on the bus topic.
    pub fn publish(
        &self,
        producer: ActorId,
        person: PersonIdentity,
        description: String,
        event_type: EventTypeId,
        occurred_at: Timestamp,
        src_event_id: SourceEventId,
    ) -> CssResult<PublishReceipt> {
        self.contracts.read().require_producer(producer)?;
        let owner = self.catalog.read().owner(&event_type)?;
        if owner != producer {
            return Err(CssError::Invalid(format!(
                "event class {event_type} belongs to {owner}, not to {producer}"
            )));
        }
        let now = self.now();
        let mut timer = StageTimer::start(&self.telemetry, "publish");
        let mut span = self.tracer.root("publish", now);
        span.attr(SpanAttr::actor(producer));
        span.attr(SpanAttr::event_type(&event_type));
        let trace_id = span.trace_id();
        if let Some(t) = trace_id {
            // Exemplar: link this pass's publish.* buckets to its trace.
            timer.exemplar(t.value(), now.0);
        }
        // Consent gate at the source.
        if !self.consent.read().allows(person.id, producer, &event_type) {
            timer.stage("consent_gate");
            span.set_status(SpanStatus::Denied);
            self.counters.publish_denied.inc();
            self.audit.append(
                AuditRecord::new(now, producer, AuditAction::Publish)
                    .event_type(event_type.clone())
                    .person(person.id)
                    .trace(trace_id)
                    .denied(DenyReason::ConsentWithheld.to_string()),
            )?;
            return Err(CssError::ConsentWithheld(format!(
                "person {} opted out of {event_type} from {producer}",
                person.id
            )));
        }
        timer.stage("consent_gate");
        let global_id: GlobalEventId = self.eid_gen.next_id();
        span.attr(SpanAttr::event(global_id));
        // Built by move and held once: the bus, every delivery and the
        // index insert below read this one allocation.
        let notification = Arc::new(NotificationMessage {
            global_id,
            event_type,
            person,
            description,
            occurred_at,
            producer,
        });
        let event_type = &notification.event_type;
        let person = notification.person.id;
        // Route first (all-or-nothing on a full queue), then index. The
        // dedup key makes producer retries idempotent at the bus.
        let ctx = span.context();
        let dedup_key = format!("{producer}:{src_event_id}");
        let routes = self.routes.read();
        let route = routes
            .get(event_type)
            .ok_or_else(|| CssError::NotFound(format!("event class {event_type} not declared")))?;
        let outcome = self.bus.publish_opts(
            &route.topic,
            Arc::clone(&notification),
            PublishOptions::new().dedup_key(&dedup_key).traced(&ctx),
        )?;
        if outcome.is_duplicate() {
            timer.stage("route");
            span.set_status(SpanStatus::Error);
            span.finish();
            self.counters.publish_deduped.inc();
            return Err(CssError::AlreadyExists(format!(
                "source event {src_event_id} of {producer} was already published"
            )));
        }
        timer.stage("route");
        // Ascending (the class list is kept so), for the receipt and
        // for the Delivery records: the bytes of the audit log must not
        // depend on a hash seed. A consumer holding several
        // subscriptions to the class is one receiver.
        let mut receivers: Vec<ActorId> = route.receivers.iter().map(|(_, actor)| *actor).collect();
        drop(routes);
        receivers.dedup();
        let index_span = ctx.child("index.insert");
        self.index.insert(
            &notification,
            src_event_id,
            receivers.iter().copied().collect(),
        )?;
        index_span.finish();
        timer.stage("index");
        // One group commit for the Publish record and the per-consumer
        // Delivery fan-out: a single storage write instead of 1 + N.
        // Every record carries the same person, so the whole batch
        // lands on one audit shard.
        let mut records = Vec::with_capacity(1 + receivers.len());
        records.push(
            AuditRecord::new(now, producer, AuditAction::Publish)
                .event(global_id)
                .event_type(event_type.clone())
                .person(person)
                .trace(trace_id),
        );
        for consumer in &receivers {
            records.push(
                AuditRecord::new(now, *consumer, AuditAction::Delivery)
                    .event(global_id)
                    .event_type(event_type.clone())
                    .person(person)
                    .trace(trace_id),
            );
        }
        self.audit.append_batch(records)?;
        timer.stage("audit");
        timer.finish();
        span.finish();
        self.counters.published.inc();
        Ok(PublishReceipt {
            global_id,
            notified: receivers,
        })
    }

    // ---- index inquiry ----------------------------------------------------

    /// Consumer queries the events index for notifications about one
    /// person. Only events of classes the consumer is authorized for are
    /// returned; each returned event is marked as notified to the
    /// consumer (inquiry and pub/sub are equivalent notification
    /// channels, Section 4). Touches exactly one index shard. Mints an
    /// `inquiry` root span.
    pub fn inquire_by_person(
        &self,
        consumer: ActorId,
        person: PersonId,
    ) -> CssResult<Vec<NotificationMessage>> {
        self.filter_inquiry(consumer, Candidates::OfPerson(person))
    }

    /// Consumer queries the events index for notifications of one class.
    /// Scatter-gathers across shards; results keep global id order.
    pub fn inquire_by_type(
        &self,
        consumer: ActorId,
        event_type: &EventTypeId,
    ) -> CssResult<Vec<NotificationMessage>> {
        let ids = self.index.events_of_type(event_type);
        self.filter_inquiry(consumer, Candidates::Listed(ids))
    }

    /// Consumer queries the events index for notifications in a time
    /// window (any class the consumer is authorized for).
    pub fn inquire_between(
        &self,
        consumer: ActorId,
        from: Timestamp,
        to: Timestamp,
    ) -> CssResult<Vec<NotificationMessage>> {
        let ids = self.index.events_between(from, to);
        self.filter_inquiry(consumer, Candidates::Listed(ids))
    }

    fn filter_inquiry(
        &self,
        consumer: ActorId,
        candidates: Candidates,
    ) -> CssResult<Vec<NotificationMessage>> {
        let org = self
            .actors
            .read()
            .organization_of(consumer)
            .ok_or_else(|| CssError::NotFound(format!("actor {consumer} not registered")))?;
        self.contracts.read().require_consumer(org)?;
        let now = self.now();
        let mut span = self.tracer.root("inquiry", now);
        span.attr(SpanAttr::actor(consumer));
        // Resolve each candidate once inside its owner shard (entry
        // lookup, authorization, decrypt and notified-marking share a
        // single entry resolution; markers are persisted as one batch
        // per shard). The pdp/actors read guards span the scatter, but
        // shard locks nest strictly inside them, one at a time.
        let filter_span = span.context().child("index.filter");
        let mut out = {
            let pdp = self.pdp.read();
            let actors = self.actors.read();
            // With both guards held and `now` fixed, the answer for an
            // event class cannot change inside this inquiry: ask the
            // PDP once per class, not once per event.
            let mut decided: Vec<(EventTypeId, bool)> = Vec::new();
            let authorize = |ty: &EventTypeId| {
                if let Some((_, permitted)) = decided.iter().find(|(seen, _)| seen == ty) {
                    return *permitted;
                }
                let permitted = pdp.is_authorized(consumer, ty, &actors, now);
                decided.push((ty.clone(), permitted));
                permitted
            };
            match candidates {
                Candidates::OfPerson(person) => self
                    .index
                    .filter_authorized_of_person(person, consumer, authorize)?,
                Candidates::Listed(ids) => {
                    self.index.filter_authorized(&ids, consumer, authorize)?
                }
            }
        };
        filter_span.finish();
        self.audit.append(
            AuditRecord::new(now, consumer, AuditAction::IndexInquiry)
                .trace(span.trace_id())
                .with_detail(format!("{} events returned", out.len())),
        )?;
        span.finish();
        out.sort_by_key(|n| n.global_id);
        Ok(out)
    }

    // ---- detail requests ----------------------------------------------------

    /// Consumer requests the details of an event (Algorithm 1) under a
    /// fresh `detail_request` root span. Every Algorithm 1 stage the PEP
    /// reaches becomes a child span, and the root span status mirrors
    /// the outcome: `Denied` for policy denials, `Error` for
    /// infrastructure faults.
    pub fn request_details(
        &self,
        consumer: ActorId,
        event_type: EventTypeId,
        event_id: GlobalEventId,
        purpose: Purpose,
    ) -> CssResult<css_event::PrivacyAwareEvent> {
        let org = self
            .actors
            .read()
            .organization_of(consumer)
            .ok_or_else(|| CssError::NotFound(format!("actor {consumer} not registered")))?;
        self.contracts.read().require_consumer(org)?;
        let now = self.now();
        let mut span = self.tracer.root("detail_request", now);
        span.attr(SpanAttr::actor(consumer));
        span.attr(SpanAttr::event(event_id));
        span.attr(SpanAttr::event_type(&event_type));
        span.attr(SpanAttr::purpose(&purpose));
        let request = DetailRequest::new(
            self.request_gen.next_id(),
            consumer,
            event_type,
            event_id,
            purpose,
        );
        let pep = PolicyEnforcementPoint {
            index: &self.index,
            pdp: &self.pdp,
            actors: &self.actors,
            consent: &self.consent,
            audit: &self.audit,
            gateways: &self.gateways,
            telemetry: &self.telemetry,
            counters: &self.counters,
            trace: span.context(),
            now,
        };
        let result = pep.get_event_details(&request);
        match &result {
            Ok(_) => {}
            Err(CssError::AccessDenied(_)) | Err(CssError::ConsentWithheld(_)) => {
                span.set_status(SpanStatus::Denied);
            }
            Err(_) => span.set_status(SpanStatus::Error),
        }
        span.finish();
        result
    }

    // ---- subject access (citizen-facing, Section 7) -----------------------

    /// A data subject views their own profile: every notification about
    /// them, regardless of consumer policies — the right of access that
    /// underpins the PHR use the paper projects. Audited.
    pub fn subject_profile(&self, person: PersonId) -> CssResult<Vec<NotificationMessage>> {
        let mut out = self.index.notifications_of_person(person)?;
        out.sort_by_key(|n| (n.occurred_at, n.global_id));
        self.audit.append(
            AuditRecord::new(self.now(), ActorId(0), AuditAction::SubjectAccess)
                .person(person)
                .with_detail(format!("profile view: {} events", out.len())),
        )?;
        Ok(out)
    }

    /// A data subject asks who touched their data: the audit records
    /// carrying their person dimension. The lookup itself is audited.
    pub fn subject_audit_trail(&self, person: PersonId) -> CssResult<Vec<AuditRecord>> {
        let trail = self.audit.query(&AuditQuery::new().person(person));
        self.audit.append(
            AuditRecord::new(self.now(), ActorId(0), AuditAction::SubjectAccess)
                .person(person)
                .with_detail(format!("audit trail view: {} records", trail.len())),
        )?;
        Ok(trail)
    }

    // ---- consent ----------------------------------------------------------

    /// Record a consent directive from a data subject.
    pub fn record_consent(
        &self,
        person: PersonId,
        scope: ConsentScope,
        decision: ConsentDecision,
    ) -> CssResult<()> {
        let now = self.now();
        self.consent.write().record(person, scope, decision, now);
        // Consent changes are logged against the platform itself; the
        // subject is tracked in the person dimension.
        self.audit
            .append(AuditRecord::new(now, ActorId(0), AuditAction::ConsentChange).person(person))?;
        Ok(())
    }

    // ---- audit ----------------------------------------------------------

    /// Run an audit inquiry (merged across shards, global seq order).
    pub fn audit_query(&self, q: &AuditQuery) -> Vec<AuditRecord> {
        self.audit.query(q)
    }

    /// Aggregate audit report.
    pub fn audit_report(&self, q: &AuditQuery) -> AuditReport {
        self.audit.report(q)
    }

    /// The audit chain head (hand to an external auditor). With one
    /// shard this is the shard's chain head; with several it binds
    /// every shard head.
    pub fn audit_head(&self) -> [u8; 32] {
        self.audit.head()
    }

    /// Verify the audit chain end-to-end (every shard).
    pub fn verify_audit(&self) -> CssResult<()> {
        self.audit.verify()
    }

    /// Number of audit records.
    pub fn audit_len(&self) -> usize {
        self.audit.len()
    }

    /// Number of indexed events.
    pub fn index_len(&self) -> usize {
        self.index.len()
    }

    /// Bus statistics.
    pub fn bus_stats(&self) -> css_bus::BrokerStats {
        self.bus.stats()
    }

    /// Notifications that exhausted their redelivery budget, with the
    /// delivery group and original publish trace that dead-lettered
    /// them.
    pub fn bus_dead_letters(&self) -> Vec<css_bus::DeadLetter<Arc<NotificationMessage>>> {
        self.bus.dead_letters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use css_storage::MemBackend;

    #[test]
    fn controller_is_shareable_across_threads() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<DataController<MemBackend>>();
    }
}
