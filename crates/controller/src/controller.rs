//! The Data Controller facade.
//!
//! Since the sharded data plane (see [`crate::shards`]) every method
//! takes `&self`: the controller's registries sit behind their own
//! `RwLock`s, the events index and audit log are partitioned by
//! citizen into independently locked shards, and id generators are
//! atomic. Callers share one controller with a plain `Arc` — no outer
//! mutex — and operations on different citizens proceed in parallel.
//!
//! Lock ordering (to stay deadlock-free) is the rank table of
//! [`css_types::lock_order`]: `routes` → `pdp` → `actors` → an index
//! shard, the bus state last; cross-shard operations hold one shard
//! lock at a time. Debug builds check every acquisition against it.
//!
//! One write order holds for every audited mutation: its record is
//! written first, and the effect follows only once the write returned,
//! under the journal lock that orders the two (`routes` for a
//! subscribe, a detachment and a publish, `control` for a policy or
//! consent change). A mutation whose record cannot be written has no
//! effect; one that fails after its record leaves the record standing
//! as an audited attempt.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use css_audit::{AuditAction, AuditQuery, AuditRecord, AuditReport, AuditShards};
use css_bus::{Bus, SubscriberHandle, SubscriptionConfig};
use css_event::{EventSchema, NotificationMessage};
use css_policy::cache::StabilityInterval;
use css_policy::{DetailRequest, PolicyDecisionPoint, PrivacyPolicy};
use css_registry::EventCatalog;
use css_storage::LogBackend;
use css_telemetry::{Counter, MetricsRegistry, StageTable};
use css_trace::{SpanAttr, SpanStatus, Tracer};
use css_types::{
    lock_order, Actor, ActorId, ActorRegistry, Clock, CssError, CssResult, DenyReason, EventTypeId,
    GlobalEventId, IdGenerator, PersonId, PersonIdentity, PolicyId, Purpose, SourceEventId,
    SubscriptionId, Timestamp,
};

use crate::consent::{ConsentDecision, ConsentRegistry, ConsentScope};
use crate::contract::{ContractRegistry, ParticipantContract, ParticipantRole};
use crate::gateway_client::GatewayClient;
use crate::journal;
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
}

impl ControllerConfig {
    /// A configuration with the given clock and a test-grade master key.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        ControllerConfig {
            master_key: b"css-demo-master-key".to_vec(),
            clock,
            telemetry: MetricsRegistry::new(),
            tracer: Tracer::disabled(),
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
}

/// Counters and stage tables of the request paths, resolved once at
/// [`DataController::open`] like the bus's and the index plane's
/// instruments: a request records into them without consulting the
/// registry.
pub(crate) struct RequestCounters {
    /// `controller.published` — publishes routed, indexed and audited.
    published: Counter,
    /// `controller.publish_denied` — publishes the consent gate refused.
    publish_denied: Counter,
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
    /// `publish.*` — the publish pipeline's stages.
    publish_stages: StageTable,
    /// `stage.*` — Algorithm 1's stages.
    pub(crate) detail_stages: StageTable,
}

impl RequestCounters {
    fn resolve(registry: &MetricsRegistry) -> Self {
        RequestCounters {
            published: registry.counter("controller.published"),
            publish_denied: registry.counter("controller.publish_denied"),
            detail_requests: registry.counter("controller.detail_requests"),
            detail_denies: registry.counter("controller.detail_denies"),
            detail_permits: registry.counter("controller.detail_permits"),
            pdp_cache_hit: registry.counter("pdp.cache_hit"),
            pdp_cache_miss: registry.counter("pdp.cache_miss"),
            publish_stages: StageTable::new(registry, "publish"),
            detail_stages: StageTable::new(registry, "stage"),
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
    /// The PDP generation and the class's stability interval under
    /// which every receiver was last found authorised: a cached
    /// decision, not a second policy store. `None` until the first
    /// publish, and after every subscribe.
    authorised: Option<(u64, StabilityInterval)>,
}

impl ClassRoute {
    /// Whether every receiver's authorisation still stands at `now`
    /// under PDP `generation`.
    fn is_authorised(&self, generation: u64, now: Timestamp) -> bool {
        self.authorised
            .is_some_and(|(at, stable)| at == generation && stable.contains(now))
    }
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
    pub(crate) actors: RwLock<ActorRegistry>,
    contracts: RwLock<ContractRegistry>,
    catalog: RwLock<EventCatalog>,
    /// Payload-blind and handed a pointer: every queue entry, delivery
    /// and dead-lettered message of one publish is the one notification
    /// that publish built.
    bus: Bus<Arc<NotificationMessage>>,
    pub(crate) index: IndexShards<B>,
    /// Orders the control changes (see [`crate::journal`]): a policy
    /// define or revoke or a consent change commits its audit record and
    /// applies under it, so journal order is apply order.
    control: Mutex<()>,
    pub(crate) pdp: RwLock<PolicyDecisionPoint>,
    pub(crate) consent: RwLock<ConsentRegistry>,
    pub(crate) audit: AuditShards<B>,
    pub(crate) gateways: RwLock<HashMap<ActorId, Arc<dyn GatewayClient>>>,
    /// What a publish needs to route a declared class, written at
    /// declare / subscribe / unsubscribe. A journal lock: a subscribe,
    /// a re-authorisation and a publish write their audit records
    /// under it before they change who receives what.
    routes: RwLock<HashMap<EventTypeId, ClassRoute>>,
    clock: Arc<dyn Clock>,
    telemetry: MetricsRegistry,
    pub(crate) counters: RequestCounters,
    tracer: Tracer,
    eid_gen: IdGenerator,
    policy_gen: IdGenerator,
    request_gen: IdGenerator,
}

impl<B: LogBackend> DataController<B> {
    /// Open a controller with one audit backend and one index backend
    /// **per shard**: the shard count of the data plane (events index +
    /// audit) **is** the length of the two vectors, which must be equal.
    /// `audit_anchor` is the backend of the audit plane's anchor
    /// ([`AuditShards::open_anchored`]) where the backends outlive the
    /// process; a plane in memory has none, since no later open could
    /// read it back.
    /// One backend each is the unsharded layout; `MemBackend`s give an
    /// in-memory controller; a multicore deployment wants one shard per
    /// expected concurrent writer, e.g. `min(8, cores)`. Both planes
    /// replay what their backends hold, and index replay re-routes
    /// every persisted entry to its current owner shard, so reopening
    /// with more shards loses nothing. The audit plane's control journal
    /// (its policy and consent changes, in seq order) is folded into the
    /// PDP and the consent registry: every journaled policy, revoked ones
    /// included, is installed unchecked (actors and schemas are
    /// registered after open), every journaled consent directive is in
    /// force, and policy ids resume past the highest journaled one.
    /// `legacy_policies` opens the `policies.log` of a directory written
    /// before the journal carried its policies; it is called only if the
    /// journal names a policy stored there.
    pub fn open(
        config: ControllerConfig,
        legacy_policies: impl FnMut() -> CssResult<B>,
        audit_backends: Vec<B>,
        index_backends: Vec<B>,
        audit_anchor: Option<B>,
    ) -> CssResult<Self> {
        if audit_backends.len() != index_backends.len() {
            return Err(CssError::Invalid(format!(
                "shard backend mismatch: {} audit vs {} index",
                audit_backends.len(),
                index_backends.len()
            )));
        }
        let mut index = IndexShards::open(&config.master_key, index_backends)?;
        let (audit, journal) = AuditShards::open_anchored(audit_backends, audit_anchor)?;
        index.instrument(&config.telemetry);
        // Continue minting global ids after the highest recovered one so
        // restarts never reuse an eID (nonce safety for the sealer).
        let next_eid = index.max_event_id().map(|m| m.value() + 1).unwrap_or(1);
        let (pdp, consent, policy_gen) = journal::fold(journal, legacy_policies)?;
        Ok(DataController {
            actors: RwLock::ranked("actors", lock_order::ACTORS, ActorRegistry::new()),
            contracts: RwLock::new(ContractRegistry::new()),
            catalog: RwLock::ranked("catalog", lock_order::CATALOG, EventCatalog::new()),
            bus: Bus::in_memory_with_telemetry(&config.telemetry),
            index,
            control: Mutex::journal("control", lock_order::CONTROL, ()),
            pdp: RwLock::ranked("pdp", lock_order::PDP, pdp),
            consent: RwLock::ranked("consent", lock_order::CONSENT, consent),
            audit,
            gateways: RwLock::ranked("gateways", lock_order::GATEWAYS, HashMap::new()),
            routes: RwLock::journal("routes", lock_order::ROUTES, HashMap::new()),
            clock: config.clock,
            counters: RequestCounters::resolve(&config.telemetry),
            telemetry: config.telemetry,
            tracer: config.tracer,
            eid_gen: IdGenerator::starting_at(next_eid),
            policy_gen,
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

    /// Sign a participation contract for a (top-level) actor. The
    /// signature is audited before it is in force: a contract whose
    /// record cannot be written is not signed. Signing again widens the
    /// contract: a producer that signs as a consumer holds
    /// [`ParticipantRole::Both`].
    pub fn sign_contract(&self, actor: ActorId, role: ParticipantRole) -> CssResult<()> {
        if self.actors.read().get(actor).is_none() {
            return Err(CssError::NotFound(format!("actor {actor} not registered")));
        }
        let now = self.now();
        self.audit
            .append(AuditRecord::new(now, actor, AuditAction::ContractSigned))?;
        self.contracts.write().sign(ParticipantContract {
            actor,
            role,
            signed_at: now,
        });
        Ok(())
    }

    /// The contract `actor` signed, if any.
    pub fn contract(&self, actor: ActorId) -> Option<ParticipantContract> {
        self.contracts.read().get(actor).copied()
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
                authorised: None,
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
    /// classes) and that `F` only names declared fields, and refuses an
    /// id already installed — revoked or not, whoever owns it — with
    /// `AlreadyExists`, writing no audit record. A custom purpose the
    /// journal cannot carry back as itself is `Invalid`: its XACML
    /// reads match values trimmed and a standard purpose's code as that
    /// purpose, so a custom purpose with outer whitespace or named like
    /// a standard one would come back from a restart as another
    /// purpose. The define's audit record, which
    /// carries the policy, is committed before the policy is
    /// installed: a define whose commit fails installs nothing. Ids
    /// minted after it are past its id.
    pub fn define_policy(&self, policy: PrivacyPolicy) -> CssResult<()> {
        self.contracts.read().require_producer(policy.producer)?;
        let unkept = |p: &&Purpose| Purpose::from_code(p.code().trim()) != **p;
        if let Some(purpose) = policy.purposes.iter().find(unkept) {
            return Err(CssError::Invalid(format!(
                "policy {} grants the custom purpose {:?}, which its journal reads back as another",
                policy.id,
                purpose.code()
            )));
        }
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
        let mut xacml = String::new();
        policy.encode(&mut css_xml::StreamSink::new(&mut xacml));
        let record = AuditRecord::new(self.now(), policy.producer, AuditAction::PolicyChange)
            .event_type(policy.event_type.clone())
            .with_detail(xacml);
        // The journal's guard orders defines, revokes and consent
        // changes; the PDP's is taken only to look and to apply, never
        // across the commit.
        let _control = self.control.lock();
        if self.pdp.read().get(policy.id).is_some() {
            return Err(CssError::AlreadyExists(format!(
                "policy {} already defined",
                policy.id
            )));
        }
        self.audit.commit(record)?;
        self.policy_gen.advance_past(policy.id.value());
        self.pdp.write().install(policy);
        Ok(())
    }

    /// Producer revokes one of its policies. The revoke's audit record
    /// is committed before the PDP revokes it: a revoke whose commit
    /// fails changes nothing.
    pub fn revoke_policy(&self, producer: ActorId, id: PolicyId) -> CssResult<()> {
        let _control = self.control.lock();
        let owned = self.pdp.read().get(id).map(|policy| policy.producer);
        if owned != Some(producer) {
            return Err(CssError::NotFound(format!(
                "policy {id} not found for producer {producer}"
            )));
        }
        let record = AuditRecord::new(self.now(), producer, AuditAction::PolicyChange)
            .with_detail(format!("revoked {id}"));
        self.audit.commit(record)?;
        self.pdp.write().revoke(id);
        Ok(())
    }

    /// Number of installed policies, revoked ones included.
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
    /// consumer for the class (Section 5.2). The subscribe's audit
    /// record is written before the receiver is attached: a subscribe
    /// whose record cannot be written attaches nothing.
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
        self.audit.append(
            AuditRecord::new(now, consumer, AuditAction::Subscribe).event_type(event_type.clone()),
        )?;
        let config = SubscriptionConfig::default();
        let handle = match group {
            Some(g) => self.bus.subscribe_group(&route.topic, g, config)?,
            None => self.bus.subscribe(&route.topic, config)?,
        };
        let at = route
            .receivers
            .partition_point(|(_, actor)| *actor <= consumer);
        route.receivers.insert(at, (handle.id(), consumer));
        // Authorised above, under a generation and at an instant the
        // route's stamp may not cover: the next publish checks again.
        route.authorised = None;
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
    /// consent-checked, audited, indexed (identity sealed) and routed to
    /// every authorized subscriber. The detail message must already be
    /// persisted in the producer's gateway under `src_event_id`.
    ///
    /// A source event is published once. Before the consent gate, the
    /// id and the route, the publish claims `(producer, src_event_id)`
    /// in the index plane, which holds the id of every source event it
    /// indexed and rebuilds that map from its log at open. A source
    /// event indexed, or being published, already is refused with
    /// [`CssError::AlreadyExists`] — after any number of other
    /// publishes, and across a restart — and the refusal mints no id,
    /// routes nothing and writes no index entry or audit record. A
    /// publish refused before its entry is linked (consent withheld, an
    /// undeclared class, a full queue, a failed audit or index write)
    /// gives the claim back, so its retry is admitted.
    ///
    /// Record, then act, under one read guard of the class's route, so
    /// no subscribe or detachment changes the receivers in between: the
    /// bus admits the notification (a full queue refuses the publish
    /// before anything is written), the Publish and Delivery records
    /// are appended, the index entry is written, and only then is the
    /// notification sent. A notification is therefore pollable only
    /// once its entry and its records exist. A failed audit write
    /// leaves nothing behind; a failed index write leaves the records
    /// standing as an audited attempt.
    ///
    /// The publish is one timed pass under a fresh `publish` root span,
    /// its stages `consent_gate`, `audit`, `index` and `route`: each
    /// stage is a child span, `bus.route` (and its `bus.deliver`s) a
    /// child too, and the trace id is stamped into the Publish and
    /// Delivery audit records. A publish refused on consent closes its
    /// root `Denied`, one that fails after the gate `Error`.
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
        let source = self.index.claim_source(producer, src_event_id)?;
        let now = self.now();
        let timer = self.counters.publish_stages.start();
        let mut pass = self.tracer.pass(timer, "publish", now);
        pass.attr(|| SpanAttr::actor(producer));
        pass.attr(|| SpanAttr::event_type(&event_type));
        let trace_id = pass.trace_id();
        // Consent gate at the source.
        if !self.consent.read().allows(person.id, producer, &event_type) {
            pass.stage("consent_gate");
            pass.deny();
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
        pass.stage("consent_gate");
        let global_id: GlobalEventId = self.eid_gen.next_id();
        pass.attr(|| SpanAttr::event(global_id));
        // Built by move and held once: the index insert, the bus and
        // every delivery read this one allocation.
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
        let routes = self.authorised_routes(event_type, now)?;
        let route = routes
            .get(event_type)
            .ok_or_else(|| CssError::NotFound(format!("event class {event_type} not declared")))?;
        let admission = self.bus.admit(&route.topic)?;
        // Ascending (the class list is kept so), for the receipt, for
        // the index entry, which keeps them as its sorted `Notified`,
        // and for the Delivery records: the bytes of the audit log must
        // not depend on a hash seed. A consumer holding several
        // subscriptions to the class is one receiver.
        let mut receivers: Vec<ActorId> = route.receivers.iter().map(|(_, actor)| *actor).collect();
        receivers.dedup();
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
        pass.stage("audit");
        self.index
            .insert_notified(&notification, source, receivers.clone().into())?;
        pass.stage("index");
        let ctx = pass.context();
        admission.send(notification, Some(&ctx));
        drop(routes);
        pass.stage("route");
        pass.finish();
        self.counters.published.inc();
        Ok(PublishReceipt {
            global_id,
            notified: receivers,
        })
    }

    /// The routing table, read-locked, with the route of `event_type`
    /// authorised at `now`: revocation reaches the routing table.
    ///
    /// In the steady state this compares two values. When a policy
    /// changed since the route's receivers were last authorised, or a
    /// validity boundary of the class has passed, the receivers are
    /// re-authorised once, under the write lock; the ones no longer
    /// authorised are detached — their bus group closed to this and
    /// every later publish, what it already holds still theirs to
    /// poll — once their detachments are on the audit log. A re-grant
    /// needs a new subscribe.
    fn authorised_routes(
        &self,
        event_type: &EventTypeId,
        now: Timestamp,
    ) -> CssResult<RwLockReadGuard<'_, HashMap<EventTypeId, ClassRoute>>> {
        loop {
            let routes = self.routes.read();
            let generation = self.pdp.read().generation();
            if routes
                .get(event_type)
                .is_none_or(|route| route.is_authorised(generation, now))
            {
                return Ok(routes);
            }
            drop(routes);
            self.reauthorise(event_type, now)?;
        }
    }

    /// Re-authorise the receivers of `event_type`'s route at `now`
    /// under the `routes` write lock: audit the detachment of every
    /// receiver no longer authorised, as one batch, and only then close
    /// their groups, drop them from the route and stamp it. A write
    /// that fails detaches nothing, and the next publish of the class
    /// re-authorises again. A no-op when another publish did it first.
    fn reauthorise(&self, event_type: &EventTypeId, now: Timestamp) -> CssResult<()> {
        let mut routes = self.routes.write();
        let Some(route) = routes.get_mut(event_type) else {
            return Ok(());
        };
        let (stamp, detached) = {
            let pdp = self.pdp.read();
            let generation = pdp.generation();
            if route.is_authorised(generation, now) {
                return Ok(());
            }
            let actors = self.actors.read();
            let detached: Vec<(SubscriptionId, ActorId)> = route
                .receivers
                .iter()
                .filter(|(_, consumer)| !pdp.is_authorized(*consumer, event_type, &actors, now))
                .copied()
                .collect();
            ((generation, pdp.stability(event_type, now)), detached)
        };
        let records = detached.iter().map(|(subscription, consumer)| {
            AuditRecord::new(now, *consumer, AuditAction::Subscribe)
                .event_type(event_type.clone())
                .denied(DenyReason::NoMatchingPolicy.to_string())
                .with_detail(format!("detached {subscription}"))
        });
        self.audit.append_batch(records.collect())?;
        for (subscription, _) in &detached {
            self.bus.close(*subscription)?;
        }
        route
            .receivers
            .retain(|receiver| !detached.contains(receiver));
        route.authorised = Some(stamp);
        Ok(())
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
        span.attr(|| SpanAttr::actor(consumer));
        // Resolve each candidate once inside its owner shard (entry
        // lookup, authorization and identity opening share a single
        // entry resolution). The pdp/actors read guards span the
        // scatter, but shard locks nest strictly inside them, one at a
        // time.
        let filter_span = span.context().child("index.filter");
        let (mut out, markers) = {
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
                    .filter_authorized_of_person(person, consumer, authorize),
                Candidates::Listed(ids) => self.index.filter_authorized(&ids, consumer, authorize),
            }
        }
        .inspect_err(|_| span.set_status(SpanStatus::Error))?;
        filter_span.finish();
        // Audit before notify: no marker takes effect unless the
        // inquiry's record is written. A marker write that fails after
        // it leaves the record standing as an audited attempt.
        let record = AuditRecord::new(now, consumer, AuditAction::IndexInquiry)
            .trace(span.trace_id())
            .with_detail(format!("{} events returned", out.len()));
        self.audit
            .append(record)
            .and_then(|_| self.index.mark_notified(markers))
            .inspect_err(|_| span.set_status(SpanStatus::Error))?;
        span.finish();
        out.sort_by_key(|n| n.global_id);
        Ok(out)
    }

    // ---- detail requests ----------------------------------------------------

    /// Consumer requests the details of an event (Algorithm 1) under a
    /// fresh `detail_request` root span. Every Algorithm 1 stage the PEP
    /// reaches becomes a child span, and the root closes `Ok` on a
    /// release, `Denied` on a policy denial and `Error` on any other
    /// refusal.
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
        let request = DetailRequest::new(
            self.request_gen.next_id(),
            consumer,
            event_type,
            event_id,
            purpose,
        );
        self.get_event_details(&request, self.now())
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
        let trail = self.audit.query(&AuditQuery::new().person(person))?;
        self.audit.append(
            AuditRecord::new(self.now(), ActorId(0), AuditAction::SubjectAccess)
                .person(person)
                .with_detail(format!("audit trail view: {} records", trail.len())),
        )?;
        Ok(trail)
    }

    // ---- consent ----------------------------------------------------------

    /// Record a consent directive from a data subject. Its audit
    /// record, which carries the directive, is committed before the
    /// directive is in force: a change whose commit fails changes
    /// nothing, and a committed one is in force after a restart.
    pub fn record_consent(
        &self,
        person: PersonId,
        scope: ConsentScope,
        decision: ConsentDecision,
    ) -> CssResult<()> {
        let now = self.now();
        let record = journal::consent(now, person, &scope, decision);
        let _control = self.control.lock();
        self.audit.commit(record)?;
        self.consent.write().record(person, scope, decision, now);
        Ok(())
    }

    // ---- audit ----------------------------------------------------------

    /// Run an audit inquiry (merged across shards, global seq order).
    pub fn audit_query(&self, q: &AuditQuery) -> CssResult<Vec<AuditRecord>> {
        self.audit.query(q)
    }

    /// Aggregate audit report.
    pub fn audit_report(&self, q: &AuditQuery) -> CssResult<AuditReport> {
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
