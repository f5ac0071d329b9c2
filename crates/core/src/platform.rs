//! Platform assembly and participant onboarding.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use css_audit::{AuditQuery, AuditRecord, AuditReport};
use css_controller::{
    ConsentDecision, ConsentScope, ControllerConfig, Credential, DataController, IdentityManager,
    ParticipantRole, SharedGateway,
};
use css_gateway::LocalCooperationGateway;
use css_storage::{InstrumentedBackend, LogBackend, RecordLog};
use css_telemetry::{MetricsRegistry, TelemetrySnapshot};
use css_trace::Tracer;
use css_types::{
    lock_order, Actor, ActorId, Clock, CssError, CssResult, IdGenerator, PersonId, SystemClock,
    Timestamp,
};

use crate::citizen::CitizenHandle;
use crate::consumer::ConsumerHandle;
use crate::ops::OpsConfig;
use crate::pending::{AccessRequest, PendingQueue, DEFAULT_PENDING_CAPACITY};
use crate::producer::ProducerHandle;
use crate::provider::{BackendProvider, DirProvider, MemoryProvider};

/// The backend an assembled platform actually runs on: the provider's
/// backend wrapped with `storage.*` latency/byte telemetry.
pub(crate) type PlatformBackend<P> = InstrumentedBackend<<P as BackendProvider>::Backend>;
pub(crate) type SharedController<P> = Arc<DataController<PlatformBackend<P>>>;
pub(crate) type SharedPending = Arc<PendingQueue>;

/// Step-by-step assembly of a [`CssPlatform`].
///
/// The presets ([`CssPlatform::in_memory`], [`CssPlatform::on_disk`])
/// cover the common configurations; the builder exposes every knob:
///
/// ```
/// use std::sync::Arc;
/// use css_core::{CssPlatform, CssPlatformBuilder};
/// use css_types::{SimClock, Timestamp};
///
/// let platform = CssPlatformBuilder::new()
///     .clock(Arc::new(SimClock::starting_at(Timestamp(0))))
///     .shards(4)
///     .build()
///     .unwrap();
/// # let _ = platform;
/// ```
pub struct CssPlatformBuilder<P: BackendProvider = MemoryProvider> {
    provider: P,
    clock: Arc<dyn Clock>,
    trace_capacity: Option<usize>,
    shards: Option<usize>,
    ops_addr: Option<String>,
    ops_interval: std::time::Duration,
    incident_dir: Option<std::path::PathBuf>,
}

impl Default for CssPlatformBuilder<MemoryProvider> {
    fn default() -> Self {
        Self::new()
    }
}

impl CssPlatformBuilder<MemoryProvider> {
    /// A builder with the quickstart defaults: in-memory backends, the
    /// system clock, no tracing, no ops plane.
    pub fn new() -> Self {
        CssPlatformBuilder {
            provider: MemoryProvider,
            clock: Arc::new(SystemClock),
            trace_capacity: None,
            shards: None,
            ops_addr: None,
            ops_interval: std::time::Duration::from_millis(250),
            incident_dir: None,
        }
    }
}

/// The shard count a builder uses when none is requested: one shard per
/// available core, capped at 8 (past that the coordination overhead of
/// scatter-gather inquiries outweighs the extra parallelism for the
/// deployment sizes the paper targets).
pub fn default_shard_count() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cores.clamp(1, 8)
}

/// The widest plane a directory may have been written with before it
/// recorded its shard count: the widest default.
const WIDEST_UNRECORDED: usize = 8;

impl<P: BackendProvider> CssPlatformBuilder<P> {
    /// Use a different storage backend provider (changes the platform's
    /// type parameter).
    pub fn provider<Q: BackendProvider>(self, provider: Q) -> CssPlatformBuilder<Q> {
        CssPlatformBuilder {
            provider,
            clock: self.clock,
            trace_capacity: self.trace_capacity,
            shards: self.shards,
            ops_addr: self.ops_addr,
            ops_interval: self.ops_interval,
            incident_dir: self.incident_dir,
        }
    }

    /// Use an explicit (usually simulated) clock.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Partition the controller data plane (events index, notified
    /// markers, audit group commits) into `n` citizen-hashed shards,
    /// each behind its own lock (clamped to at least 1). When not
    /// called, a platform reopening existing data adopts the count the
    /// data was written with and a fresh one uses
    /// [`default_shard_count`] — `min(8, cores)`. Reopening with more
    /// shards than the data holds re-routes it; asking for fewer fails
    /// the build with [`CssError::Invalid`].
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n.max(1));
        self
    }

    /// Collect causal spans (publish → route → deliver, inquiry, detail
    /// request → enforcement stages) into a bounded in-memory ring
    /// holding the most recent `capacity` finished spans. Off by
    /// default; when off, every span operation is a no-op.
    pub fn tracing(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Run the live ops plane and serve it on `addr`: a background
    /// sampler ticking the SLO burn-rate windows, the metrics history
    /// (raw → 1-minute → 1-hour rings) with its EWMA+MAD drift check
    /// over `stage.total` p99, the component health checks, and the
    /// incident flight recorder, which freezes its ring of recent
    /// observations into a bundle under
    /// [`incident_dir`](CssPlatformBuilder::incident_dir) when an SLO
    /// reaches Critical, a check goes Unhealthy, the drift check flips,
    /// or an operator asks. Routes: `GET /metrics`, `/health`, `/slo`,
    /// `/query`, `/range`, `/traces`, `/debug/incidents`,
    /// `/debug/exemplars` and `POST /debug/capture`. Use
    /// `"127.0.0.1:0"` for an ephemeral port and read it back from
    /// [`CssPlatform::ops`]. Off by default; the server and the sampler
    /// shut down when the platform drops.
    pub fn ops_server(mut self, addr: impl Into<String>) -> Self {
        self.ops_addr = Some(addr.into());
        self
    }

    /// How often the ops sampler ticks the plane (default 250 ms).
    pub fn ops_sample_interval(mut self, interval: std::time::Duration) -> Self {
        self.ops_interval = interval;
        self
    }

    /// Where the flight recorder writes incident bundles (default
    /// `target/incidents`).
    pub fn incident_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.incident_dir = Some(dir.into());
        self
    }

    /// Assemble the platform.
    pub fn build(self) -> CssResult<CssPlatform<P>> {
        let CssPlatformBuilder {
            provider,
            clock,
            trace_capacity,
            shards,
            ops_addr,
            ops_interval,
            incident_dir,
        } = self;
        let telemetry = MetricsRegistry::new();
        // Builder time is the platform's birth: `css_uptime_seconds`
        // counts from here, and the build-info metric is pinned once.
        let boot = clock.now();
        telemetry
            .gauge(&format!("build_info.{}", env!("CARGO_PKG_VERSION")))
            .set(1);
        let tracer = match trace_capacity {
            Some(capacity) => Tracer::new(capacity, &telemetry),
            None => Tracer::disabled(),
        };
        // Shard 0 keeps the legacy backend names so existing single-shard
        // deployments reopen their data; shards 1..n get suffixed names.
        let open_shard = |i: usize| -> CssResult<[P::Backend; 2]> {
            let suffix = if i == 0 {
                String::new()
            } else {
                format!("-{i}")
            };
            Ok([
                provider.backend(&format!("audit{suffix}"))?,
                provider.backend(&format!("events-index{suffix}"))?,
            ])
        };
        // The shard count of an existing deployment is a property of
        // its data, recorded beside it: opening fewer shards than were
        // written would skip the rest. Data without the record is
        // refused, not guessed at. Only storage that outlives the process
        // is anchored: no later open could read the anchor back otherwise.
        let anchor = if provider.reopens() {
            Some(provider.backend("audit-anchor")?)
        } else {
            None
        };
        let mut recorded = None;
        let (mut shard_record, _) =
            RecordLog::recover(provider.backend("shards")?, |_, payload| {
                let count = String::from_utf8_lossy(payload).parse::<usize>();
                recorded = Some(count);
                Ok(())
            })?;
        // Only the last record counts, and only it has to parse.
        let recorded = recorded
            .transpose()
            .map_err(|e| CssError::Storage(format!("shard record malformed: {e}")))?;
        let mut opened = Vec::new();
        let written = match recorded {
            Some(written) => written,
            None => {
                // Routing by hash leaves holes in a lightly filled plane:
                // the directory is fresh only if no shard it may have been
                // written with holds data.
                while opened.len() < WIDEST_UNRECORDED {
                    opened.push(open_shard(opened.len())?);
                }
                let fresh = opened.iter().flatten().all(|b| b.is_empty())
                    && anchor.as_ref().is_none_or(|a| a.is_empty());
                if !fresh {
                    return Err(CssError::Storage(
                        "the directory holds data but no shard record (`shards.log`): \
                         the shard count it was written with is unknown"
                            .into(),
                    ));
                }
                0
            }
        };
        let shards = match shards {
            Some(asked) if asked < written => {
                return Err(CssError::Invalid(format!(
                    "{asked} shards requested but the data was written with {written}"
                )))
            }
            Some(asked) => asked,
            None if written > 0 => written,
            None => default_shard_count(),
        };
        // The record is durable before any shard beyond it can take data:
        // a crash must not leave a count smaller than the plane in use.
        if recorded != Some(shards) {
            shard_record.append(shards.to_string().as_bytes())?;
            shard_record.sync()?;
        }
        while opened.len() < shards {
            opened.push(open_shard(opened.len())?);
        }
        opened.truncate(shards);
        let instrumented = |backend| InstrumentedBackend::new(backend, &telemetry);
        let (audit_backends, index_backends) = opened
            .into_iter()
            .map(|[audit, index]| (instrumented(audit), instrumented(index)))
            .unzip();
        let config = ControllerConfig::with_clock(clock.clone())
            .with_telemetry(telemetry.clone())
            .with_tracer(tracer.clone());
        let controller = DataController::open(
            config,
            || provider.backend("policies").map(instrumented),
            audit_backends,
            index_backends,
            anchor.map(instrumented),
        )?;
        let controller = Arc::new(controller);
        let mut queue = PendingQueue::new(DEFAULT_PENDING_CAPACITY);
        queue.instrument(&telemetry);
        let pending: SharedPending = Arc::new(queue);
        let ops = match ops_addr {
            None => None,
            Some(addr) => Some(crate::ops::start_ops(
                OpsConfig {
                    addr,
                    interval: ops_interval,
                    incident_dir,
                    boot,
                },
                &provider,
                &telemetry,
                &clock,
                &tracer,
                &controller,
                &pending,
            )?),
        };
        Ok(CssPlatform {
            controller,
            gateways: HashMap::new(),
            pending,
            actor_gen: IdGenerator::default(),
            identity: IdentityManager::new(b"css-identity-master"),
            identity_enforced: false,
            registry: telemetry,
            tracer,
            provider,
            clock,
            boot,
            ops,
        })
    }
}

/// The assembled CSS platform: data controller (which owns the policy
/// repository) + producer gateways + pending-request queue.
pub struct CssPlatform<P: BackendProvider = MemoryProvider> {
    controller: SharedController<P>,
    /// Each joined producer's gateway and the generator of its source
    /// event ids.
    gateways: HashMap<ActorId, (SharedGateway<PlatformBackend<P>>, Arc<IdGenerator>)>,
    pending: SharedPending,
    actor_gen: IdGenerator,
    identity: IdentityManager,
    identity_enforced: bool,
    registry: MetricsRegistry,
    tracer: Tracer,
    provider: P,
    clock: Arc<dyn Clock>,
    boot: Timestamp,
    ops: Option<(css_health::OpsHandle, css_health::Sampler)>,
}

/// Percent by which the busiest shard exceeds the mean shard load
/// (0 for a balanced or empty plane, and always 0 with one shard).
pub(crate) fn imbalance_pct(lens: &[usize]) -> i64 {
    let total: usize = lens.iter().sum();
    if lens.len() <= 1 || total == 0 {
        return 0;
    }
    let max = *lens.iter().max().unwrap_or(&0);
    let mean = total as f64 / lens.len() as f64;
    (((max as f64 / mean) - 1.0) * 100.0).round() as i64
}

/// Refresh the `platform.*` state-size gauges from the live platform
/// state — shared between [`CssPlatform::telemetry`] and the ops
/// plane's scrape path, so both report identical, current numbers.
pub(crate) fn refresh_platform_gauges<B: css_storage::LogBackend>(
    controller: &DataController<B>,
    pending: &PendingQueue,
    r: &MetricsRegistry,
    clock: &dyn Clock,
    boot: Timestamp,
) {
    r.gauge("uptime_seconds")
        .set((clock.now().0.saturating_sub(boot.0) / 1_000) as i64);
    r.gauge("platform.indexed_events")
        .set(controller.index_len() as i64);
    r.gauge("platform.audit_records")
        .set(controller.audit_len() as i64);
    r.gauge("platform.policies")
        .set(controller.policy_count() as i64);
    r.gauge("platform.actors")
        .set(controller.actors().len() as i64);
    r.gauge("shard.imbalance_pct")
        .set(imbalance_pct(&controller.index_shard_lens()));
    r.gauge("platform.pending_requests")
        .set(pending.pending_count() as i64);
}

impl CssPlatform<MemoryProvider> {
    /// A builder starting from the quickstart defaults.
    pub fn builder() -> CssPlatformBuilder<MemoryProvider> {
        CssPlatformBuilder::new()
    }

    /// An all-in-memory platform on the system clock — the quickstart
    /// configuration.
    pub fn in_memory() -> Self {
        Self::builder().build().expect("memory init")
    }

    /// An in-memory platform on an explicit (usually simulated) clock.
    pub fn in_memory_with_clock(clock: Arc<dyn Clock>) -> Self {
        Self::builder().clock(clock).build().expect("memory init")
    }
}

impl CssPlatform<DirProvider> {
    /// A disk-backed platform storing all logs under `dir`.
    pub fn on_disk(dir: impl Into<std::path::PathBuf>, clock: Arc<dyn Clock>) -> CssResult<Self> {
        CssPlatformBuilder::new()
            .provider(DirProvider::new(dir)?)
            .clock(clock)
            .build()
    }
}

impl<P: BackendProvider> CssPlatform<P> {
    /// The platform clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// How many shards the controller data plane runs.
    pub fn shard_count(&self) -> usize {
        self.controller.shard_count()
    }

    // ---- actors -------------------------------------------------------

    /// Register a top-level organization, minting its id.
    pub fn register_organization(&mut self, name: &str) -> CssResult<ActorId> {
        let id: ActorId = self.actor_gen.next_id();
        self.controller
            .register_actor(Actor::organization(id, name))?;
        Ok(id)
    }

    /// Register an organizational unit under a parent.
    pub fn register_unit(&mut self, parent: ActorId, name: &str) -> CssResult<ActorId> {
        let id: ActorId = self.actor_gen.next_id();
        self.controller
            .register_actor(Actor::unit(id, name, parent))?;
        Ok(id)
    }

    /// Register a functional role under a parent.
    pub fn register_role(&mut self, parent: ActorId, name: &str) -> CssResult<ActorId> {
        let id: ActorId = self.actor_gen.next_id();
        self.controller
            .register_actor(Actor::role(id, name, parent))?;
        Ok(id)
    }

    // ---- onboarding ------------------------------------------------------

    /// Sign a contract for an organization in the given capacity.
    /// Joining as [`ParticipantRole::Producer`] (or
    /// [`ParticipantRole::Both`]) also stands up
    /// the organization's Local Cooperation Gateway. Joining again in
    /// another capacity widens the contract.
    pub fn join(&mut self, actor: ActorId, role: ParticipantRole) -> CssResult<()> {
        self.controller.sign_contract(actor, role)?;
        if role.can_produce() {
            self.ensure_gateway(actor)?;
        }
        Ok(())
    }

    fn ensure_gateway(&mut self, actor: ActorId) -> CssResult<()> {
        if self.gateways.contains_key(&actor) {
            return Ok(());
        }
        let backend = InstrumentedBackend::new(
            self.provider.backend(&format!("gateway-{actor}"))?,
            &self.registry,
        );
        let mut gw = LocalCooperationGateway::open(actor, backend)?;
        gw.instrument(&self.registry);
        let gateway: SharedGateway<PlatformBackend<P>> =
            Arc::new(RwLock::ranked("gateway", lock_order::GATEWAY, gw));
        // Resume source-id generation past any records recovered
        // from a previous session, so restarts never collide.
        let next_src = gateway
            .read()
            .max_src_id()
            .map(|s| s.value() + 1)
            .unwrap_or(1);
        self.controller
            .register_gateway(actor, Box::new(gateway.clone()));
        let src_gen = Arc::new(IdGenerator::starting_at(next_src));
        self.gateways.insert(actor, (gateway, src_gen));
        Ok(())
    }

    /// The number of policies the decision point holds, revoked ones
    /// included. It restores nothing: the controller folds every
    /// journaled policy and consent change when the platform opens, so
    /// after a restart operators only re-register actors and re-declare
    /// schemas.
    pub fn reload_policies(&self) -> CssResult<usize> {
        Ok(self.controller.policy_count())
    }

    // ---- identity management (Section 5 future work) -------------------

    /// Turn on credential enforcement: handles can then only be obtained
    /// through [`CssPlatform::producer_with_credential`] /
    /// [`CssPlatform::consumer_with_credential`].
    pub fn enable_identity_enforcement(&mut self) {
        self.identity_enforced = true;
    }

    /// Issue (or rotate) the credential for a contracted actor.
    pub fn issue_credential(&mut self, actor: ActorId) -> CssResult<Credential> {
        if self.controller.contract(actor).is_none() {
            return Err(CssError::NoContract(format!(
                "{actor} has not joined the platform"
            )));
        }
        Ok(self.identity.issue(actor))
    }

    /// Revoke a credential by serial.
    pub fn revoke_credential(&mut self, serial: u64) {
        self.identity.revoke(serial);
    }

    /// Producer handle gated by a credential check.
    pub fn producer_with_credential(
        &self,
        credential: &Credential,
    ) -> CssResult<ProducerHandle<P>> {
        let actor = self.identity.validate(credential)?;
        self.producer_unchecked(actor)
    }

    /// Consumer handle gated by a credential check.
    pub fn consumer_with_credential(
        &self,
        credential: &Credential,
    ) -> CssResult<ConsumerHandle<P>> {
        let actor = self.identity.validate(credential)?;
        self.consumer_unchecked(actor)
    }

    /// The producer-side handle for a joined producer.
    pub fn producer(&self, actor: ActorId) -> CssResult<ProducerHandle<P>> {
        if self.identity_enforced {
            return Err(CssError::CredentialRequired(
                "use producer_with_credential".into(),
            ));
        }
        self.producer_unchecked(actor)
    }

    fn producer_unchecked(&self, actor: ActorId) -> CssResult<ProducerHandle<P>> {
        let (gateway, src_gen) = self
            .gateways
            .get(&actor)
            .ok_or_else(|| CssError::NoContract(format!("{actor} has not joined as producer")))?;
        Ok(ProducerHandle::new(
            self.controller.clone(),
            self.pending.clone(),
            gateway.clone(),
            src_gen.clone(),
            actor,
        ))
    }

    /// The consumer-side handle for a joined consumer. The handle may be
    /// for the organization itself or any unit/role inside it.
    pub fn consumer(&self, actor: ActorId) -> CssResult<ConsumerHandle<P>> {
        if self.identity_enforced {
            return Err(CssError::CredentialRequired(
                "use consumer_with_credential".into(),
            ));
        }
        self.consumer_unchecked(actor)
    }

    fn consumer_unchecked(&self, actor: ActorId) -> CssResult<ConsumerHandle<P>> {
        let org = self
            .controller
            .actors()
            .organization_of(actor)
            .ok_or_else(|| CssError::NotFound(format!("actor {actor} not registered")))?;
        match self.controller.contract(org) {
            Some(contract) if contract.role.can_consume() => Ok(ConsumerHandle::new(
                self.controller.clone(),
                self.pending.clone(),
                actor,
            )),
            _ => Err(CssError::NoContract(format!(
                "{org} has not joined as consumer"
            ))),
        }
    }

    /// The citizen-facing handle for a data subject (PHR view, consent,
    /// subject audit trail).
    pub fn citizen(&self, person: PersonId) -> CitizenHandle<P> {
        CitizenHandle::new(self.controller.clone(), person)
    }

    // ---- consent & audit ---------------------------------------------------

    /// Record a consent directive from a data subject.
    pub fn record_consent(
        &self,
        person: PersonId,
        scope: ConsentScope,
        decision: ConsentDecision,
    ) -> CssResult<()> {
        self.controller.record_consent(person, scope, decision)
    }

    /// Run an audit inquiry.
    pub fn audit_query(&self, q: &AuditQuery) -> CssResult<Vec<AuditRecord>> {
        self.controller.audit_query(q)
    }

    /// Aggregate audit report.
    pub fn audit_report(&self, q: &AuditQuery) -> CssResult<AuditReport> {
        self.controller.audit_report(q)
    }

    /// Verify the audit hash chain.
    pub fn verify_audit(&self) -> CssResult<()> {
        self.controller.verify_audit()
    }

    /// Direct (shared) access to the data controller for advanced use
    /// and experiments. The controller is internally synchronized —
    /// clones of this `Arc` can drive it from many threads at once.
    pub fn controller(&self) -> SharedController<P> {
        self.controller.clone()
    }

    // ---- telemetry ---------------------------------------------------------

    /// A point-in-time snapshot of every platform metric: counters,
    /// gauges, and latency histograms from the bus (`bus.*`), the
    /// storage layer (`storage.*`), each gateway (`gateway.*`), the
    /// publish pipeline (`publish.*`), the Algorithm-1 enforcement
    /// stages (`stage.*`), and the sharded data plane (`shard.*`), plus
    /// `platform.*` state-size gauges.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        refresh_platform_gauges(
            &self.controller,
            &self.pending,
            &self.registry,
            self.clock.as_ref(),
            self.boot,
        );
        self.registry.snapshot()
    }

    /// The live metrics registry behind [`CssPlatform::telemetry`] —
    /// share it with a benchmark harness or an exporter; every platform
    /// records into its own.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The platform tracer. Disabled (every span a no-op) unless the
    /// builder enabled [`CssPlatformBuilder::tracing`]; when enabled,
    /// [`css_trace::Tracer::finished_spans`] copies out the ring that
    /// `GET /traces` renders as Chrome `trace_event` JSON.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The running ops plane, when the builder enabled
    /// [`CssPlatformBuilder::ops_server`]: its
    /// [`local_addr`](css_health::OpsHandle::local_addr) is where the
    /// routes are served — the one way to read the plane.
    pub fn ops(&self) -> Option<&css_health::OpsHandle> {
        self.ops.as_ref().map(|(handle, _sampler)| handle)
    }

    /// All pending access requests (any producer).
    pub fn pending_requests(&self) -> Vec<AccessRequest> {
        self.pending.all()
    }
}

#[cfg(test)]
mod tests {
    use super::imbalance_pct;

    #[test]
    fn imbalance_of_balanced_empty_or_single_is_zero() {
        assert_eq!(imbalance_pct(&[]), 0);
        assert_eq!(imbalance_pct(&[10]), 0);
        assert_eq!(imbalance_pct(&[0, 0, 0, 0]), 0);
        assert_eq!(imbalance_pct(&[5, 5, 5, 5]), 0);
    }

    #[test]
    fn imbalance_reports_hot_shard() {
        // Mean 5, max 10 → 100% over mean.
        assert_eq!(imbalance_pct(&[10, 5, 0, 5]), 100);
        // Mean 4, max 7 → 75%.
        assert_eq!(imbalance_pct(&[7, 3, 4, 2]), 75);
    }
}
