//! The in-memory broker: topics, delivery groups, queues, admission,
//! the acknowledgement protocol and bounded redelivery.
//!
//! [`Bus`] is the broker: one cloneable handle over the shared state,
//! whose methods are the topic-side verbs (`create_topic`, `subscribe`,
//! `subscribe_group`, `close`, `admit`, `publish_opts`); an
//! [`Admission`] holds a publish's queue slots until it `send`s. A
//! [`SubscriberHandle`] holds a `Bus` and its subscription id, and its
//! methods are the member-side verbs (`poll_for`, `take_for`, `ack`,
//! `nack`, `unsubscribe`).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use css_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use css_trace::{SpanGuard, TraceContext, TraceId};
use css_types::{lock_order, CssError, CssResult, SubscriptionId};

use crate::driver::PublishOptions;
use crate::stats::{BrokerStats, SubscriptionStats};
use crate::subscription::{unknown_sub, DeadLetter, Delivery};

/// Messages one delivery group may hold queued (in-flight deliveries
/// not counted), admitted publishes not yet sent included. A publish
/// that finds any group of its topic this full is rejected for every
/// group.
pub const QUEUE_CAPACITY: usize = 1024;

/// Delivery attempts a message gets before a nack dead-letters it.
pub const MAX_ATTEMPTS: u32 = 3;

/// What [`Bus::subscribe`] and [`Bus::subscribe_group`] take: nothing.
/// Every group queues up to [`QUEUE_CAPACITY`] messages and gives each
/// [`MAX_ATTEMPTS`] deliveries, and a delivery is held until it is
/// acked, nacked or its holder unsubscribes. The type has no field and
/// is kept only because the frozen E23 macrobench
/// (`crates/bench/examples/macrobench`) passes
/// `SubscriptionConfig::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriptionConfig {}

/// Telemetry handles for the broker hot paths (recording is
/// lock-free). Always present: without a registry they are detached
/// cells nobody reads.
#[derive(Default)]
struct BusInstruments {
    /// `bus.deliver` — enqueue-to-delivery latency per message.
    deliver_latency: Histogram,
    /// `bus.ack` — delivery-to-acknowledgement latency per message.
    ack_latency: Histogram,
    /// `bus.published` — successful publish calls.
    published: Counter,
    /// `bus.fanned_out` — per-group enqueues.
    fanned_out: Counter,
    /// `bus.redelivered` — deliveries that were retries (attempt > 1).
    redelivered: Counter,
    /// `bus.queue_depth` — messages currently queued (all groups).
    queue_depth: Gauge,
    /// `bus.inflight` — deliveries awaiting ack/nack (all groups).
    inflight: Gauge,
}

impl BusInstruments {
    fn resolve(registry: &MetricsRegistry) -> Self {
        BusInstruments {
            deliver_latency: registry.histogram("bus.deliver"),
            ack_latency: registry.histogram("bus.ack"),
            published: registry.counter("bus.published"),
            fanned_out: registry.counter("bus.fanned_out"),
            redelivered: registry.counter("bus.redelivered"),
            queue_depth: registry.gauge("bus.queue_depth"),
            inflight: registry.gauge("bus.inflight"),
        }
    }
}

/// A message waiting in a group queue.
struct Pending<M> {
    message: M,
    attempts: u32,
    /// When queued this timestamps the enqueue; once in flight it is
    /// re-stamped at delivery, so ack latency measures from delivery.
    since: Instant,
    /// Group-local offset assigned at enqueue; stable across
    /// redeliveries.
    offset: u64,
    /// The trace of the publish that enqueued this message, if traced.
    trace: Option<TraceId>,
    /// Routing context kept so redelivery hops can open `bus.redeliver`
    /// spans under the *original* trace.
    ctx: Option<TraceContext>,
    /// Open `bus.deliver` (or `bus.redeliver`) span covering
    /// queue-to-delivery; finished at poll, or on drop if never polled.
    deliver_span: Option<SpanGuard>,
}

/// A delivery handed to a member, not yet acknowledged.
struct InFlight<M> {
    pending: Pending<M>,
    /// The member holding the delivery; only it may ack/nack.
    holder: SubscriptionId,
}

type GroupId = u64;

/// One delivery group: a queue plus the members competing over it.
struct GroupState<M> {
    topic: String,
    /// Group name; `None` for a private (fan-out) group.
    name: Option<String>,
    members: Vec<SubscriptionId>,
    queue: VecDeque<Pending<M>>,
    in_flight: HashMap<u64, InFlight<M>>,
    next_offset: u64,
    stats: SubscriptionStats,
}

#[derive(Default)]
struct TopicState {
    groups: Vec<GroupId>,
    /// Publishes admitted and not yet sent or dropped: each holds one
    /// queue slot in every group of the topic.
    admitted: usize,
}

type Slot<M> = Option<Box<GroupState<M>>>;

/// What every group's operations write besides the group itself.
struct Common<M> {
    dlq: Vec<DeadLetter<M>>,
    stats: BrokerStats,
    next_delivery: u64,
}

struct State<M> {
    topics: HashMap<String, TopicState>,
    /// Every group ever created, at the index that is its id; the
    /// slot of a group whose last member left stays empty (ids are not
    /// reused). Slot 0 is never filled: ids start at 1.
    groups: Vec<Slot<M>>,
    /// (topic, group name) → group, for named-group joins.
    named: HashMap<(String, String), GroupId>,
    /// Member subscription → its group.
    members: HashMap<SubscriptionId, GroupId>,
    common: Common<M>,
    next_sub: u64,
    /// Callers parked in a waiting [`SubscriberHandle::poll_for`].
    /// Incremented under the state lock before the wait releases it and
    /// read under the same lock by whoever enqueues: a publish that
    /// finds it zero skips the wake-up, and none can be lost — a poller
    /// either is counted before the publisher reads, or takes the lock
    /// after the enqueue and sees the message before it parks.
    parked: usize,
}

/// The state every clone of a [`Bus`] shares.
struct Shared<M> {
    state: Mutex<State<M>>,
    arrivals: Condvar,
    telemetry: BusInstruments,
}

/// The live group `gid`, borrowed where it lives.
fn group_mut<M>(groups: &mut [Slot<M>], gid: GroupId) -> Option<&mut GroupState<M>> {
    groups.get_mut(gid as usize)?.as_deref_mut()
}

/// The member's group, borrowed where it lives, and the state every
/// group's operations share.
fn member_group<M>(
    st: &mut State<M>,
    id: SubscriptionId,
) -> CssResult<(&mut Common<M>, &mut GroupState<M>)> {
    let group = st
        .members
        .get(&id)
        .and_then(|&gid| group_mut(&mut st.groups, gid))
        .ok_or_else(|| unknown_sub(id))?;
    Ok((&mut st.common, group))
}

/// The platform's publish/subscribe broker over named topics: cheap to
/// clone, every clone sharing the one in-memory state.
///
/// Subscriptions attach to **delivery groups**. [`Bus::subscribe`]
/// creates a private group (classic fan-out: every such subscription
/// sees every message); [`Bus::subscribe_group`] joins the named group
/// on that topic, whose members *compete*: each message goes to exactly
/// one member, load-balanced by pull.
///
/// Delivery state machine, per message and group:
///
/// ```text
///   queued --take-------------------------------------> done
///   queued --poll--> in-flight --ack-----------------> done
///                        |
///                        +--nack (attempts left)-----> queued (at the head)
///                        +--member detach------------> queued (at the head)
///                        +--nack, no attempts left---> dead-letter queue
/// ```
///
/// Deliveries that return to the queue together (a detach) keep their
/// publish order: the oldest is at the head.
///
/// The bus moves `M` and clones it once per delivery group and once per
/// delivery; it never looks inside. It is payload-blind because it is
/// generic over `M` and css-bus may not depend on css-event (the
/// layering rule), so no code here can name `DetailMessage` or any other
/// event type; css-lint's `detail-confinement` rule backs that up over
/// this crate. A caller whose message is large instantiates it over a
/// pointer (`Bus<Arc<T>>`), and every queue entry, in-flight entry,
/// dead-lettered message and every [`Delivery`] is then that one
/// allocation.
pub struct Bus<M: Clone + Send + 'static> {
    shared: Arc<Shared<M>>,
}

impl<M: Clone + Send + 'static> Clone for Bus<M> {
    fn clone(&self) -> Self {
        Bus {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M: Clone + Send + 'static> Bus<M> {
    /// A bus with no topics, recording into instruments of its own.
    pub fn in_memory() -> Self {
        Self::build(BusInstruments::default())
    }

    /// A bus recording latency histograms, throughput counters and
    /// depth gauges into `registry` under `bus.*` names.
    pub fn in_memory_with_telemetry(registry: &MetricsRegistry) -> Self {
        Self::build(BusInstruments::resolve(registry))
    }

    fn build(telemetry: BusInstruments) -> Self {
        let state = State {
            topics: HashMap::new(),
            groups: vec![None],
            named: HashMap::new(),
            members: HashMap::new(),
            common: Common {
                dlq: Vec::new(),
                stats: BrokerStats::default(),
                next_delivery: 1,
            },
            next_sub: 1,
            parked: 0,
        };
        Bus {
            shared: Arc::new(Shared {
                state: Mutex::ranked("bus state", lock_order::BUS, state),
                arrivals: Condvar::new(),
                telemetry,
            }),
        }
    }

    /// Declare a topic. Idempotent.
    pub fn create_topic(&self, name: &str) {
        let mut st = self.shared.state.lock();
        st.topics.entry(name.to_string()).or_default();
    }

    /// Subscribe to a topic in a private delivery group (fan-out).
    pub fn subscribe(
        &self,
        topic: &str,
        _config: SubscriptionConfig,
    ) -> CssResult<SubscriberHandle<M>> {
        self.attach(topic, None)
    }

    /// Join the named competing-consumer group on `topic`.
    pub fn subscribe_group(
        &self,
        topic: &str,
        group: &str,
        _config: SubscriptionConfig,
    ) -> CssResult<SubscriberHandle<M>> {
        self.attach(topic, Some(group))
    }

    /// Attach a subscription to `topic`, joining the named delivery
    /// `group` (or a private group when `None`).
    fn attach(&self, topic: &str, group: Option<&str>) -> CssResult<SubscriberHandle<M>> {
        let mut st = self.shared.state.lock();
        if !st.topics.contains_key(topic) {
            return Err(CssError::Bus(format!("no such topic {topic:?}")));
        }
        let id = SubscriptionId(st.next_sub);
        st.next_sub += 1;
        let gid = match group {
            Some(name) => {
                let key = (topic.to_string(), name.to_string());
                match st.named.get(&key) {
                    Some(gid) => *gid,
                    None => {
                        let gid = new_group(&mut st, topic, Some(name.to_string()));
                        st.named.insert(key, gid);
                        gid
                    }
                }
            }
            None => new_group(&mut st, topic, None),
        };
        if let Some(g) = group_mut(&mut st.groups, gid) {
            g.members.push(id);
        }
        st.members.insert(id, gid);
        Ok(SubscriberHandle {
            bus: self.clone(),
            id,
        })
    }

    /// Route no later publish to this subscription's delivery group.
    /// What the group already holds stays with it: its members still
    /// poll, ack and nack it, and [`SubscriberHandle::unsubscribe`]
    /// still removes them. A named group gives its name up: the next
    /// member to join that name starts a fresh group. Idempotent, and a
    /// detached subscription is already closed. (How a subscription
    /// whose authorisation ended stops receiving without losing what
    /// was published to it while it held one.)
    pub fn close(&self, id: SubscriptionId) -> CssResult<()> {
        let mut st = self.shared.state.lock();
        let State {
            topics,
            groups,
            named,
            members,
            ..
        } = &mut *st;
        let Some(&gid) = members.get(&id) else {
            // A detached member already receives nothing.
            return Ok(());
        };
        let group = group_mut(groups, gid).ok_or_else(|| unknown_sub(id))?;
        if let Some(topic) = topics.get_mut(&group.topic) {
            topic.groups.retain(|g| *g != gid);
        }
        // The name goes with the routing: a later join of the same
        // name starts a fresh group that publishes reach.
        if let Some(name) = &group.name {
            let key = (group.topic.clone(), name.clone());
            if named.get(&key) == Some(&gid) {
                named.remove(&key);
            }
        }
        Ok(())
    }

    /// Admit one publish to `topic`: hold a queue slot in every
    /// delivery group of the topic until the [`Admission`] is sent or
    /// dropped. A single group whose queue, slots held included, is
    /// full rejects the publish for every group (all-or-nothing
    /// back-pressure), as does an unknown topic; either counts as
    /// rejected. A group that joins the topic meanwhile counts the
    /// slots as held too.
    pub fn admit<'a>(&'a self, topic: &'a str) -> CssResult<Admission<'a, M>> {
        let mut guard = self.shared.state.lock();
        let st = &mut *guard;
        let Some(topic_state) = st.topics.get_mut(topic) else {
            st.common.stats.rejected += 1;
            return Err(CssError::Bus(format!("no such topic {topic:?}")));
        };
        // (The topic list and the slab are kept in sync; a group that is
        // in one and not the other is skipped, here and at the send.)
        let held = topic_state.admitted;
        let overflowing = topic_state.groups.iter().find(|&&gid| {
            let group = st.groups.get(gid as usize).and_then(|slot| slot.as_deref());
            group.is_some_and(|g| g.queue.len() + held >= QUEUE_CAPACITY)
        });
        if let Some(gid) = overflowing {
            st.common.stats.rejected += 1;
            return Err(CssError::Bus(format!(
                "delivery group {gid} queue full ({QUEUE_CAPACITY} messages)"
            )));
        }
        topic_state.admitted += 1;
        Ok(Admission {
            bus: self,
            topic,
            sent: false,
        })
    }

    /// Publish a message to every delivery group of `topic`: an
    /// [`Bus::admit`] and its [`Admission::send`] in one call, under
    /// `opts`'s trace. Returns the groups it was enqueued for.
    pub fn publish_opts(
        &self,
        topic: &str,
        message: M,
        opts: PublishOptions<'_>,
    ) -> CssResult<usize> {
        Ok(self.admit(topic)?.send(message, opts.trace))
    }

    /// Broker-wide statistics.
    pub fn stats(&self) -> BrokerStats {
        self.shared.state.lock().common.stats
    }

    /// A copy of the dead-letter queue, in the order messages were
    /// given up on.
    pub fn dead_letters(&self) -> Vec<DeadLetter<M>> {
        self.shared.state.lock().common.dlq.clone()
    }
}

/// A publish admitted to its topic ([`Bus::admit`]), holding one queue
/// slot in every delivery group of the topic. [`Admission::send`]
/// enqueues the message into them; dropped unsent, the admission gives
/// the slots back and nothing is published.
#[must_use = "an admission dropped unsent publishes nothing"]
pub struct Admission<'a, M: Clone + Send + 'static> {
    bus: &'a Bus<M>,
    topic: &'a str,
    sent: bool,
}

impl<M: Clone + Send + 'static> Admission<'_, M> {
    /// Enqueue `message` for every delivery group of the topic, under
    /// `trace` when given: a `bus.route` span, and under it one
    /// `bus.deliver` per group, closed when the group delivers it.
    /// Returns the groups it was enqueued for.
    pub fn send(mut self, message: M, trace: Option<&TraceContext>) -> usize {
        self.sent = true;
        let started = Instant::now();
        let route = TraceContext::child_opt(trace, "bus.route");
        let route_ctx = route.context();
        let keep_ctx = route_ctx.trace_id().is_some();
        let shared = &*self.bus.shared;
        let mut guard = shared.state.lock();
        let st = &mut *guard;
        let mut fanout = 0usize;
        if let Some(topic_state) = st.topics.get_mut(self.topic) {
            topic_state.admitted -= 1;
            for &gid in &topic_state.groups {
                let Some(g) = group_mut(&mut st.groups, gid) else {
                    continue;
                };
                let offset = g.next_offset;
                g.next_offset += 1;
                g.queue.push_back(Pending {
                    message: message.clone(),
                    attempts: 0,
                    since: started,
                    offset,
                    trace: route_ctx.trace_id(),
                    ctx: keep_ctx.then(|| route_ctx.clone()),
                    deliver_span: keep_ctx.then(|| route_ctx.child("bus.deliver")),
                });
                g.stats.enqueued += 1;
                fanout += 1;
            }
        }
        st.common.stats.published += 1;
        st.common.stats.fanned_out += fanout as u64;
        let parked = st.parked > 0;
        drop(guard);
        route.finish();
        let t = &shared.telemetry;
        t.published.inc();
        t.fanned_out.add(fanout as u64);
        t.queue_depth.add(fanout as i64);
        if parked {
            shared.arrivals.notify_all();
        }
        fanout
    }
}

impl<M: Clone + Send + 'static> Drop for Admission<'_, M> {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        if let Some(topic) = self.bus.shared.state.lock().topics.get_mut(self.topic) {
            topic.admitted -= 1;
        }
    }
}

/// Consumer-side handle to one group-member subscription.
///
/// Dropping the handle does **not** unsubscribe — subscriptions are
/// durable, mirroring how a consumer's queue on the ESB outlives any one
/// connection. Call [`SubscriberHandle::unsubscribe`] to remove it.
pub struct SubscriberHandle<M: Clone + Send + 'static> {
    bus: Bus<M>,
    id: SubscriptionId,
}

impl<M: Clone + Send + 'static> std::fmt::Debug for SubscriberHandle<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubscriberHandle({})", self.id)
    }
}

impl<M: Clone + Send + 'static> Clone for SubscriberHandle<M> {
    fn clone(&self) -> Self {
        SubscriberHandle {
            bus: self.bus.clone(),
            id: self.id,
        }
    }
}

impl<M: Clone + Send + 'static> SubscriberHandle<M> {
    /// The subscription's identifier.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Take the next message, if one is available. Non-blocking.
    pub fn poll(&self) -> CssResult<Option<Delivery<M>>> {
        self.poll_for(Duration::ZERO)
    }

    /// Take the next message, waiting up to `wait` for one to arrive;
    /// [`Duration::ZERO`] never blocks, and a wait too long to
    /// represent (`Duration::MAX`) has no deadline.
    pub fn poll_for(&self, wait: Duration) -> CssResult<Option<Delivery<M>>> {
        self.next_for(wait, true)
    }

    /// Take the next message and acknowledge it in the same visit to
    /// the broker: it leaves the group at once, never held in flight,
    /// so there is nothing to [`ack`](SubscriberHandle::ack) or
    /// [`nack`](SubscriberHandle::nack). Non-blocking.
    pub fn take(&self) -> CssResult<Option<Delivery<M>>> {
        self.take_for(Duration::ZERO)
    }

    /// [`SubscriberHandle::take`], waiting up to `wait` for a message
    /// as [`SubscriberHandle::poll_for`] does.
    pub fn take_for(&self, wait: Duration) -> CssResult<Option<Delivery<M>>> {
        self.next_for(wait, false)
    }

    /// The head of the group's queue, held in flight by this member
    /// when `hold`, else acknowledged on receipt, waiting up to `wait`
    /// for one to arrive.
    fn next_for(&self, wait: Duration, hold: bool) -> CssResult<Option<Delivery<M>>> {
        let shared = &*self.bus.shared;
        let mut now = Instant::now();
        let deadline = now.checked_add(wait);
        let holder = hold.then_some(self.id);
        let mut guard = shared.state.lock();
        loop {
            let (common, group) = member_group(&mut guard, self.id)?;
            if let Some(delivery) = take_next(&shared.telemetry, common, group, holder, now) {
                return Ok(Some(delivery));
            }
            if deadline.is_some_and(|d| now >= d) {
                return Ok(None);
            }
            // The queue is empty: park until a wake-up or the deadline.
            guard.parked += 1;
            match deadline {
                Some(at) => drop(shared.arrivals.wait_until(&mut guard, at)),
                None => shared.arrivals.wait(&mut guard),
            }
            guard.parked -= 1;
            now = Instant::now();
        }
    }

    /// Acknowledge a delivery, removing the message for good.
    pub fn ack(&self, delivery_id: u64) -> CssResult<()> {
        let mut st = self.bus.shared.state.lock();
        let (_, group) = member_group(&mut st, self.id)?;
        let f = take_held(group, self.id, delivery_id)?;
        group.stats.acked += 1;
        let t = &self.bus.shared.telemetry;
        t.ack_latency.record_duration(f.pending.since.elapsed());
        t.inflight.dec();
        Ok(())
    }

    /// Negatively acknowledge a delivery. The message returns to the
    /// head of the queue for redelivery (to any group member), or moves
    /// to the dead-letter queue once its attempts are exhausted.
    pub fn nack(&self, delivery_id: u64) -> CssResult<()> {
        let shared = &*self.bus.shared;
        let mut st = shared.state.lock();
        let (common, group) = member_group(&mut st, self.id)?;
        let f = take_held(group, self.id, delivery_id)?;
        shared.telemetry.inflight.dec();
        retire_or_requeue(&shared.telemetry, common, group, self.id, f.pending);
        drop(st);
        shared.arrivals.notify_all();
        Ok(())
    }

    /// What `read` reads of this subscription's delivery group at one
    /// instant. Errors once the subscription is gone.
    fn read_group<R>(&self, read: impl FnOnce(&GroupState<M>) -> R) -> CssResult<R> {
        let mut st = self.bus.shared.state.lock();
        member_group(&mut st, self.id).map(|(_, g)| read(g))
    }

    /// Messages currently queued for the group (not counting in-flight
    /// deliveries).
    pub fn backlog(&self) -> CssResult<usize> {
        self.read_group(|g| g.queue.len())
    }

    /// Deliveries of the group currently awaiting ack/nack.
    pub fn in_flight(&self) -> CssResult<usize> {
        self.read_group(|g| g.in_flight.len())
    }

    /// Statistics for this subscription's delivery group.
    pub fn stats(&self) -> CssResult<SubscriptionStats> {
        self.read_group(|g| g.stats)
    }

    /// Remove this member. Its in-flight deliveries return to the head
    /// of the queue, in publish order, for the remaining group members;
    /// the last member leaving discards the group's queue.
    pub fn unsubscribe(self) -> CssResult<()> {
        let (shared, id) = (&*self.bus.shared, self.id);
        let mut st = shared.state.lock();
        let gid = st.members.remove(&id).ok_or_else(|| unknown_sub(id))?;
        let group = group_mut(&mut st.groups, gid).ok_or_else(|| unknown_sub(id))?;
        group.members.retain(|m| *m != id);
        let t = &shared.telemetry;
        if group.members.is_empty() {
            // Last member out: drop the whole group.
            let Some(group) = st.groups[gid as usize].take() else {
                return Err(unknown_sub(id));
            };
            t.queue_depth.sub(group.queue.len() as i64);
            t.inflight.sub(group.in_flight.len() as i64);
            if let Some(topic) = st.topics.get_mut(&group.topic) {
                topic.groups.retain(|g| *g != gid);
            }
            // A closed group gave its name up already, perhaps to a
            // fresh group that is still live.
            if let Some(name) = group.name {
                let key = (group.topic, name);
                if st.named.get(&key) == Some(&gid) {
                    st.named.remove(&key);
                }
            }
        } else {
            // Return the leaver's in-flight deliveries to the peers.
            for mut f in take_all_held(group, id) {
                f.pending.deliver_span = redeliver_span(&f.pending);
                group.queue.push_front(f.pending);
                t.inflight.dec();
                t.queue_depth.inc();
            }
        }
        drop(st);
        // Wake any member parked in `poll_for` so it re-checks state.
        shared.arrivals.notify_all();
        Ok(())
    }

    /// Drain every queued message, acknowledging each as it is taken —
    /// convenience for tests and simulations that consume eagerly.
    pub fn drain(&self) -> CssResult<Vec<M>> {
        let mut out = Vec::new();
        while let Some(d) = self.take()? {
            out.push(d.message);
        }
        Ok(out)
    }
}

/// Take the head of the queue: moved in flight for `holder` to ack or
/// nack, or, with no holder, acknowledged on receipt.
fn take_next<M: Clone>(
    t: &BusInstruments,
    common: &mut Common<M>,
    group: &mut GroupState<M>,
    holder: Option<SubscriptionId>,
    now: Instant,
) -> Option<Delivery<M>> {
    let mut pending = group.queue.pop_front()?;
    pending.attempts += 1;
    let delivery_id = common.next_delivery;
    common.next_delivery += 1;
    if let Some(span) = pending.deliver_span.take() {
        span.finish();
    }
    if pending.attempts > 1 {
        group.stats.redelivered += 1;
        t.redelivered.inc();
    }
    group.stats.delivered += 1;
    t.deliver_latency
        .record_duration(now.saturating_duration_since(pending.since));
    t.queue_depth.dec();
    let (attempt, offset, trace) = (pending.attempts, pending.offset, pending.trace);
    let message = match holder {
        Some(holder) => {
            t.inflight.inc();
            // Re-stamp: from here `since` means "delivered at".
            pending.since = now;
            let message = pending.message.clone();
            group
                .in_flight
                .insert(delivery_id, InFlight { pending, holder });
            message
        }
        None => {
            // Acknowledged the instant it was delivered.
            group.stats.acked += 1;
            t.ack_latency.record(0);
            pending.message
        }
    };
    Some(Delivery {
        delivery_id,
        attempt,
        offset,
        trace,
        message,
    })
}

/// A message leaving in-flight by a nack: back to the head of the
/// queue for another attempt, or to the dead-letter queue when the
/// attempt budget is spent.
fn retire_or_requeue<M>(
    t: &BusInstruments,
    common: &mut Common<M>,
    group: &mut GroupState<M>,
    holder: SubscriptionId,
    mut pending: Pending<M>,
) {
    if pending.attempts >= MAX_ATTEMPTS {
        group.stats.dead_lettered += 1;
        common.dlq.push(DeadLetter {
            subscription: holder,
            topic: group.topic.clone(),
            group: group.name.clone(),
            attempts: pending.attempts,
            trace: pending.trace,
            message: pending.message,
        });
    } else {
        pending.deliver_span = redeliver_span(&pending);
        group.queue.push_front(pending);
        t.queue_depth.inc();
    }
}

/// The in-flight delivery `delivery_id`, taken out of the group for
/// the member that holds it; an error, and nothing taken, for anybody
/// else.
fn take_held<M>(
    group: &mut GroupState<M>,
    id: SubscriptionId,
    delivery_id: u64,
) -> CssResult<InFlight<M>> {
    match group.in_flight.entry(delivery_id) {
        Entry::Occupied(held) if held.get().holder == id => Ok(held.remove()),
        Entry::Occupied(_) => Err(CssError::Bus(format!(
            "delivery {delivery_id} is held by another group member"
        ))),
        Entry::Vacant(_) => Err(CssError::Bus(format!(
            "no in-flight delivery {delivery_id}"
        ))),
    }
}

/// Every in-flight delivery `holder` holds, taken out newest first (the
/// map iterates in hash order): pushed onto the front of the queue one
/// by one in that order, the oldest ends up at the head and the group's
/// members see them in publish order.
fn take_all_held<M>(group: &mut GroupState<M>, holder: SubscriptionId) -> Vec<InFlight<M>> {
    let mut leaving: Vec<(u64, u64)> = group
        .in_flight
        .iter()
        .filter(|(_, f)| f.holder == holder)
        .map(|(delivery_id, f)| (f.pending.offset, *delivery_id))
        .collect();
    leaving.sort_unstable_by_key(|&at| Reverse(at));
    leaving
        .into_iter()
        .filter_map(|(_, delivery_id)| group.in_flight.remove(&delivery_id))
        .collect()
}

/// A `bus.redeliver` span under the message's original trace, opened
/// when a delivery returns to the queue; closes at the next poll so the
/// trace tree shows each redelivery hop and its queue time.
fn redeliver_span<M>(pending: &Pending<M>) -> Option<SpanGuard> {
    pending.ctx.as_ref().map(|c| c.child("bus.redeliver"))
}

fn new_group<M>(st: &mut State<M>, topic: &str, name: Option<String>) -> GroupId {
    let gid = st.groups.len() as GroupId;
    st.groups.push(Some(Box::new(GroupState {
        topic: topic.to_string(),
        name,
        members: Vec::new(),
        queue: VecDeque::new(),
        in_flight: HashMap::new(),
        next_offset: 0,
        stats: SubscriptionStats::default(),
    })));
    if let Some(topic_state) = st.topics.get_mut(topic) {
        topic_state.groups.push(gid);
    }
    gid
}

/// Publish `message` with no options, returning the groups it was
/// enqueued for: the tests' shorthand for `publish_opts`.
#[cfg(test)]
pub(crate) fn send<M: Clone + Send + 'static>(
    bus: &Bus<M>,
    topic: &str,
    message: M,
) -> CssResult<usize> {
    bus.publish_opts(topic, message, PublishOptions::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker() -> Bus<String> {
        let b = Bus::in_memory();
        b.create_topic("blood-test");
        b
    }

    #[test]
    fn publish_without_topic_fails() {
        let b: Bus<String> = Bus::in_memory();
        assert!(send(&b, "nope", "m".into()).is_err());
        assert_eq!(b.stats().rejected, 1);
    }

    #[test]
    fn subscribe_unknown_topic_fails() {
        let b: Bus<String> = Bus::in_memory();
        assert!(b.subscribe("nope", SubscriptionConfig::default()).is_err());
    }

    #[test]
    fn fan_out_to_all_subscribers() {
        let b = broker();
        let s1 = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        let s2 = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        let n = send(&b, "blood-test", "hello".into()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(s1.drain().unwrap(), vec!["hello"]);
        assert_eq!(s2.drain().unwrap(), vec!["hello"]);
        assert_eq!(b.stats().fanned_out, 2);
    }

    #[test]
    fn publish_with_no_subscribers_is_ok() {
        let b = broker();
        assert_eq!(send(&b, "blood-test", "m".into()).unwrap(), 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        for i in 0..5 {
            send(&b, "blood-test", format!("m{i}")).unwrap();
        }
        assert_eq!(s.drain().unwrap(), vec!["m0", "m1", "m2", "m3", "m4"]);
    }

    #[test]
    fn unacked_message_stays_in_flight() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "m".into()).unwrap();
        let d = s.poll().unwrap().unwrap();
        // Queue is drained but message not acked.
        assert!(s.poll().unwrap().is_none());
        assert_eq!(s.in_flight().unwrap(), 1);
        s.ack(d.delivery_id).unwrap();
        assert!(s.ack(d.delivery_id).is_err(), "double ack");
        assert_eq!(s.in_flight().unwrap(), 0);
    }

    #[test]
    fn nack_redelivers_at_front() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "first".into()).unwrap();
        send(&b, "blood-test", "second".into()).unwrap();
        let d = s.poll().unwrap().unwrap();
        assert_eq!(d.message, "first");
        s.nack(d.delivery_id).unwrap();
        let d2 = s.poll().unwrap().unwrap();
        assert_eq!(d2.message, "first");
        assert_eq!(d2.attempt, 2);
        assert_eq!(s.stats().unwrap().redelivered, 1);
    }

    #[test]
    fn exhausted_attempts_dead_letter() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "poison".into()).unwrap();
        for _ in 0..MAX_ATTEMPTS {
            let d = s.poll().unwrap().unwrap();
            s.nack(d.delivery_id).unwrap();
        }
        assert!(s.poll().unwrap().is_none());
        let dlq = b.dead_letters();
        assert_eq!(dlq.len(), 1);
        assert_eq!(dlq[0].message, "poison");
        assert_eq!(dlq[0].attempts, MAX_ATTEMPTS);
        assert_eq!(s.stats().unwrap().dead_lettered, 1);
    }

    #[test]
    fn reject_overflow_fails_publish_atomically() {
        let b = broker();
        let cfg = SubscriptionConfig::default();
        let full = b.subscribe("blood-test", cfg).unwrap();
        let roomy = b.subscribe("blood-test", cfg).unwrap();
        for i in 0..QUEUE_CAPACITY {
            send(&b, "blood-test", format!("m{i}")).unwrap();
        }
        roomy.drain().unwrap();
        // full's queue is at capacity → next publish must fail and NOT
        // enqueue for roomy either.
        assert!(send(&b, "blood-test", "over".into()).is_err());
        assert_eq!(roomy.backlog().unwrap(), 0);
        assert_eq!(full.backlog().unwrap(), QUEUE_CAPACITY);
        assert_eq!(b.stats().rejected, 1);
    }

    /// An admission holds its slot in every group of the topic until
    /// it is sent; dropped unsent, it gives the slot back and publishes
    /// nothing.
    #[test]
    fn an_admission_holds_its_slots_until_sent_or_dropped() {
        let b = broker();
        let cfg = SubscriptionConfig::default();
        let nearly = b.subscribe("blood-test", cfg).unwrap();
        let roomy = b.subscribe("blood-test", cfg).unwrap();
        for i in 0..QUEUE_CAPACITY - 1 {
            send(&b, "blood-test", format!("m{i}")).unwrap();
        }
        roomy.drain().unwrap();
        let held = b.admit("blood-test").unwrap();
        assert!(b.admit("blood-test").is_err(), "the last slot is held");
        drop(held);
        assert_eq!(b.stats().published, (QUEUE_CAPACITY - 1) as u64);
        assert_eq!(roomy.backlog().unwrap(), 0);
        let admitted = b.admit("blood-test").unwrap();
        assert_eq!(admitted.send("last".into(), None), 2);
        assert_eq!(nearly.backlog().unwrap(), QUEUE_CAPACITY);
        assert_eq!(roomy.drain().unwrap(), ["last"]);
        assert!(b.admit("blood-test").is_err());
        assert!(b.admit("nope").is_err());
        assert_eq!(b.stats().rejected, 3);
    }

    #[test]
    fn unsubscribe_stops_fanout() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        assert_eq!(send(&b, "blood-test", "m".into()).unwrap(), 1);
        s.unsubscribe().unwrap();
        assert_eq!(send(&b, "blood-test", "m".into()).unwrap(), 0);
    }

    #[test]
    fn operations_on_dead_handle_fail() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        let dup = s.clone();
        s.unsubscribe().unwrap();
        assert!(dup.poll().is_err());
        assert!(dup.stats().is_err());
    }

    #[test]
    fn waiting_poll_times_out_empty() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        let start = std::time::Instant::now();
        let out = s.poll_for(Duration::from_millis(30)).unwrap();
        assert!(out.is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn waiting_poll_wakes_on_publish_from_thread() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        let publisher = b.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            send(&publisher, "blood-test", "wake".into()).unwrap();
        });
        let d = s.poll_for(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(d.message, "wake");
        t.join().unwrap();
    }

    #[test]
    fn concurrent_publishers_and_consumers() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        // 1 000 publishes, under the group's queue capacity.
        let mut handles = Vec::new();
        for t in 0..4 {
            let publisher = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    send(&publisher, "blood-test", format!("t{t}-m{i}")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let all = s.drain().unwrap();
        assert_eq!(all.len(), 1000);
        assert_eq!(b.stats().published, 1000);
        assert_eq!(s.stats().unwrap().acked, 1000);
    }

    #[test]
    fn telemetry_tracks_lifecycle() {
        let registry = MetricsRegistry::new();
        let b: Bus<String> = Bus::in_memory_with_telemetry(&registry);
        b.create_topic("t");
        let s1 = b.subscribe("t", SubscriptionConfig::default()).unwrap();
        let s2 = b.subscribe("t", SubscriptionConfig::default()).unwrap();
        for i in 0..3 {
            send(&b, "t", format!("m{i}")).unwrap();
        }
        assert_eq!(registry.snapshot().gauge("bus.queue_depth"), 6);

        // Deliver and ack everything on s1; s2 keeps its backlog.
        while let Some(d) = s1.poll().unwrap() {
            s1.ack(d.delivery_id).unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("bus.published"), 3);
        assert_eq!(snap.counter("bus.fanned_out"), 6);
        assert_eq!(snap.gauge("bus.queue_depth"), 3);
        assert_eq!(snap.gauge("bus.inflight"), 0);
        assert_eq!(snap.histogram("bus.deliver").unwrap().count, 3);
        assert_eq!(snap.histogram("bus.ack").unwrap().count, 3);

        // A poll moves depth to in-flight; a nack moves it back.
        let d = s2.poll().unwrap().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("bus.queue_depth"), 2);
        assert_eq!(snap.gauge("bus.inflight"), 1);
        s2.nack(d.delivery_id).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("bus.queue_depth"), 3);
        assert_eq!(snap.gauge("bus.inflight"), 0);
        s2.unsubscribe().unwrap();
        assert_eq!(registry.snapshot().gauge("bus.queue_depth"), 0);
    }

    /// A take is a poll and an ack in one visit: delivered and acked
    /// in the group's counters and histograms, never in flight.
    #[test]
    fn a_take_delivers_and_acknowledges_in_one_visit() {
        let registry = MetricsRegistry::new();
        let b: Bus<String> = Bus::in_memory_with_telemetry(&registry);
        b.create_topic("t");
        let s = b.subscribe("t", SubscriptionConfig::default()).unwrap();
        for i in 0..3 {
            send(&b, "t", format!("m{i}")).unwrap();
        }
        let first = s.take().unwrap().unwrap();
        assert_eq!((first.attempt, first.offset, &*first.message), (1, 0, "m0"));
        assert_eq!(s.in_flight().unwrap(), 0);
        assert!(s.ack(first.delivery_id).is_err(), "nothing left to ack");
        assert!(s.nack(first.delivery_id).is_err(), "nothing left to nack");
        // Held and taken deliveries share one id sequence.
        let held = s.poll().unwrap().unwrap();
        assert_eq!(held.delivery_id, first.delivery_id + 1);
        s.ack(held.delivery_id).unwrap();
        assert_eq!(s.take().unwrap().unwrap().message, "m2");
        assert!(s.take().unwrap().is_none());

        let stats = s.stats().unwrap();
        assert_eq!((stats.delivered, stats.acked, stats.redelivered), (3, 3, 0));
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("bus.deliver").unwrap().count, 3);
        assert_eq!(snap.histogram("bus.ack").unwrap().count, 3);
        assert_eq!(snap.gauge("bus.queue_depth"), 0);
        assert_eq!(snap.gauge("bus.inflight"), 0);
    }

    /// A nacked message taken again counts as redelivered, and a take
    /// on a detached subscription fails like a poll.
    #[test]
    fn a_take_after_a_nack_is_a_redelivery() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "m".to_string()).unwrap();
        let d = s.poll().unwrap().unwrap();
        s.nack(d.delivery_id).unwrap();
        let again = s.take().unwrap().unwrap();
        assert_eq!((again.attempt, &*again.message), (2, "m"));
        assert_eq!(s.stats().unwrap().redelivered, 1);
        let dead = s.clone();
        s.unsubscribe().unwrap();
        assert!(dead.take().is_err());
    }

    /// `take_for` parks as `poll_for` does, and a publish wakes it.
    #[test]
    fn a_parked_take_wakes_on_a_publish() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        let taker = {
            let s = s.clone();
            std::thread::spawn(move || s.take_for(Duration::from_secs(30)).unwrap())
        };
        while b.shared.state.lock().parked == 0 && !taker.is_finished() {
            std::thread::yield_now();
        }
        send(&b, "blood-test", "m".to_string()).unwrap();
        let taken = taker.join().unwrap().expect("woken by the publish");
        assert_eq!(taken.message, "m");
        assert_eq!(s.in_flight().unwrap(), 0);
    }

    #[test]
    fn traced_publish_produces_route_and_deliver_spans() {
        use css_trace::Tracer;
        use css_types::Timestamp;

        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        let tracer = Tracer::new(64, &MetricsRegistry::new());
        let root = tracer.root("publish", Timestamp(7));
        let ctx = root.context();
        b.publish_opts("blood-test", "m".into(), PublishOptions::new().traced(&ctx))
            .unwrap();
        root.finish();

        let d = s.poll().unwrap().unwrap();
        assert_eq!(d.trace, ctx.trace_id());
        s.ack(d.delivery_id).unwrap();

        let spans = tracer.finished_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"bus.route"), "{names:?}");
        assert!(names.contains(&"bus.deliver"), "{names:?}");
        let route = spans.iter().find(|s| s.name == "bus.route").unwrap();
        let deliver = spans.iter().find(|s| s.name == "bus.deliver").unwrap();
        assert_eq!(deliver.parent, Some(route.id));
        assert!(spans.iter().all(|s| Some(s.trace) == ctx.trace_id()));
    }

    #[test]
    fn untraced_publish_leaves_delivery_trace_empty() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "m".into()).unwrap();
        let d = s.poll().unwrap().unwrap();
        assert_eq!(d.trace, None);
    }

    #[test]
    fn create_topic_idempotent() {
        let b = broker();
        b.create_topic("blood-test");
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        // The re-declare kept the topic's one group.
        assert_eq!(send(&b, "blood-test", "still there".into()).unwrap(), 1);
        assert_eq!(s.drain().unwrap().len(), 1);
    }

    // ------------------------------------------------------------------
    // Delivery groups
    // ------------------------------------------------------------------

    #[test]
    fn group_members_share_one_queue() {
        let b = broker();
        let a = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        let c = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        // One group → fan-out of 1 per publish.
        assert_eq!(send(&b, "blood-test", "m0".into()).unwrap(), 1);
        assert_eq!(send(&b, "blood-test", "m1".into()).unwrap(), 1);
        let da = a.poll().unwrap().unwrap();
        let dc = c.poll().unwrap().unwrap();
        assert_ne!(da.message, dc.message);
        assert!(a.poll().unwrap().is_none());
        assert!(c.poll().unwrap().is_none());
        a.ack(da.delivery_id).unwrap();
        c.ack(dc.delivery_id).unwrap();
        assert_eq!(a.stats().unwrap().acked, 2); // shared group stats
    }

    #[test]
    fn same_group_name_on_other_topic_is_distinct() {
        let b = broker();
        b.create_topic("other");
        let a = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        let c = b
            .subscribe_group("other", "workers", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "m".into()).unwrap();
        assert_eq!(a.backlog().unwrap(), 1);
        assert_eq!(c.backlog().unwrap(), 0);
    }

    #[test]
    fn nacked_group_delivery_moves_to_another_member() {
        let b = broker();
        let a = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        let c = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "job".into()).unwrap();
        let da = a.poll().unwrap().unwrap();
        assert_eq!(da.attempt, 1);
        a.nack(da.delivery_id).unwrap();
        let dc = c.poll().unwrap().unwrap();
        assert_eq!(dc.message, "job");
        assert_eq!(dc.attempt, 2);
        c.ack(dc.delivery_id).unwrap();
    }

    #[test]
    fn member_cannot_ack_anothers_delivery() {
        let b = broker();
        let a = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        let c = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "job".into()).unwrap();
        let da = a.poll().unwrap().unwrap();
        assert!(c.ack(da.delivery_id).is_err());
        assert!(c.nack(da.delivery_id).is_err());
        a.ack(da.delivery_id).unwrap();
    }

    #[test]
    fn detaching_member_requeues_its_in_flight_for_peers() {
        let b = broker();
        let a = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        let c = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "job".into()).unwrap();
        let da = a.poll().unwrap().unwrap();
        assert_eq!(da.message, "job");
        a.unsubscribe().unwrap();
        // The delivery a was holding is now available to c.
        let dc = c.poll().unwrap().unwrap();
        assert_eq!(dc.message, "job");
        assert_eq!(dc.attempt, 2);
        c.ack(dc.delivery_id).unwrap();
    }

    #[test]
    fn a_closed_group_keeps_what_it_holds_and_receives_nothing_more() {
        let b = broker();
        let closed = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        let open = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "before".into()).unwrap();
        b.close(closed.id()).unwrap();
        b.close(closed.id()).unwrap();
        assert_eq!(send(&b, "blood-test", "after".into()).unwrap(), 1);
        assert_eq!(closed.drain().unwrap(), ["before"]);
        assert_eq!(open.drain().unwrap(), ["before", "after"]);
        let id = closed.id();
        closed.unsubscribe().unwrap();
        b.close(id).unwrap();
    }

    #[test]
    fn a_closed_named_group_gives_its_name_to_the_next_join() {
        let b = broker();
        let cfg = SubscriptionConfig::default();
        let old = b.subscribe_group("blood-test", "workers", cfg).unwrap();
        b.close(old.id()).unwrap();
        let new = b.subscribe_group("blood-test", "workers", cfg).unwrap();
        assert_eq!(send(&b, "blood-test", "m".into()).unwrap(), 1);
        assert_eq!(new.drain().unwrap(), ["m"]);
        assert!(old.drain().unwrap().is_empty());
        // The closed group's last member leaving keeps the live name.
        old.unsubscribe().unwrap();
        let peer = b.subscribe_group("blood-test", "workers", cfg).unwrap();
        assert_eq!(send(&b, "blood-test", "n".into()).unwrap(), 1);
        assert_eq!(peer.backlog().unwrap(), 1);
    }

    /// Six publishes to a two-member group; `a` takes them all unacked.
    fn holder_of_six(b: &Bus<String>) -> (SubscriberHandle<String>, SubscriberHandle<String>) {
        let cfg = SubscriptionConfig::default();
        let a = b.subscribe_group("blood-test", "workers", cfg).unwrap();
        let c = b.subscribe_group("blood-test", "workers", cfg).unwrap();
        for i in 0..6 {
            send(b, "blood-test", format!("m{i}")).unwrap();
        }
        for offset in 0..6 {
            assert_eq!(a.poll().unwrap().unwrap().offset, offset);
        }
        (a, c)
    }

    #[test]
    fn detach_requeues_in_publish_order() {
        let b = broker();
        let (a, c) = holder_of_six(&b);
        a.unsubscribe().unwrap();
        assert_eq!(c.drain().unwrap(), ["m0", "m1", "m2", "m3", "m4", "m5"]);
    }

    #[test]
    fn last_member_detach_drops_group_and_name() {
        let b = broker();
        let a = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        send(&b, "blood-test", "m".into()).unwrap();
        a.unsubscribe().unwrap();
        // The group is gone: the next publish routes to no queue.
        assert_eq!(send(&b, "blood-test", "n".into()).unwrap(), 0);
        // Re-joining the same name creates a fresh group (empty queue).
        let c = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        assert_eq!(c.backlog().unwrap(), 0);
    }

    // ------------------------------------------------------------------
    // Dedup keys: ignored
    // ------------------------------------------------------------------

    #[test]
    fn distinct_dedup_keys_pass() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        for k in ["a", "b", "c"] {
            let out = b
                .publish_opts("blood-test", k.into(), PublishOptions::new().dedup_key(k))
                .unwrap();
            assert_eq!(out, 1);
        }
        assert_eq!(s.drain().unwrap().len(), 3);
    }
}

/// With `M = Arc<_>` a publish is one allocation however many groups,
/// deliveries and dead letters point at it.
#[cfg(test)]
mod sharing_tests {
    use super::*;
    use std::sync::Weak;

    fn bus() -> Bus<Arc<String>> {
        let b = Bus::in_memory();
        b.create_topic("t");
        b
    }

    #[test]
    fn every_holder_of_a_publish_points_at_the_one_message() {
        let b = bus();
        let cfg = SubscriptionConfig::default();
        let solo = b.subscribe("t", cfg).unwrap();
        let worker = b.subscribe_group("t", "workers", cfg).unwrap();
        let message = Arc::new(String::from("who / what / when / where"));
        assert_eq!(send(&b, "t", Arc::clone(&message)).unwrap(), 2);

        // Each group's delivery is the published allocation.
        let d = solo.poll().unwrap().unwrap();
        assert!(Arc::ptr_eq(&d.message, &message));
        solo.ack(d.delivery_id).unwrap();
        // So is each in-flight entry a nack puts back on the queue ...
        for attempt in 1..=MAX_ATTEMPTS {
            let d = worker.poll().unwrap().unwrap();
            assert_eq!(d.attempt, attempt);
            assert!(Arc::ptr_eq(&d.message, &message));
            worker.nack(d.delivery_id).unwrap();
        }
        // ... and the dead letter it becomes once attempts run out.
        let dlq = b.dead_letters();
        assert_eq!(dlq.len(), 1);
        assert!(Arc::ptr_eq(&dlq[0].message, &message));
    }

    #[test]
    fn the_last_ack_frees_the_message() {
        let b = bus();
        let subs: Vec<_> = (0..3)
            .map(|_| b.subscribe("t", SubscriptionConfig::default()).unwrap())
            .collect();
        let message = Arc::new(String::from("m"));
        let weak: Weak<String> = Arc::downgrade(&message);
        b.publish_opts("t", message, PublishOptions::new().dedup_key("k"))
            .unwrap();
        for (i, s) in subs.iter().enumerate() {
            // Still queued for the subscribers that have not polled.
            assert!(weak.upgrade().is_some(), "freed before subscriber {i}");
            let d = s.poll().unwrap().unwrap();
            s.ack(d.delivery_id).unwrap();
        }
        // No dead letter, every delivery dropped: nothing
        // in the broker (the ignored key included) holds the message.
        assert!(weak.upgrade().is_none());
    }
}

/// The wake-up a publish skips when nobody is parked is never one
/// somebody needed; the other wakers still wake.
#[cfg(test)]
mod wake_tests {
    use super::*;

    /// Long enough that a lost wake-up shows as a test that takes it.
    const PATIENCE: Duration = Duration::from_secs(20);

    fn setup() -> (Arc<Shared<String>>, Bus<String>) {
        let bus = Bus::in_memory();
        let broker = Arc::clone(&bus.shared);
        bus.create_topic("t");
        (broker, bus)
    }

    /// Park `s` in a waiting poll on its own thread; returns once the
    /// broker counts it parked — from then on it is inside the wait
    /// (the count is raised under the state lock the wait releases).
    fn park(
        broker: &Arc<Shared<String>>,
        s: &SubscriberHandle<String>,
        parked: usize,
    ) -> std::thread::JoinHandle<(Option<Delivery<String>>, Duration)> {
        park_for(broker, s, parked, PATIENCE)
    }

    fn park_for(
        broker: &Arc<Shared<String>>,
        s: &SubscriberHandle<String>,
        parked: usize,
        wait: Duration,
    ) -> std::thread::JoinHandle<(Option<Delivery<String>>, Duration)> {
        let s = s.clone();
        let t = std::thread::spawn(move || {
            let started = Instant::now();
            (s.poll_for(wait).unwrap(), started.elapsed())
        });
        // A poll that panicked never parks: `woken` reports it.
        while broker.state.lock().parked < parked && !t.is_finished() {
            std::thread::yield_now();
        }
        t
    }

    fn woken(t: std::thread::JoinHandle<(Option<Delivery<String>>, Duration)>) -> Delivery<String> {
        let (delivery, waited) = t.join().unwrap();
        assert!(waited < PATIENCE / 2, "woke by deadline, not by notify");
        delivery.expect("woken with a message")
    }

    #[test]
    fn a_poller_parked_before_a_publish_wakes_on_it() {
        let (broker, bus) = setup();
        let s = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        let t = park(&broker, &s, 1);
        send(&bus, "t", "m".into()).unwrap();
        assert_eq!(woken(t).message, "m");
        assert_eq!(broker.state.lock().parked, 0);
    }

    #[test]
    fn a_publish_with_nobody_parked_is_not_a_lost_wake_up() {
        let (broker, bus) = setup();
        let s = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        assert_eq!(broker.state.lock().parked, 0);
        send(&bus, "t", "m".into()).unwrap();
        let started = Instant::now();
        let d = s.poll_for(PATIENCE).unwrap().unwrap();
        assert_eq!(d.message, "m");
        assert!(started.elapsed() < PATIENCE / 2);
    }

    /// `now + Duration::MAX` is no `Instant`: the wait has to survive
    /// it.
    #[test]
    fn a_wait_too_long_to_represent_returns_what_is_queued() {
        let (_, bus) = setup();
        let s = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        send(&bus, "t", "m".into()).unwrap();
        let d = s.poll_for(Duration::MAX).unwrap().unwrap();
        assert_eq!(d.message, "m");
    }

    #[test]
    fn a_poller_parked_without_a_deadline_wakes_on_a_publish() {
        let (broker, bus) = setup();
        let s = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        let t = park_for(&broker, &s, 1, Duration::MAX);
        send(&bus, "t", "m".into()).unwrap();
        assert_eq!(woken(t).message, "m");
    }

    #[test]
    fn two_parked_members_of_one_group_each_wake_for_a_message() {
        let (broker, bus) = setup();
        let cfg = SubscriptionConfig::default();
        let a = bus.subscribe_group("t", "workers", cfg).unwrap();
        let b = bus.subscribe_group("t", "workers", cfg).unwrap();
        let ta = park(&broker, &a, 1);
        let tb = park(&broker, &b, 2);
        send(&bus, "t", "m0".into()).unwrap();
        send(&bus, "t", "m1".into()).unwrap();
        let mut got = vec![woken(ta).message, woken(tb).message];
        got.sort();
        assert_eq!(got, ["m0", "m1"]);
    }

    #[test]
    fn nack_and_detach_still_wake_a_parked_peer() {
        let (broker, bus) = setup();
        let cfg = SubscriptionConfig::default();
        let holder = bus.subscribe_group("t", "workers", cfg).unwrap();
        let peer = bus.subscribe_group("t", "workers", cfg).unwrap();
        send(&bus, "t", "job".into()).unwrap();

        // nack: the delivery returns to the queue the peer waits on.
        let held = holder.poll().unwrap().unwrap();
        let t = park(&broker, &peer, 1);
        holder.nack(held.delivery_id).unwrap();
        let d = woken(t);
        assert_eq!((d.message.as_str(), d.attempt), ("job", 2));
        peer.nack(d.delivery_id).unwrap();

        // detach: what the leaver held goes back to its peers.
        let held = holder.poll().unwrap().unwrap();
        assert_eq!(held.attempt, 3);
        let t = park(&broker, &peer, 1);
        holder.unsubscribe().unwrap();
        let d = woken(t);
        assert_eq!((d.message.as_str(), d.attempt), ("job", 4));
    }
}

#[cfg(test)]
mod race_tests {
    use super::*;

    #[test]
    fn waiting_poll_errors_after_concurrent_unsubscribe() {
        let b: Bus<String> = Bus::in_memory();
        b.create_topic("t");
        let s = b.subscribe("t", SubscriptionConfig::default()).unwrap();
        let waiter = s.clone();
        let t = std::thread::spawn(move || waiter.poll_for(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(30));
        s.unsubscribe().unwrap();
        // The waiter must terminate promptly with an error, not block
        // for the full timeout: detach wakes the condvar so the waiter
        // re-checks and notices the subscription is gone.
        let result = t.join().unwrap();
        assert!(result.is_err());
    }

    #[test]
    fn nack_of_foreign_delivery_id_rejected() {
        let b: Bus<u32> = Bus::in_memory();
        b.create_topic("t");
        let s1 = b.subscribe("t", SubscriptionConfig::default()).unwrap();
        let s2 = b.subscribe("t", SubscriptionConfig::default()).unwrap();
        send(&b, "t", 1).unwrap();
        let d1 = s1.poll().unwrap().unwrap();
        // s2 cannot ack or nack s1's delivery.
        assert!(s2.ack(d1.delivery_id).is_err());
        assert!(s2.nack(d1.delivery_id).is_err());
        s1.ack(d1.delivery_id).unwrap();
    }

    #[test]
    fn competing_pollers_never_share_a_delivery() {
        let b: Bus<u64> = Bus::in_memory();
        b.create_topic("t");
        let cfg = SubscriptionConfig::default();
        let subs: Vec<_> = (0..4)
            .map(|_| b.subscribe_group("t", "workers", cfg).unwrap())
            .collect();
        for i in 0..1_000u64 {
            send(&b, "t", i).unwrap();
        }
        let mut threads = Vec::new();
        for s in subs {
            threads.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(d) = s.poll().unwrap() {
                    s.ack(d.delivery_id).unwrap();
                    got.push(d.message);
                }
                got
            }));
        }
        let mut all: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..1_000).collect();
        assert_eq!(all, expected, "every message delivered exactly once");
    }
}
