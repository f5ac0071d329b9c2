//! The in-memory [`BusDriver`]: topics, delivery groups, queues, the
//! acknowledgement protocol, publish dedup, visibility timeouts and
//! bounded redelivery.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use css_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use css_trace::{SpanGuard, SpanStatus, TraceContext, TraceId};
use css_types::{CssError, CssResult, SubscriptionId};

use crate::driver::{BusDriver, BusSnapshot, GroupSnapshot, PublishOptions, PublishOutcome};
use crate::stats::{BrokerStats, SubscriptionStats};
use crate::subscription::{unknown_sub, DeadLetter, Delivery};

/// Publish dedup keys remembered per topic before the oldest is forgotten.
const DEDUP_WINDOW: usize = 4096;

/// Telemetry handles for the broker hot paths (recording is
/// lock-free). Always present: without a registry they are detached
/// cells nobody reads.
#[derive(Default)]
struct BusInstruments {
    /// `bus.publish` — duration of each publish call.
    publish_latency: Histogram,
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
    /// `bus.dedup_dropped` — publishes dropped by the dedup window.
    dedup_dropped: Counter,
    /// `bus.queue_depth` — messages currently queued (all groups).
    queue_depth: Gauge,
    /// `bus.inflight` — deliveries awaiting ack/nack (all groups).
    inflight: Gauge,
}

impl BusInstruments {
    fn resolve(registry: &MetricsRegistry) -> Self {
        BusInstruments {
            publish_latency: registry.histogram("bus.publish"),
            deliver_latency: registry.histogram("bus.deliver"),
            ack_latency: registry.histogram("bus.ack"),
            published: registry.counter("bus.published"),
            fanned_out: registry.counter("bus.fanned_out"),
            redelivered: registry.counter("bus.redelivered"),
            dedup_dropped: registry.counter("bus.dedup_dropped"),
            queue_depth: registry.gauge("bus.queue_depth"),
            inflight: registry.gauge("bus.inflight"),
        }
    }
}

/// Per-group configuration, fixed by the first member to attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionConfig {
    /// Maximum queued (undelivered) messages; a publish that finds a
    /// group's queue this full is rejected for every group.
    pub capacity: usize,
    /// Delivery attempts before a message is dead-lettered.
    pub max_attempts: u32,
    /// How long a delivery may stay unacknowledged before it returns to
    /// the queue for another member. `None` = held until ack/nack.
    pub visibility_timeout: Option<Duration>,
}

impl Default for SubscriptionConfig {
    fn default() -> Self {
        SubscriptionConfig {
            capacity: 1024,
            max_attempts: 3,
            visibility_timeout: None,
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
    /// When the visibility timeout expires, if one is configured.
    expires: Option<Instant>,
}

type GroupId = u64;

/// One delivery group: a queue plus the members competing over it.
struct GroupState<M> {
    topic: String,
    /// Group name; `None` for a private (fan-out) group.
    name: Option<String>,
    config: SubscriptionConfig,
    members: Vec<SubscriptionId>,
    queue: VecDeque<Pending<M>>,
    in_flight: HashMap<u64, InFlight<M>>,
    next_offset: u64,
    stats: SubscriptionStats,
}

#[derive(Default)]
struct TopicState {
    groups: Vec<GroupId>,
    /// Publish dedup window: the keys seen recently and their eviction
    /// order. A key is held once; set and ring share it.
    dedup_recent: HashSet<Arc<str>>,
    dedup_order: VecDeque<Arc<str>>,
}

type Slot<M> = Option<Box<GroupState<M>>>;

/// What every group's operations write besides the group itself.
struct Shared<M> {
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
    shared: Shared<M>,
    next_sub: u64,
    /// Callers parked in a waiting [`BusDriver::poll`]. Incremented
    /// under the state lock before the wait releases it and read under
    /// the same lock by whoever enqueues: a publish that finds it zero
    /// skips the wake-up, and none can be lost — a poller either is
    /// counted before the publisher reads, or takes the lock after the
    /// enqueue and sees the message before it parks.
    parked: usize,
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
) -> CssResult<(&mut Shared<M>, &mut GroupState<M>)> {
    let group = st
        .members
        .get(&id)
        .and_then(|&gid| group_mut(&mut st.groups, gid))
        .ok_or_else(|| unknown_sub(id))?;
    Ok((&mut st.shared, group))
}

/// The in-memory publish/subscribe broker over named topics.
///
/// This is the default [`BusDriver`] and nothing else — the platform,
/// tests and probes all talk to it through [`crate::Bus`], whose clones
/// share the one broker.
///
/// The broker moves `M` and clones it once per delivery group and once
/// per delivery; it never looks inside. A caller whose message is
/// large instantiates it over a pointer (`Broker<Arc<T>>`), and every
/// queue entry, in-flight entry, dead-lettered message and every
/// [`Delivery`] is then that one allocation.
pub struct Broker<M: Clone + Send + 'static> {
    state: Mutex<State<M>>,
    arrivals: Condvar,
    telemetry: BusInstruments,
}

impl<M: Clone + Send + 'static> Default for Broker<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Clone + Send + 'static> Broker<M> {
    /// A broker with no topics, recording into instruments of its own.
    pub fn new() -> Self {
        Self::build(BusInstruments::default())
    }

    /// A broker recording latency histograms, throughput counters and
    /// depth gauges into `registry` under `bus.*` names.
    pub fn with_telemetry(registry: &MetricsRegistry) -> Self {
        Self::build(BusInstruments::resolve(registry))
    }

    fn build(telemetry: BusInstruments) -> Self {
        Broker {
            state: Mutex::new(State {
                topics: HashMap::new(),
                groups: vec![None],
                named: HashMap::new(),
                members: HashMap::new(),
                shared: Shared {
                    dlq: Vec::new(),
                    stats: BrokerStats::default(),
                    next_delivery: 1,
                },
                next_sub: 1,
                parked: 0,
            }),
            arrivals: Condvar::new(),
            telemetry,
        }
    }

    /// Requeue or dead-letter every expired in-flight delivery of one
    /// group.
    fn sweep_group(&self, shared: &mut Shared<M>, group: &mut GroupState<M>, now: Instant) {
        // Only a visibility timeout gives a delivery an expiry.
        if group.config.visibility_timeout.is_none() {
            return;
        }
        for f in take_in_flight(group, |f| f.expires.is_some_and(|e| e <= now)) {
            group.stats.timed_out += 1;
            self.telemetry.inflight.dec();
            self.retire_or_requeue(shared, group, f.holder, f.pending);
        }
    }

    /// A message leaving in-flight without an ack: back to the head of
    /// the queue for another attempt, or to the dead-letter queue when
    /// the attempt budget is spent.
    fn retire_or_requeue(
        &self,
        shared: &mut Shared<M>,
        group: &mut GroupState<M>,
        holder: SubscriptionId,
        mut pending: Pending<M>,
    ) {
        if pending.attempts >= group.config.max_attempts {
            group.stats.dead_lettered += 1;
            shared.dlq.push(DeadLetter {
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
            self.telemetry.queue_depth.inc();
        }
    }

    /// Hand member `id` the head of the queue, moving it in flight.
    fn take_next(
        &self,
        shared: &mut Shared<M>,
        group: &mut GroupState<M>,
        id: SubscriptionId,
        now: Instant,
    ) -> Option<Delivery<M>> {
        let mut pending = group.queue.pop_front()?;
        pending.attempts += 1;
        let delivery_id = shared.next_delivery;
        shared.next_delivery += 1;
        if let Some(span) = pending.deliver_span.take() {
            span.finish();
        }
        let delivery = Delivery {
            delivery_id,
            attempt: pending.attempts,
            offset: pending.offset,
            trace: pending.trace,
            message: pending.message.clone(),
        };
        if pending.attempts > 1 {
            group.stats.redelivered += 1;
            self.telemetry.redelivered.inc();
        }
        group.stats.delivered += 1;
        let t = &self.telemetry;
        t.deliver_latency
            .record_duration(now.saturating_duration_since(pending.since));
        t.queue_depth.dec();
        t.inflight.inc();
        // Re-stamp: from here `since` means "delivered at".
        pending.since = now;
        // A timeout too long to represent never runs out.
        let timeout = group.config.visibility_timeout;
        let expires = timeout.and_then(|d| now.checked_add(d));
        group.in_flight.insert(
            delivery_id,
            InFlight {
                pending,
                holder: id,
                expires,
            },
        );
        Some(delivery)
    }
}

impl<M: Clone + Send + 'static> BusDriver<M> for Broker<M> {
    fn create_topic(&self, name: &str) {
        let mut st = self.state.lock();
        st.topics.entry(name.to_string()).or_default();
    }

    fn attach(
        &self,
        topic: &str,
        group: Option<&str>,
        config: SubscriptionConfig,
    ) -> CssResult<SubscriptionId> {
        let mut st = self.state.lock();
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
                        let gid = new_group(&mut st, topic, Some(name.to_string()), config);
                        st.named.insert(key, gid);
                        gid
                    }
                }
            }
            None => new_group(&mut st, topic, None, config),
        };
        if let Some(g) = group_mut(&mut st.groups, gid) {
            g.members.push(id);
        }
        st.members.insert(id, gid);
        Ok(id)
    }

    fn detach(&self, id: SubscriptionId) -> CssResult<()> {
        let mut st = self.state.lock();
        let gid = st.members.remove(&id).ok_or_else(|| unknown_sub(id))?;
        let group = group_mut(&mut st.groups, gid).ok_or_else(|| unknown_sub(id))?;
        group.members.retain(|m| *m != id);
        let t = &self.telemetry;
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
            if let Some(name) = group.name {
                st.named.remove(&(group.topic, name));
            }
        } else {
            // Return the leaver's in-flight deliveries to the peers.
            for mut f in take_in_flight(group, |f| f.holder == id) {
                f.pending.deliver_span = redeliver_span(&f.pending);
                group.queue.push_front(f.pending);
                t.inflight.dec();
                t.queue_depth.inc();
            }
        }
        drop(st);
        // Wake any member parked in `poll` so it re-checks state.
        self.arrivals.notify_all();
        Ok(())
    }

    fn publish_opts(
        &self,
        topic: &str,
        message: M,
        opts: PublishOptions<'_>,
    ) -> CssResult<PublishOutcome> {
        let started = Instant::now();
        let mut route = TraceContext::child_opt(opts.trace, "bus.route");
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let Some(topic_state) = st.topics.get_mut(topic) else {
            st.shared.stats.rejected += 1;
            route.set_status(SpanStatus::Error);
            return Err(CssError::Bus(format!("no such topic {topic:?}")));
        };
        // Dedup first: a duplicate is dropped regardless of queue state.
        if let Some(key) = opts.dedup_key {
            if topic_state.dedup_recent.contains(key) {
                st.shared.stats.dedup_dropped += 1;
                drop(guard);
                route.finish();
                self.telemetry.dedup_dropped.inc();
                return Ok(PublishOutcome::DuplicateDropped);
            }
        }
        // Pre-flight: one full queue rejects the publish for every
        // group, so check them all before any enqueue. (The topic list
        // and the slab are kept in sync; a group that is in one and not
        // the other is skipped, here and below.)
        let groups = &mut st.groups;
        let overflowing = topic_state.groups.iter().find_map(|&gid| {
            let g = groups.get(gid as usize)?.as_deref()?;
            (g.queue.len() >= g.config.capacity).then_some((gid, g.config.capacity))
        });
        if let Some((gid, capacity)) = overflowing {
            st.shared.stats.rejected += 1;
            route.set_status(SpanStatus::Error);
            // The key was NOT recorded, so a retry after back-pressure
            // clears is not treated as a duplicate.
            return Err(CssError::Bus(format!(
                "delivery group {gid} queue full ({capacity} messages)"
            )));
        }
        if let Some(key) = opts.dedup_key {
            let key: Arc<str> = Arc::from(key);
            topic_state.dedup_recent.insert(Arc::clone(&key));
            topic_state.dedup_order.push_back(key);
            while topic_state.dedup_order.len() > DEDUP_WINDOW {
                if let Some(old) = topic_state.dedup_order.pop_front() {
                    topic_state.dedup_recent.remove(&*old);
                }
            }
        }
        let route_ctx = route.context();
        let keep_ctx = route_ctx.trace_id().is_some();
        let mut fanout = 0usize;
        for &gid in &topic_state.groups {
            let Some(g) = group_mut(groups, gid) else {
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
        st.shared.stats.published += 1;
        st.shared.stats.fanned_out += fanout as u64;
        let parked = st.parked > 0;
        drop(guard);
        route.finish();
        let t = &self.telemetry;
        t.published.inc();
        t.fanned_out.add(fanout as u64);
        t.queue_depth.add(fanout as i64);
        t.publish_latency.record_duration(started.elapsed());
        if parked {
            self.arrivals.notify_all();
        }
        Ok(PublishOutcome::Routed(fanout))
    }

    fn poll(&self, id: SubscriptionId, wait: Duration) -> CssResult<Option<Delivery<M>>> {
        let mut now = Instant::now();
        // A wait too long to represent has no deadline.
        let deadline = now.checked_add(wait);
        let mut guard = self.state.lock();
        loop {
            let (shared, group) = member_group(&mut guard, id)?;
            self.sweep_group(shared, group, now);
            if let Some(delivery) = self.take_next(shared, group, id, now) {
                return Ok(Some(delivery));
            }
            if deadline.is_some_and(|d| now >= d) {
                return Ok(None);
            }
            // The queue is empty: park until a wake-up, the deadline, or
            // the first visibility timeout to run out — whichever comes
            // first.
            let expiries = group.in_flight.values().filter_map(|f| f.expires);
            let target = expiries.chain(deadline).min();
            guard.parked += 1;
            match target {
                Some(at) => drop(self.arrivals.wait_until(&mut guard, at)),
                None => self.arrivals.wait(&mut guard),
            }
            guard.parked -= 1;
            now = Instant::now();
        }
    }

    fn ack(&self, id: SubscriptionId, delivery_id: u64) -> CssResult<()> {
        let mut st = self.state.lock();
        let (_, group) = member_group(&mut st, id)?;
        let f = take_held(group, id, delivery_id)?;
        group.stats.acked += 1;
        let t = &self.telemetry;
        t.ack_latency.record_duration(f.pending.since.elapsed());
        t.inflight.dec();
        Ok(())
    }

    fn nack(&self, id: SubscriptionId, delivery_id: u64) -> CssResult<()> {
        let mut st = self.state.lock();
        let (shared, group) = member_group(&mut st, id)?;
        let f = take_held(group, id, delivery_id)?;
        self.telemetry.inflight.dec();
        self.retire_or_requeue(shared, group, id, f.pending);
        drop(st);
        self.arrivals.notify_all();
        Ok(())
    }

    fn snapshot(&self, member: Option<SubscriptionId>) -> BusSnapshot<M> {
        let st = self.state.lock();
        let live = |gid: &GroupId| st.groups.get(*gid as usize)?.as_deref();
        let mut topics: Vec<(String, usize)> = st
            .topics
            .iter()
            .map(|(name, topic)| {
                let groups = topic.groups.iter().filter_map(live);
                (name.clone(), groups.map(|g| g.members.len()).sum())
            })
            .collect();
        topics.sort();
        let group = member.and_then(|id| st.members.get(&id)).and_then(live);
        BusSnapshot {
            stats: st.shared.stats,
            topics,
            dead_letters: st.shared.dlq.clone(),
            group: group.map(|g| GroupSnapshot {
                queued: g.queue.len(),
                in_flight: g.in_flight.len(),
                stats: g.stats,
            }),
        }
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

/// Every in-flight delivery of the group that `leaves`, taken out
/// newest first (the map iterates in hash order): pushed onto the front
/// of the queue one by one in that order, the oldest ends up at the
/// head and the group's members see them in publish order.
fn take_in_flight<M>(
    group: &mut GroupState<M>,
    leaves: impl Fn(&InFlight<M>) -> bool,
) -> Vec<InFlight<M>> {
    let mut leaving: Vec<(u64, u64)> = group
        .in_flight
        .iter()
        .filter(|(_, f)| leaves(f))
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

fn new_group<M>(
    st: &mut State<M>,
    topic: &str,
    name: Option<String>,
    config: SubscriptionConfig,
) -> GroupId {
    let gid = st.groups.len() as GroupId;
    st.groups.push(Some(Box::new(GroupState {
        topic: topic.to_string(),
        name,
        config,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Bus;
    use crate::subscription::SubscriberHandle;

    fn broker() -> Bus<String> {
        let b = Bus::in_memory();
        b.create_topic("blood-test");
        b
    }

    #[test]
    fn publish_without_topic_fails() {
        let b: Bus<String> = Bus::in_memory();
        assert!(b.publish("nope", "m".into(), None).is_err());
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
        let n = b.publish("blood-test", "hello".into(), None).unwrap();
        assert_eq!(n, 2);
        assert_eq!(s1.drain().unwrap(), vec!["hello"]);
        assert_eq!(s2.drain().unwrap(), vec!["hello"]);
        assert_eq!(b.stats().fanned_out, 2);
    }

    #[test]
    fn publish_with_no_subscribers_is_ok() {
        let b = broker();
        assert_eq!(b.publish("blood-test", "m".into(), None).unwrap(), 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        for i in 0..5 {
            b.publish("blood-test", format!("m{i}"), None).unwrap();
        }
        assert_eq!(s.drain().unwrap(), vec!["m0", "m1", "m2", "m3", "m4"]);
    }

    #[test]
    fn unacked_message_stays_in_flight() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        b.publish("blood-test", "m".into(), None).unwrap();
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
        b.publish("blood-test", "first".into(), None).unwrap();
        b.publish("blood-test", "second".into(), None).unwrap();
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
        let cfg = SubscriptionConfig {
            max_attempts: 2,
            ..Default::default()
        };
        let s = b.subscribe("blood-test", cfg).unwrap();
        b.publish("blood-test", "poison".into(), None).unwrap();
        for _ in 0..2 {
            let d = s.poll().unwrap().unwrap();
            s.nack(d.delivery_id).unwrap();
        }
        assert!(s.poll().unwrap().is_none());
        let dlq = b.dead_letters();
        assert_eq!(dlq.len(), 1);
        assert_eq!(dlq[0].message, "poison");
        assert_eq!(dlq[0].attempts, 2);
        assert_eq!(s.stats().unwrap().dead_lettered, 1);
    }

    #[test]
    fn reject_overflow_fails_publish_atomically() {
        let b = broker();
        let tiny = SubscriptionConfig {
            capacity: 1,
            ..Default::default()
        };
        let full = b.subscribe("blood-test", tiny).unwrap();
        let roomy = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        b.publish("blood-test", "m1".into(), None).unwrap();
        // full's queue is at capacity → next publish must fail and NOT
        // enqueue for roomy either.
        assert!(b.publish("blood-test", "m2".into(), None).is_err());
        assert_eq!(roomy.backlog().unwrap(), 1);
        assert_eq!(full.backlog().unwrap(), 1);
    }

    #[test]
    fn unsubscribe_stops_fanout() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        assert_eq!(b.subscriber_count("blood-test"), 1);
        s.unsubscribe().unwrap();
        assert_eq!(b.subscriber_count("blood-test"), 0);
        assert_eq!(b.publish("blood-test", "m".into(), None).unwrap(), 0);
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
            publisher
                .publish("blood-test", "wake".into(), None)
                .unwrap();
        });
        let d = s.poll_for(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(d.message, "wake");
        t.join().unwrap();
    }

    #[test]
    fn concurrent_publishers_and_consumers() {
        let b = broker();
        let s = b
            .subscribe(
                "blood-test",
                SubscriptionConfig {
                    capacity: 100_000,
                    ..Default::default()
                },
            )
            .unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let publisher = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    publisher
                        .publish("blood-test", format!("t{t}-m{i}"), None)
                        .unwrap();
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
            b.publish("t", format!("m{i}"), None).unwrap();
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
        assert_eq!(snap.histogram("bus.publish").unwrap().count, 3);
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

    #[test]
    fn traced_publish_produces_route_and_deliver_spans() {
        use css_trace::Tracer;
        use css_types::Timestamp;

        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        let tracer = Tracer::new(64);
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
        b.publish("blood-test", "m".into(), None).unwrap();
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
        b.publish("blood-test", "still there".into(), None).unwrap();
        assert_eq!(s.drain().unwrap().len(), 1);
        assert_eq!(b.snapshot().topics, vec![("blood-test".to_string(), 1)]);
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
        assert_eq!(b.subscriber_count("blood-test"), 2);
        // One group → fan-out of 1 per publish.
        assert_eq!(b.publish("blood-test", "m0".into(), None).unwrap(), 1);
        assert_eq!(b.publish("blood-test", "m1".into(), None).unwrap(), 1);
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
        b.publish("blood-test", "m".into(), None).unwrap();
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
        b.publish("blood-test", "job".into(), None).unwrap();
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
        b.publish("blood-test", "job".into(), None).unwrap();
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
        b.publish("blood-test", "job".into(), None).unwrap();
        let da = a.poll().unwrap().unwrap();
        assert_eq!(da.message, "job");
        a.unsubscribe().unwrap();
        // The delivery a was holding is now available to c.
        let dc = c.poll().unwrap().unwrap();
        assert_eq!(dc.message, "job");
        assert_eq!(dc.attempt, 2);
        c.ack(dc.delivery_id).unwrap();
    }

    /// Six publishes to a two-member group; `a` takes them all unacked.
    fn holder_of_six(
        b: &Bus<String>,
        cfg: SubscriptionConfig,
    ) -> (SubscriberHandle<String>, SubscriberHandle<String>) {
        let a = b.subscribe_group("blood-test", "workers", cfg).unwrap();
        let c = b.subscribe_group("blood-test", "workers", cfg).unwrap();
        for i in 0..6 {
            b.publish("blood-test", format!("m{i}"), None).unwrap();
        }
        for offset in 0..6 {
            assert_eq!(a.poll().unwrap().unwrap().offset, offset);
        }
        (a, c)
    }

    #[test]
    fn detach_requeues_in_publish_order() {
        let b = broker();
        let (a, c) = holder_of_six(&b, SubscriptionConfig::default());
        a.unsubscribe().unwrap();
        assert_eq!(c.drain().unwrap(), ["m0", "m1", "m2", "m3", "m4", "m5"]);
    }

    #[test]
    fn visibility_timeout_requeues_in_publish_order() {
        let b = broker();
        let cfg = SubscriptionConfig {
            visibility_timeout: Some(Duration::from_millis(10)),
            ..Default::default()
        };
        let (_a, c) = holder_of_six(&b, cfg);
        std::thread::sleep(Duration::from_millis(20));
        // The peer's first poll sweeps all six back before it takes one.
        assert_eq!(c.drain().unwrap(), ["m0", "m1", "m2", "m3", "m4", "m5"]);
        assert_eq!(c.stats().unwrap().timed_out, 6);
    }

    #[test]
    fn last_member_detach_drops_group_and_name() {
        let b = broker();
        let a = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        b.publish("blood-test", "m".into(), None).unwrap();
        a.unsubscribe().unwrap();
        // The group is gone: the next publish routes to no queue.
        assert_eq!(b.publish("blood-test", "n".into(), None).unwrap(), 0);
        // Re-joining the same name creates a fresh group (empty queue).
        let c = b
            .subscribe_group("blood-test", "workers", SubscriptionConfig::default())
            .unwrap();
        assert_eq!(c.backlog().unwrap(), 0);
    }

    // ------------------------------------------------------------------
    // Dedup
    // ------------------------------------------------------------------

    #[test]
    fn duplicate_dedup_key_is_dropped() {
        let b = broker();
        let s = b
            .subscribe("blood-test", SubscriptionConfig::default())
            .unwrap();
        let first = b
            .publish_opts(
                "blood-test",
                "m".into(),
                PublishOptions::new().dedup_key("k1"),
            )
            .unwrap();
        assert_eq!(first, PublishOutcome::Routed(1));
        let second = b
            .publish_opts(
                "blood-test",
                "m-again".into(),
                PublishOptions::new().dedup_key("k1"),
            )
            .unwrap();
        assert!(second.is_duplicate());
        assert_eq!(s.drain().unwrap(), vec!["m"]);
        assert_eq!(b.stats().dedup_dropped, 1);
        assert_eq!(b.stats().published, 1);
    }

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
            assert!(!out.is_duplicate());
        }
        assert_eq!(s.drain().unwrap().len(), 3);
    }

    #[test]
    fn dedup_window_evicts_oldest_keys() {
        let b: Bus<u32> = Bus::in_memory();
        b.create_topic("t");
        for i in 0..(DEDUP_WINDOW + 1) {
            let key = format!("k{i}");
            b.publish_opts("t", i as u32, PublishOptions::new().dedup_key(&key))
                .unwrap();
        }
        // k0 fell out of the window → republishing it is not a duplicate.
        let out = b
            .publish_opts("t", 0, PublishOptions::new().dedup_key("k0"))
            .unwrap();
        assert!(!out.is_duplicate());
    }

    #[test]
    fn rejected_publish_does_not_consume_dedup_key() {
        let b = broker();
        let _s = b
            .subscribe(
                "blood-test",
                SubscriptionConfig {
                    capacity: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        b.publish("blood-test", "fill".into(), None).unwrap();
        let err = b.publish_opts(
            "blood-test",
            "m".into(),
            PublishOptions::new().dedup_key("k"),
        );
        assert!(err.is_err());
        // Retry after draining must not be treated as a duplicate.
        _s.drain().unwrap();
        let out = b
            .publish_opts(
                "blood-test",
                "m".into(),
                PublishOptions::new().dedup_key("k"),
            )
            .unwrap();
        assert!(!out.is_duplicate());
    }

    // ------------------------------------------------------------------
    // Visibility timeout
    // ------------------------------------------------------------------

    #[test]
    fn expired_visibility_timeout_requeues() {
        let b = broker();
        let cfg = SubscriptionConfig {
            visibility_timeout: Some(Duration::from_millis(20)),
            ..Default::default()
        };
        let s = b.subscribe("blood-test", cfg).unwrap();
        b.publish("blood-test", "m".into(), None).unwrap();
        let d = s.poll().unwrap().unwrap();
        assert_eq!(d.attempt, 1);
        std::thread::sleep(Duration::from_millis(30));
        // The next poll sweeps the expired delivery back first.
        let d2 = s.poll().unwrap().unwrap();
        assert_eq!(d2.message, "m");
        assert_eq!(d2.attempt, 2);
        assert_eq!(s.stats().unwrap().timed_out, 1);
        // The original delivery id is gone.
        assert!(s.ack(d.delivery_id).is_err());
        s.ack(d2.delivery_id).unwrap();
    }

    #[test]
    fn visibility_timeout_exhaustion_dead_letters() {
        let b = broker();
        let cfg = SubscriptionConfig {
            max_attempts: 1,
            visibility_timeout: Some(Duration::from_millis(10)),
            ..Default::default()
        };
        let s = b.subscribe("blood-test", cfg).unwrap();
        b.publish("blood-test", "slow".into(), None).unwrap();
        let _d = s.poll().unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // The poll that sweeps it finds the one attempt spent.
        assert!(s.poll().unwrap().is_none());
        let dlq = b.dead_letters();
        assert_eq!(dlq.len(), 1);
        assert_eq!(dlq[0].message, "slow");
    }
}

/// With `M = Arc<_>` a publish is one allocation however many groups,
/// deliveries and dead letters point at it.
#[cfg(test)]
mod sharing_tests {
    use super::*;
    use crate::driver::Bus;
    use std::sync::Weak;

    fn bus() -> Bus<Arc<String>> {
        let b = Bus::in_memory();
        b.create_topic("t");
        b
    }

    #[test]
    fn every_holder_of_a_publish_points_at_the_one_message() {
        let b = bus();
        let two_tries = SubscriptionConfig {
            max_attempts: 2,
            ..Default::default()
        };
        let solo = b.subscribe("t", SubscriptionConfig::default()).unwrap();
        let worker = b.subscribe_group("t", "workers", two_tries).unwrap();
        let message = Arc::new(String::from("who / what / when / where"));
        assert_eq!(b.publish("t", Arc::clone(&message), None).unwrap(), 2);

        // Each group's delivery is the published allocation.
        let d = solo.poll().unwrap().unwrap();
        assert!(Arc::ptr_eq(&d.message, &message));
        solo.ack(d.delivery_id).unwrap();
        // So is the in-flight entry a nack puts back on the queue ...
        let first = worker.poll().unwrap().unwrap();
        assert!(Arc::ptr_eq(&first.message, &message));
        worker.nack(first.delivery_id).unwrap();
        let again = worker.poll().unwrap().unwrap();
        assert_eq!(again.attempt, 2);
        assert!(Arc::ptr_eq(&again.message, &message));
        // ... and the dead letter it becomes once attempts run out.
        worker.nack(again.delivery_id).unwrap();
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
        // in the broker (its dedup window included) holds the message.
        assert!(weak.upgrade().is_none());
    }
}

/// The wake-up a publish skips when nobody is parked is never one
/// somebody needed; the other wakers still wake.
#[cfg(test)]
mod wake_tests {
    use super::*;
    use crate::driver::Bus;
    use crate::subscription::SubscriberHandle;

    /// Long enough that a lost wake-up shows as a test that takes it.
    const PATIENCE: Duration = Duration::from_secs(20);

    fn setup() -> (Arc<Broker<String>>, Bus<String>) {
        let broker = Arc::new(Broker::new());
        let bus = Bus::from_driver(broker.clone());
        bus.create_topic("t");
        (broker, bus)
    }

    /// Park `s` in a waiting poll on its own thread; returns once the
    /// broker counts it parked — from then on it is inside the wait
    /// (the count is raised under the state lock the wait releases).
    fn park(
        broker: &Arc<Broker<String>>,
        s: &SubscriberHandle<String>,
        parked: usize,
    ) -> std::thread::JoinHandle<(Option<Delivery<String>>, Duration)> {
        park_for(broker, s, parked, PATIENCE)
    }

    fn park_for(
        broker: &Arc<Broker<String>>,
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
        bus.publish("t", "m".into(), None).unwrap();
        assert_eq!(woken(t).message, "m");
        assert_eq!(broker.state.lock().parked, 0);
    }

    #[test]
    fn a_publish_with_nobody_parked_is_not_a_lost_wake_up() {
        let (broker, bus) = setup();
        let s = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        assert_eq!(broker.state.lock().parked, 0);
        bus.publish("t", "m".into(), None).unwrap();
        let started = Instant::now();
        let d = s.poll_for(PATIENCE).unwrap().unwrap();
        assert_eq!(d.message, "m");
        assert!(started.elapsed() < PATIENCE / 2);
    }

    /// `now + Duration::MAX` is no `Instant`: the wait and the
    /// visibility timeout each have to survive it.
    #[test]
    fn a_wait_too_long_to_represent_returns_what_is_queued() {
        let (_, bus) = setup();
        let cfg = SubscriptionConfig {
            visibility_timeout: Some(Duration::MAX),
            ..Default::default()
        };
        let s = bus.subscribe("t", cfg).unwrap();
        bus.publish("t", "m".into(), None).unwrap();
        let d = s.poll_for(Duration::MAX).unwrap().unwrap();
        assert_eq!(d.message, "m");
        // A timeout that long never runs out: the delivery stays held.
        assert!(s.poll().unwrap().is_none());
        assert_eq!(s.in_flight().unwrap(), 1);
    }

    #[test]
    fn a_poller_parked_without_a_deadline_wakes_on_a_publish() {
        let (broker, bus) = setup();
        let s = bus.subscribe("t", SubscriptionConfig::default()).unwrap();
        let t = park_for(&broker, &s, 1, Duration::MAX);
        bus.publish("t", "m".into(), None).unwrap();
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
        bus.publish("t", "m0".into(), None).unwrap();
        bus.publish("t", "m1".into(), None).unwrap();
        let mut got = vec![woken(ta).message, woken(tb).message];
        got.sort();
        assert_eq!(got, ["m0", "m1"]);
    }

    #[test]
    fn nack_and_detach_still_wake_a_parked_peer() {
        let (broker, bus) = setup();
        let cfg = SubscriptionConfig {
            max_attempts: 5,
            ..Default::default()
        };
        let holder = bus.subscribe_group("t", "workers", cfg).unwrap();
        let peer = bus.subscribe_group("t", "workers", cfg).unwrap();
        bus.publish("t", "job".into(), None).unwrap();

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
    use crate::driver::Bus;

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
        b.publish("t", 1, None).unwrap();
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
        let cfg = SubscriptionConfig {
            capacity: 10_000,
            ..Default::default()
        };
        let subs: Vec<_> = (0..4)
            .map(|_| b.subscribe_group("t", "workers", cfg).unwrap())
            .collect();
        for i in 0..1_000u64 {
            b.publish("t", i, None).unwrap();
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
