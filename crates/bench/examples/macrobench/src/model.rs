//! The seeded operation generator and the model of the world it
//! generates from. The model is the oracle's memory: which events
//! exist about whom, who opted out, which churned policies are live.
//! Expected outcomes never come from generation heuristics — they are
//! computed by the reference decision in `oracle.rs` over this state.

use std::collections::{HashMap, VecDeque};

use css_core::BackendProvider;
use css_event::EventDetails;
use css_sim::synth_details;
use css_types::{ActorId, DenyReason, EventTypeId, GlobalEventId, PolicyId, Purpose, Timestamp};
use rand::rngs::StdRng;
use rand::Rng;

use crate::workload::{DenyKind, Kind, Workload};
use crate::world::{person_id, Grant, World, T0};

/// Width of an `inquire_between` window, in simulated milliseconds
/// (≈ one event per millisecond during set-up).
const BETWEEN_WINDOW_MS: u64 = 64;
/// Churned policies kept live at once, per client thread.
const LIVE_SLOTS: (usize, usize) = (16, 48);
/// Citizens kept opted out at once, per client thread.
const OPTED_OUT: (usize, usize) = (8, 64);
/// Events remembered per class for requests that need "some event of
/// this class".
const RECENT_PER_CLASS: usize = 256;
/// Events of a churn slot's class the slot remembers as notified.
const MARKED_PER_SLOT: usize = 4;

/// One indexed event, as the model remembers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRef {
    /// The controller-minted id.
    pub gid: GlobalEventId,
    /// Class index.
    pub class: u8,
}

/// A churned policy: defined for one role on one class, looked up
/// once by that role (which marks the citizen's events as notified to
/// it), later revoked.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Requester index of the role.
    pub who: u32,
    /// Class index.
    pub class: u8,
    /// The citizen whose events the role looks at.
    pub citizen: u32,
    /// The installed policy, once defined.
    pub policy: Option<PolicyId>,
    /// Index of the slot's row in [`Model::grants`].
    pub grant: usize,
    /// Events the role's inquiry marked as notified to it.
    pub marked: Vec<GlobalEventId>,
}

/// One generated operation with the outcome the oracle expects.
#[derive(Debug, Clone)]
pub enum Op {
    /// Publish an event about `citizen`; every subscriber then takes
    /// the notification off its subscription.
    Notify {
        citizen: u32,
        class: u8,
        details: EventDetails,
        at: Timestamp,
    },
    /// Algorithm 1 detail request.
    Detail {
        who: u32,
        citizen: u32,
        class: u8,
        gid: GlobalEventId,
        purpose: Purpose,
        /// Released field mask, or the denial reason.
        expect: Result<u16, DenyReason>,
    },
    /// `inquire_by_person`; `slot` is set when this is a churn slot's
    /// first look-up.
    Inquiry {
        who: u32,
        citizen: u32,
        expect: Vec<GlobalEventId>,
        slot: Option<usize>,
    },
    /// `inquire_between`; the exact ids are predictable only with one
    /// client thread.
    Between {
        who: u32,
        from: Timestamp,
        to: Timestamp,
        expect: Option<Vec<GlobalEventId>>,
    },
    /// Citizen profile view.
    Profile { citizen: u32, expect: usize },
    /// Citizen audit-trail view.
    Trail { citizen: u32, expect: usize },
    /// Citizen opt-out (`out`) or opt-in.
    Consent { citizen: u32, out: bool },
    /// Define the churn slot's policy.
    Define { slot: usize },
    /// Revoke the churn slot's policy.
    Revoke { slot: usize },
}

impl Op {
    /// The metric kind of this operation.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Notify { .. } => Kind::Notify,
            Op::Detail { expect: Ok(_), .. } => Kind::Permit,
            Op::Detail { expect: Err(_), .. } => Kind::Deny,
            Op::Inquiry { .. } => Kind::Inquiry,
            Op::Between { .. } => Kind::Between,
            Op::Profile { .. } => Kind::Profile,
            Op::Trail { .. } => Kind::Trail,
            Op::Consent { .. } => Kind::Consent,
            Op::Define { .. } | Op::Revoke { .. } => Kind::Policy,
        }
    }
}

/// What a class's notified requesters may ask for: requester index and
/// the purposes under which some standing policy releases a field.
type Eligible = Vec<(u32, Vec<Purpose>)>;

/// Every event in `occurred_at` order, across lanes — what
/// `inquire_between` is predicted from.
pub type Timeline = Vec<(Timestamp, EventRef)>;

/// Generator state for one lane. Citizens and hierarchy roles are
/// partitioned between lanes by index, so a lane's predictions never
/// depend on another lane's state changes: with one client thread the
/// lanes take turns, with several each thread drives its own.
pub struct Model {
    workload: Workload,
    /// The kinds of this lane's next operations: the mix dealt out a
    /// hundred at a time in shuffled order, so that any stretch of a
    /// run holds every kind in the mix's exact proportion. Drawn
    /// independently, the number of rare expensive operations (one
    /// audit-trail view costs fifty requests) in a closed-loop burst
    /// would vary its throughput more than the host does.
    deck: Vec<Kind>,
    /// Class ids, for synthesising event details.
    types: Vec<EventTypeId>,
    /// This lane's citizens "in care" and the rest.
    care: Vec<u32>,
    rest: Vec<u32>,
    /// Requesters churn slots are defined for (this lane's roles, or
    /// every requester in a world without the hierarchy).
    slot_roles: Vec<u32>,
    /// Requesters that inquire.
    inquirers: Vec<u32>,
    /// Per class: who is notified by subscription and may ask.
    eligible: Vec<Eligible>,
    /// `chain[who]`: the requester's id followed by its ancestors.
    pub(crate) chain: Vec<Vec<ActorId>>,
    /// Events per citizen.
    pub(crate) events: Vec<Vec<EventRef>>,
    /// Audit records carrying each citizen's person id.
    person_audit: Vec<u32>,
    /// Opted-out flag per citizen, and the opted-out citizens in
    /// opt-out order.
    pub(crate) out: Vec<bool>,
    out_list: Vec<u32>,
    /// Recent `(citizen, event)` per class.
    recent: Vec<VecDeque<(u32, GlobalEventId)>>,
    /// The policy table: the standing matrix plus churned rows.
    pub(crate) grants: Vec<Grant>,
    pub(crate) by_key: HashMap<(u8, ActorId), Vec<u32>>,
    /// Churn slots and their queues.
    pub slots: Vec<Slot>,
    live: VecDeque<usize>,
    unmarked: VecDeque<usize>,
    revoked_marked: Vec<usize>,
    /// Standing policies with an end of validity: `(end, who, class)`,
    /// sorted by end.
    expiring: Vec<(Timestamp, u32, u8)>,
    /// Fields of each class (for churned policies: all of them).
    all_masks: Vec<u16>,
    /// Classes churn slots prefer (no standing hierarchy policy).
    churn_classes_from: u8,
    /// Audit records the operations generated so far must have written.
    pub audit_expected: u64,
    /// Events the operations generated so far must have indexed.
    pub index_expected: u64,
}

/// The purpose churned policies are granted for.
pub fn churn_purpose() -> Purpose {
    Purpose::Custom("care-coordination".into())
}

/// The purpose no policy lists.
pub fn over_reach() -> Purpose {
    Purpose::Custom("over-reach".into())
}

impl Model {
    /// The model of lane `lane` of `lanes` over a freshly built world.
    pub fn new<P: BackendProvider>(
        workload: &Workload,
        world: &World<P>,
        lane: usize,
        lanes: usize,
    ) -> Model {
        let n = world.persons.len();
        let in_care = n / 5;
        let mine = |i: &u32| *i as usize % lanes == lane;
        // Roles are partitioned like citizens; every other requester
        // holds only standing policies and is shared.
        let mine_or_shared = |who: &u32| !world.requesters[*who as usize].is_role || mine(who);
        let chain: Vec<Vec<ActorId>> = world.requesters.iter().map(|r| r.chain.clone()).collect();
        let mut by_key: HashMap<(u8, ActorId), Vec<u32>> = HashMap::new();
        for (i, g) in world.grants.iter().enumerate() {
            by_key
                .entry((g.class as u8, g.actor))
                .or_default()
                .push(i as u32);
        }
        let everyone: Vec<u32> = (0..world.requesters.len() as u32)
            .filter(mine_or_shared)
            .collect();
        let roles: Vec<u32> = everyone
            .iter()
            .copied()
            .filter(|i| world.requesters[*i as usize].is_role)
            .collect();
        let mut expiring: Vec<(Timestamp, u32, u8)> = world
            .grants
            .iter()
            .filter_map(|g| {
                let who = chain.iter().position(|c| c[0] == g.actor)? as u32;
                mine_or_shared(&who).then_some((g.not_after?, who, g.class as u8))
            })
            .collect();
        expiring.sort();
        let mut model = Model {
            workload: *workload,
            deck: Vec::new(),
            types: world.classes.iter().map(|c| c.ty.clone()).collect(),
            care: (0..in_care as u32).filter(mine).collect(),
            rest: (in_care as u32..n as u32).filter(mine).collect(),
            // Churned policies are only predictable for requesters one
            // lane owns: roles where the world has them. (A world
            // without roles churns policies in the traced run's
            // single-threaded coverage tail only.)
            slot_roles: if roles.is_empty() {
                everyone.clone()
            } else {
                roles
            },
            inquirers: everyone,
            eligible: Vec::new(),
            chain,
            events: vec![Vec::new(); n],
            person_audit: vec![0; n],
            out: vec![false; n],
            out_list: Vec::new(),
            recent: vec![VecDeque::new(); world.classes.len()],
            grants: world.grants.clone(),
            by_key,
            slots: Vec::new(),
            live: VecDeque::new(),
            unmarked: VecDeque::new(),
            revoked_marked: Vec::new(),
            expiring,
            all_masks: world.classes.iter().map(|c| c.all_mask()).collect(),
            churn_classes_from: if workload.hierarchy { 4 } else { 0 },
            audit_expected: 0,
            index_expected: 0,
        };
        // Who may ask about each class: notified through its own or an
        // ancestor's subscription, under each purpose that releases at
        // least one field.
        for class in 0..world.classes.len() {
            let subscribers: Vec<ActorId> = world.subscribers(class).collect();
            let mut eligible = Vec::new();
            for who in model.inquirers.clone() {
                if !model.chain[who as usize]
                    .iter()
                    .any(|a| subscribers.contains(a))
                {
                    continue;
                }
                let mut purposes: Vec<Purpose> = Vec::new();
                for g in model.grants_for(who, class as u8) {
                    for p in &g.purposes {
                        if g.fields != 0 && !purposes.contains(p) {
                            purposes.push(p.clone());
                        }
                    }
                }
                if !purposes.is_empty() {
                    eligible.push((who, purposes));
                }
            }
            model.eligible.push(eligible);
        }
        model
    }

    /// The standing and churned policies granted to `who` or one of
    /// its ancestors on `class`.
    pub(crate) fn grants_for(&self, who: u32, class: u8) -> impl Iterator<Item = &Grant> {
        self.chain[who as usize]
            .iter()
            .filter_map(move |a| self.by_key.get(&(class, *a)))
            .flatten()
            .map(|i| &self.grants[*i as usize])
    }

    fn pick_citizen(&self, rng: &mut StdRng) -> u32 {
        let pool = if rng.gen_bool(self.workload.care_share) && !self.care.is_empty() {
            &self.care
        } else {
            &self.rest
        };
        pool[rng.gen_range(0..pool.len())]
    }

    /// A citizen who has not opted out.
    fn pick_consenting(&self, rng: &mut StdRng) -> u32 {
        loop {
            let c = self.pick_citizen(rng);
            if !self.out[c as usize] {
                return c;
            }
        }
    }

    fn pick_event(&self, citizen: u32, rng: &mut StdRng) -> EventRef {
        let events = &self.events[citizen as usize];
        events[rng.gen_range(0..events.len())]
    }

    fn weighted<T: Copy>(table: &[(T, u32)], rng: &mut StdRng) -> T {
        let mut roll = rng.gen_range(0..100u32);
        for (item, pct) in table {
            if roll < *pct {
                return *item;
            }
            roll -= pct;
        }
        table[table.len() - 1].0
    }

    /// The next operation of the workload's mix at platform time `now`.
    /// `timeline` is given when no other thread is publishing, so that
    /// time-window inquiries can be predicted exactly.
    pub fn next(&mut self, rng: &mut StdRng, now: Timestamp, timeline: Option<&Timeline>) -> Op {
        if self.deck.is_empty() {
            for (kind, pct) in self.workload.mix {
                self.deck.extend(std::iter::repeat_n(*kind, *pct as usize));
            }
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, rng.gen_range(0..=i));
            }
        }
        let kind = self.deck.pop().expect("a mix is never empty");
        self.generate(kind, rng, now, timeline)
    }

    /// An operation of a given kind (the mix, and the traced run's
    /// coverage tail, go through here).
    pub fn generate(
        &mut self,
        kind: Kind,
        rng: &mut StdRng,
        now: Timestamp,
        timeline: Option<&Timeline>,
    ) -> Op {
        match kind {
            Kind::Notify => {
                let citizen = self.pick_consenting(rng);
                self.notify(citizen, rng, now)
            }
            Kind::Permit => self.permit(rng, now),
            Kind::Deny => {
                let how = Self::weighted(self.workload.deny, rng);
                self.deny(how, rng, now)
            }
            Kind::Inquiry => self.inquiry(rng, now),
            Kind::Between => self.between(rng, now, timeline),
            Kind::Profile => {
                let citizen = self.pick_citizen(rng);
                Op::Profile {
                    citizen,
                    expect: self.events[citizen as usize].len(),
                }
            }
            Kind::Trail => {
                let citizen = self.pick_citizen(rng);
                Op::Trail {
                    citizen,
                    expect: self.person_audit[citizen as usize] as usize,
                }
            }
            Kind::Consent => self.consent(rng),
            Kind::Policy => self.policy(rng),
        }
    }

    /// Set-up publish number `i` of this lane: one event per citizen
    /// of the lane first, so every citizen has a history, then
    /// two-tier traffic.
    pub fn preload(&mut self, i: usize, rng: &mut StdRng, now: Timestamp) -> Op {
        let first_pass = self.care.len() + self.rest.len();
        let citizen = if i < self.care.len() {
            self.care[i]
        } else if i < first_pass {
            self.rest[i - self.care.len()]
        } else {
            self.pick_citizen(rng)
        };
        self.notify(citizen, rng, now)
    }

    fn notify(&mut self, citizen: u32, rng: &mut StdRng, now: Timestamp) -> Op {
        let class = rng.gen_range(0..self.types.len()) as u8;
        Op::Notify {
            citizen,
            class,
            details: synth_details(&self.types[class as usize], person_id(citizen), rng),
            at: now,
        }
    }

    fn detail(&self, who: u32, citizen: u32, ev: EventRef, purpose: Purpose, now: Timestamp) -> Op {
        let expect = self.decide(who, citizen, ev.class, &purpose, now);
        Op::Detail {
            who,
            citizen,
            class: ev.class,
            gid: ev.gid,
            purpose,
            expect,
        }
    }

    /// A live churn slot whose role has looked its citizen up.
    fn marked_live_slot(&self, rng: &mut StdRng) -> Option<usize> {
        let candidates: Vec<usize> = self
            .live
            .iter()
            .copied()
            .filter(|s| !self.slots[*s].marked.is_empty())
            .collect();
        (!candidates.is_empty()).then(|| candidates[rng.gen_range(0..candidates.len())])
    }

    fn slot_request(&self, slot: usize, rng: &mut StdRng, now: Timestamp) -> Op {
        let s = &self.slots[slot];
        let gid = s.marked[rng.gen_range(0..s.marked.len())];
        let ev = EventRef {
            gid,
            class: s.class,
        };
        self.detail(s.who, s.citizen, ev, churn_purpose(), now)
    }

    fn permit(&mut self, rng: &mut StdRng, now: Timestamp) -> Op {
        if self.workload.hierarchy && rng.gen_range(0..100) < 15 {
            if let Some(slot) = self.marked_live_slot(rng) {
                return self.slot_request(slot, rng, now);
            }
        }
        let citizen = self.pick_consenting(rng);
        let ev = self.pick_event(citizen, rng);
        let eligible = &self.eligible[ev.class as usize];
        let (who, purposes) = &eligible[rng.gen_range(0..eligible.len())];
        let purpose = purposes[rng.gen_range(0..purposes.len())].clone();
        self.detail(*who, citizen, ev, purpose, now)
    }

    fn deny(&mut self, how: DenyKind, rng: &mut StdRng, now: Timestamp) -> Op {
        match how {
            DenyKind::Revoked => {
                // The most recently revoked slot: its next request.
                if let Some(slot) = self.revoked_marked.last().copied() {
                    return self.slot_request(slot, rng, now);
                }
            }
            DenyKind::Expired => {
                let expired = self.expiring.partition_point(|(end, _, _)| *end < now);
                if expired > 0 {
                    let (_, who, class) = self.expiring[rng.gen_range(0..expired)];
                    let recent = &self.recent[class as usize];
                    if !recent.is_empty() {
                        let (citizen, gid) = recent[rng.gen_range(0..recent.len())];
                        if !self.out[citizen as usize] {
                            let ev = EventRef { gid, class };
                            return self.detail(
                                who,
                                citizen,
                                ev,
                                Purpose::HealthcareTreatment,
                                now,
                            );
                        }
                    }
                }
            }
            DenyKind::ConsentOut => {
                // The most recent opt-out: the citizen's next request.
                if let Some(citizen) = self.out_list.last().copied() {
                    let ev = self.pick_event(citizen, rng);
                    let eligible = &self.eligible[ev.class as usize];
                    let (who, purposes) = &eligible[rng.gen_range(0..eligible.len())];
                    let purpose = purposes[rng.gen_range(0..purposes.len())].clone();
                    return self.detail(*who, citizen, ev, purpose, now);
                }
            }
            DenyKind::WrongPurpose => {}
        }
        let citizen = self.pick_consenting(rng);
        let ev = self.pick_event(citizen, rng);
        let eligible = &self.eligible[ev.class as usize];
        let (who, _) = &eligible[rng.gen_range(0..eligible.len())];
        self.detail(*who, citizen, ev, over_reach(), now)
    }

    fn inquiry(&mut self, rng: &mut StdRng, now: Timestamp) -> Op {
        let (who, citizen, slot) = match self.unmarked.pop_front() {
            Some(slot) => (self.slots[slot].who, self.slots[slot].citizen, Some(slot)),
            None => (
                self.inquirers[rng.gen_range(0..self.inquirers.len())],
                self.pick_citizen(rng),
                None,
            ),
        };
        let expect = self.events[citizen as usize]
            .iter()
            .filter(|e| self.authorized(who, e.class, now))
            .map(|e| e.gid)
            .collect();
        Op::Inquiry {
            who,
            citizen,
            expect,
            slot,
        }
    }

    fn between(&mut self, rng: &mut StdRng, now: Timestamp, timeline: Option<&Timeline>) -> Op {
        let who = self.inquirers[rng.gen_range(0..self.inquirers.len())];
        let span = now.0.saturating_sub(T0.0 + BETWEEN_WINDOW_MS).max(1);
        let from = Timestamp(T0.0 + rng.gen_range(0..span));
        let to = Timestamp(from.0 + BETWEEN_WINDOW_MS);
        let expect = timeline.map(|timeline| {
            let lo = timeline.partition_point(|(t, _)| *t < from);
            let hi = timeline.partition_point(|(t, _)| *t <= to);
            let mut ids: Vec<GlobalEventId> = timeline[lo..hi]
                .iter()
                .filter(|(_, e)| self.authorized(who, e.class, now))
                .map(|(_, e)| e.gid)
                .collect();
            ids.sort();
            ids
        });
        Op::Between {
            who,
            from,
            to,
            expect,
        }
    }

    fn consent(&mut self, rng: &mut StdRng) -> Op {
        let n = self.out_list.len();
        let opt_out = n < OPTED_OUT.0 || (n < OPTED_OUT.1 && rng.gen_bool(0.5));
        if opt_out {
            Op::Consent {
                citizen: self.pick_consenting(rng),
                out: true,
            }
        } else {
            Op::Consent {
                citizen: self.out_list[rng.gen_range(0..n)],
                out: false,
            }
        }
    }

    fn policy(&mut self, rng: &mut StdRng) -> Op {
        let n = self.live.len();
        let define = n < LIVE_SLOTS.0 || (n < LIVE_SLOTS.1 && rng.gen_bool(0.5));
        if !define {
            return Op::Revoke { slot: self.live[0] };
        }
        let who = self.slot_roles[rng.gen_range(0..self.slot_roles.len())];
        let citizen = self.pick_citizen(rng);
        // Prefer a class the role has no standing policy on, so that a
        // later revocation leaves it with no matching policy at all.
        let mut class = self.pick_event(citizen, rng).class;
        for _ in 0..4 {
            if class >= self.churn_classes_from {
                break;
            }
            class = self.pick_event(citizen, rng).class;
        }
        self.slots.push(Slot {
            who,
            class,
            citizen,
            policy: None,
            grant: usize::MAX,
            marked: Vec::new(),
        });
        Op::Define {
            slot: self.slots.len() - 1,
        }
    }

    // ---- state changes, applied once the platform call succeeded ----

    /// Audit records an operation must write: one per request, and one
    /// per delivery on top of the publish record.
    pub fn audited(&mut self, records: u64) {
        self.audit_expected += records;
    }

    fn person_audited(&mut self, citizen: u32, records: u32) {
        self.person_audit[citizen as usize] += records;
    }

    /// An event was published and delivered to `fanout` subscribers.
    pub fn published(&mut self, citizen: u32, class: u8, gid: GlobalEventId, fanout: usize) {
        let ev = EventRef { gid, class };
        self.events[citizen as usize].push(ev);
        let recent = &mut self.recent[class as usize];
        if recent.len() == RECENT_PER_CLASS {
            recent.pop_front();
        }
        recent.push_back((citizen, gid));
        self.index_expected += 1;
        self.audited(1 + fanout as u64);
        self.person_audited(citizen, 1 + fanout as u32);
    }

    /// A request that wrote one audit record carrying the citizen.
    pub fn touched(&mut self, citizen: u32) {
        self.audited(1);
        self.person_audited(citizen, 1);
    }

    /// A churn slot's role looked its citizen up: the returned events
    /// of the slot's class are now notified to the role.
    pub fn marked(&mut self, slot: usize) {
        let s = &self.slots[slot];
        let marked: Vec<GlobalEventId> = self.events[s.citizen as usize]
            .iter()
            .rev()
            .filter(|e| e.class == s.class)
            .take(MARKED_PER_SLOT)
            .map(|e| e.gid)
            .collect();
        self.slots[slot].marked = marked;
    }

    /// A consent change took effect.
    pub fn consented(&mut self, citizen: u32, out: bool) {
        self.out[citizen as usize] = out;
        if out {
            self.out_list.push(citizen);
        } else {
            self.out_list.retain(|c| *c != citizen);
        }
        self.touched(citizen);
    }

    /// A churn slot's policy was installed under `id`.
    pub fn defined(&mut self, slot: usize, id: PolicyId) {
        let (who, class) = (self.slots[slot].who, self.slots[slot].class);
        let actor = self.chain[who as usize][0];
        self.grants.push(Grant {
            actor,
            class: class as usize,
            purposes: vec![churn_purpose()],
            fields: self.all_masks[class as usize],
            not_after: None,
            revoked: false,
        });
        let grant = self.grants.len() - 1;
        self.by_key
            .entry((class, actor))
            .or_default()
            .push(grant as u32);
        self.slots[slot].policy = Some(id);
        self.slots[slot].grant = grant;
        self.live.push_back(slot);
        self.unmarked.push_back(slot);
        self.audited(1);
    }

    /// A churn slot's policy was revoked.
    pub fn revoked(&mut self, slot: usize) {
        self.grants[self.slots[slot].grant].revoked = true;
        self.live.retain(|s| *s != slot);
        self.unmarked.retain(|s| *s != slot);
        if !self.slots[slot].marked.is_empty() {
            self.revoked_marked.push(slot);
        }
        self.audited(1);
    }
}
