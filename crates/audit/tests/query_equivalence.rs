//! The indexed query is the scan: for random record streams and random
//! queries over every dimension combination, `AuditShards::query`
//! returns exactly `records().filter(matches)`, in the same order — at
//! shard counts {1, 2, 8}, after a reopen, and after a 2-shard plane's
//! backends are reopened as 8 (audit logs are not re-routed, so one
//! citizen's records then sit on several shards).
//!
//! `records()` is the query that names no person, which always scans:
//! the reference never touches a posting list.

use std::sync::{Arc, Mutex};

use css_audit::{AuditAction, AuditQuery, AuditRecord, AuditShards};
use css_storage::{LogBackend, MemBackend};
use css_trace::TraceId;
use css_types::{ActorId, CssResult, GlobalEventId, PersonId, Purpose, Timestamp};
use proptest::prelude::*;

/// A memory log that outlives the plane opened on it.
#[derive(Clone, Default)]
struct SharedLog(Arc<Mutex<MemBackend>>);

impl LogBackend for SharedLog {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        self.0.lock().unwrap().append(data)
    }
    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        self.0.lock().unwrap().read_at(offset, len)
    }
    fn len(&self) -> u64 {
        self.0.lock().unwrap().len()
    }
    fn sync(&mut self) -> CssResult<()> {
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> CssResult<()> {
        self.0.lock().unwrap().truncate(len)
    }
}

const ACTIONS: [AuditAction; 3] = [
    AuditAction::Publish,
    AuditAction::DetailRequest,
    AuditAction::SubjectAccess,
];
const PURPOSES: [Purpose; 2] = [Purpose::HealthcareTreatment, Purpose::Audit];

/// Small domains on every dimension, so random queries hit.
type Dims = (
    (u64, u64, usize),
    (Option<u64>, Option<u64>, Option<usize>),
    (Option<u64>, bool),
);

fn dims() -> impl Strategy<Value = Dims> {
    use proptest::option::of as opt;
    (
        (0u64..40, 1u64..4, 0usize..ACTIONS.len()),
        (opt(0u64..6), opt(0u64..4), opt(0usize..PURPOSES.len())),
        (opt(1u64..4), any::<bool>()),
    )
}

fn record(((at, actor, action), (person, event, purpose), (trace, denied)): Dims) -> AuditRecord {
    let mut r = AuditRecord::new(Timestamp(at), ActorId(actor), ACTIONS[action])
        .trace(trace.map(|t| TraceId::mint(7, t)));
    if let Some(p) = person {
        r = r.person(PersonId(p));
    }
    if let Some(e) = event {
        r = r.event(GlobalEventId(e));
    }
    if let Some(p) = purpose {
        r = r.purpose(PURPOSES[p].clone());
    }
    if denied {
        r = r.denied("no matching policy");
    }
    r
}

/// The same dimensions read as a filter; `use_*` switches decide which
/// of the mandatory record dimensions the query constrains.
fn query(
    ((at, actor, action), (person, event, purpose), (trace, denied)): Dims,
    (use_window, use_actor, use_action): (bool, bool, bool),
) -> AuditQuery {
    let mut q = AuditQuery::new();
    if use_window {
        q = q.between(Timestamp(at / 2), Timestamp(at));
    }
    if use_actor {
        q = q.actor(ActorId(actor));
    }
    if use_action {
        q = q.action(ACTIONS[action]);
    }
    if let Some(p) = person {
        q = q.person(PersonId(p));
    }
    if let Some(e) = event {
        q = q.event(GlobalEventId(e));
    }
    if let Some(p) = purpose {
        q = q.purpose(PURPOSES[p].clone());
    }
    if let Some(t) = trace {
        q = q.trace(TraceId::mint(7, t));
    }
    if denied {
        q = q.denied_only();
    }
    q
}

/// One append, or one group commit (a singleton vector is an append).
type Step = Vec<Dims>;

fn apply(plane: &AuditShards<SharedLog>, steps: &[Step]) {
    for step in steps {
        match step.as_slice() {
            [one] => {
                plane.append(record(*one)).unwrap();
            }
            batch => {
                let batch = batch.iter().copied().map(record).collect();
                plane.append_batch(batch).unwrap();
            }
        }
    }
}

/// Every query answers as the scan does; returns the answers.
fn check(plane: &AuditShards<SharedLog>, queries: &[AuditQuery]) -> Vec<Vec<AuditRecord>> {
    let all = plane.records().unwrap();
    queries
        .iter()
        .map(|q| {
            let scanned: Vec<AuditRecord> = all.iter().filter(|r| q.matches(r)).cloned().collect();
            let answered = plane.query(q).unwrap();
            assert_eq!(answered, scanned, "{q:?}");
            answered
        })
        .collect()
}

proptest! {
    #[test]
    fn indexed_query_is_the_scan(
        steps in proptest::collection::vec(proptest::collection::vec(dims(), 1..4), 0..40),
        queries in proptest::collection::vec(
            (dims(), (any::<bool>(), any::<bool>(), any::<bool>())),
            1..12,
        ),
        cut in 0usize..40,
    ) {
        let mut queries: Vec<AuditQuery> =
            queries.into_iter().map(|(d, switches)| query(d, switches)).collect();
        // Each citizen's own view, always among the questions asked.
        queries.extend((0..6).map(|p| AuditQuery::new().person(PersonId(p))));
        let (before, after) = steps.split_at(cut.min(steps.len()));
        for n in [1usize, 2, 8] {
            let logs: Vec<SharedLog> = (0..n).map(|_| SharedLog::default()).collect();
            let plane = AuditShards::open(logs.clone()).unwrap();
            apply(&plane, before);
            let answers = check(&plane, &queries);
            let head = plane.head();
            drop(plane);

            let reopened = AuditShards::open(logs.clone()).unwrap();
            prop_assert_eq!(reopened.head(), head);
            prop_assert_eq!(check(&reopened, &queries), answers);
            apply(&reopened, after);
            check(&reopened, &queries);
            drop(reopened);

            if n == 2 {
                // The two logs now hold `before + after`; as shards 0 and
                // 1 of 8 they keep their records while new ones route
                // eight ways.
                let mut eight = logs;
                eight.resize_with(8, SharedLog::default);
                let widened = AuditShards::open(eight).unwrap();
                prop_assert_eq!(widened.len(), steps.iter().map(Vec::len).sum::<usize>());
                check(&widened, &queries);
                apply(&widened, before);
                check(&widened, &queries);
            }
        }
    }
}
