//! The time index against a full scan: `events_between` over random
//! instants — equal ones, `0` and `u64::MAX` among them — and random
//! windows, inclusive and inverted, answers what filtering every
//! indexed event by its instant answers, at 1, 2 and 8 shards and again
//! after the plane is reopened from its logs.

use std::sync::Arc;

use css_controller::IndexShards;
use css_event::NotificationMessage;
use css_storage::LogBackend;
use css_types::{
    ActorId, CssError, CssResult, EventTypeId, GlobalEventId, PersonId, PersonIdentity,
    SourceEventId, Timestamp,
};
use parking_lot::Mutex;
use proptest::prelude::*;

/// A backend a reopened plane reads the bytes of.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl LogBackend for Shared {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        let mut bytes = self.0.lock();
        bytes.extend_from_slice(data);
        Ok((bytes.len() - data.len()) as u64)
    }
    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        let bytes = self.0.lock();
        let start = offset as usize;
        bytes
            .get(start..start + len)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| CssError::Storage("read past end".into()))
    }
    fn len(&self) -> u64 {
        self.0.lock().len() as u64
    }
    fn sync(&mut self) -> CssResult<()> {
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> CssResult<()> {
        self.0.lock().truncate(len as usize);
        Ok(())
    }
}

/// An instant: often one of a few shared values or an extreme, so
/// events collide and windows end exactly on them.
fn instant() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        0u64..4,
        (0u64..4).prop_map(|t| t * 1_000),
        any::<u64>(),
    ]
}

fn notification(id: u64, at: u64) -> NotificationMessage {
    NotificationMessage {
        global_id: GlobalEventId(id),
        event_type: EventTypeId::v1("lab"),
        person: PersonIdentity {
            id: PersonId(id % 7),
            fiscal_code: format!("FC{}", id % 7),
            name: "Ada".into(),
            surname: "Rossi".into(),
        },
        description: format!("event {id}"),
        occurred_at: Timestamp(at),
        producer: ActorId(1),
    }
}

/// The ids of `instants` (event `i + 1` at `instants[i]`) within
/// `[from, to]`, ascending.
fn full_scan(instants: &[u64], from: u64, to: u64) -> Vec<GlobalEventId> {
    (1..)
        .zip(instants)
        .filter(|&(_, &at)| from <= at && at <= to)
        .map(|(id, _)| GlobalEventId(id))
        .collect()
}

fn check(plane: &IndexShards<Shared>, instants: &[u64], windows: &[(u64, u64)]) {
    let every_instant = instants.iter().map(|&at| (at, at));
    for (from, to) in windows.iter().copied().chain(every_instant) {
        assert_eq!(
            plane.events_between(Timestamp(from), Timestamp(to)),
            full_scan(instants, from, to),
            "[{from}, {to}] at {} shards",
            plane.shard_count()
        );
    }
}

proptest! {
    #[test]
    fn events_between_equals_a_full_scan(
        instants in proptest::collection::vec(instant(), 0..40),
        windows in proptest::collection::vec((instant(), instant()), 1..12),
    ) {
        let mut windows = windows;
        windows.extend([(0, u64::MAX), (u64::MAX, 0), (u64::MAX, u64::MAX)]);
        for shards in [1, 2, 8] {
            let backends: Vec<Shared> = (0..shards).map(|_| Shared::default()).collect();
            let plane = IndexShards::open(b"time index key", backends.clone()).unwrap();
            for (id, &at) in (1..).zip(&instants) {
                plane
                    .insert(&notification(id, at), SourceEventId(id), Default::default())
                    .unwrap();
            }
            check(&plane, &instants, &windows);
            drop(plane);
            let reopened = IndexShards::open(b"time index key", backends).unwrap();
            prop_assert_eq!(reopened.len(), instants.len());
            check(&reopened, &instants, &windows);
        }
    }
}
