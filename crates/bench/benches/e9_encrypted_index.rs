//! E9 — §4 claim: "the identifying information of the person ... is
//! stored in encrypted form". Cost of sealing on insert and of
//! decryption on inquiry, against a no-crypto strawman.

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::{person, print_header, HOSPITAL};
use css_controller::EventsIndex;
use css_crypto::SealedBox;
use css_event::NotificationMessage;
use css_types::{EventTypeId, GlobalEventId, PersonId, SourceEventId, Timestamp};

fn notification(i: u64) -> NotificationMessage {
    NotificationMessage {
        global_id: GlobalEventId(i),
        event_type: EventTypeId::v1("blood-test"),
        person: person(i % 500),
        description: "blood test completed at the laboratory".into(),
        occurred_at: Timestamp(i),
        producer: HOSPITAL,
    }
}

fn bench(c: &mut Criterion) {
    print_header("E9", "encrypted events index: insert & inquiry overhead");
    let mut group = c.benchmark_group("e9_encrypted_index");

    // Insert path: seal + index vs plain map insert of the same data.
    group.bench_function("index_insert_sealed", |b| {
        let mut i = 0u64;
        let mut index = EventsIndex::open(b"bench-key", css_storage::MemBackend::new()).unwrap();
        b.iter(|| {
            i += 1;
            index
                .insert(&notification(i), SourceEventId(i), HashSet::new())
                .unwrap()
        })
    });
    group.bench_function("plain_map_insert_strawman", |b| {
        let mut i = 0u64;
        let mut map = std::collections::HashMap::new();
        b.iter(|| {
            i += 1;
            map.insert(i, notification(i))
        })
    });

    // Inquiry path: per-person lookup + decryption.
    let mut index = EventsIndex::open(b"bench-key", css_storage::MemBackend::new()).unwrap();
    for i in 1..=20_000u64 {
        index
            .insert(&notification(i), SourceEventId(i), HashSet::new())
            .unwrap();
    }
    group.bench_function("person_lookup_tagged", |b| {
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % 500;
            index.events_of_person(PersonId(p))
        })
    });
    group.bench_function("decrypt_one_notification", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i % 20_000 + 1;
            index.decrypt_notification(GlobalEventId(i)).unwrap()
        })
    });
    // Time-window inquiry: a 1% window over the 20k-event index. The
    // BTreeMap time index makes this a range scan over ~200 entries
    // instead of a filter over all 20 000.
    group.bench_function("time_window_1pct_of_20k", |b| {
        let mut start = 0u64;
        b.iter(|| {
            start = (start + 97) % 19_800;
            index.events_between(Timestamp(start), Timestamp(start + 199))
        })
    });

    // The raw crypto primitives for reference.
    let sealer = SealedBox::new(b"bench-key");
    let identity = person(1).to_bytes();
    group.bench_function("seal_identity_only", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            sealer.seal(i, &identity)
        })
    });
    let sealed = sealer.seal(1, &identity);
    group.bench_function("open_identity_only", |b| {
        b.iter(|| sealer.open(&sealed).unwrap())
    });
    group.finish();

    eprintln!(
        "sealed identity blob: {} bytes (identity {} bytes + {} overhead)",
        sealed.len(),
        identity.len(),
        SealedBox::OVERHEAD
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
