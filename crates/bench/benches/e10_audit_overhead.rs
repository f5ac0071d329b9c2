//! E10 — §4 claim: every access request is logged for audit. Cost of
//! the hash-chained append on the hot path, and chain verification as
//! the log grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use css_audit::{AuditAction, AuditQuery, AuditRecord, AuditShards};
use css_bench::print_header;
use css_storage::MemBackend;
use css_types::{ActorId, GlobalEventId, PersonId, Purpose, Timestamp};

fn record(i: u64) -> AuditRecord {
    AuditRecord::new(Timestamp(i), ActorId(i % 7 + 1), AuditAction::DetailRequest)
        .event(GlobalEventId(i))
        .person(PersonId(i % 100))
        .purpose(Purpose::HealthcareTreatment)
}

/// The one-shard plane — the unsharded log as the platform opens it.
fn log() -> AuditShards<MemBackend> {
    AuditShards::open(vec![MemBackend::new()]).unwrap()
}

fn bench(c: &mut Criterion) {
    print_header("E10", "audit append overhead & verification vs log length");
    let mut group = c.benchmark_group("e10_audit");

    group.bench_function("append_persisted", |b| {
        let log = log();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            log.append(record(i)).unwrap()
        })
    });

    for &len in &[1_000usize, 10_000, 100_000] {
        let log = log();
        for i in 0..len as u64 {
            log.append(record(i)).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("verify_chain", len), &log, |b, log| {
            b.iter(|| log.verify().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("query_by_person", len), &log, |b, log| {
            let q = AuditQuery::new().person(PersonId(17));
            b.iter(|| log.query(&q).len())
        });
    }
    group.finish();

    // Print the series once: verification time scales linearly.
    for &len in &[1_000usize, 10_000, 100_000] {
        let log = log();
        for i in 0..len as u64 {
            log.append(record(i)).unwrap();
        }
        let t0 = std::time::Instant::now();
        log.verify().unwrap();
        eprintln!("verify({len:>7} records) = {:?}", t0.elapsed());
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
