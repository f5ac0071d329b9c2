//! E13 — §5.2: subscription authorization (policy-gated, deny by
//! default) and index inquiry under mixed authorization.

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::{micro_world, print_header};
use css_trace::Tracer;
use css_types::{EventTypeId, PersonId};

fn bench(c: &mut Criterion) {
    print_header("E13", "subscription grant/deny and filtered index inquiry");
    let mut group = c.benchmark_group("e13_subscription");
    group.sample_size(30);

    // Grant path: consumer 0 has a policy.
    {
        let world = micro_world(2, 1, Tracer::disabled());
        let granted = world.consumers[0];
        group.bench_function("subscribe_granted", |b| {
            b.iter(|| {
                let h = world
                    .controller
                    .subscribe(granted, &EventTypeId::v1("blood-test"))
                    .unwrap();
                world.controller.unsubscribe(h).unwrap();
            })
        });
    }

    // Deny path: a consumer with a contract but no policy.
    {
        let world = micro_world(1, 1, Tracer::disabled());
        let stranger = css_types::ActorId(900);
        world
            .controller
            .register_actor(css_types::Actor::organization(stranger, "Stranger"))
            .unwrap();
        world
            .controller
            .sign_contract(stranger, css_controller::ParticipantRole::Consumer)
            .unwrap();
        group.bench_function("subscribe_denied", |b| {
            b.iter(|| {
                world
                    .controller
                    .subscribe(stranger, &EventTypeId::v1("blood-test"))
                    .unwrap_err()
            })
        });
    }

    // Index inquiry with mixed authorization: 1000 indexed events, the
    // consumer is authorized for the class, inquiry decrypts + filters.
    {
        let mut world = micro_world(1, 1, Tracer::disabled());
        for src in 1..=1_000u64 {
            world.publish_one(src);
        }
        let consumer = world.consumers[0];
        group.bench_function("inquire_by_person_authorized", |b| {
            let mut p = 0u64;
            b.iter(|| {
                p = p % 900 + 1;
                world
                    .controller
                    .inquire_by_person(consumer, PersonId(p), None)
                    .unwrap()
            })
        });
        eprintln!(
            "index size {} events; audit log {} records after inquiry storm",
            world.controller.index_len(),
            world.controller.audit_len()
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
