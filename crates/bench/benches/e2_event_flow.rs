//! E2 — Fig. 2 (§4): end-to-end notification flow through the data
//! controller — validate, consent-check, seal + index, route, deliver —
//! sweeping the number of subscribers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use css_bench::{micro_world, print_header};
use css_trace::Tracer;
use css_types::EventTypeId;

fn bench(c: &mut Criterion) {
    print_header("E2", "publish → index → route → deliver (Fig. 2)");
    let mut group = c.benchmark_group("e2_event_flow");
    group.sample_size(20);
    for subscribers in [0usize, 1, 5, 10, 25] {
        let mut world = micro_world(subscribers.max(1), 1, Tracer::disabled());
        let handles: Vec<_> = world
            .consumers
            .iter()
            .take(subscribers)
            .map(|actor| {
                world
                    .controller
                    .subscribe(*actor, &EventTypeId::v1("blood-test"))
                    .unwrap()
            })
            .collect();
        let mut src = 0u64;
        group.bench_with_input(
            BenchmarkId::new("publish_and_deliver", subscribers),
            &subscribers,
            |b, _| {
                b.iter(|| {
                    src += 1;
                    let id = world.publish_one(src);
                    for h in &handles {
                        while let Some(d) = h.poll().unwrap() {
                            h.ack(d.delivery_id).unwrap();
                        }
                    }
                    id
                })
            },
        );
        let stats = world.controller.bus_stats();
        eprintln!(
            "subscribers={subscribers:>3}  published={:>7}  fanned_out={:>8}",
            stats.published, stats.fanned_out
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
