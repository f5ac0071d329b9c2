//! E1 — Fig. 1 (§2): integration cost of the pre-CSS point-to-point
//! world vs the CSS event bus, sweeping the number of organizations.
//!
//! Series printed: channels, messages, sensitive bytes and unnecessary
//! disclosures per architecture. Timed: bus fan-out publish vs a
//! simulated point-to-point send loop at equal delivery counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use css_bench::print_header;
use css_bus::{Bus, SubscriptionConfig};
use css_sim::baseline::FlowParams;
use css_sim::{
    full_push_exposure, over_constrained_exposure, point_to_point_exposure, two_phase_exposure,
};

fn print_series() {
    print_header("E1", "point-to-point vs bus integration cost (Fig. 1)");
    eprintln!(
        "{:>6} {:>22} {:>14} {:>18} {:>16} {:>14}",
        "orgs", "architecture", "channels", "sensitive-bytes", "needless-discl.", "unserved"
    );
    for n in [2usize, 5, 10, 20, 40] {
        let p = FlowParams {
            producers: n,
            consumers: n,
            ..Default::default()
        };
        for (name, report) in [
            ("point-to-point", point_to_point_exposure(&p)),
            ("full-push bus", full_push_exposure(&p)),
            ("over-constrained", over_constrained_exposure(&p)),
            ("CSS two-phase", two_phase_exposure(&p)),
        ] {
            eprintln!(
                "{:>6} {:>22} {:>14} {:>18} {:>16} {:>14}",
                2 * n,
                name,
                report.channels,
                report.sensitive_bytes,
                report.unnecessary_disclosures,
                report.unserved_needs
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e1_delivery");
    for consumers in [1usize, 5, 10, 25] {
        // Bus fan-out: one publish reaches all subscribers.
        let broker: Bus<String> = Bus::in_memory();
        broker.create_topic("t");
        let subs: Vec<_> = (0..consumers)
            .map(|_| {
                broker
                    .subscribe(
                        "t",
                        SubscriptionConfig {
                            capacity: 1 << 20,
                            ..Default::default()
                        },
                    )
                    .unwrap()
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("bus_publish_fanout", consumers),
            &consumers,
            |b, _| {
                b.iter(|| {
                    broker
                        .publish("t", "notification".to_string(), None)
                        .unwrap();
                    for s in &subs {
                        while let Some(d) = s.poll().unwrap() {
                            s.ack(d.delivery_id).unwrap();
                        }
                    }
                })
            },
        );
        // Point-to-point: one send loop per consumer channel, full
        // document each time.
        let document = "x".repeat(2_000);
        group.bench_with_input(
            BenchmarkId::new("point_to_point_send", consumers),
            &consumers,
            |b, &n| {
                b.iter(|| {
                    let mut inboxes: Vec<Vec<String>> = vec![Vec::new(); n];
                    for inbox in &mut inboxes {
                        inbox.push(document.clone());
                    }
                    inboxes
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
