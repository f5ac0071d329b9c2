//! E21 — flight-recorder overhead on the E15 mixed workload.
//!
//! The css-blackbox recorder (DESIGN.md §15) rides the ops sampler: on
//! every tick it diffs the telemetry snapshot, appends frames to its
//! bounded ring, and checks the SLO table for trigger edges. Like the
//! sampler itself (E17), the only cost the *workload* can feel is lock
//! contention on the registry plus the recorder's own ring mutex — the
//! frame assembly runs on the sampler thread. This bench drives the
//! E16/E15 mix (70% detail requests, 20% inquiries, 10% publishes)
//! against two identical worlds — both sampled every `SAMPLE_MS`, one
//! bare and one with a recorder fed by the sampler's observer hook —
//! using the same paired alternating-batch timing as E16/E17.
//! Target: < 2% per-op delta at this stress cadence.
//! Both series are printed in the harness result format so
//! `scripts/bench.sh` folds them into `BENCH_e21_blackbox_overhead.json`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::{blood_test_details, micro_world, person, print_header, MicroWorld, HOSPITAL};
use css_blackbox::{FlightRecorder, Severity, SloSample};
use css_controller::{DataController, SharedGateway};
use css_health::{AlertLevel, Sampler, Slo, SloEngine};
use css_storage::MemBackend;
use css_trace::Tracer;
use css_types::{Clock, EventTypeId, GlobalEventId, PersonId, Purpose, SourceEventId, Timestamp};

const EVENTS: u64 = 200;
/// Sampling period for both lanes: 50× the production default, so the
/// recorder's per-tick work lands dozens of times in a smoke window.
const SAMPLE_MS: u64 = 5;
/// Ops per alternating batch (see E16: pairing cancels machine noise).
const BATCH: u64 = 100;
/// Ring capacity, as the `.blackbox(512)` production default.
const RING: usize = 512;

/// One step of the E15 mix, identical across both lanes.
fn mixed_op(
    controller: &mut DataController<MemBackend>,
    gateway: &SharedGateway<MemBackend>,
    consumer: css_types::ActorId,
    event_ids: &[GlobalEventId],
    i: u64,
    publish_src: &mut u64,
) {
    let ty = EventTypeId::v1("blood-test");
    match i % 10 {
        0..=6 => {
            let id = event_ids[(i % event_ids.len() as u64) as usize];
            controller
                .request_details(consumer, ty, id, Purpose::HealthcareTreatment, None)
                .unwrap();
        }
        7 | 8 => {
            controller
                .inquire_by_person(consumer, PersonId(i % EVENTS + 1), None)
                .unwrap();
        }
        _ => {
            *publish_src += 1;
            let src = *publish_src;
            gateway
                .lock()
                .persist(&css_event::DetailMessage {
                    src_event_id: SourceEventId(src),
                    producer: HOSPITAL,
                    details: blood_test_details(src),
                })
                .unwrap();
            controller
                .publish(
                    HOSPITAL,
                    person(EVENTS + 1 + src % 10_000),
                    "blood test completed".into(),
                    ty,
                    Timestamp(1_000_000),
                    SourceEventId(src),
                    None,
                )
                .unwrap();
        }
    }
}

/// Corpus published, consumers drained, live queues dropped.
fn prepared_world() -> (MicroWorld, Vec<GlobalEventId>) {
    let mut world = micro_world(2, 1, Tracer::disabled());
    let ty = EventTypeId::v1("blood-test");
    let subs: Vec<_> = world
        .consumers
        .iter()
        .map(|c| world.controller.subscribe(*c, &ty).unwrap())
        .collect();
    let mut event_ids = Vec::new();
    for src in 1..=EVENTS {
        event_ids.push(world.publish_one(src));
    }
    for sub in subs {
        while let Some(d) = sub.poll().unwrap() {
            sub.ack(d.delivery_id).unwrap();
        }
        world.controller.unsubscribe(sub).unwrap();
    }
    (world, event_ids)
}

/// The production SLO shape, with a latency target lenient enough that
/// this single-core bench world never trips it: the bench measures
/// steady-state recording overhead, so a capture mid-run would both
/// perturb the timing and fail the no-spurious-incident assertion.
/// (The trigger path itself is exercised by tests/blackbox_integration.rs
/// and scripts/obs.sh.)
fn slo_engine() -> SloEngine {
    let mut engine = SloEngine::new();
    engine.register(Slo::latency_p99(
        "detail_request_p99",
        "stage.total",
        10_000_000,
    ));
    engine.register(Slo::error_ratio(
        "publish_errors",
        "controller.publish_denied",
        &["controller.published", "controller.publish_denied"],
        0.001,
    ));
    engine
}

struct Lane {
    world: MicroWorld,
    event_ids: Vec<GlobalEventId>,
    /// Keeps the lane's background thread alive for the whole run.
    sampler: Option<(Sampler, Option<Arc<FlightRecorder>>)>,
    i: u64,
    src: u64,
    total_ns: u128,
    ops: u64,
}

impl Lane {
    fn new(recorded: bool) -> Lane {
        let (world, event_ids) = prepared_world();
        let registry = world.controller.telemetry().clone();
        let engine = Arc::new(Mutex::new(slo_engine()));
        let clock: Arc<dyn Clock> = Arc::new(world.clock.clone());
        let interval = Duration::from_millis(SAMPLE_MS);
        let sampler = if recorded {
            let incident_dir = std::env::temp_dir().join("css-e21-bench");
            let _ = std::fs::remove_dir_all(&incident_dir);
            let recorder = Arc::new(FlightRecorder::new(RING, incident_dir, &registry));
            let observed = recorder.clone();
            let snapshot_registry = registry.clone();
            let sampler = Sampler::spawn_observed(
                move || snapshot_registry.snapshot(),
                clock,
                engine,
                interval,
                move |snapshot, now, table| {
                    // The same per-tick feed css-core wires up (minus
                    // health probes: this world runs no check registry).
                    observed.observe_telemetry(snapshot, now.0);
                    let samples: Vec<SloSample> = table
                        .iter()
                        .map(|s| SloSample {
                            name: s.name.clone(),
                            fast_burn: s.fast_burn,
                            slow_burn: s.slow_burn,
                            severity: match s.alert {
                                AlertLevel::Ok => Severity::Ok,
                                AlertLevel::Warning => Severity::Warning,
                                AlertLevel::Critical => Severity::Critical,
                            },
                        })
                        .collect();
                    for trigger in observed.observe_slos(&samples, now.0) {
                        observed.capture(trigger, snapshot, &[], now.0);
                    }
                },
            );
            (sampler, Some(recorder))
        } else {
            (Sampler::spawn(registry, clock, engine, interval), None)
        };
        Lane {
            world,
            event_ids,
            sampler: Some(sampler),
            i: 0,
            src: 10_000_000,
            total_ns: 0,
            ops: 0,
        }
    }

    fn run_batch(&mut self, timed: bool) {
        let consumers = self.world.consumers.clone();
        let gateway = self.world.gateway.clone();
        let started = Instant::now();
        for _ in 0..BATCH {
            self.i += 1;
            mixed_op(
                &mut self.world.controller,
                &gateway,
                consumers[(self.i % 2) as usize],
                &self.event_ids,
                self.i,
                &mut self.src,
            );
        }
        if timed {
            self.total_ns += started.elapsed().as_nanos();
            self.ops += BATCH;
        }
    }
}

fn bench(_c: &mut Criterion) {
    print_header("E21", "flight-recorder overhead (recorder off vs on)");

    let mut lanes = [
        ("recorder_off", Lane::new(false)),
        ("recorder_on", Lane::new(true)),
    ];

    let budget_ms: u64 = std::env::var("CSS_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    for (_, lane) in lanes.iter_mut() {
        for _ in 0..3 {
            lane.run_batch(false);
        }
    }
    let started = Instant::now();
    while started.elapsed().as_millis() < 2 * budget_ms as u128 {
        for (_, lane) in lanes.iter_mut() {
            lane.run_batch(true);
        }
    }
    for (label, lane) in &lanes {
        let ns_per_op = lane.total_ns as f64 / lane.ops as f64;
        let id = format!("e21_blackbox_overhead/{label}");
        eprintln!("{id:<45} time: {ns_per_op:>10.3} ns/iter (n={})", lane.ops);
    }
    let off = lanes[0].1.total_ns as f64 / lanes[0].1.ops as f64;
    let on = lanes[1].1.total_ns as f64 / lanes[1].1.ops as f64;
    let pct = 100.0 * (on - off) / off;
    let stress = 250 / SAMPLE_MS;
    eprintln!(
        "paired batches: recording every {SAMPLE_MS}ms costs {:+.0} ns/op ({pct:+.1}%); \
         at the 250ms production default that is ~{:+.2}% (target < 2%)",
        on - off,
        pct / stress as f64
    );

    // ---- the recorder actually watched the run: frames in the ring,
    // none lost, and a healthy workload captured no incidents.
    let (sampler, recorder) = lanes[1].1.sampler.take().expect("on-lane sampler");
    let ticks = sampler.ticks();
    drop(sampler);
    let recorder = recorder.expect("on-lane recorder");
    assert!(ticks >= 2, "sampler must tick during the run (got {ticks})");
    assert!(
        recorder.occupancy() > 0,
        "recorder saw no frames in {ticks} ticks"
    );
    let snapshot = lanes[1].1.world.controller.telemetry().snapshot();
    assert_eq!(
        snapshot.counter("blackbox.frames_dropped"),
        0,
        "a {RING}-frame ring must not overrun at this cadence"
    );
    assert!(
        recorder.incidents().is_empty(),
        "healthy workload captured an incident: {:?}",
        recorder.incidents()
    );
    eprintln!(
        "recorder: {ticks} snapshots, {} frames ringed, 0 dropped",
        snapshot.counter("blackbox.frames_recorded")
    );

    // Telemetry-format line for scripts/bench.sh → BENCH JSON.
    for (name, h) in &snapshot.histograms {
        if name == "stage.total" {
            eprintln!(
                "stage.total: count={} p50={}ns p99={}ns",
                h.count, h.p50_ns, h.p99_ns
            );
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
