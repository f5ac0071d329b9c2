//! E17 — ops-plane overhead on the E15 mixed workload (plane off vs on).
//!
//! The live ops plane (DESIGN.md §11) watches a platform from one
//! background thread: every tick it snapshots the telemetry registry,
//! subtracts the previous snapshot once, and feeds the SLO windows, the
//! metrics history with its drift detector, the health checks and the
//! flight-recorder ring. All of that runs on the sampler thread; the
//! only cost the *workload* can feel is lock contention — every
//! snapshot briefly takes the same registry locks the hot path records
//! through. This bench drives the E16/E15 mix (70% detail requests, 20%
//! inquiries, 10% publishes) against two identical untraced worlds —
//! one bare, one watched by the whole plane through its public
//! constructor, ticking every `SAMPLE_MS` (far faster than the 250 ms
//! production default, to make any contention visible) — using the
//! same paired alternating-batch timing as E16. Target: within ±2% per
//! op at this stress cadence. Both series are printed in the harness
//! result format so `scripts/bench.sh` folds them into
//! `BENCH_e17_ops_overhead.json`; they keep the names
//! `sampler_off`/`sampler_on` they had when the on-lane ran the
//! sampler and SLO engine alone, so the ratchet has a history. (E21 and
//! E22 priced the recorder and the history separately while they could
//! be switched off; their last values are in EXPERIMENTS.md.)

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::{print_header, run_paired, Lane};
use css_health::{AlertLevel, Check, OpsPlane, Sampler, Slo};
use css_trace::Tracer;

/// Sampling period for the on-lane: 50× the production default, so a
/// smoke run still lands dozens of ticks inside the timed window.
const SAMPLE_MS: u64 = 5;

/// The plane a platform gets from `.ops_server()`, minus the checks
/// that probe what this world does not have (a backend provider, a
/// drained bus). The latency target is lenient enough that this
/// single-core bench world never trips it: the bench measures
/// steady-state overhead, and a capture mid-run would perturb the
/// timing. (The trigger path itself is exercised by the plane's tick
/// tests, tests/blackbox_integration.rs and scripts/obs.sh.)
fn plane_over(lane: &Lane) -> Arc<OpsPlane> {
    let registry = lane.world.controller.telemetry().clone();
    let source = registry.clone();
    let incident_dir = std::env::temp_dir().join("css-e17-bench");
    let _ = std::fs::remove_dir_all(&incident_dir);
    Arc::new(OpsPlane::new(
        move || source.snapshot(),
        Arc::new(lane.world.clock.clone()),
        Tracer::disabled(),
        &registry,
        vec![
            Check::gauge_above("bus-queue", "bus.queue_depth", 10_000, Some(100_000)),
            Check::hit_rate_below("policy", "pdp.cache_hit", "pdp.cache_miss", 0.5, 10_000),
            Check::drop_rate_above(
                "blackbox",
                "blackbox.frames_dropped",
                "blackbox.frames_recorded",
                0.25,
                1_000,
            ),
        ],
        vec![
            Slo::latency_p99("detail_request_p99", "stage.total", 10_000_000),
            Slo::error_ratio(
                "publish_errors",
                "controller.publish_denied",
                &["controller.published", "controller.publish_denied"],
                0.001,
            ),
        ],
        incident_dir,
    ))
}

fn bench(_c: &mut Criterion) {
    print_header("E17", "ops-plane overhead (plane off vs on)");

    let mut lanes = [
        ("sampler_off", Lane::new(Tracer::disabled())),
        ("sampler_on", Lane::new(Tracer::disabled())),
    ];
    let plane = plane_over(&lanes[1].1);
    // Keeps the on-lane's background thread alive for the whole run.
    let sampler = Sampler::spawn(plane.clone(), Duration::from_millis(SAMPLE_MS));

    let (off, on) = run_paired("e17_ops_overhead", &mut lanes);
    let pct = 100.0 * (on - off) / off;
    let stress = 250 / SAMPLE_MS;
    eprintln!(
        "paired batches: the plane ticking every {SAMPLE_MS}ms costs {:+.0} ns/op ({pct:+.1}%); \
         at the 250ms production default that is ~{:+.2}% (target ±2% at the stress cadence)",
        on - off,
        pct / stress as f64
    );

    // ---- the plane actually watched the run, and saw a healthy one.
    let ticks = sampler.ticks();
    drop(sampler);
    assert!(ticks >= 2, "sampler must tick during the run (got {ticks})");
    let table = plane.slo_table();
    assert!(
        table.iter().all(|s| s.alert == AlertLevel::Ok),
        "no publish denied and a 10 ms latency target: {table:?}"
    );
    let snapshot = lanes[1].1.world.controller.telemetry().snapshot();
    assert!(
        snapshot.counter("chronicle.appends") >= ticks,
        "appends lag the sampler: {} < {ticks}",
        snapshot.counter("chronicle.appends")
    );
    // No SLO or health edge can happen in this world, so a bundle can
    // only be the drift detector's: at this cadence one tick's p99 is
    // the slowest of ~150 requests, and a single descheduled request on
    // a shared box is a 4× jump (a production tick holds ~8 000). It is
    // counted, not fatal — the smoke ratchet must not flake on the
    // host's scheduler — and a committed BENCH run shows 0.
    let incidents = plane.incidents();
    assert!(
        incidents.iter().all(|i| i.kind == "anomaly"),
        "spurious incident mid-run: {incidents:?}"
    );
    eprintln!(
        "plane: {ticks} ticks, {} frames recorded ({} dropped), {} history points, {} incidents",
        snapshot.counter("blackbox.frames_recorded"),
        snapshot.counter("blackbox.frames_dropped"),
        snapshot.gauge("chronicle.points"),
        incidents.len(),
    );

    // Telemetry-format line for scripts/bench.sh → BENCH JSON.
    if let Some(h) = snapshot.histogram("stage.total") {
        eprintln!(
            "stage.total: count={} p50={}ns p99={}ns",
            h.count, h.p50_ns, h.p99_ns
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
