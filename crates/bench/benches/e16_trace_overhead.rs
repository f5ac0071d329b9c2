//! E16 — causal-tracing overhead and ring-buffer behavior.
//!
//! The same 70/20/10 detail-request/inquiry/publish mix as E15, driven
//! against two identical worlds: one with the tracer disabled (every
//! span a no-op) and one with an enabled tracer whose ring holds only
//! `CAPACITY` spans, so a measured run is guaranteed to lap it many
//! times over. Timing is *paired* (`css_bench::run_paired`: batches
//! alternate off/on so machine noise and any residual state drift hit
//! both configurations equally). The per-op delta is the cost of
//! tracing the full enforcement path (~10 spans per permitted detail
//! request); the drop counters prove the ring sheds the oldest spans
//! instead of blocking or growing. Both series are printed in
//! the harness result format so `scripts/bench.sh` folds them (and the
//! trace.* counters) into `BENCH_e16_trace_overhead.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use css_bench::{print_header, run_paired, Lane};
use css_trace::Tracer;

/// Deliberately small: a smoke run records thousands of spans, so the
/// ring must overwrite and account for the overflow.
const CAPACITY: usize = 1_024;

fn bench(_c: &mut Criterion) {
    print_header("E16", "causal-tracing overhead (collector off vs on)");

    let tracer = Tracer::new(CAPACITY);
    let mut lanes = [
        ("collector_off", Lane::new(Tracer::disabled())),
        ("collector_on", Lane::new(tracer.clone())),
    ];
    let (off, on) = run_paired("e16_trace_overhead", &mut lanes);
    eprintln!(
        "paired batches: tracing costs {:+.0} ns/op ({:+.1}%)",
        on - off,
        100.0 * (on - off) / off
    );

    // ---- ring accounting: the enabled lane overflowed CAPACITY.
    let retained = tracer.finished_spans();
    let recorded = tracer.recorded();
    let dropped = tracer.dropped();
    assert_eq!(retained.len(), CAPACITY.min(recorded as usize));
    assert_eq!(recorded, dropped + retained.len() as u64);
    // Drop-oldest proof: the ring holds the last CAPACITY spans
    // *finished*. Ids are minted in start order and a root finishes
    // after its children, so the minimum retained id trails
    // `dropped + 1` by at most one op tree (~12 spans in flight); the
    // newest id is always retained.
    let min_id = retained.iter().map(|s| s.id.value()).min().unwrap();
    let max_id = retained.iter().map(|s| s.id.value()).max().unwrap();
    assert!(
        min_id <= dropped + 1 && min_id + 32 > dropped,
        "oldest spans evicted first (min retained id {min_id}, {dropped} dropped)"
    );
    assert_eq!(max_id, recorded, "newest span retained");
    // Telemetry-format lines for scripts/bench.sh → BENCH JSON.
    eprintln!("trace.spans_recorded: count={recorded} p50=0ns p99=0ns");
    eprintln!("trace.spans_dropped: count={dropped} p50=0ns p99=0ns");
    eprintln!(
        "ring capacity {CAPACITY}: retained span ids {min_id}..={max_id} \
         ({dropped} oldest evicted, drop-oldest verified)"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
