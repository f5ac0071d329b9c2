//! The traced run: the per-layer metrics, measured from outside the
//! program. It replays the first operations of the same seeded stream
//! closed-loop on one thread — once untraced on its own world (the
//! baseline `trace.overhead_pct` is measured against), once on a world
//! whose storage backends record spans — then probes every layer
//! directly and derives the per-operation budget.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use css_core::{BackendProvider, CssPlatform, DirProvider, MemoryProvider};
use css_types::{CssError, CssResult};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{open_segment, preload, warm_up, OpenLoop};
use crate::model::Op;
use crate::phases::verify;
use crate::probes::{self, Shape};
use crate::reference::Reference;
use crate::report::{Report, Scratch};
use crate::stats::{percentile, window_quantile};
use crate::trace::{write_chrome_trace, Component, Recorder, Span, SpanKind, TimedProvider};
use crate::workload::{Kind, SHARDS};
use crate::world::{self, Mode};
use crate::Args;

/// Operations of each kind outside a workload's mix that follow the
/// replay, so that every operation span has a value on every workload.
const COVERAGE_OPS: usize = 200;
/// Open-loop segments behind the ungated `open.*` and `gen.*` metrics:
/// a third of an untraced run's.
const TAIL_SEGMENTS: usize = 16;

/// The traced run of `args.workload`.
pub fn run(args: &Args) -> CssResult<Report> {
    let scratch = Scratch::new()?;
    if args.workload.durable {
        let dir = |name: &str| DirProvider::new(scratch.path(name));
        trace(args, &scratch, dir)
    } else {
        trace(args, &scratch, |_| Ok(MemoryProvider))
    }
}

/// One row of the budget table: an operation span against the probe
/// cost of the calls that operation makes (`(probe, calls per op)`).
struct Budget {
    attributed: &'static str,
    unattributed: &'static str,
    span: &'static str,
    calls: Vec<(&'static str, f64)>,
}

/// Mean and count of a set of span durations, microseconds.
#[derive(Default, Clone, Copy)]
struct Tally {
    ns: u64,
    self_ns: u64,
    n: u64,
    bytes: u64,
}

impl Tally {
    fn add(&mut self, span: &Span, child_ns: u64) {
        self.ns += span.ns();
        self.self_ns += span.ns().saturating_sub(child_ns);
        self.n += 1;
        self.bytes += span.bytes as u64;
    }

    fn mean_us(&self) -> f64 {
        self.ns as f64 / 1e3 / self.n.max(1) as f64
    }

    fn self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.n.max(1) as f64
    }
}

fn trace<Q: BackendProvider>(
    args: &Args,
    scratch: &Scratch,
    storage: impl Fn(&str) -> CssResult<Q>,
) -> CssResult<Report> {
    let wl = args.workload;
    let n = wl.trace_ops(args.seconds);
    let mut report = Report::default();

    // A. The untraced baseline: same world, same stream, no recorder;
    // then a few open-loop segments on it for the ungated tails.
    let mut reference = Reference::new();
    let (untraced_us, open) = {
        let world = world::build(wl, storage("baseline")?, Mode::Fresh, args.seconds)?;
        let (mut harness, _) = preload(wl, &world, args.seconds, &mut reference)?;
        warm_up(&mut harness, args.seed, &mut report);
        let mut rng = StdRng::seed_from_u64(args.seed);
        let start = Instant::now();
        for _ in 0..n {
            harness.step(&mut rng, &mut report);
        }
        let untraced_us = start.elapsed().as_secs_f64() * 1e6 / n as f64;
        let mut arrivals = StdRng::seed_from_u64(args.seed ^ 0xA771_7A15);
        let mut open = OpenLoop::default();
        for _ in 0..TAIL_SEGMENTS {
            open_segment(
                &mut harness,
                wl.open_ops_per_round(args.seconds),
                wl.rate,
                &mut rng,
                &mut arrivals,
                &mut reference,
                &mut open,
                &mut report,
            );
        }
        (untraced_us, open)
    };

    // B. The traced replay.
    let recorder = Arc::new(Recorder::default());
    let provider = TimedProvider::new(storage("traced")?, recorder.clone());
    let backends = provider.opened();
    let world = world::build(wl, provider, Mode::Fresh, args.seconds)?;
    let (mut harness, _) = preload(wl, &world, args.seconds, &mut reference)?;
    warm_up(&mut harness, args.seed, &mut report);
    recorder.take(); // set-up and warm-up are not part of the replay
    let before = world.platform.telemetry();
    let audit_before = world.platform.controller().audit_len();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut kinds = vec![Kind::Notify]; // by operation id; ids start at 1
    let (mut publishes, mut notified, mut payload_bytes) = (0u64, 0u64, 0u64);
    let (mut inquiries, mut inquiry_events) = (0u64, 0u64);
    let start = Instant::now();
    for id in 1..=n {
        let (lane, op) = harness.next(&mut rng);
        kinds.push(op.kind());
        match &op {
            Op::Notify {
                citizen,
                class,
                details,
                ..
            } => {
                publishes += 1;
                payload_bytes += (details.exposed_bytes()
                    + world.classes[*class as usize].description.len()
                    + world.persons[*citizen as usize].to_bytes().len())
                    as u64;
            }
            Op::Inquiry { expect, .. } => {
                inquiries += 1;
                inquiry_events += expect.len() as u64;
            }
            _ => {}
        }
        let done = harness.run(lane, op, Some(&recorder), id as u32);
        notified += done.notified as u64;
        report.count(&done);
    }
    let traced_s = start.elapsed().as_secs_f64();
    let after = world.platform.telemetry();
    let audit_records = world.platform.controller().audit_len() - audit_before;

    // Kinds the mix never generates, so their spans exist too.
    let mut id = n;
    for kind in Kind::ALL {
        if wl.mix.iter().any(|(k, _)| *k == kind) {
            continue;
        }
        for _ in 0..COVERAGE_OPS {
            id += 1;
            let (lane, op) = harness.generate(kind, &mut rng);
            report.count(&harness.run(lane, op, Some(&recorder), id as u32));
        }
    }
    let spans = recorder.take();
    let (audit_expected, index_expected) = harness.expected();
    verify(&world, audit_expected, index_expected, &mut report);

    // Spans arrive in end order, so an operation span follows the seam
    // spans it caused; its self time is its duration minus theirs.
    // Storage spans are tallied per span kind, and per span kind and
    // operation kind, over the replay only.
    let mut ops: HashMap<&'static str, Tally> = HashMap::new();
    let mut seams: HashMap<SpanKind, Tally> = HashMap::new();
    let mut seams_by_op: HashMap<(SpanKind, Kind), Tally> = HashMap::new();
    let mut pending_child_ns = 0u64;
    for span in &spans {
        match span.kind {
            SpanKind::Op(name) => {
                // Operation spans of the coverage tail count too: they
                // are the only source of their metrics.
                ops.entry(name).or_default().add(span, pending_child_ns);
                pending_child_ns = 0;
            }
            seam => {
                pending_child_ns += span.ns();
                if (1..=n as u32).contains(&span.op) {
                    seams.entry(seam).or_default().add(span, 0);
                    seams_by_op
                        .entry((seam, kinds[span.op as usize]))
                        .or_default()
                        .add(span, 0);
                }
            }
        }
    }
    let op = |name: &str| ops.get(name).copied().unwrap_or_default();
    let seam_total = |which: fn(Component) -> SpanKind| {
        [
            Component::Audit,
            Component::Index,
            Component::Gateway,
            Component::Policies,
        ]
        .iter()
        .filter_map(|c| seams.get(&which(*c)))
        .fold(Tally::default(), |mut acc, t| {
            acc.ns += t.ns;
            acc.n += t.n;
            acc.bytes += t.bytes;
            acc
        })
    };
    let seam_of =
        |seam: SpanKind, kind: Kind| seams_by_op.get(&(seam, kind)).copied().unwrap_or_default();
    let count_of = |kind: Kind| kinds[1..].iter().filter(|k| **k == kind).count().max(1) as f64;

    // ---- core: operation spans ----
    let core: [(&'static str, f64); 14] = [
        ("core.publish_us", op("publish").mean_us()),
        ("core.deliver_us", op("deliver").mean_us()),
        ("core.detail_permit_us", op("detail_permit").mean_us()),
        ("core.detail_deny_us", op("detail_deny").mean_us()),
        ("core.inquiry_us", op("inquiry").mean_us()),
        (
            "core.inquiry_us_per_event",
            op("inquiry").ns as f64 / 1e3 / inquiry_events.max(1) as f64,
        ),
        ("core.inquiry_between_us", op("inquiry_between").mean_us()),
        ("core.profile_us", op("profile").mean_us()),
        ("core.audit_trail_us", op("audit_trail").mean_us()),
        ("core.consent_change_us", op("consent_change").mean_us()),
        ("core.policy_change_us", op("policy_change").mean_us()),
        ("core.publish_self_us", op("publish").self_us()),
        ("core.detail_self_us", op("detail_permit").self_us()),
        ("core.inquiry_self_us", op("inquiry").self_us()),
    ];
    for (name, value) in core {
        report.metric(name, "us", value);
    }

    // ---- storage: seam spans of the replay ----
    let appends = seam_total(SpanKind::Append);
    let reads = seam_total(SpanKind::Read);
    let syncs = seam_total(SpanKind::Sync);
    let controller = world.platform.controller();
    report.metric("storage.append_us", "us", appends.mean_us());
    report.metric("storage.read_us", "us", reads.mean_us());
    report.metric("storage.syncs", "count", syncs.n as f64);
    let audit_appends = seams
        .get(&SpanKind::Append(Component::Audit))
        .copied()
        .unwrap_or_default();
    report.metric(
        "storage.audit.appends_per_op",
        "count",
        audit_appends.n as f64 / n as f64,
    );
    report.metric(
        "storage.audit.bytes_per_op",
        "bytes",
        audit_appends.bytes as f64 / n as f64,
    );
    report.metric(
        "storage.index.bytes_per_publish",
        "bytes",
        seam_of(SpanKind::Append(Component::Index), Kind::Notify).bytes as f64
            / count_of(Kind::Notify),
    );
    report.metric(
        "storage.index.reads_per_inquiry",
        "count",
        seam_of(SpanKind::Read(Component::Index), Kind::Inquiry).n as f64 / count_of(Kind::Inquiry),
    );
    report.metric(
        "storage.gateway.bytes_per_publish",
        "bytes",
        seam_of(SpanKind::Append(Component::Gateway), Kind::Notify).bytes as f64
            / count_of(Kind::Notify),
    );
    report.metric(
        "storage.gateway.reads_per_detail",
        "count",
        seam_of(SpanKind::Read(Component::Gateway), Kind::Permit).n as f64 / count_of(Kind::Permit),
    );
    report.metric(
        "storage.write_amp",
        "ratio",
        appends.bytes as f64 / payload_bytes.max(1) as f64,
    );
    report.metric(
        "storage.busy_pct",
        "%",
        (appends.ns + reads.ns + syncs.ns) as f64 / 1e9 / traced_s * 100.0,
    );
    report.metric(
        "storage.disk_bytes_per_event",
        "bytes",
        backends.total_bytes() as f64 / controller.index_len().max(1) as f64,
    );

    // Recovery: image every backend to disk, then time reopening it.
    let image = scratch.path("image");
    backends.image_to(&image)?;
    let (closed_audit, closed_index) = (controller.audit_len(), controller.index_len());
    let start = Instant::now();
    let reopened = CssPlatform::builder()
        .provider(DirProvider::new(&image)?)
        .shards(SHARDS)
        .build()?;
    reopened.reload_policies()?;
    let verified = reopened.verify_audit();
    report.metric("storage.recover_s", "s", start.elapsed().as_secs_f64());
    report.check(verified.is_ok(), || {
        format!("verify_audit on the reopened image: {verified:?}")
    });
    let lens = (
        reopened.controller().audit_len(),
        reopened.controller().index_len(),
    );
    report.check(lens == (closed_audit, closed_index), || {
        format!(
            "image reopened with {lens:?}, closed with {:?}",
            (closed_audit, closed_index)
        )
    });
    drop(reopened);

    // ---- probes ----
    let shape = Shape {
        fanout: (notified as f64 / publishes.max(1) as f64).round() as usize,
        events_per_inquiry: (inquiry_events as f64 / inquiries.max(1) as f64).round() as usize,
    };
    let probed = probes::run(&world, &storage("probes")?, &shape)?;
    let probe = |name: &str| {
        probed
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| CssError::Invalid(format!("no probe {name}")))
    };
    let hits = after.counter("pdp.cache_hit") - before.counter("pdp.cache_hit");
    let misses = after.counter("pdp.cache_miss") - before.counter("pdp.cache_miss");
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let shard_lens = controller.index_shard_lens();
    let shard_mean = shard_lens.iter().sum::<usize>() as f64 / shard_lens.len() as f64;
    let imbalance =
        (*shard_lens.iter().max().expect("SHARDS ≥ 1") as f64 / shard_mean.max(1.0) - 1.0) * 100.0;

    for layer in ["gateway.", "controller."] {
        for (name, value) in probed.iter().filter(|(n, _)| n.starts_with(layer)) {
            report.metric(name, "us", *value);
        }
    }
    report.metric("controller.shard_imbalance_pct", "%", imbalance);
    for (name, value) in probed.iter().filter(|(n, _)| n.starts_with("policy.")) {
        report.metric(name, "us", *value);
    }
    report.metric("policy.cache_hit_ratio", "ratio", hit_ratio);
    for layer in ["registry.", "audit."] {
        for (name, value) in probed.iter().filter(|(n, _)| n.starts_with(layer)) {
            report.metric(name, "us", *value);
        }
    }
    report.metric(
        "audit.records_per_op",
        "count",
        audit_records as f64 / n as f64,
    );
    for (name, value) in probed.iter().filter(|(n, _)| n.starts_with("bus.")) {
        report.metric(name, "us", *value);
    }
    report.metric(
        "bus.fanout_mean",
        "count",
        notified as f64 / publishes.max(1) as f64,
    );
    for layer in ["crypto.", "event.", "telemetry.", "trace."] {
        for (name, value) in probed.iter().filter(|(n, _)| n.starts_with(layer)) {
            report.metric(name, "us", *value);
        }
    }
    let traced_us = traced_s * 1e6 / n as f64;
    report.metric(
        "trace.overhead_pct",
        "%",
        (traced_us - untraced_us) / untraced_us * 100.0,
    );

    // ---- budget: the calls each operation makes, by probe ----
    let fanout = notified as f64 / publishes.max(1) as f64;
    let per_inquiry = inquiry_events as f64 / inquiries.max(1) as f64;
    const EVALUATE: &str = "policy.evaluate (hit/miss weighted)";
    let cost = |name: &str| -> CssResult<f64> {
        if name == EVALUATE {
            Ok(hit_ratio * probe("policy.evaluate_hit_us")?
                + (1.0 - hit_ratio) * probe("policy.evaluate_miss_us")?)
        } else {
            probe(name)
        }
    };
    let budgets = [
        Budget {
            attributed: "budget.publish.attributed_us",
            unattributed: "budget.publish.unattributed_pct",
            span: "publish",
            calls: vec![
                ("gateway.persist_us", 1.0),
                ("registry.schema_lookup_us", 1.0),
                ("controller.consent_allows_us", 1.0),
                ("bus.publish_us", 1.0),
                ("controller.index_insert_us", 1.0),
                ("audit.append_batch_us", 1.0),
                ("telemetry.stage_timer_us", 1.0),
                ("telemetry.counter_lookup_us", 1.0),
                ("trace.disabled_span_us", 1.0),
            ],
        },
        Budget {
            attributed: "budget.detail.attributed_us",
            unattributed: "budget.detail.unattributed_pct",
            span: "detail_permit",
            calls: vec![
                ("registry.ancestors_us", 2.0),
                ("controller.index_resolve_us", 2.0),
                ("controller.index_decrypt_us", 1.0),
                ("controller.consent_allows_us", 1.0),
                (EVALUATE, 1.0),
                ("gateway.get_response_us", 1.0),
                ("audit.append_us", 1.0),
                ("telemetry.stage_timer_us", 1.0),
                ("telemetry.counter_lookup_us", 4.0),
                ("trace.disabled_span_us", 1.0),
            ],
        },
        Budget {
            attributed: "budget.inquiry.attributed_us",
            unattributed: "budget.inquiry.unattributed_pct",
            span: "inquiry",
            calls: vec![
                ("registry.ancestors_us", 1.0),
                ("crypto.person_tag_us", 1.0),
                ("controller.index_filter_us_per_event", per_inquiry),
                ("audit.append_us", 1.0),
                ("trace.disabled_span_us", 1.0),
            ],
        },
    ];
    report.note(format!(
        "budget table ({n} replayed ops, fan-out {fanout:.2}, {per_inquiry:.1} events per inquiry, cache hit ratio {hit_ratio:.3}):"
    ));
    for budget in budgets {
        let total = op(budget.span).mean_us();
        let mut attributed = 0.0;
        for (name, times) in &budget.calls {
            let us = cost(name)? * times;
            attributed += us;
            report.note(format!(
                "  {:<14} {name:<40} x{times:<6.1} {us:>9.3} us",
                budget.span
            ));
        }
        report.note(format!(
            "  {:<14} total {total:.3} us, attributed {attributed:.3} us, unattributed {:.3} us",
            budget.span,
            total - attributed
        ));
        report.metric(budget.attributed, "us", attributed);
        report.metric(
            budget.unattributed,
            "%",
            (total - attributed) / total.max(f64::MIN_POSITIVE) * 100.0,
        );
    }

    // ---- open loop: tails and generator health (not gated: a few
    // scheduler pauses per second decide a p99 on a shared box) ----
    for (name, kind) in [
        ("open.notify_p99_us", Kind::Notify),
        ("open.detail_p99_us", Kind::Permit),
        ("open.inquiry_p99_us", Kind::Inquiry),
    ] {
        let p99 = window_quantile(&open.latency[kind.index()], 0.99, TAIL_SEGMENTS)
            .ok_or_else(|| CssError::Invalid(format!("no {kind:?} samples for {name}")))?;
        report.metric(name, "us", p99.value / 1e3);
    }
    let mut lag = open.lag.clone();
    report.metric(
        "gen.lag_p99_us",
        "us",
        percentile(&mut lag, 0.99).expect("open loop ran") as f64 / 1e3,
    );
    report.metric(
        "gen.lag_max_us",
        "us",
        *lag.last().expect("open loop ran") as f64 / 1e3,
    );
    report.metric("gen.stalled_windows", "count", open.stalled as f64);

    let trace_file =
        std::path::Path::new("target/macrobench").join(format!("{}.trace.json", wl.name));
    write_chrome_trace(&trace_file, &spans)?;
    report.note(format!(
        "{} spans written to {} (Chrome trace_event JSON; open in Perfetto)",
        spans.len(),
        trace_file.display()
    ));
    Ok(report)
}
