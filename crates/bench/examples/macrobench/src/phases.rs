//! The untraced run: set-up, warm-up, rounds of an open-loop segment
//! and two closed-loop bursts, then verification — the source of every
//! end-to-end metric.

use std::hash::Hasher;
use std::time::Instant;

use css_core::{BackendProvider, DirProvider, MemoryProvider};
use css_event::PrivacyAwareEvent;
use css_types::{Clock, CssError, CssResult};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{open_segment, preload, warm_up, Harness, OpenLoop};
use crate::model::Op;
use crate::reference::{to_reference, Reference, REFERENCE_NS};
use crate::report::{Report, Scratch};
use crate::stats::{median, percentile, quiet, window_quantile, Better};
use crate::workload::{Kind, CLIENTS, NOMINAL_SECONDS, ROUNDS};
use crate::world::{self, Mode, World};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// More stalled segments than this invalidate the run: the quiet-
/// window rule needs a tenth of the [`ROUNDS`] windows undisturbed and
/// gets it with room to spare from half of them.
const MAX_STALLED_WINDOWS: usize = ROUNDS / 2;
/// Detail requests replayed after a durable world is reopened.
const RECOVERY_SAMPLES: usize = 100;

/// Process CPU time (user + system) in seconds. `/proc/self/stat`
/// counts it in 10 ms ticks, coarser than a two-thread burst is long,
/// so this asks the C library `std` already links.
fn process_cpu_s() -> CssResult<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err(std::io::Error::last_os_error().into());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

/// Peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> CssResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| CssError::Invalid("no VmHWM in /proc/self/status".into()))
}

/// Where a workload's world lives.
trait Backing {
    type P: BackendProvider;
    /// The provider for set-up number `attempt`.
    fn provider(&self, attempt: usize) -> CssResult<Self::P>;
    /// Forget set-up `attempt` (its world has been dropped).
    fn discard(&self, attempt: usize);
}

struct InMemory;

impl Backing for InMemory {
    type P = MemoryProvider;
    fn provider(&self, _: usize) -> CssResult<MemoryProvider> {
        Ok(MemoryProvider)
    }
    fn discard(&self, _: usize) {}
}

struct OnDisk(Scratch);

impl Backing for OnDisk {
    type P = DirProvider;
    fn provider(&self, attempt: usize) -> CssResult<DirProvider> {
        DirProvider::new(self.0.path(&format!("world-{attempt}")))
    }
    fn discard(&self, attempt: usize) {
        let _ = std::fs::remove_dir_all(self.0.path(&format!("world-{attempt}")));
    }
}

/// The untraced run of `args.workload`.
pub fn run(args: &Args) -> CssResult<Report> {
    if args.workload.durable {
        measure(args, &OnDisk(Scratch::new()?))
    } else {
        measure(args, &InMemory)
    }
}

fn measure<B: Backing>(args: &Args, backing: &B) -> CssResult<Report>
where
    World<B::P>: Sync,
{
    let wl = args.workload;
    let mut report = Report::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < CLIENTS {
        return Err(CssError::Invalid(format!(
            "the closed-loop bursts need {CLIENTS} client threads but only {cores} cores are available"
        )));
    }

    // 1. Set-up, several times; the last world is the one measured.
    let mut reference = Reference::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_raw_s = Vec::with_capacity(SETUPS);
    for attempt in 0..SETUPS - 1 {
        let start = Instant::now();
        let world = world::build(wl, backing.provider(attempt)?, Mode::Fresh, args.seconds)?;
        let (_, kernel_ns) = preload(wl, &world, args.seconds, &mut reference)?;
        let elapsed = start.elapsed().as_secs_f64();
        setup_raw_s.push(elapsed);
        setup_s.push(elapsed * to_reference(kernel_ns));
        drop(world);
        backing.discard(attempt);
    }
    let start = Instant::now();
    let world = world::build(wl, backing.provider(SETUPS - 1)?, Mode::Fresh, args.seconds)?;
    let (mut harness, kernel_ns) = preload(wl, &world, args.seconds, &mut reference)?;
    let elapsed = start.elapsed().as_secs_f64();
    setup_raw_s.push(elapsed);
    setup_s.push(elapsed * to_reference(kernel_ns));
    report.attempted += (SETUPS * wl.preload_for(args.seconds)) as u64;
    warm_up(&mut harness, args.seed, &mut report);

    // 2. Rounds: an open-loop segment (latency), then a closed-loop
    // burst on one thread and one on two (throughput).
    let mut ops = StdRng::seed_from_u64(args.seed);
    let mut arrivals = StdRng::seed_from_u64(args.seed ^ 0xA771_7A15);
    let mut closed = StdRng::seed_from_u64(args.seed ^ 0xC105_ED01);
    let (open_n, closed_n) = (
        wl.open_ops_per_round(args.seconds),
        wl.closed_ops_per_round(args.seconds),
    );
    let mut open = OpenLoop::default();
    let (mut sat1, mut sat2, mut cpu_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut burst_kernel_ns = Vec::new();
    for round in 0..ROUNDS {
        open_segment(
            &mut harness,
            open_n,
            wl.rate,
            &mut ops,
            &mut arrivals,
            &mut reference,
            &mut open,
            &mut report,
        );
        let (ops_s, kernel_ns) = harness.closed(closed_n, &mut closed, &mut reference, &mut report);
        // The two-thread burst follows at once and takes the same
        // scale: a kernel run beside a busy sibling thread would slow
        // with it and hide what the second thread costs.
        let scale = to_reference(kernel_ns);
        sat1.push(ops_s / scale);
        let cpu_before = process_cpu_s()?;
        let ops_s = harness.burst(closed_n / CLIENTS, args.seed ^ round as u64, &mut report);
        let cpu_s = process_cpu_s()? - cpu_before;
        sat2.push(ops_s / scale);
        cpu_us.push(cpu_s * 1e6 / closed_n as f64 * scale);
        burst_kernel_ns.push(kernel_ns);
    }

    // 3. Verification.
    let (audit_expected, index_expected) = harness.expected();
    verify(&world, audit_expected, index_expected, &mut report);
    if wl.durable {
        // The directory outlives the platform: a second provider over it.
        let samples = recovery_samples(args, &mut harness, &mut report);
        drop(harness);
        let provider = backing.provider(SETUPS - 1)?;
        recovery(args, world, samples, provider, &mut report)?;
    }

    // Metrics.
    report.metric("setup_s", "s", median(&setup_s).expect("SETUPS ≥ 1"));
    for (name, kind) in [
        ("notify_p50_us", Kind::Notify),
        ("detail_p50_us", Kind::Permit),
        ("deny_p50_us", Kind::Deny),
        ("inquiry_p50_us", Kind::Inquiry),
    ] {
        let w = window_quantile(&open.latency[kind.index()], 0.5, ROUNDS)
            .ok_or_else(|| CssError::Invalid(format!("no {kind:?} samples for {name}")))?;
        if !w.supported && args.seconds >= NOMINAL_SECONDS {
            return Err(CssError::Invalid(format!(
                "too few {kind:?} samples for {name}: fewer than ten lie beyond the median"
            )));
        }
        report.metric(name, "us", w.value / 1e3);
    }
    let sat1 = quiet(&sat1, Better::Higher).expect("ROUNDS ≥ 1");
    report.metric("sat1_ops_s", "ops/s", sat1);
    report.metric(
        "sat2_ops_s",
        "ops/s",
        quiet(&sat2, Better::Higher).expect("ROUNDS ≥ 1"),
    );
    report.metric(
        "cpu_us_per_op",
        "us",
        quiet(&cpu_us, Better::Lower).expect("ROUNDS ≥ 1"),
    );
    report.metric("rss_mb", "MB", peak_rss_mb()?);

    // Information: tails, generator health, offered load.
    for kind in Kind::ALL {
        let mut samples = open.latency[kind.index()].clone();
        if samples.is_empty() {
            continue;
        }
        let p99 = window_quantile(&samples, 0.99, ROUNDS).expect("non-empty");
        let p999 = percentile(&mut samples, 0.999).expect("non-empty");
        let mut service = open.service[kind.index()].clone();
        let mut us = |q| percentile(&mut service, q).expect("non-empty") as f64 / 1e3;
        report.note(format!(
            "{kind:?}: {} ops, p99 {:.1} us (quiet value of {} windows), p99.9 {:.1} us, max {:.1} us; service p50 {:.1} p99 {:.1} max {:.1} us (not gated)",
            samples.len(),
            p99.value / 1e3,
            p99.windows,
            p999 as f64 / 1e3,
            *samples.last().expect("non-empty") as f64 / 1e3,
            us(0.5),
            us(0.99),
            us(1.0),
        ));
    }
    let mut lag = open.lag.clone();
    let lag_p99 = percentile(&mut lag, 0.99).expect("open loop ran");
    report.note(format!(
        "gen.lag_p99_us {:.1}  gen.lag_max_us {:.1}  gen.stalled_windows {}",
        lag_p99 as f64 / 1e3,
        *lag.last().expect("open loop ran") as f64 / 1e3,
        open.stalled
    ));
    report.note(format!(
        "open loop {} ops at {} ops/s = utilisation {:.2} of sat1; {cores} cores, {CLIENTS} client threads",
        open.lag.len(),
        wl.rate,
        wl.rate / sat1
    ));
    // How far the reference-speed scaling moved this run's numbers.
    let mut kernel_ns: Vec<f64> = open
        .kernel_ns
        .iter()
        .chain(&burst_kernel_ns)
        .copied()
        .collect();
    kernel_ns.sort_by(|a, b| a.partial_cmp(b).expect("times are never NaN"));
    report.note(format!(
        "host speed: the reference kernel took {:.0} / {:.0} / {:.0} ns (fastest / median / slowest window) against the reference {REFERENCE_NS:.0} ns; every time above and below is multiplied by reference ÷ kernel time of its own window; set-up as measured {:.4} s",
        kernel_ns[0],
        kernel_ns[kernel_ns.len() / 2],
        kernel_ns[kernel_ns.len() - 1],
        median(&setup_raw_s).expect("SETUPS ≥ 1"),
    ));
    if open.stalled > MAX_STALLED_WINDOWS {
        report.invalid = Some(format!(
            "{} of {ROUNDS} open-loop segments started an operation more than 50 ms late",
            open.stalled
        ));
    }
    Ok(report)
}

/// Conservation checks after the last round: the audit log and the
/// index grew by exactly what the operations should have written, the
/// audit chain verifies, and every delivery was taken (Σ deliveries =
/// Σ notified leaves every subscription empty).
pub fn verify<P: BackendProvider>(
    world: &World<P>,
    audit_expected: u64,
    index_expected: u64,
    report: &mut Report,
) {
    let controller = world.platform.controller();
    let audit_len = controller.audit_len() as u64;
    report.check(audit_len == audit_expected, || {
        format!("audit_len {audit_len}, expected {audit_expected}")
    });
    let index_len = controller.index_len() as u64;
    report.check(index_len == index_expected, || {
        format!("index_len {index_len}, expected {index_expected}")
    });
    let verified = world.platform.verify_audit();
    report.check(verified.is_ok(), || format!("verify_audit: {verified:?}"));
    let backlog: usize = world
        .subs
        .iter()
        .flatten()
        .map(|(_, sub)| sub.backlog().unwrap_or(usize::MAX))
        .sum();
    report.check(backlog == 0, || {
        format!("{backlog} notifications never delivered")
    });
}

/// A detail request to replay across a reopen, with its first answer.
type Replayed = (Op, Result<PrivacyAwareEvent, String>);

fn ask<P: BackendProvider>(world: &World<P>, op: &Op) -> Result<PrivacyAwareEvent, String> {
    match op {
        Op::Detail {
            who,
            class,
            gid,
            purpose,
            ..
        } => world.requesters[*who as usize]
            .handle
            .request_details_by_id(
                world.classes[*class as usize].ty.clone(),
                *gid,
                purpose.clone(),
            )
            .map_err(|e| e.to_string()),
        _ => Err("not a detail request".into()),
    }
}

/// Durable worlds only: permitted detail requests answered before the
/// platform closes.
fn recovery_samples<P: BackendProvider>(
    args: &Args,
    harness: &mut Harness<'_, P>,
    report: &mut Report,
) -> Vec<Replayed> {
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x2EC0_7E21);
    (0..RECOVERY_SAMPLES)
        .map(|_| {
            let (lane, op) = harness.generate(Kind::Permit, &mut rng);
            let answer = ask(harness.world, &op);
            report.count(&harness.run(lane, op.clone(), None, 0));
            (op, answer)
        })
        .collect()
}

/// Durable worlds only: close the platform, reopen its directory and
/// require the same index and audit lengths, a verifying audit chain
/// and identical answers to the sampled detail requests.
fn recovery<P: BackendProvider>(
    args: &Args,
    world: World<P>,
    samples: Vec<Replayed>,
    provider: P,
    report: &mut Report,
) -> CssResult<()> {
    let now = world.clock.now();
    let controller = world.platform.controller();
    let closed_lens = (controller.audit_len(), controller.index_len());
    drop(controller);
    drop(world);

    let reopened = world::build(args.workload, provider, Mode::Reopen, args.seconds)?;
    reopened.clock.set(now);
    report.check(reopened.opened_lens == closed_lens, || {
        format!(
            "reopened with (audit, index) = {:?}, closed with {closed_lens:?}",
            reopened.opened_lens
        )
    });
    let verified = reopened.platform.verify_audit();
    report.check(verified.is_ok(), || {
        format!("verify_audit after reopen: {verified:?}")
    });
    for (op, before) in &samples {
        let after = ask(&reopened, op);
        report.check(before.is_ok() && *before == after, || {
            format!("answer changed across reopen: {before:?} then {after:?}")
        });
    }
    Ok(())
}

/// `--dry-run`: build the world at the smallest size, generate and run
/// a short stream, and print a digest of world and stream — identical
/// for one seed, different for another.
pub fn dry_run(args: &Args) -> CssResult<Report> {
    let wl = args.workload;
    // The digest covers generated inputs, not where bytes land.
    let world = world::build(wl, MemoryProvider, Mode::Fresh, 1)?;
    let (mut harness, _) = preload(wl, &world, 1, &mut Reference::new())?;
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for _ in 0..wl.trace_ops(1) {
        let (lane, op) = harness.next(&mut rng);
        hasher.write(format!("{op:?}").as_bytes());
        report.count(&harness.run(lane, op, None, 0));
    }
    report.note(format!(
        "world: {} requesters, {} standing policies, {} subscriptions, {} citizens",
        world.requesters.len(),
        world.grants.len(),
        world.subs.iter().map(Vec::len).sum::<usize>(),
        world.persons.len()
    ));
    report.note(format!(
        "digest world {:016x} stream {:016x}",
        world.digest(),
        hasher.finish()
    ));
    report.metric("dry_run_ops", "count", wl.trace_ops(1) as f64);
    Ok(report)
}
