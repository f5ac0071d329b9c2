//! Drives one world: the lanes' models, set-up traffic, warm-up, the
//! open-loop segment and the closed-loop bursts every run is made of.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use css_core::BackendProvider;
use css_types::{CssError, CssResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::exec::{Done, Executor};
use crate::model::{Model, Op, Timeline};
use crate::reference::{median_ns, to_reference, Reference};
use crate::report::Report;
use crate::trace::Recorder;
use crate::workload::{Kind, Workload, CLIENTS, WARMUP_OPS};
use crate::world::World;

/// Set-up traffic never depends on `--seed`: the world is fixed.
const PRELOAD_SEED: u64 = 0xC55_5EED;
/// An open-loop segment whose worst start delay exceeds this was
/// descheduled.
const STALL_NS: u64 = 50_000_000;
/// Set-up publishes per execution of the reference kernel.
const PRELOAD_PER_KERNEL: usize = 32;
/// Closed-loop operations per execution of the reference kernel.
const CLOSED_PER_KERNEL: usize = 8;

/// The lanes' models over one world, the shared timeline, and whose
/// turn it is when one thread drives every lane.
pub struct Harness<'w, P: BackendProvider> {
    pub world: &'w World<P>,
    pub lanes: Vec<Model>,
    timeline: Timeline,
    turn: usize,
}

impl<'w, P: BackendProvider> Harness<'w, P> {
    fn new(workload: &Workload, world: &'w World<P>) -> Self {
        Harness {
            world,
            lanes: (0..CLIENTS)
                .map(|lane| Model::new(workload, world, lane, CLIENTS))
                .collect(),
            timeline: Vec::new(),
            turn: 0,
        }
    }

    /// The lane whose turn it is; the next call names the next lane.
    fn take_turn(&mut self) -> usize {
        self.turn += 1;
        (self.turn - 1) % self.lanes.len()
    }

    /// Advance platform time and generate the next operation of the
    /// mix, for the lane whose turn it is.
    pub fn next(&mut self, rng: &mut StdRng) -> (usize, Op) {
        let lane = self.take_turn();
        let now = self.world.tick();
        (lane, self.lanes[lane].next(rng, now, Some(&self.timeline)))
    }

    /// An operation of one kind, outside the mix.
    pub fn generate(&mut self, kind: Kind, rng: &mut StdRng) -> (usize, Op) {
        let lane = self.take_turn();
        let now = self.world.tick();
        let op = self.lanes[lane].generate(kind, rng, now, Some(&self.timeline));
        (lane, op)
    }

    /// Execute an operation generated for `lane` on the calling thread.
    pub fn run(&mut self, lane: usize, op: Op, recorder: Option<&Recorder>, id: u32) -> Done {
        let exec = Executor {
            world: self.world,
            recorder,
            shared_subscriptions: false,
        };
        let done = exec.run(&mut self.lanes[lane], op, id);
        self.timeline.extend(done.published);
        done
    }

    /// Generate and execute one operation of the mix.
    pub fn step(&mut self, rng: &mut StdRng, report: &mut Report) {
        let (lane, op) = self.next(rng);
        report.count(&self.run(lane, op, None, 0));
    }

    /// `n` operations of the mix back to back on the calling thread,
    /// the reference kernel after every [`CLOSED_PER_KERNEL`]th.
    /// Returns the operations' rate as measured, the kernel's time
    /// taken out, and the kernel's median time.
    pub fn closed(
        &mut self,
        n: usize,
        rng: &mut StdRng,
        reference: &mut Reference,
        report: &mut Report,
    ) -> (f64, f64) {
        let mut kernel_ns = Vec::with_capacity(n / CLOSED_PER_KERNEL + 1);
        let start = Instant::now();
        for i in 0..n {
            self.step(rng, report);
            if i % CLOSED_PER_KERNEL == 0 {
                kernel_ns.push(reference.run());
            }
        }
        let ops_s = start.elapsed().as_secs_f64() - kernel_ns.iter().sum::<u64>() as f64 / 1e9;
        (n as f64 / ops_s, median_ns(&mut kernel_ns))
    }

    /// Audit records and indexed events every operation so far must
    /// have written, on top of what building the world wrote.
    pub fn expected(&self) -> (u64, u64) {
        let audit: u64 = self.lanes.iter().map(|m| m.audit_expected).sum();
        let index: u64 = self.lanes.iter().map(|m| m.index_expected).sum();
        (self.world.audit_base as u64 + audit, index)
    }
}

impl<P: BackendProvider> Harness<'_, P>
where
    World<P>: Sync,
{
    /// `per_thread` operations back to back on one thread per lane, all
    /// started together; returns the sum of the threads' rates.
    pub fn burst(&mut self, per_thread: usize, seed: u64, report: &mut Report) -> f64 {
        let world = self.world;
        let barrier = Barrier::new(self.lanes.len());
        let outcomes: Vec<(f64, Timeline, Report)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .enumerate()
                .map(|(lane, model)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let exec = Executor {
                            world,
                            recorder: None,
                            shared_subscriptions: true,
                        };
                        let mut rng = StdRng::seed_from_u64(seed ^ (0xB0_0B5 + lane as u64));
                        let mut lane_report = Report::default();
                        let mut published = Vec::new();
                        barrier.wait();
                        let start = Instant::now();
                        for _ in 0..per_thread {
                            let now = world.tick();
                            let op = model.next(&mut rng, now, None);
                            let done = exec.run(model, op, 0);
                            published.extend(done.published);
                            lane_report.count(&done);
                        }
                        let rate = per_thread as f64 / start.elapsed().as_secs_f64();
                        (rate, published, lane_report)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        // Both threads ticked the one clock: merge their events back
        // into `occurred_at` order behind everything older.
        let sorted = self.timeline.len();
        let mut rate = 0.0;
        for (thread_rate, published, lane_report) in outcomes {
            rate += thread_rate;
            self.timeline.extend(published);
            report.merge(&lane_report);
        }
        self.timeline[sorted..].sort_by_key(|(at, _)| *at);
        rate
    }
}

/// Preload a freshly built world: one event per citizen first, then
/// two-tier traffic, every subscription drained as it goes. Also
/// returns the reference kernel's median time while this ran.
pub fn preload<'w, P: BackendProvider>(
    workload: &Workload,
    world: &'w World<P>,
    seconds: u64,
    reference: &mut Reference,
) -> CssResult<(Harness<'w, P>, f64)> {
    let mut harness = Harness::new(workload, world);
    let mut rng = StdRng::seed_from_u64(PRELOAD_SEED);
    let mut kernel_ns = vec![reference.run()];
    for i in 0..workload.preload_for(seconds) {
        let lane = i % CLIENTS;
        let now = world.tick();
        let op = harness.lanes[lane].preload(i / CLIENTS, &mut rng, now);
        if let Some(why) = harness.run(lane, op, None, 0).failure {
            return Err(CssError::Invalid(format!("set-up publish {i}: {why}")));
        }
        if i % PRELOAD_PER_KERNEL == 0 {
            kernel_ns.push(reference.run());
        }
    }
    Ok((harness, median_ns(&mut kernel_ns)))
}

/// Discarded operations that fill caches and grow the allocator's
/// arenas before anything is timed.
pub fn warm_up<P: BackendProvider>(harness: &mut Harness<'_, P>, seed: u64, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57A2_4D00);
    for _ in 0..WARMUP_OPS {
        harness.step(&mut rng, report);
    }
}

/// Latencies of the open-loop segments, nanoseconds, per kind in
/// arrival order, plus how late each operation started.
#[derive(Default)]
pub struct OpenLoop {
    /// Due time to completion, at reference speed.
    pub latency: [Vec<u64>; Kind::ALL.len()],
    /// Start-to-end time of the same operations as measured (no
    /// queueing, not scaled).
    pub service: [Vec<u64>; Kind::ALL.len()],
    pub lag: Vec<u64>,
    /// The reference kernel's median time in each segment.
    pub kernel_ns: Vec<f64>,
    /// Segments in which some operation started more than
    /// [`STALL_NS`] late.
    pub stalled: usize,
}

/// One thread executes `n` operations on a seeded Poisson schedule at
/// the workload's fixed rate, spin-waiting between arrivals. Each
/// operation is timed from its due time, so a stall charges every
/// operation queued behind it. The reference kernel runs once after
/// every operation, in the idle time before the next arrival, and its
/// median over the segment scales the segment's latencies.
#[allow(clippy::too_many_arguments)]
pub fn open_segment<P: BackendProvider>(
    harness: &mut Harness<'_, P>,
    n: usize,
    rate: f64,
    ops: &mut StdRng,
    arrivals: &mut StdRng,
    reference: &mut Reference,
    out: &mut OpenLoop,
    report: &mut Report,
) {
    let start = Instant::now();
    let mut due_s = 0.0f64;
    let mut worst_lag = 0;
    let mut measured = Vec::with_capacity(n);
    let mut kernel_ns = Vec::with_capacity(n);
    for _ in 0..n {
        due_s += -(1.0 - arrivals.gen::<f64>()).ln() / rate;
        let due = start + Duration::from_secs_f64(due_s);
        // Generate before the due time so generation is never charged.
        let (lane, op) = harness.next(ops);
        let kind = op.kind();
        let mut started = Instant::now();
        while started < due {
            std::hint::spin_loop();
            started = Instant::now();
        }
        let done = harness.run(lane, op, None, 0);
        let lag = (started - due).as_nanos() as u64;
        worst_lag = worst_lag.max(lag);
        out.lag.push(lag);
        measured.push((kind, (done.end - due).as_nanos() as u64));
        out.service[kind.index()].push((done.end - started).as_nanos() as u64);
        report.count(&done);
        kernel_ns.push(reference.run());
    }
    let kernel_ns = median_ns(&mut kernel_ns);
    let scale = to_reference(kernel_ns);
    for (kind, ns) in measured {
        out.latency[kind.index()].push((ns as f64 * scale) as u64);
    }
    out.kernel_ns.push(kernel_ns);
    out.stalled += usize::from(worst_lag > STALL_NS);
}
