//! The background sampler: periodic snapshot deltas into the SLO engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use css_telemetry::{MetricsRegistry, TelemetrySnapshot};
use css_types::{Clock, Timestamp};

use crate::slo::{SloEngine, SloStatus};

struct SamplerShared {
    stop: Mutex<bool>,
    wake: Condvar,
    ticks: AtomicU64,
}

/// A background thread that snapshots a [`MetricsRegistry`] every
/// `interval` and feeds the delta into a shared [`SloEngine`], stamping
/// each sample with the *platform* clock (so a simulated deployment
/// reports simulated sample times). Stops and joins on drop.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Start sampling. The first snapshot only establishes the delta
    /// baseline; burn rates appear from the second tick on.
    pub fn spawn(
        registry: MetricsRegistry,
        clock: Arc<dyn Clock>,
        engine: Arc<Mutex<SloEngine>>,
        interval: Duration,
    ) -> Sampler {
        Sampler::spawn_observed(
            move || registry.snapshot(),
            clock,
            engine,
            interval,
            |_, _, _| {},
        )
    }

    /// Like [`spawn`](Sampler::spawn), but the snapshot comes from a
    /// closure (so callers can refresh derived gauges first) and an
    /// `observer` sees every sample *after* the SLO engine has ticked,
    /// together with the sample time and the post-tick alert table.
    /// This is the hook the flight recorder rides: one sampling thread,
    /// one snapshot per tick, shared by SLO evaluation and incident
    /// capture. The observer runs outside the engine lock.
    pub fn spawn_observed(
        snapshot_fn: impl Fn() -> TelemetrySnapshot + Send + 'static,
        clock: Arc<dyn Clock>,
        engine: Arc<Mutex<SloEngine>>,
        interval: Duration,
        observer: impl Fn(&TelemetrySnapshot, Timestamp, &[SloStatus]) + Send + 'static,
    ) -> Sampler {
        let shared = Arc::new(SamplerShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            ticks: AtomicU64::new(0),
        });
        let thread_shared = shared.clone();
        let thread = std::thread::Builder::new()
            .name("css-ops-sampler".into())
            .spawn(move || loop {
                {
                    let snapshot = snapshot_fn();
                    let now = clock.now();
                    let table = {
                        let mut engine = engine.lock().unwrap_or_else(PoisonError::into_inner);
                        engine.tick(&snapshot, now);
                        engine.table()
                    };
                    observer(&snapshot, now, &table);
                }
                thread_shared.ticks.fetch_add(1, Ordering::Relaxed);
                let stop = thread_shared
                    .stop
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let (stop, _) = thread_shared
                    .wake
                    .wait_timeout(stop, interval)
                    .unwrap_or_else(PoisonError::into_inner);
                if *stop {
                    return;
                }
            })
            .expect("spawn sampler thread");
        Sampler {
            shared,
            thread: Some(thread),
        }
    }

    /// Samples taken so far (for overhead accounting and tests).
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        *self
            .shared
            .stop
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.shared.wake.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::Slo;
    use css_types::{SimClock, Timestamp};

    #[test]
    fn sampler_ticks_the_engine_and_stops_on_drop() {
        let registry = MetricsRegistry::new();
        let clock = SimClock::starting_at(Timestamp(5_000));
        let mut engine = SloEngine::new();
        engine.register(Slo::latency_p99("lat", "stage.total", 200_000));
        let engine = Arc::new(Mutex::new(engine));

        let sampler = Sampler::spawn(
            registry.clone(),
            Arc::new(clock),
            engine.clone(),
            Duration::from_millis(1),
        );
        // Generate a regression after the baseline tick (anything
        // recorded before it would be part of the baseline and never
        // show as a delta) and wait for the delta tick.
        wait_for_ticks(&sampler, 1);
        for _ in 0..100 {
            registry.histogram("stage.total").record(10_000_000);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let table = engine
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .table();
            if table[0].alert == crate::AlertLevel::Critical {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sampler never saw the regression: {table:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let ticks_before = sampler.ticks();
        assert!(ticks_before >= 2);
        drop(sampler); // must stop and join without hanging
        let after = engine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .ticks();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(
            after,
            engine
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .ticks(),
            "no ticks after drop"
        );
    }

    #[test]
    fn observer_sees_post_tick_alert_table() {
        let registry = MetricsRegistry::new();
        let clock = SimClock::starting_at(Timestamp(5_000));
        let mut engine = SloEngine::new();
        engine.register(Slo::latency_p99("lat", "stage.total", 200_000));
        let engine = Arc::new(Mutex::new(engine));

        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let snap_registry = registry.clone();
        let sampler = Sampler::spawn_observed(
            move || snap_registry.snapshot(),
            Arc::new(clock),
            engine,
            Duration::from_millis(1),
            move |snapshot, at, table| {
                let mut sink = sink.lock().unwrap_or_else(PoisonError::into_inner);
                sink.push((
                    snapshot.histogram("stage.total").map(|h| h.count),
                    at,
                    table[0].alert,
                ));
            },
        );
        // After the baseline tick, so the regression shows as a delta.
        wait_for_ticks(&sampler, 1);
        for _ in 0..100 {
            registry.histogram("stage.total").record(10_000_000);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            {
                let seen = seen.lock().unwrap_or_else(PoisonError::into_inner);
                if seen
                    .iter()
                    .any(|(_, _, alert)| *alert == crate::AlertLevel::Critical)
                {
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "observer never saw the Critical alert"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(sampler);
        let seen = seen.lock().unwrap_or_else(PoisonError::into_inner);
        let (count, at, _) = seen.last().unwrap();
        assert_eq!(count.unwrap(), 100, "observer got the same snapshot");
        assert!(at.0 >= 5_000, "observer got the platform clock");
    }

    /// A deliberately broken platform clock that runs *backwards* one
    /// millisecond per read — the pathological case for any delta/rate
    /// math keyed on sample timestamps.
    struct ReversingClock(AtomicU64);

    impl Clock for ReversingClock {
        fn now(&self) -> Timestamp {
            Timestamp(self.0.fetch_sub(1, Ordering::Relaxed))
        }
    }

    fn wait_for_ticks(sampler: &Sampler, n: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sampler.ticks() < n {
            assert!(std::time::Instant::now() < deadline, "sampler stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn stalled_clock_produces_zero_width_ticks_without_panic() {
        let registry = MetricsRegistry::new();
        // Never advanced: every tick carries the identical timestamp.
        let clock = SimClock::starting_at(Timestamp(9_000));
        let mut engine = SloEngine::new();
        engine.register(Slo::latency_p99("lat", "stage.total", 200_000));
        let engine = Arc::new(Mutex::new(engine));
        let sampler = Sampler::spawn(
            registry.clone(),
            Arc::new(clock),
            engine.clone(),
            Duration::from_millis(1),
        );
        for _ in 0..100 {
            registry.histogram("stage.total").record(10_000_000);
        }
        wait_for_ticks(&sampler, 5);
        drop(sampler); // joins: the thread must still be alive to join
        let json = engine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .to_json();
        // Burn math is count-based, so zero elapsed time must not leak
        // NaN/inf into the report (JsonBuf renders those as null).
        assert!(!json.contains("null"), "{json}");
        assert!(json.contains("\"last_sample_at_ms\":9000"), "{json}");
    }

    #[test]
    fn non_monotonic_clock_keeps_sampler_and_observer_alive() {
        let registry = MetricsRegistry::new();
        let mut engine = SloEngine::new();
        engine.register(Slo::latency_p99("lat", "stage.total", 200_000));
        let engine = Arc::new(Mutex::new(engine));
        let observed = Arc::new(AtomicU64::new(0));
        let sink = observed.clone();
        let snap_registry = registry.clone();
        let sampler = Sampler::spawn_observed(
            move || snap_registry.snapshot(),
            Arc::new(ReversingClock(AtomicU64::new(1_000_000))),
            engine.clone(),
            Duration::from_millis(1),
            move |_, at, _| {
                assert!(at.0 > 0, "clock reached zero mid-test");
                sink.fetch_add(1, Ordering::Relaxed);
            },
        );
        registry.histogram("stage.total").record(10_000_000);
        wait_for_ticks(&sampler, 5);
        drop(sampler);
        // Every tick reached the observer despite time flowing backwards
        // — rate math downstream guards zero-width windows itself.
        assert!(observed.load(Ordering::Relaxed) >= 5);
        let json = engine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .to_json();
        assert!(!json.contains("null"), "{json}");
    }

    #[test]
    fn samples_carry_the_platform_clock() {
        let registry = MetricsRegistry::new();
        let clock = SimClock::starting_at(Timestamp(777_000));
        let mut engine = SloEngine::new();
        engine.register(Slo::latency_p99("lat", "stage.total", 200_000));
        let engine = Arc::new(Mutex::new(engine));
        let sampler = Sampler::spawn(
            registry,
            Arc::new(clock),
            engine.clone(),
            Duration::from_millis(1),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sampler.ticks() == 0 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(sampler);
        let json = engine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .to_json();
        assert!(json.contains("\"last_sample_at_ms\":777000"), "{json}");
    }
}
