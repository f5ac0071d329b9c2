//! The background sampler: one thread that ticks the plane.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::plane::OpsPlane;

struct SamplerShared {
    stop: Mutex<bool>,
    wake: Condvar,
    ticks: AtomicU64,
}

/// A background thread that calls [`OpsPlane::tick`] every `interval`.
/// The plane stamps each sample with the *platform* clock (so a
/// simulated deployment reports simulated sample times); `interval` is
/// wall time. Stops and joins on drop.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Start sampling. The first tick only establishes the delta
    /// baseline; burn rates appear from the second tick on.
    pub fn spawn(plane: Arc<OpsPlane>, interval: Duration) -> Sampler {
        let shared = Arc::new(SamplerShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            ticks: AtomicU64::new(0),
        });
        let thread_shared = shared.clone();
        let thread = std::thread::Builder::new()
            .name("css-ops-sampler".into())
            .spawn(move || loop {
                plane.tick();
                thread_shared.ticks.fetch_add(1, Ordering::Relaxed);
                // An interval too long to represent has no deadline.
                let deadline = Instant::now().checked_add(interval);
                let mut stop = thread_shared.stop.lock();
                // A wake-up that neither set `stop` nor reached the
                // deadline is spurious: the tick waits out its interval.
                while !*stop {
                    let timed_out = match deadline {
                        Some(at) => thread_shared.wake.wait_until(&mut stop, at).timed_out(),
                        None => {
                            thread_shared.wake.wait(&mut stop);
                            false
                        }
                    };
                    if timed_out {
                        break;
                    }
                }
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

    /// Samples taken so far.
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        *self.shared.stop.lock() = true;
        self.shared.wake.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::tests::rig;

    /// The thread's whole contract: it ticks the plane, on the plane's
    /// clock, and drop stops and joins it. What a tick *does* is tested
    /// on the plane, without a thread.
    #[test]
    fn sampler_ticks_the_plane_and_stops_on_drop() {
        let rig = rig("sampler");
        // An hour between ticks: only the tick every spawn starts with
        // can happen, so the wait below is on a started thread, not on
        // a timer.
        let sampler = Sampler::spawn(rig.plane.clone(), Duration::from_secs(3_600));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sampler.ticks() == 0 {
            assert!(std::time::Instant::now() < deadline, "sampler stalled");
            std::thread::yield_now();
        }
        assert!(
            rig.plane
                .slo_json()
                .starts_with(r#"{"ticks":1,"last_sample_at_ms":60000,"#),
            "the sample carries the platform clock: {}",
            rig.plane.slo_json()
        );
        // Drop interrupts the hour-long wait and joins: were the thread
        // still alive, the plane would have a second owner.
        drop(sampler);
        assert_eq!(Arc::strong_count(&rig.plane), 1);
    }

    /// A wake-up that did not set `stop` is not a tick: the interval
    /// is a floor. (Waiting with one `wait_timeout` ticked at once.)
    #[test]
    fn a_wake_up_without_stop_does_not_tick_early() {
        let rig = rig("sampler-wake");
        let sampler = Sampler::spawn(rig.plane.clone(), Duration::from_secs(3_600));
        let started = Instant::now();
        while sampler.ticks() == 0 {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "sampler stalled"
            );
            std::thread::yield_now();
        }
        // Taking `stop` orders each notify after the thread's own
        // acquisition, so the notifies land on a parked thread, not
        // before it waits.
        let notified = Instant::now();
        while notified.elapsed() < Duration::from_millis(50) {
            drop(sampler.shared.stop.lock());
            sampler.shared.wake.notify_all();
            std::thread::yield_now();
        }
        assert_eq!(sampler.ticks(), 1, "ticked an hour early");
    }
}
