//! The background sampler: one thread that ticks the plane.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

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

    /// Samples taken so far.
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
}
