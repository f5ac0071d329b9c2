//! Push-style delivery on top of the pull-based broker.
//!
//! The ESB in the deployed system notifies subscribers "automatically";
//! [`spawn_dispatcher`] reproduces that: a worker thread drains a
//! subscription and invokes the handler per message, acking on success
//! and nacking on handler panic-free failure (so the redelivery /
//! dead-letter machinery applies to processing errors too).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use css_types::CssResult;

use crate::broker::SubscriptionConfig;
use crate::driver::Bus;
use crate::subscription::SubscriberHandle;

/// Control handle for a running dispatcher thread.
pub struct DispatcherHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<u64>>,
}

impl DispatcherHandle {
    /// Signal the dispatcher to stop and wait for it; returns the number
    /// of messages it processed.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        let Some(join) = self.join.take() else {
            return 0; // stop() consumes self, so the handle is present
        };
        // css-lint: allow(no-panic-hot-path): a handler panic is a bug; surfacing it at join keeps it loud
        join.join().expect("dispatcher thread panicked")
    }
}

impl Drop for DispatcherHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Spawn a worker that calls `handler` for every delivery on `handle`.
///
/// A handler returning `Ok(())` acks the message; `Err(())` nacks it,
/// triggering redelivery up to the subscription's `max_attempts` and
/// then the dead-letter queue.
pub fn spawn_dispatcher<M, F>(handle: SubscriberHandle<M>, mut handler: F) -> DispatcherHandle
where
    M: Clone + Send + 'static,
    F: FnMut(M) -> Result<(), ()> + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let join = std::thread::spawn(move || {
        let mut processed = 0u64;
        while !stop_flag.load(Ordering::SeqCst) {
            match handle.poll_wait(Duration::from_millis(20)) {
                Ok(Some(delivery)) => {
                    processed += 1;
                    let outcome = handler(delivery.message);
                    let ack_result = match outcome {
                        Ok(()) => handle.ack(delivery.delivery_id),
                        Err(()) => handle.nack(delivery.delivery_id),
                    };
                    if ack_result.is_err() {
                        break; // subscription removed under us
                    }
                }
                Ok(None) => {}
                Err(_) => break, // subscription removed
            }
        }
        processed
    });
    DispatcherHandle {
        stop,
        join: Some(join),
    }
}

/// Spawn `workers` competing dispatchers over one delivery group.
///
/// Each worker joins `group` on `topic` and runs its own dispatcher
/// thread; the bus load-balances messages across them, and a worker's
/// `Err(())` sends the message to *another* worker (bounded by the
/// group's `max_attempts`). The handler receives `(worker_index,
/// message)`.
pub fn spawn_worker_pool<M, F>(
    bus: &Bus<M>,
    topic: &str,
    group: &str,
    config: SubscriptionConfig,
    workers: usize,
    handler: F,
) -> CssResult<Vec<DispatcherHandle>>
where
    M: Clone + Send + 'static,
    F: Fn(usize, M) -> Result<(), ()> + Send + Sync + Clone + 'static,
{
    let mut handles = Vec::with_capacity(workers);
    for worker in 0..workers {
        let sub = bus.subscribe_group(topic, group, config)?;
        let handler = handler.clone();
        handles.push(spawn_dispatcher(sub, move |m| handler(worker, m)));
    }
    Ok(handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Bus;
    use std::sync::Mutex;

    #[test]
    fn dispatcher_processes_and_acks() {
        let broker: Bus<u32> = Bus::in_memory();
        broker.create_topic("t");
        let sub = broker
            .subscribe("t", SubscriptionConfig::default())
            .unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let stats_handle = sub.clone();
        let dispatcher = spawn_dispatcher(sub, move |m| {
            sink.lock().unwrap().push(m);
            Ok(())
        });
        for i in 0..50 {
            broker.publish("t", i, None).unwrap();
        }
        // Wait for drain.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.lock().unwrap().len() < 50 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let processed = dispatcher.stop();
        assert_eq!(processed, 50);
        assert_eq!(seen.lock().unwrap().len(), 50);
        assert_eq!(stats_handle.stats().unwrap().acked, 50);
    }

    #[test]
    fn failing_handler_dead_letters() {
        let broker: Bus<&'static str> = Bus::in_memory();
        broker.create_topic("t");
        let cfg = SubscriptionConfig {
            max_attempts: 2,
            ..Default::default()
        };
        let sub = broker.subscribe("t", cfg).unwrap();
        let dispatcher = spawn_dispatcher(sub, |_m| Err(()));
        broker.publish("t", "poison", None).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while broker.dead_letters().is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        dispatcher.stop();
        let dlq = broker.dead_letters();
        assert_eq!(dlq.len(), 1);
        assert_eq!(dlq[0].attempts, 2);
    }

    #[test]
    fn drop_stops_the_worker() {
        let broker: Bus<u32> = Bus::in_memory();
        broker.create_topic("t");
        let sub = broker
            .subscribe("t", SubscriptionConfig::default())
            .unwrap();
        {
            let _dispatcher = spawn_dispatcher(sub, |_m| Ok(()));
        } // dropped here; must not hang
        broker.publish("t", 1, None).unwrap();
    }

    #[test]
    fn worker_pool_splits_the_load() {
        let bus: Bus<u64> = Bus::in_memory();
        bus.create_topic("jobs");
        let count = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let sink = count.clone();
        let pool = spawn_worker_pool(&bus, "jobs", "workers", SubscriptionConfig::default(), 3, {
            move |_worker, _m| {
                sink.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        })
        .unwrap();
        for i in 0..90u64 {
            bus.publish("jobs", i, None).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < 90 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let total: u64 = pool.into_iter().map(|d| d.stop()).sum();
        // Competing consumers: 90 messages processed once each, not 270.
        assert_eq!(total, 90);
        assert_eq!(bus.stats().fanned_out, 90);
    }

    #[test]
    fn two_dispatchers_on_two_subscriptions() {
        let broker: Bus<u32> = Bus::in_memory();
        broker.create_topic("t");
        let a = broker
            .subscribe("t", SubscriptionConfig::default())
            .unwrap();
        let b = broker
            .subscribe("t", SubscriptionConfig::default())
            .unwrap();
        let count = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (ca, cb) = (count.clone(), count.clone());
        let da = spawn_dispatcher(a, move |_| {
            ca.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let db = spawn_dispatcher(b, move |_| {
            cb.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        for i in 0..20 {
            broker.publish("t", i, None).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < 40 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(da.stop() + db.stop(), 40);
    }
}
