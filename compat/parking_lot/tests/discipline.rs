//! The lock discipline of debug builds: what panics, naming both sites,
//! and what must not.
#![cfg(debug_assertions)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

#[test]
#[should_panic(expected = "lock order: `shard` (rank 50) taken at")]
fn a_descending_pair_of_same_rank_locks_panics() {
    let shards = [Mutex::ranked("shard", 50, 0), Mutex::ranked("shard", 50, 1)];
    let _high = shards[1].lock();
    let _low = shards[0].lock();
}

#[test]
#[should_panic(expected = "lock order: `shard` (rank 50) taken at")]
fn an_ascending_pair_of_same_rank_locks_panics_too() {
    let shards = [Mutex::ranked("shard", 50, 0), Mutex::ranked("shard", 50, 1)];
    let _low = shards[0].lock();
    let _high = shards[1].lock();
}

#[test]
#[should_panic(expected = "taken again at")]
fn one_shard_taken_twice_panics_instead_of_deadlocking() {
    let shards = [Mutex::ranked("shard", 50, 0), Mutex::ranked("shard", 50, 1)];
    let _first = shards[1].lock();
    let _again = shards[1].lock();
}

#[test]
#[should_panic(expected = "taken again at")]
fn one_lock_read_twice_panics() {
    let pdp = RwLock::ranked("pdp", 20, ());
    let _first = pdp.read();
    let _second = pdp.read();
}

#[test]
#[should_panic(expected = "taken again at")]
fn one_lock_read_then_written_panics() {
    let pdp = RwLock::ranked("pdp", 20, ());
    let _read = pdp.read();
    let _write = pdp.write();
}

#[test]
#[should_panic(expected = "while `leaf` (rank 4294967295) is held")]
fn any_acquisition_under_a_leaf_panics() {
    let leaf = Mutex::new(());
    let routes = RwLock::ranked("routes", 10, ());
    let _leaf = leaf.lock();
    let _routes = routes.read();
}

#[test]
#[should_panic(expected = "while `leaf` (rank 4294967295) is held")]
fn a_leaf_under_a_leaf_panics() {
    let (a, b) = (Mutex::new(()), RwLock::new(()));
    let _a = a.lock();
    let _b = b.write();
}

#[test]
fn ascending_ranks_nest_and_guards_drop_in_any_order() {
    let routes = RwLock::ranked("routes", 10, ());
    let pdp = RwLock::ranked("pdp", 20, ());
    let shard = Mutex::ranked("shard", 50, ());
    let leaf = Mutex::new(());
    let r = routes.read();
    let p = pdp.read();
    let s = shard.lock();
    let l = leaf.lock();
    drop(p);
    drop(r);
    drop(l);
    drop(s);
    // Nothing is held any more: the order starts afresh.
    let _s = shard.lock();
    drop(_s);
    let _r = routes.write();
    let _p = pdp.write();
}

#[test]
fn a_condvar_waiter_does_not_hold_its_lock() {
    let state = Arc::new((Mutex::ranked("bus state", 80, false), Condvar::new()));
    let waker = {
        let state = state.clone();
        std::thread::spawn(move || {
            // Taken while the other thread waits on it.
            *state.0.lock() = true;
            state.1.notify_all();
        })
    };
    let mut ready = state.0.lock();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !*ready && !state.1.wait_until(&mut ready, deadline).timed_out() {}
    assert!(*ready);
    // The guard is back on the stack: a higher rank nests under it.
    let above = Mutex::new(());
    drop(above.lock());
    drop(ready);
    waker.join().unwrap();
    // And off it again once dropped: a lower rank is free to take.
    let below = RwLock::ranked("routes", 10, ());
    let _below = below.read();
    let _again = state.0.lock();
}

#[test]
fn a_failed_try_lock_holds_nothing() {
    let leaf = Arc::new(Mutex::new(()));
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let holder = {
        let leaf = leaf.clone();
        std::thread::spawn(move || {
            let _leaf = leaf.lock();
            held_tx.send(()).unwrap();
            done_rx.recv().unwrap();
        })
    };
    held_rx.recv().unwrap();
    // The other thread holds the leaf: the attempt fails ...
    assert!(leaf.try_lock().is_none());
    // ... and this thread holds no leaf, so a ranked lock is free to take.
    let routes = RwLock::ranked("routes", 10, ());
    drop(routes.read());
    done_tx.send(()).unwrap();
    holder.join().unwrap();
    // Once free, a successful attempt holds the leaf like `lock` does.
    let _leaf = leaf.try_lock().unwrap();
}
