//! Offline stand-in for the `parking_lot` crate.
//!
//! The build container has no access to crates.io, so this workspace
//! vendors the small API subset the CSS crates actually use — a
//! non-poisoning [`Mutex`], [`RwLock`], and a [`Condvar`] with
//! deadline waits — implemented over `std::sync`. Semantics match
//! parking_lot for the supported surface: `lock()` never returns a
//! poison error (a poisoned std lock is recovered via `into_inner`).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Instant;

/// A mutual exclusion primitive (non-poisoning, like `parking_lot`).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: p.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a [`Condvar`] wait with a deadline.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended because the deadline passed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable usable with [`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Block until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        replace_guard(guard, |g| {
            self.inner.wait(g).unwrap_or_else(PoisonError::into_inner)
        });
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        let timeout = deadline.saturating_duration_since(now);
        let mut timed_out = false;
        replace_guard(guard, |g| {
            let (g, result) = self
                .inner
                .wait_timeout(g, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            timed_out = result.timed_out();
            g
        });
        WaitTimeoutResult { timed_out }
    }
}

/// Run `f` on the guard inside `slot`, temporarily moving it out.
///
/// `std::sync::Condvar` consumes and returns the guard; parking_lot's
/// API takes `&mut`. Bridging needs a take-and-put-back, which is done
/// with a panic-on-unwind bomb avoided by `f` never panicking in
/// practice (waits don't run user code).
// The workspace denies unsafe_code; this is one of its two audited
// exceptions (the other is css-crypto's call into its SHA-NI body,
// `compress_blocks_hardware` in sha256.rs) —
// the guard move-out/move-in below is sound because `f` cannot panic
// (Condvar waits run no user code) and the Bomb aborts if it somehow does.
#[allow(unsafe_code)]
fn replace_guard<'a, T: ?Sized>(
    slot: &mut MutexGuard<'a, T>,
    f: impl FnOnce(sync::MutexGuard<'a, T>) -> sync::MutexGuard<'a, T>,
) {
    // SAFETY-free version: use Option dance via ptr::read/write would be
    // unsafe; instead wrap the inner guard in an Option-like move using
    // std::mem::replace with a second lock is impossible. We therefore
    // rely on take-by-value through a helper struct.
    struct Bomb;
    impl Drop for Bomb {
        fn drop(&mut self) {
            if std::thread::panicking() {
                // The process state is unrecoverable if the wait itself
                // panicked while the guard was moved out; abort rather
                // than risk UB.
                std::process::abort();
            }
        }
    }
    let bomb = Bomb;
    // Move the guard out, run the wait, and move the result back in.
    unsafe {
        let g = std::ptr::read(&slot.inner);
        let g = f(g);
        std::ptr::write(&mut slot.inner, g);
    }
    std::mem::forget(bomb);
}

/// A reader-writer lock (non-poisoning subset).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<'a, T: ?Sized> Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let c = Condvar::new();
        let mut g = m.lock();
        let r = c.wait_until(&mut g, Instant::now() + Duration::from_millis(20));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_wakes_across_threads() {
        let m = Arc::new(Mutex::new(false));
        let c = Arc::new(Condvar::new());
        let (m2, c2) = (m.clone(), c.clone());
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            *m2.lock() = true;
            c2.notify_all();
        });
        let mut g = m.lock();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !*g {
            let r = c.wait_until(&mut g, deadline);
            if r.timed_out() {
                break;
            }
        }
        assert!(*g);
        t.join().unwrap();
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }
}
