//! Offline stand-in for the `parking_lot` crate.
//!
//! The build container has no access to crates.io, so this workspace
//! vendors the small API subset the CSS crates actually use — a
//! non-poisoning [`Mutex`], [`RwLock`], and a [`Condvar`] with
//! deadline waits — implemented over `std::sync`. Semantics match
//! parking_lot for the supported surface: `lock()` never returns a
//! poison error (a poisoned std lock is recovered via `into_inner`).
//!
//! **Lock discipline.** Every lock has a class and a rank: `new` builds a
//! *leaf* (nothing may be acquired while it is held), `ranked` a lock
//! that may nest. In debug builds each thread keeps the stack of locks it
//! holds, and three things panic, naming both sites: acquiring a lock
//! whose rank is not above every held one; acquiring a lock the thread
//! already holds, for read or for write; and a storage write
//! ([`assert_write_guarded`]) while a lock that does not guard the
//! written value is held — unless that lock is a *journal* lock
//! ([`Mutex::journal`]), whose purpose is to order the writes made under
//! it. Release builds compile all of it out: ranks
//! and held entries are empty types there, and the checks empty
//! functions.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Instant;

/// A mutual exclusion primitive (non-poisoning, like `parking_lot`).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    rank: order::Rank,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    held: order::Held,
}

impl<T> Mutex<T> {
    /// Create a new mutex: a leaf, under which nothing may be acquired.
    pub const fn new(value: T) -> Self {
        Self::ranked("leaf", order::LEAF, value)
    }

    /// Create a mutex of lock class `class` that may be held while locks
    /// of a higher `rank` are acquired.
    pub const fn ranked(class: &'static str, rank: u32, value: T) -> Self {
        Mutex {
            rank: order::Rank::new(class, rank, false),
            inner: sync::Mutex::new(value),
        }
    }

    /// Create a ranked mutex that orders a journal: a thread holding it
    /// may write storage its value does not hold, so the writes made
    /// under it land in the order it was taken. Every other check holds.
    pub const fn journal(class: &'static str, rank: u32, value: T) -> Self {
        Mutex {
            rank: order::Rank::new(class, rank, true),
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
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            held: self.rank.acquire(self),
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Try to acquire the lock without blocking. A failed attempt holds
    /// nothing; a successful one cannot deadlock, so it is not ranked.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            inner,
            held: self.rank.hold(self),
        })
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

/// Run `f` on the guard inside `slot`, temporarily moving it out. The
/// thread does not hold the lock while `f` waits, so the guard leaves
/// the held stack for the wait and returns to its place after it.
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
    // SAFETY: the guard read out of `slot.inner` is written back before
    // anything can reach the slot again: `f` returns the guard or, if it
    // panics, the Bomb aborts before any drop sees the moved-out slot.
    order::released_while(&slot.held, || unsafe {
        let g = std::ptr::read(&slot.inner);
        let g = f(g);
        std::ptr::write(&mut slot.inner, g);
    });
    std::mem::forget(bomb);
}

/// A reader-writer lock (non-poisoning subset).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    rank: order::Rank,
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    _held: order::Held,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    _held: order::Held,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock: a leaf, under which nothing may
    /// be acquired.
    pub const fn new(value: T) -> Self {
        Self::ranked("leaf", order::LEAF, value)
    }

    /// Create a reader-writer lock of lock class `class` that may be held
    /// while locks of a higher `rank` are acquired.
    pub const fn ranked(class: &'static str, rank: u32, value: T) -> Self {
        RwLock {
            rank: order::Rank::new(class, rank, false),
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            _held: self.rank.acquire(self),
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire an exclusive write lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            _held: self.rank.acquire(self),
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

/// Check a storage write of `log` against the locks this thread holds:
/// it may hold none, or only locks whose value holds `log` (the write
/// goes through their guard) and journal locks ([`Mutex::journal`]). Anything else panics, naming the write's
/// site and the held lock's. Compiled out of release builds.
#[cfg_attr(debug_assertions, track_caller)]
#[inline(always)]
pub fn assert_write_guarded<T: ?Sized>(log: &T) {
    order::write(log);
}

/// The held-lock stack of debug builds (see the crate docs). In release
/// builds its types are empty and its functions do nothing.
mod order {
    /// The rank of a leaf: above every other, and not below itself.
    pub(crate) const LEAF: u32 = u32::MAX;

    #[cfg(debug_assertions)]
    pub(crate) use checked::{released_while, write, Held, Rank};
    #[cfg(not(debug_assertions))]
    pub(crate) use unchecked::{released_while, write, Held, Rank};

    #[cfg(not(debug_assertions))]
    mod unchecked {
        #[derive(Default)]
        pub(crate) struct Rank;
        pub(crate) type Held = ();

        impl Rank {
            pub(crate) const fn new(_: &'static str, _: u32, _: bool) -> Rank {
                Rank
            }
            pub(crate) fn acquire<L: ?Sized>(&self, _: &L) {}
            pub(crate) fn hold<L: ?Sized>(&self, _: &L) {}
        }

        pub(crate) fn released_while<R>(_: &Held, wait: impl FnOnce() -> R) -> R {
            wait()
        }

        pub(crate) fn write<T: ?Sized>(_: &T) {}
    }

    #[cfg(debug_assertions)]
    mod checked {
        use std::cell::RefCell;
        use std::fmt;
        use std::ops::Range;
        use std::panic::Location;

        /// A lock's class (named in panics), its place in the order and
        /// whether it is a journal lock (held across any storage write).
        #[derive(Clone, Copy)]
        pub(crate) struct Rank(&'static str, u32, bool);

        /// A guard's place on the stack: dropping it lets the lock go.
        pub(crate) struct Held(usize);

        /// One held lock: the bytes of the lock (its value among them),
        /// its rank, and where it was taken.
        struct Entry {
            bytes: Range<usize>,
            rank: Rank,
            site: &'static Location<'static>,
        }

        thread_local! {
            static HELD: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
        }

        fn at<T: ?Sized>(value: &T) -> usize {
            value as *const T as *const () as usize
        }

        impl Default for Rank {
            fn default() -> Self {
                Rank("leaf", super::LEAF, false)
            }
        }

        impl fmt::Display for Rank {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "`{}` (rank {})", self.0, self.1)
            }
        }

        impl Rank {
            pub(crate) const fn new(class: &'static str, rank: u32, journal: bool) -> Rank {
                Rank(class, rank, journal)
            }

            /// Check an acquisition of `lock` against every held lock,
            /// then hold it.
            #[track_caller]
            pub(crate) fn acquire<L: ?Sized>(&self, lock: &L) -> Held {
                let site = Location::caller();
                HELD.with_borrow(|held| {
                    if let Some(h) = held.iter().find(|h| h.rank.1 >= self.1) {
                        let again = if h.bytes.start == at(lock) { " again" } else { "" };
                        panic!(
                            "lock order: {self} taken{again} at {site} while {} is held, taken at {}",
                            h.rank, h.site
                        );
                    }
                });
                self.hold(lock)
            }

            /// Hold `lock` unchecked: a `try_lock` that succeeded.
            #[track_caller]
            pub(crate) fn hold<L: ?Sized>(&self, lock: &L) -> Held {
                let bytes = at(lock)..at(lock) + std::mem::size_of_val(lock);
                let (rank, site) = (*self, Location::caller());
                HELD.with_borrow_mut(|held| held.push(Entry { bytes, rank, site }));
                Held(at(lock))
            }
        }

        /// Take the held lock at `lock` off this thread's stack.
        fn take(lock: usize) -> Option<(usize, Entry)> {
            HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                let i = held.iter().rposition(|h| h.bytes.start == lock)?;
                Some((i, held.remove(i)))
            })
            .ok()
            .flatten()
        }

        impl Drop for Held {
            fn drop(&mut self) {
                take(self.0);
            }
        }

        /// Run a condvar `wait` with `held` off the stack — a waiter
        /// does not hold its lock — and put it back at its place after.
        pub(crate) fn released_while<R>(held: &Held, wait: impl FnOnce() -> R) -> R {
            let taken = take(held.0);
            let out = wait();
            if let Some((i, entry)) = taken {
                HELD.with_borrow_mut(|held| held.insert(i.min(held.len()), entry));
            }
            out
        }

        #[track_caller]
        pub(crate) fn write<T: ?Sized>(log: &T) {
            let (log, site) = (at(log), Location::caller());
            HELD.with_borrow(|held| {
                if let Some(h) = held.iter().find(|h| !h.rank.2 && !h.bytes.contains(&log)) {
                    panic!(
                        "storage write at {site} while {} is held, taken at {}: \
                         that lock does not guard the log written",
                        h.rank, h.site
                    );
                }
            });
        }
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

    /// Release builds carry no rank and no key: a lock is its std lock.
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_locks_are_the_std_locks() {
        use std::mem::size_of;
        assert_eq!(size_of::<Mutex<u64>>(), size_of::<sync::Mutex<u64>>());
        assert_eq!(size_of::<RwLock<u64>>(), size_of::<sync::RwLock<u64>>());
        assert_eq!(
            size_of::<MutexGuard<'_, u64>>(),
            size_of::<sync::MutexGuard<'_, u64>>()
        );
    }
}
