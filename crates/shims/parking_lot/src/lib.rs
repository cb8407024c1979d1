//! Offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Exposes the same poison-free `lock()`/`read()`/`write()` surface the
//! workspace uses. Poisoned std locks (a panic while holding the guard)
//! recover the inner guard, matching parking_lot's no-poisoning contract.
//! [`Condvar`] does the same for waits; its guards are std's, so `wait`
//! and `wait_timeout` take and return the guard by value, as std does.

use std::sync;
use std::time::Duration;

pub use sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult};

/// `parking_lot::Mutex` look-alike over [`std::sync::Mutex`].
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Whether a holder panicked (shim-only; lets tests prove that the
    /// recovery above was exercised).
    pub fn is_poisoned(&self) -> bool {
        self.0.is_poisoned()
    }
}

/// Condition variable for [`Mutex`] guards; waits recover from poisoning
/// exactly as [`Mutex::lock`] does.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0
            .wait(guard)
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(sync::PoisonError::into_inner)
    }

    pub fn notify_one(&self) {
        self.0.notify_one()
    }

    pub fn notify_all(&self) {
        self.0.notify_all()
    }
}

/// `parking_lot::RwLock` look-alike over [`std::sync::RwLock`].
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(sync::PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(sync::PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn poisoned_mutex_and_condvar_recover() {
        let pair = std::sync::Arc::new((Mutex::new(0), Condvar::new()));
        let p2 = pair.clone();
        let _ = std::thread::spawn(move || {
            let _guard = p2.0.lock();
            panic!("poison");
        })
        .join();
        assert!(pair.0.is_poisoned());
        *pair.0.lock() += 1;
        let (guard, timed_out) = pair.1.wait_timeout(pair.0.lock(), Duration::from_millis(1));
        assert!(timed_out.timed_out());
        assert_eq!(*guard, 1);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }
}
