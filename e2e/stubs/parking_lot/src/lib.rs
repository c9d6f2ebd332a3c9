//! Offline stand-in for `parking_lot` 0.12: `Mutex` and `Condvar` over
//! `std::sync` with parking_lot's surface — `lock()` returns the guard
//! directly and a panic while holding the lock does not poison it.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

pub struct MutexGuard<'a, T> {
    // `None` only while `Condvar::wait` has handed the std guard over.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("guard present outside wait");
        guard.inner = Some(self.0.wait(held).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn condvar_hands_a_value_across_threads() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let other = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *other.0.lock() = 5;
            other.1.notify_all();
        });
        let mut g = pair.0.lock();
        while *g == 0 {
            pair.1.wait(&mut g);
        }
        assert_eq!(*g, 5);
        drop(g);
        t.join().unwrap();
    }
}
