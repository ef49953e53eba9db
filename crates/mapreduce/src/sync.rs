//! The engine's one lock type.
//!
//! [`Locked`] lends its value to a closure and releases the lock when the
//! closure returns; no method hands out a guard. A lock is therefore held
//! for exactly one closure call and can never outlive the statement that
//! took it. Acquiring a `parking_lot` lock anywhere else is a clippy
//! error (`disallowed_methods` in the root `clippy.toml`).
//!
//! A thread holds at most one `Locked` at a time. Debug builds assert
//! it: the Dfs's namespace and stats are `Locked` too, so a closure that
//! reads the Dfs or pulls a spilled stream while holding another lock
//! panics in tests instead of stalling other workers — across function
//! boundaries, not only within one body. Release builds do no check.
//!
//! A holder that panics does not poison the lock: the next access sees
//! the value as the panicking closure left it. Fault-injection retries
//! rely on this.

use std::fmt;

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread is inside some [`Locked`] closure.
    static HELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks this thread as holding a lock until dropped (debug builds).
struct Hold;

impl Hold {
    fn take() -> Hold {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            assert!(
                !held.replace(true),
                "nested `Locked` acquisition: a thread holds at most one lock at a time"
            );
        });
        Hold
    }
}

impl Drop for Hold {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        HELD.with(|held| held.set(false));
    }
}

/// A value behind a reader-writer lock, reachable only through closures.
#[derive(Default)]
pub(crate) struct Locked<T> {
    inner: parking_lot::RwLock<T>,
}

#[allow(
    clippy::disallowed_methods,
    reason = "the one place a lock is taken; the guard never leaves the method"
)]
impl<T> Locked<T> {
    pub(crate) const fn new(value: T) -> Self {
        Locked {
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Runs `f` on a shared borrow; other readers may run concurrently.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let _hold = Hold::take();
        f(&self.inner.read())
    }

    /// Runs `f` on an exclusive borrow.
    pub(crate) fn write<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let _hold = Hold::take();
        f(&mut self.inner.write())
    }

    /// The value, without locking (the borrow is already exclusive).
    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    pub(crate) fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: fmt::Debug> fmt::Debug for Locked<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.read(|value| f.debug_tuple("Locked").field(value).finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn panicking_holder_does_not_poison() {
        let lock = Arc::new(Locked::new(0u32));
        let other = Arc::clone(&lock);
        let died = std::thread::spawn(move || {
            other.write(|v| {
                *v += 1;
                panic!("holder dies");
            })
        })
        .join();
        assert!(died.is_err());
        assert_eq!(lock.read(|v| *v), 1);
        // The same thread may lock again after its own holder unwound.
        let unwound = catch_unwind(AssertUnwindSafe(|| lock.write(|_| panic!("again"))));
        assert!(unwound.is_err());
        lock.write(|v| *v += 1);
        assert_eq!(lock.read(|v| *v), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nested `Locked` acquisition")]
    fn nested_acquisition_panics_in_debug() {
        let a = Locked::new(1u32);
        let b = Locked::new(2u32);
        a.read(|x| b.read(|y| x + y));
    }
}
