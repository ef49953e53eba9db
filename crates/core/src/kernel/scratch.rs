//! Reusable per-worker scratch buffers for the kernel runners.
//!
//! The two sweeps need a handful of working vectors per thread of a
//! bucket — the `assignment` slot array, the pair sweep's retirement
//! pointers, the event sweep's active arrays and position index — which
//! a thread carries from one of its outer blocks to the next. Rebuilding
//! them per bucket made reducer hot loops allocation-bound on small
//! buckets, so they live in a thread-local [`Scratch`] instead: a sweep's
//! carried state holds a [`Lease`] on the buffers, resizes them (capacity
//! is retained across buckets), and the lease puts them back when it
//! drops. The take/put protocol keeps re-entrancy safe — a nested kernel
//! call on the same thread (e.g. from inside an emit callback) simply
//! sees an empty default scratch and allocates its own.
//!
//! Class-independent: the scratch holds no predicate state, only buffer
//! capacity; behavioral equivalence is pinned by the kernel-vs-oracle
//! proptests.

use ij_interval::{Interval, TupleId};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Reusable buffers shared by all kernel strategies on one thread.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// One `(interval, tuple)` slot per relation — the binding being built.
    pub(crate) assignment: Vec<(Interval, TupleId)>,
    /// The pair sweep's path-halving retirement array (`n + 1` slots).
    pub(crate) next: Vec<u32>,
    /// The event sweep's gapless active arrays, one per relation; the
    /// third slot is the tuple's candidate-list index (for `pos` fixup
    /// after a swap-remove).
    pub(crate) active: Vec<Vec<(Interval, TupleId, u32)>>,
    /// The event sweep's position index: `pos[rel][list_idx]` is the slot
    /// of that tuple in `active[rel]`, or `u32::MAX` when inactive.
    pub(crate) pos: Vec<Vec<u32>>,
}

impl Scratch {
    /// Resets `assignment` to `m` placeholder slots (capacity retained).
    pub(crate) fn reset_assignment(&mut self, m: usize) -> &mut Vec<(Interval, TupleId)> {
        self.assignment.clear();
        self.assignment.resize(m, (Interval::point(0), 0));
        &mut self.assignment
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// This thread's scratch buffers, moved out of the thread-local until the
/// lease drops, so a lease taken while another is live falls back to a
/// fresh default rather than aliasing.
#[derive(Debug)]
pub(crate) struct Lease(Scratch);

impl Lease {
    pub(crate) fn take() -> Lease {
        Lease(SCRATCH.with(RefCell::take))
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let s = std::mem::take(&mut self.0);
        // During thread teardown the buffers are simply freed.
        let _ = SCRATCH.try_with(|cell| *cell.borrow_mut() = s);
    }
}

impl Deref for Lease {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        &self.0
    }
}

impl DerefMut for Lease {
    fn deref_mut(&mut self) -> &mut Scratch {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_capacity_survives_round_trips() {
        let cap = {
            let mut s = Lease::take();
            s.reset_assignment(16);
            s.assignment.capacity()
        };
        assert!(cap >= 16);
        let mut s = Lease::take();
        s.reset_assignment(4);
        assert_eq!(s.assignment.len(), 4);
        assert!(
            s.assignment.capacity() >= cap,
            "capacity must be retained across leases"
        );
    }

    #[test]
    fn nested_calls_get_independent_buffers() {
        let mut outer = Lease::take();
        outer.reset_assignment(3);
        outer.assignment[0] = (Interval::point(7), 42);
        {
            // The outer buffers are checked out; the inner lease must see
            // a fresh scratch, not the outer's live data.
            let mut inner = Lease::take();
            assert!(inner.assignment.is_empty());
            inner.reset_assignment(2);
        }
        assert_eq!(outer.assignment[0], (Interval::point(7), 42));
    }
}
