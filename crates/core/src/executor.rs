//! The reducer-side candidate index.
//!
//! Every single-attribute reducer drains its `ValueStream` once (in
//! emission order — the stream may be backed by the in-memory merge or by
//! spilled Dfs runs, the reducer cannot tell) into per-relation
//! [`Candidates`] lists, which the kernels of [`crate::kernel`] join: they
//! enumerate the combinations that satisfy all query conditions, keep the
//! ones the reducer *owns* (the per-algorithm duplicate-elimination rule),
//! and emit them. The binding order, the level program and the window
//! helpers live in the kernel with the one descent that uses them.

use ij_interval::{Interval, TupleId};

/// Per-relation candidate lists for a single-attribute join, sorted by
/// interval start point.
#[derive(Debug, Clone)]
pub struct Candidates {
    /// Every relation's list, in relation order.
    pub(crate) lists: Vec<Vec<(Interval, TupleId)>>,
    sorted: bool,
}

impl Candidates {
    /// Empty lists for `m` relations.
    pub fn new(m: usize) -> Self {
        Candidates {
            lists: vec![Vec::new(); m],
            sorted: false,
        }
    }

    /// Adds a candidate to relation `rel`.
    pub fn push(&mut self, rel: usize, iv: Interval, tid: TupleId) {
        self.lists[rel].push((iv, tid));
        self.sorted = false;
    }

    /// Sorts all lists by (start, tid); must be called before joining.
    pub fn finish(&mut self) {
        for l in &mut self.lists {
            l.sort_unstable_by_key(|(iv, tid)| (iv.start(), *tid));
        }
        self.sorted = true;
    }

    /// Number of candidates for relation `rel`.
    pub fn len(&self, rel: usize) -> usize {
        self.lists[rel].len()
    }

    /// Whether any relation has no candidates (join output is then empty).
    pub fn any_empty(&self) -> bool {
        self.lists.iter().any(Vec::is_empty)
    }

    /// The sorted list for `rel`.
    pub fn list(&self, rel: usize) -> &[(Interval, TupleId)] {
        &self.lists[rel]
    }

    /// Whether [`finish`](Candidates::finish) has been called since the
    /// last mutation.
    pub(crate) fn is_sorted(&self) -> bool {
        self.sorted
    }
}
