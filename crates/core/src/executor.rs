//! Reducer-side multi-way join execution.
//!
//! Every reducer in every algorithm ultimately does the same thing: drain
//! its `ValueStream` once (in emission order — the stream may be backed by
//! the in-memory merge or by spilled Dfs runs, the reducer cannot tell)
//! into per-relation [`Candidates`] lists, enumerate the combinations that
//! satisfy all query conditions, keep the ones it *owns* (the
//! per-algorithm duplicate-elimination rule), and emit them.
//!
//! This module holds what more than one join path shares: the
//! [`Candidates`] index, the binding order, and the start-window helpers
//! (`window`, `tighten_lower`/`tighten_upper`). Single-attribute buckets —
//! the RCCIS marking's subset joins included — are joined by the
//! dispatching kernels of [`crate::kernel`]; the `holds`-based reference
//! they are tested against ([`crate::oracle::reference_join`]) is the
//! single-attribute oracle's engine. Records that carry several intervals
//! — the cascade's composites, FCTS's component results, Gen-Matrix's
//! tuples — join in `kernel::composite`, which shares the binding order
//! and `window_by`.

use ij_interval::{Interval, Time, TupleId};
use ij_query::JoinQuery;
use std::ops::Bound;

/// Per-relation candidate lists for a single-attribute join, sorted by
/// interval start point.
#[derive(Debug, Clone)]
pub struct Candidates {
    lists: Vec<Vec<(Interval, TupleId)>>,
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

/// Computes a binding order for backtracking.
///
/// Relations are bound left-to-right in the provable start order: when the
/// bound neighbor starts *before* the candidate, the candidate's start
/// window from [`ij_interval::AllenPredicate::right_start_bounds`] is
/// bounded on both sides for every colocation predicate, so each level
/// binary-searches a small window. (Binding right-to-left instead would
/// give half-open windows — "everything that starts before me" — and
/// degrade to quadratic scans.) Connectivity still matters: among
/// equal-rank candidates we grow BFS-style from the already-bound set and
/// prefer the smallest candidate list.
pub(crate) fn binding_order(q: &JoinQuery, list_len: impl Fn(usize) -> usize) -> Vec<usize> {
    let m = q.num_relations() as usize;
    let mut adj = vec![Vec::new(); m];
    for c in q.conditions() {
        adj[c.left.rel.idx()].push(c.right.rel.idx());
        adj[c.right.rel.idx()].push(c.left.rel.idx());
    }
    // rank[r] = number of relations provably starting strictly before r —
    // left-most relations get bound first.
    let order_info = q.start_order();
    let rank: Vec<usize> = (0..m)
        .map(|r| {
            (0..m)
                .filter(|&o| {
                    o != r
                        && order_info.le_start(
                            ij_query::AttrRef::whole(o as u16),
                            ij_query::AttrRef::whole(r as u16),
                        )
                        && !order_info.le_start(
                            ij_query::AttrRef::whole(r as u16),
                            ij_query::AttrRef::whole(o as u16),
                        )
                })
                .count()
        })
        .collect();
    let mut order = Vec::with_capacity(m);
    let mut placed = vec![false; m];
    while order.len() < m {
        // Prefer: connected to the bound set, then lowest rank, then the
        // smallest list.
        let next = (0..m)
            .filter(|&r| !placed[r])
            .min_by_key(|&r| {
                let disconnected = !order.is_empty() && !adj[r].iter().any(|&n| placed[n]);
                (disconnected, rank[r], list_len(r))
            })
            .expect("some relation unplaced");
        placed[next] = true;
        order.push(next);
    }
    order
}

/// Merges two start-point lower bounds, keeping the tighter.
pub(crate) fn tighten_lower(a: Bound<Time>, b: Bound<Time>) -> Bound<Time> {
    use Bound::*;
    match (a, b) {
        (Unbounded, x) | (x, Unbounded) => x,
        (Included(x), Included(y)) => Included(x.max(y)),
        (Excluded(x), Excluded(y)) => Excluded(x.max(y)),
        (Included(i), Excluded(e)) | (Excluded(e), Included(i)) => {
            if e >= i {
                Excluded(e)
            } else {
                Included(i)
            }
        }
    }
}

/// Merges two start-point upper bounds, keeping the tighter.
pub(crate) fn tighten_upper(a: Bound<Time>, b: Bound<Time>) -> Bound<Time> {
    use Bound::*;
    match (a, b) {
        (Unbounded, x) | (x, Unbounded) => x,
        (Included(x), Included(y)) => Included(x.min(y)),
        (Excluded(x), Excluded(y)) => Excluded(x.min(y)),
        (Included(i), Excluded(e)) | (Excluded(e), Included(i)) => {
            if e <= i {
                Excluded(e)
            } else {
                Included(i)
            }
        }
    }
}

/// Index range of a `key`-sorted list whose keys lie within the bounds.
pub(crate) fn window_by<T>(
    list: &[T],
    key: impl Fn(&T) -> Time,
    lo: Bound<Time>,
    hi: Bound<Time>,
) -> (usize, usize) {
    let start = match lo {
        Bound::Unbounded => 0,
        Bound::Included(x) => list.partition_point(|t| key(t) < x),
        Bound::Excluded(x) => list.partition_point(|t| key(t) <= x),
    };
    let end = match hi {
        Bound::Unbounded => list.len(),
        Bound::Included(x) => list.partition_point(|t| key(t) <= x),
        Bound::Excluded(x) => list.partition_point(|t| key(t) < x),
    };
    (start, end.max(start))
}

/// Index range of a sorted-by-start list compatible with the bounds.
pub(crate) fn window(
    list: &[(Interval, TupleId)],
    lo: Bound<Time>,
    hi: Bound<Time>,
) -> (usize, usize) {
    window_by(list, |(iv, _)| iv.start(), lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;

    #[test]
    fn binding_order_covers_disconnected_queries() {
        let q = JoinQuery::new(
            4,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(2, Overlaps, 3),
            ],
        )
        .unwrap();
        let order = binding_order(&q, |_| 1);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }
}
