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
//! (`window`, `tighten_lower`/`tighten_upper`). Single-attribute buckets
//! are joined by the dispatching kernels of [`crate::kernel`]; the
//! `holds`-based reference they are tested against
//! ([`crate::oracle::reference_join`]) is the oracle's engine.
//!
//! [`join_tuples`] is the general path for multi-attribute queries
//! (Gen-Matrix): a scan-based backtracking join with incremental condition
//! checks, adequate for the cell-sized groups reducers see.

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

/// General multi-attribute backtracking join over full tuples.
///
/// `lists[r]` holds relation `r`'s candidate tuples as
/// `(tuple id, attribute values)`. Scan-based (no index), with conditions
/// checked as soon as both endpoints are bound.
pub fn join_tuples(
    q: &JoinQuery,
    lists: &[Vec<(TupleId, Vec<Interval>)>],
    accept: impl Fn(&[(TupleId, &[Interval])]) -> bool,
    mut on_output: impl FnMut(&[(TupleId, &[Interval])]),
) -> u64 {
    let m = q.num_relations() as usize;
    debug_assert_eq!(lists.len(), m);
    if lists.iter().any(Vec::is_empty) {
        return 0;
    }
    let order = binding_order(q, |r| lists[r].len());
    let mut level_of = vec![0usize; m];
    for (lvl, &r) in order.iter().enumerate() {
        level_of[r] = lvl;
    }
    let mut checks: Vec<Vec<&ij_query::Condition>> = vec![Vec::new(); m];
    for c in q.conditions() {
        let (l, r) = (c.left.rel.idx(), c.right.rel.idx());
        let later = if level_of[l] > level_of[r] { l } else { r };
        checks[level_of[later]].push(c);
    }
    let mut chosen: Vec<usize> = vec![0; m];
    let mut work = 0u64;
    descend_tuples(
        lists,
        &order,
        &checks,
        0,
        &mut chosen,
        &accept,
        &mut on_output,
        &mut work,
    );
    work
}

#[allow(clippy::too_many_arguments)]
fn descend_tuples(
    lists: &[Vec<(TupleId, Vec<Interval>)>],
    order: &[usize],
    checks: &[Vec<&ij_query::Condition>],
    level: usize,
    chosen: &mut Vec<usize>,
    accept: &impl Fn(&[(TupleId, &[Interval])]) -> bool,
    on_output: &mut impl FnMut(&[(TupleId, &[Interval])]),
    work: &mut u64,
) {
    if level == order.len() {
        let assignment: Vec<(TupleId, &[Interval])> = (0..lists.len())
            .map(|r| {
                let (tid, attrs) = &lists[r][chosen[r]];
                (*tid, attrs.as_slice())
            })
            .collect();
        if accept(&assignment) {
            on_output(&assignment);
        }
        return;
    }
    let rel = order[level];
    *work += lists[rel].len() as u64;
    'candidates: for (i, (_, attrs)) in lists[rel].iter().enumerate() {
        for c in &checks[level] {
            let (this_ref, other_ref, this_is_left) = if c.left.rel.idx() == rel {
                (c.left, c.right, true)
            } else {
                (c.right, c.left, false)
            };
            let this_iv = attrs[this_ref.attr as usize];
            let other = &lists[other_ref.rel.idx()][chosen[other_ref.rel.idx()]];
            let other_iv = other.1[other_ref.attr as usize];
            let ok = if this_is_left {
                c.pred.holds(this_iv, other_iv)
            } else {
                c.pred.holds(other_iv, this_iv)
            };
            if !ok {
                continue 'candidates;
            }
        }
        chosen[rel] = i;
        descend_tuples(
            lists,
            order,
            checks,
            level + 1,
            chosen,
            accept,
            on_output,
            work,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    #[test]
    fn join_tuples_matches_single_attr_on_plain_queries() {
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let mut c = Candidates::new(3);
        let data: [&[(i64, i64)]; 3] = [
            &[(0, 10), (2, 7), (30, 35)],
            &[(5, 12), (6, 20)],
            &[(15, 18), (25, 40), (13, 14)],
        ];
        let mut lists: Vec<Vec<(TupleId, Vec<Interval>)>> = vec![Vec::new(); 3];
        for (r, rows) in data.iter().enumerate() {
            for (t, &(s, e)) in rows.iter().enumerate() {
                c.push(r, iv(s, e), t as u32);
                lists[r].push((t as u32, vec![iv(s, e)]));
            }
        }
        c.finish();
        let mut fast: Vec<Vec<TupleId>> = Vec::new();
        crate::oracle::reference_join(&q, &c, |a| fast.push(a.iter().map(|(_, t)| *t).collect()));
        fast.sort();
        let mut slow: Vec<Vec<TupleId>> = Vec::new();
        join_tuples(
            &q,
            &lists,
            |_| true,
            |a| slow.push(a.iter().map(|(t, _)| *t).collect()),
        );
        slow.sort();
        assert_eq!(fast, slow);
    }

    #[test]
    fn join_tuples_multi_attribute() {
        use ij_query::{AttrRef, Condition};
        // R1.a0 overlaps R2.a0 and R1.a1 = R2.a1
        let q = JoinQuery::with_relations(
            vec![
                ij_query::query::RelationMeta {
                    name: "R1".into(),
                    attr_names: vec!["I".into(), "A".into()],
                },
                ij_query::query::RelationMeta {
                    name: "R2".into(),
                    attr_names: vec!["I".into(), "A".into()],
                },
            ],
            vec![
                Condition::new(AttrRef::new(0, 0), Overlaps, AttrRef::new(1, 0)),
                Condition::new(AttrRef::new(0, 1), Equals, AttrRef::new(1, 1)),
            ],
        )
        .unwrap();
        let lists = vec![
            vec![
                (0u32, vec![iv(0, 10), Interval::point(7)]),
                (1u32, vec![iv(0, 10), Interval::point(8)]),
            ],
            vec![
                (0u32, vec![iv(5, 15), Interval::point(7)]),
                (1u32, vec![iv(5, 15), Interval::point(9)]),
            ],
        ];
        let mut out = Vec::new();
        join_tuples(
            &q,
            &lists,
            |_| true,
            |a| {
                out.push((a[0].0, a[1].0));
            },
        );
        assert_eq!(out, vec![(0, 0)]);
    }

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
