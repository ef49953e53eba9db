//! The windowed descent — the one recursion behind every bucket that is
//! neither a pair sweep nor an event sweep: other colocation sets,
//! sequence sets and mixed (hybrid) Allen condition sets.
//!
//! Relations bind in [`Compiled`] order. At each level the conditions to
//! the already-bound neighbors intersect into one [`RangePair`], which
//! yields a start window over the relation's start-sorted list *and* an
//! end window over its end-sorted view; the kernel scans whichever is
//! narrower and filters by the other range with a single comparison —
//! range membership *is* predicate truth (see [`super::ranges`]), so there
//! is no `holds` re-check. For `overlaps` with long outer intervals the
//! end window (`e2 > e1`) is often tiny while the start window
//! (`s2 ∈ (s1, e1)`) is huge.
//!
//! A relation gets an end view only when some check at its level
//! constrains the end point ([`constrains_end`]). `before` does not: its
//! end window can never be narrower than its start window, so a
//! sequence level sorts nothing, always scans the start suffix and *is*
//! the merge join — same candidates, same order.
//!
//! Outer iteration (level 0) is a contiguous range of the first-bound
//! relation's start-sorted list, so the parallel driver in [`super`] can
//! chunk it: a level's scan depends only on the immutable sorted views and
//! the partial binding, making chunked output a permutation-free
//! concatenation of the serial emission order.

use super::ranges::{constrains_end, range_pair};
use super::scratch::with_scratch;
use super::{Compiled, Emit, RangePair};
use crate::executor::{window, window_by, Candidates};
use ij_interval::{bounds_contain, Interval, Time, TupleId};
use ij_query::JoinQuery;
use std::ops::Range;

/// Binding order plus the end-sorted views of one bucket, shared
/// (read-only) across parallel chunks.
#[derive(Debug)]
pub(crate) struct WindowPlan {
    compiled: Compiled,
    /// Per-relation end-sorted views; empty for a relation whose level
    /// never constrains the end point (always the level-0 relation).
    ends: Vec<Vec<(Time, u32)>>,
}

/// `(end, index into the start-sorted list)`, sorted by `(end, index)`.
pub(super) fn end_view(list: &[(Interval, TupleId)]) -> Vec<(Time, u32)> {
    let mut v: Vec<(Time, u32)> = list
        .iter()
        .enumerate()
        .map(|(i, (iv, _))| (iv.end(), i as u32))
        .collect();
    v.sort_unstable();
    v
}

impl WindowPlan {
    pub(super) fn new(q: &JoinQuery, cands: &Candidates) -> WindowPlan {
        let compiled = Compiled::new(q, |r| cands.len(r));
        let mut ends = vec![Vec::new(); compiled.order.len()];
        for (level, &rel) in compiled.order.iter().enumerate() {
            if compiled.checks[level]
                .iter()
                .any(|&(_, p)| constrains_end(p))
            {
                ends[rel] = end_view(cands.list(rel));
            }
        }
        WindowPlan { compiled, ends }
    }

    /// Level-0 iteration length (chunkable outer positions).
    pub(super) fn outer_len(&self, cands: &Candidates) -> usize {
        cands.len(self.compiled.order[0])
    }

    /// Runs the descent over `outer` positions of the level-0 list.
    pub(super) fn run(
        &self,
        cands: &Candidates,
        outer: Range<usize>,
        emit: &mut Emit<'_>,
        work: &mut u64,
    ) {
        let rel0 = self.compiled.order[0];
        with_scratch(|s| {
            let assignment = s.reset_assignment(self.compiled.order.len());
            *work += outer.len() as u64;
            for &(iv, tid) in &cands.list(rel0)[outer] {
                assignment[rel0] = (iv, tid);
                self.descend(cands, 1, assignment, emit, work);
            }
        });
    }

    /// Binds `level` (at least 1 — every query joins two relations — and
    /// below the arity) and everything after it. The last level emits from
    /// inside its scan loop: one call per binding instead of two.
    fn descend(
        &self,
        cands: &Candidates,
        level: usize,
        assignment: &mut Vec<(Interval, TupleId)>,
        emit: &mut Emit<'_>,
        work: &mut u64,
    ) {
        let rel = self.compiled.order[level];
        let last = level + 1 == self.compiled.order.len();
        let mut rp = RangePair::full();
        for &(other, pred) in &self.compiled.checks[level] {
            rp.intersect(&range_pair(pred, assignment[other].0));
        }
        let list = cands.list(rel);
        let ends = &self.ends[rel];
        let (sfrom, sto) = window(list, rp.start.0, rp.start.1);
        let end_window =
            (!ends.is_empty()).then(|| window_by(ends, |&(e, _)| e, rp.end.0, rp.end.1));
        // Scan the narrower window, filter by the other range — exact
        // either way.
        match end_window {
            Some((efrom, eto)) if eto - efrom < sto - sfrom => {
                *work += (eto - efrom) as u64;
                for &(_, idx) in &ends[efrom..eto] {
                    let (iv, tid) = list[idx as usize];
                    if bounds_contain(rp.start, iv.start()) {
                        assignment[rel] = (iv, tid);
                        if last {
                            emit(assignment);
                        } else {
                            self.descend(cands, level + 1, assignment, emit, work);
                        }
                    }
                }
            }
            _ => {
                *work += (sto - sfrom) as u64;
                for &(iv, tid) in &list[sfrom..sto] {
                    if bounds_contain(rp.end, iv.end()) {
                        assignment[rel] = (iv, tid);
                        if last {
                            emit(assignment);
                        } else {
                            self.descend(cands, level + 1, assignment, emit, work);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;
    use std::ops::Bound;

    fn cands(m: usize, n: i64) -> Candidates {
        let mut c = Candidates::new(m);
        for r in 0..m {
            for t in 0..n {
                let s = (t * 7 + r as i64 * 3) % 40;
                c.push(r, Interval::new(s, s + t % 9).unwrap(), t as TupleId);
            }
        }
        c.finish();
        c
    }

    #[test]
    fn before_only_chains_hold_no_end_view() {
        let c = cands(4, 20);
        for preds in [vec![Before], vec![Before, Before], vec![Before; 3]] {
            let q = JoinQuery::chain(&preds).unwrap();
            let plan = WindowPlan::new(&q, &c);
            assert!(plan.ends.iter().all(Vec::is_empty), "{q}");
        }
    }

    #[test]
    fn end_views_follow_the_levels_that_constrain_the_end() {
        let c = cands(3, 20);
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let plan = WindowPlan::new(&q, &c);
        assert_eq!(plan.compiled.order, vec![0, 1, 2]);
        let built: Vec<bool> = plan.ends.iter().map(|v| !v.is_empty()).collect();
        assert_eq!(built, vec![false, true, false]);
        // `after` reaches a level when its right operand binds first.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Before, 1),
                ij_query::Condition::whole(2, Before, 1),
            ],
        )
        .unwrap();
        let plan = WindowPlan::new(&q, &c);
        let level_of_2 = plan.compiled.order.iter().position(|&r| r == 2).unwrap();
        assert_eq!(plan.compiled.checks[level_of_2], vec![(1, After)]);
        assert!(!plan.ends[2].is_empty());
    }

    #[test]
    fn end_window_matches_scan() {
        let ends: Vec<(Time, u32)> = vec![(1, 0), (3, 1), (3, 2), (7, 3), (9, 4)];
        for lo in [
            Bound::Unbounded,
            Bound::Included(3),
            Bound::Excluded(3),
            Bound::Included(10),
        ] {
            for hi in [
                Bound::Unbounded,
                Bound::Included(3),
                Bound::Excluded(3),
                Bound::Excluded(0),
            ] {
                let (from, to) = window_by(&ends, |&(e, _)| e, lo, hi);
                for (i, &(e, _)) in ends.iter().enumerate() {
                    let inside = bounds_contain((lo, hi), e);
                    assert_eq!(
                        (from..to).contains(&i),
                        inside,
                        "lo={lo:?} hi={hi:?} i={i} e={e}"
                    );
                }
            }
        }
    }
}
