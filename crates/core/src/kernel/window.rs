//! The windowed descent — the one recursion behind every bucket that is
//! neither a pair sweep nor an event sweep: other colocation, sequence
//! and mixed Allen condition sets, and every composite bucket.
//!
//! A bucket is one list of [`Row`]s per side; a row holds one interval
//! per *slot* (a single-attribute candidate is a one-slot row). Sides
//! bind in [`Compiled`] order. At each level the checks against the bound
//! sides intersect into one [`RangePair`] per constrained slot. The key
//! slot's pair yields a start window over the side's list (sorted by the
//! key slot's start) *and* an end window over its end-sorted view; the
//! kernel scans whichever is narrower, filters by the key slot's other
//! range with one comparison and by every other slot's pair — range
//! membership *is* predicate truth (see [`super::ranges`]), so there is
//! no `holds` re-check. For `overlaps` with long outer intervals the end
//! window (`e2 > e1`) is often tiny while the start window
//! (`s2 ∈ (s1, e1)`) is huge.
//!
//! The bucket's owner (see the [module docs](super)) narrows each level's
//! start ranges: the key slot's start window is cut to the owned range
//! before it is scanned, the other slots' pairs are filtered as before,
//! and a floor over several slots of one composite side is a row test.
//! Which view a level scans is decided on the checks alone, so the
//! emission order is the unowned run's minus the unowned bindings.
//!
//! A side gets an end view only when some check on its key slot
//! constrains the end point ([`constrains_end`]). `before` does not: a
//! sequence level sorts nothing, always scans the start suffix and *is*
//! the merge join — same candidates, same order.
//!
//! Outer iteration (level 0) is a contiguous range of the first-bound
//! side's list, so the chunk runner in [`super`] can cut it: a level's
//! scan depends only on the immutable sorted views and the partial
//! binding, making chunked output a permutation-free concatenation of the
//! serial emission order. A one-level program emits from level 0.

use super::ranges::{constrains_end, intersect_range, range_pair};
use super::{binding_order, slot_conditions, Compiled, RangePair, StartWindow};
use crate::executor::Candidates;
use ij_interval::{bounds_contain, Interval, Time, TupleId};
use ij_query::JoinQuery;
use std::ops::{Bound, Range};

/// A candidate of the descent: one interval per slot.
pub(crate) trait Row: Copy {
    /// Every row has one slot: no level has other slots to filter.
    const ONE_SLOT: bool = false;
    /// The interval in `slot`.
    fn at(self, slot: usize) -> Interval;
}

/// A single-attribute candidate: its interval is its one slot.
impl Row for (Interval, TupleId) {
    const ONE_SLOT: bool = true;
    fn at(self, _: usize) -> Interval {
        self.0
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

/// The level program plus the end-sorted views of one bucket, shared
/// (read-only) across parallel chunks.
#[derive(Debug)]
pub(crate) struct WindowPlan {
    compiled: Compiled,
    /// Level-0 iteration length (chunkable outer positions).
    pub(super) outer_len: usize,
    /// Per-side end-sorted views of the key slot; empty for a side whose
    /// key slot's end no check constrains (always the level-0 side).
    ends: Vec<Vec<(Time, u32)>>,
}

/// `(end of slot, index into the list)`, sorted by `(end, index)`.
pub(super) fn end_view<R: Row>(list: &[R], slot: usize) -> Vec<(Time, u32)> {
    let mut v: Vec<(Time, u32)> = (list.iter().enumerate())
        .map(|(i, row)| (row.at(slot).end(), i as u32))
        .collect();
    v.sort_unstable();
    v
}

/// A key-sorted list's start window `(from, to)` narrowed to `range`: a
/// search inside it, or the window itself when `range` is `within`.
fn narrowed<R: Row>(
    list: &[R],
    key: usize,
    (from, to): (usize, usize),
    within: (Bound<Time>, Bound<Time>),
    range: (Bound<Time>, Bound<Time>),
) -> (usize, usize) {
    if range == within {
        return (from, to);
    }
    let (a, b) = window_by(&list[from..to], |r| r.at(key).start(), range.0, range.1);
    (from + a, from + b)
}

impl WindowPlan {
    /// The plan of `compiled` over `lists`, each side sorted by the start
    /// of its level's key slot.
    pub(super) fn new<R: Row>(compiled: Compiled, lists: &[Vec<R>]) -> WindowPlan {
        let mut ends = vec![Vec::new(); compiled.order.len()];
        for (level, &side) in compiled.order.iter().enumerate() {
            let key = compiled.key[level];
            if (compiled.checks[level].iter()).any(|&(_, p, s)| s == key && constrains_end(p)) {
                ends[side] = end_view(&lists[side], key);
            }
        }
        let outer_len = lists[compiled.order[0]].len();
        WindowPlan {
            compiled,
            outer_len,
            ends,
        }
    }

    /// A single-attribute bucket, binding in [`binding_order`], keeping
    /// what `owner` owns.
    pub(super) fn of_query(q: &JoinQuery, cands: &Candidates, owner: &[StartWindow]) -> WindowPlan {
        let order = binding_order(q, |r| cands.len(r));
        let compiled = Compiled::new(order, &slot_conditions(q), owner);
        WindowPlan::new(compiled, &cands.lists)
    }

    /// Runs the descent over `outer` positions of the level-0 list, whose
    /// lists are all non-empty.
    pub(super) fn run<R: Row, E: FnMut(&[R])>(
        &self,
        lists: &[Vec<R>],
        outer: Range<usize>,
        emit: &mut E,
        work: &mut u64,
    ) {
        let mut assignment: Vec<R> = lists.iter().map(|l| l[0]).collect();
        // One range pair per non-key slot of every level.
        let others = self.compiled.others.iter().map(Vec::len).sum();
        let mut ranges = vec![RangePair::full(); others];
        let (side0, own) = (self.compiled.order[0], &self.compiled.owned[0]);
        *work += outer.len() as u64;
        for &row in &lists[side0][outer] {
            // Level 0 binds after nothing: its bounds are static.
            let owned =
                (own.bounds::<R>(&[])).all(|(slot, b)| bounds_contain(b, row.at(slot).start()));
            if !owned || !own.holds::<R>(&[], row) {
                continue;
            }
            assignment[side0] = row;
            if self.compiled.order.len() == 1 {
                emit(&assignment);
            } else {
                self.descend(lists, 1, &mut assignment, &mut ranges, emit, work);
            }
        }
    }

    /// Binds `level` (at least 1 and below the arity) and everything
    /// after it. The last level emits from inside its scan loop: one call
    /// per binding instead of two.
    fn descend<R: Row, E: FnMut(&[R])>(
        &self,
        lists: &[Vec<R>],
        level: usize,
        assignment: &mut [R],
        ranges: &mut [RangePair],
        emit: &mut E,
        work: &mut u64,
    ) {
        let side = self.compiled.order[level];
        let last = level + 1 == self.compiled.order.len();
        let (key, others) = (self.compiled.key[level], &self.compiled.others[level]);
        let own = &self.compiled.owned[level];
        let (rps, deeper) = ranges.split_at_mut(others.len());
        rps.fill(RangePair::full());
        let mut rp = RangePair::full();
        for &((bound, slot), pred, mine) in &self.compiled.checks[level] {
            let pair = range_pair(pred, assignment[bound].at(slot));
            match others.iter().position(|&s| s == mine) {
                Some(i) => rps[i].intersect(&pair),
                None => rp.intersect(&pair),
            }
        }
        // The owner's bounds narrow the key slot's start range to `owned`
        // and the other slots' pairs; the scanned view is picked on the
        // checks alone, so the emission order is the unowned run's.
        let mut owned = rp.start;
        for (slot, b) in own.bounds(assignment) {
            match others.iter().position(|&s| s == slot) {
                Some(i) => rps[i].start = intersect_range(rps[i].start, b),
                None => owned = intersect_range(owned, b),
            }
        }
        let others_hold = |row: R, bound: &[R]| {
            R::ONE_SLOT
                || ((others.iter().zip(rps.iter())).all(|(&s, r)| r.contains(row.at(s)))
                    && own.holds(bound, row))
        };
        let list = &lists[side];
        let ends = &self.ends[side];
        let start_window = window_by(list, |r| r.at(key).start(), rp.start.0, rp.start.1);
        let (sfrom, sto) = start_window;
        // Scan the narrower window, filter by the other range — exact
        // either way.
        let end_window = (!ends.is_empty())
            .then(|| window_by(ends, |&(e, _)| e, rp.end.0, rp.end.1))
            .filter(|&(efrom, eto)| eto - efrom < sto - sfrom);
        match end_window {
            Some((efrom, eto)) => {
                *work += (eto - efrom) as u64;
                for &(_, idx) in &ends[efrom..eto] {
                    let row = list[idx as usize];
                    if bounds_contain(owned, row.at(key).start()) && others_hold(row, assignment) {
                        assignment[side] = row;
                        if last {
                            emit(assignment);
                        } else {
                            self.descend(lists, level + 1, assignment, deeper, emit, work);
                        }
                    }
                }
            }
            None => {
                let (from, to) = narrowed(list, key, start_window, rp.start, owned);
                *work += (to - from) as u64;
                for &row in &list[from..to] {
                    if bounds_contain(rp.end, row.at(key).end()) && others_hold(row, assignment) {
                        assignment[side] = row;
                        if last {
                            emit(assignment);
                        } else {
                            self.descend(lists, level + 1, assignment, deeper, emit, work);
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
            let plan = WindowPlan::of_query(&q, &c, &[]);
            assert!(plan.ends.iter().all(Vec::is_empty), "{q}");
        }
    }

    #[test]
    fn end_views_follow_the_levels_that_constrain_the_end() {
        let c = cands(3, 20);
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let plan = WindowPlan::of_query(&q, &c, &[]);
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
        let plan = WindowPlan::of_query(&q, &c, &[]);
        let level_of_2 = plan.compiled.order.iter().position(|&r| r == 2).unwrap();
        assert_eq!(plan.compiled.checks[level_of_2], vec![((1, 0), After, 0)]);
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
