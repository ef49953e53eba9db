//! The windowed descent — the one recursion behind every bucket that is
//! not an event sweep: every two-relation bucket, other colocation,
//! sequence and mixed Allen condition sets, and every composite bucket.
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
//! no `holds` re-check.
//!
//! A row ends `S` to `L` after it starts, `S` and `L` its side's shortest
//! and longest key-slot interval, so where a check constrains the key
//! slot's end to `(A, B)`, its start lies in `(A ⊖ L, B ⊖ S)` (a side that
//! underflows is unbounded). A level intersects that bound into the key
//! slot's start range before it searches: its start window holds only the
//! rows whose length lets them reach the end range, and the end window is
//! narrower only where the side's lengths vary.
//!
//! The bucket's owner (see the [module docs](super)) narrows each level's
//! start ranges further: the key slot's start window is cut to the owned
//! range before it is scanned, the other slots' pairs are filtered, and a
//! floor over several slots of one composite side is a row test. Which
//! view a level scans is decided on the checks alone, so the emission
//! order is the unowned run's minus the unowned bindings.
//!
//! A side has an end view only when some check on its key slot constrains
//! the end point ([`constrains_end`]). `before` does not: a sequence level
//! sorts nothing, always scans the start suffix and *is* the merge join.
//! Even then the view is built only when a level needs it to pick. Every
//! row starting in `(A, B ⊖ L]` ends in `(A, B)`, and only the *near* rows,
//! starting in `(A ⊖ L, B)`, can: when the start-sorted list holds at
//! least as many of the first as the start window, the end window cannot
//! be strictly narrower and the level scans the start window — the pick
//! the view would make. When the near rows are few, their ends are tested
//! directly and the end window is gathered from them in the view's order.
//! Otherwise, or once a level has tested as many rows as the side holds,
//! the view is built, once per bucket in a `OnceLock` shared by its
//! threads, and the exact comparison runs on it. On sparse data no view is
//! built.
//!
//! Every window is found by galloping (exponential search) from where the
//! level's previous search of the same list ended, its upper end from its
//! lower one, so a search costs the log of the distance the level's rows
//! moved, not of the list. Those positions are a thread's [`Scan`],
//! carried from one of its outer blocks to the next; any position gives
//! the same window, so the output, the work and the emission order do not
//! depend on them.
//!
//! The last level (level 0 of a one-level program) hands its filtered
//! window to the sink as one run ([`BindingSink::push_run`]), its ranges
//! normalized once per run to inclusive bounds, so a single-attribute row
//! is tested by two compares and a count sink only counts what passes.
//! Outer iteration (level 0) is a contiguous range of the first-bound
//! side's list, so the chunk runner in [`super`] can cut it: a level's
//! scan depends only on the immutable sorted views and the partial
//! binding, so the chunks' output concatenates to the serial emission
//! order.

use super::ranges::{closed, constrains_end, intersect_range, range_pair, within};
use super::ranges::{tighten_lower, tighten_upper};
use super::{BindingSink, Compiled, Program, RangePair};
use super::{StartRange, StartWindow};
use crate::executor::Candidates;
use ij_interval::{bounds_contain, Interval, Time, TupleId};
use std::ops::{Bound, Range};
use std::sync::OnceLock;

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

/// `list.partition_point(pred)` found by exponential search from `hint`
/// (any value; past the end counts as the end): steps of 1, 2, 4, …
/// away from `hint` until one crosses the partition point, then a binary
/// search inside the last step.
fn gallop<T>(list: &[T], hint: usize, pred: impl Fn(&T) -> bool) -> usize {
    let hint = hint.min(list.len());
    let mut step = 1;
    let (lo, hi) = if list.get(hint).is_some_and(&pred) {
        // The point lies after `hint`: probe hint + 1, + 3, + 7, …
        let mut lo = hint + 1;
        loop {
            match list.get(lo + step - 1) {
                Some(t) if pred(t) => (lo, step) = (lo + step, step * 2),
                Some(_) => break (lo, lo + step - 1),
                None => break (lo, list.len()),
            }
        }
    } else {
        // The point lies at or before `hint`: probe hint − 1, − 3, − 7, …
        let mut hi = hint;
        loop {
            match hi.checked_sub(step) {
                Some(probe) if pred(&list[probe]) => break (probe + 1, hi),
                Some(probe) => (hi, step) = (probe, step * 2),
                None => break (0, hi),
            }
        }
    };
    lo + list[lo..hi].partition_point(pred)
}

/// [`window_by`] by [`gallop`]: the lower end searched from `hints.0`,
/// the upper end from `hints.1` or the lower end, whichever is later.
fn window_near<T>(
    list: &[T],
    hints: (usize, usize),
    key: impl Fn(&T) -> Time,
    (lo, hi): StartRange,
) -> (usize, usize) {
    let start = match lo {
        Bound::Unbounded => 0,
        Bound::Included(x) => gallop(list, hints.0, |t| key(t) < x),
        Bound::Excluded(x) => gallop(list, hints.0, |t| key(t) <= x),
    };
    let end = match hi {
        Bound::Unbounded => list.len(),
        Bound::Included(x) => gallop(list, hints.1.max(start), |t| key(t) <= x),
        Bound::Excluded(x) => gallop(list, hints.1.max(start), |t| key(t) < x),
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
    /// Per side, the end view of its key slot; `None` for a side whose
    /// key slot's end no check constrains (always the level-0 side).
    ends: Vec<Option<EndView>>,
}

/// The most near rows [`EndView::tell`] tests on one visit; with more,
/// the view tells.
const NEAR_ROWS: usize = 64;

/// A side's end-sorted view, built on first use.
#[derive(Debug)]
struct EndView {
    /// The longest key-slot interval of the side: every row ends at most
    /// this far after its start.
    longest: u64,
    /// The shortest: every row ends at least this far after its start.
    shortest: u64,
    /// The view, once a level has needed it.
    view: OnceLock<Vec<(Time, u32)>>,
}

/// What the start order alone tells about a level's end window.
enum Told {
    /// It holds at least as many rows as the start window.
    Wide,
    /// It holds fewer, gathered into the level's rows.
    Gathered,
    /// Only the view can tell.
    Unknown,
}

/// `(end of slot, index into the list)`, sorted by `(end, index)`.
pub(super) fn end_view<R: Row>(list: &[R], slot: usize) -> Vec<(Time, u32)> {
    let mut v: Vec<(Time, u32)> = (list.iter().enumerate())
        .map(|(i, row)| (row.at(slot).end(), i as u32))
        .collect();
    v.sort_unstable();
    v
}

/// `bound` moved down by `by`; `None` when that falls below `Time::MIN`.
fn moved_down(bound: Bound<Time>, by: u64) -> Option<Bound<Time>> {
    Some(match bound {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(x) => Bound::Included(x.checked_sub_unsigned(by)?),
        Bound::Excluded(x) => Bound::Excluded(x.checked_sub_unsigned(by)?),
    })
}

impl EndView {
    /// Narrows `rp`'s start range to the rows that can end in its end
    /// range `[A, B]` (closed): to `[A − longest, B − shortest]`, a side
    /// that falls below `Time::MIN` left as it is.
    fn bound(&self, rp: &mut RangePair) {
        let (a, b) = closed(rp.end);
        if let Some(lo) = a.checked_sub_unsigned(self.longest) {
            rp.start.0 = tighten_lower(rp.start.0, Bound::Included(lo));
        }
        if let Some(hi) = b.checked_sub_unsigned(self.shortest) {
            rp.start.1 = tighten_upper(rp.start.1, Bound::Included(hi));
        }
    }

    /// The end window over `end` of the side's `list`, told from the
    /// start order against the start window's `size`. A row ends at most
    /// `longest` after it starts, so the rows that start in `end` at least
    /// `longest` below its upper bound surely end in it, and only the
    /// *near* rows, which start in `end` or up to `longest` below it, can.
    /// At most [`NEAR_ROWS`] near rows are tested one by one, and the
    /// window's rows are gathered into `rows` as `(end, index)`, in the
    /// view's order.
    fn tell<R: Row>(
        &self,
        (list, key): (&[R], usize),
        end: StartRange,
        size: usize,
        hints: &mut Hints,
        rows: &mut Vec<(Time, u32)>,
    ) -> Told {
        let start = |r: &R| r.at(key).start();
        let sure = moved_down(end.1, self.longest)
            .map(|hi| window_near(list, (hints.sure, 0), start, (end.0, hi)));
        if let Some((from, to)) = sure {
            hints.sure = from;
            if to - from >= size {
                return Told::Wide;
            }
        }
        // The near rows hold the sure ones.
        let lo = moved_down(end.0, self.longest).unwrap_or(Bound::Unbounded);
        let around = sure.unwrap_or((hints.sure, hints.sure));
        let (from, to) = window_near(list, around, start, (lo, end.1));
        if to - from > NEAR_ROWS {
            return Told::Unknown;
        }
        hints.tested += to - from;
        rows.clear();
        let ends = (list[from..to].iter().zip(from as u32..)).map(|(r, i)| (r.at(key).end(), i));
        rows.extend(ends.filter(|&(e, _)| bounds_contain(end, e)));
        if rows.len() >= size {
            return Told::Wide;
        }
        rows.sort_unstable();
        Told::Gathered
    }
}

/// A key-sorted list's start window `(from, to)` narrowed to `range`: a
/// search inside it, or the window itself when `range` is `within`.
fn narrowed<R: Row>(
    list: &[R],
    key: usize,
    (from, to): (usize, usize),
    within: StartRange,
    range: StartRange,
) -> (usize, usize) {
    if range == within {
        return (from, to);
    }
    let part = &list[from..to];
    let (a, b) = window_near(part, (0, part.len()), |r| r.at(key).start(), range);
    (from + a, from + b)
}

/// One thread's descent state, carried from one of its outer blocks to
/// the next.
pub(crate) struct Scan<R> {
    /// The partial binding, one row per side.
    assignment: Vec<R>,
    /// Per level, what it keeps between its visits.
    levels: Vec<Level>,
}

/// One level's part of a [`Scan`].
#[derive(Default)]
struct Level {
    /// One range pair per non-key slot.
    ranges: Vec<RangePair>,
    /// The owner's floors over several slots that a row must meet
    /// ([`super::Owned::unmet`]).
    unmet: Vec<usize>,
    hints: Hints,
    /// An end window gathered by [`EndView::tell`].
    rows: Vec<(Time, u32)>,
}

/// Where a level's last searches began, so its next ones start there,
/// and the rows [`EndView::tell`] has tested for it.
#[derive(Default)]
struct Hints {
    /// The start window's lower end.
    start: usize,
    /// The lower end of the rows that surely end in the end range.
    sure: usize,
    /// The end window's lower end.
    end: usize,
    /// The near rows [`EndView::tell`] has tested one by one.
    tested: usize,
}

impl WindowPlan {
    /// The plan of `compiled` over `lists`, each side sorted by the start
    /// of its level's key slot.
    pub(super) fn new<R: Row>(compiled: Compiled, lists: &[Vec<R>]) -> WindowPlan {
        let mut ends: Vec<Option<EndView>> = (0..compiled.order.len()).map(|_| None).collect();
        for (level, &side) in compiled.order.iter().enumerate() {
            let key = compiled.key[level];
            if (compiled.checks[level].iter()).any(|&(_, p, s)| s == key && constrains_end(p)) {
                let length = |row: &R| row.at(key).end().abs_diff(row.at(key).start());
                let (shortest, longest) = (lists[side].iter().map(length))
                    .fold((u64::MAX, 0), |(s, l), n| (s.min(n), l.max(n)));
                ends[side] = Some(EndView {
                    longest,
                    shortest,
                    view: OnceLock::new(),
                });
            }
        }
        let outer_len = lists[compiled.order[0]].len();
        WindowPlan {
            compiled,
            outer_len,
            ends,
        }
    }

    /// A single-attribute bucket of `program`'s query, binding in
    /// [`Program::order`], keeping what `owner` owns.
    pub(super) fn of_program(
        program: &Program,
        cands: &Candidates,
        owner: &[StartWindow],
    ) -> WindowPlan {
        let order = program.order(|r| cands.len(r));
        let compiled = Compiled::new(order, &program.conditions, owner);
        WindowPlan::new(compiled, &cands.lists)
    }

    /// The state of a thread that has run no outer block yet, over
    /// `lists`, all non-empty.
    pub(super) fn start<R: Row>(&self, lists: &[Vec<R>]) -> Scan<R> {
        let level = |others: &Vec<usize>| Level {
            ranges: vec![RangePair::full(); others.len()],
            ..Level::default()
        };
        Scan {
            assignment: lists.iter().map(|l| l[0]).collect(),
            levels: self.compiled.others.iter().map(level).collect(),
        }
    }

    /// Runs the descent over `outer` positions of the level-0 list, whose
    /// lists are all non-empty, on the thread that owns `scan`.
    pub(super) fn run<R: Row, S: BindingSink<R>>(
        &self,
        lists: &[Vec<R>],
        scan: &mut Scan<R>,
        outer: Range<usize>,
        sink: &mut S,
        work: &mut u64,
    ) {
        let (side0, own) = (self.compiled.order[0], &self.compiled.owned[0]);
        *work += outer.len() as u64;
        let (first, deeper) = scan.levels.split_first_mut().expect("level 0");
        // Level 0 binds after nothing: its bounds are static.
        own.unmet::<R>(&[], &mut first.unmet);
        let unmet = &first.unmet;
        let rows = lists[side0][outer].iter().copied().filter(|&row| {
            (own.bounds::<R>(&[])).all(|(slot, b)| bounds_contain(b, row.at(slot).start()))
                && own.reaches(unmet, row)
        });
        self.bind(
            lists,
            (&mut scan.assignment, deeper),
            side0,
            rows,
            sink,
            work,
        );
    }

    /// The `(end, index)` rows of `side`'s end window over `end`, when it
    /// holds fewer rows than the start window's `size`; `None` to scan the
    /// start window. The side's view is built only when the start order
    /// cannot tell ([`EndView::tell`]), or once the level has tested as
    /// many rows as the side holds — about what the view costs to build —
    /// so a level visited often over wide near windows stops paying for
    /// them. A gathered window lands in `rows`.
    fn end_window<'s, R: Row>(
        &'s self,
        (list, side, key): (&[R], usize, usize),
        end: StartRange,
        size: usize,
        hints: &mut Hints,
        rows: &'s mut Vec<(Time, u32)>,
    ) -> Option<&'s [(Time, u32)]> {
        // No window is strictly narrower than an empty one.
        let ev = self.ends[side].as_ref().filter(|_| size > 0)?;
        if ev.view.get().is_none() && hints.tested <= list.len() {
            match ev.tell((list, key), end, size, hints, rows) {
                Told::Wide => return None,
                Told::Gathered => return Some(rows),
                Told::Unknown => {}
            }
        }
        let view = ev.view.get_or_init(|| end_view(list, key));
        let (from, to) = window_near(view, (hints.end, 0), |&(e, _)| e, end);
        hints.end = from;
        (to - from < size).then(|| &view[from..to])
    }

    /// Binds the level of `levels[0]` (at least 1; `levels` are it and
    /// every later level of the thread's [`Scan`]) and everything after
    /// it, given the binding of the earlier levels in `assignment`.
    fn descend<R: Row, S: BindingSink<R>>(
        &self,
        lists: &[Vec<R>],
        (assignment, levels): (&mut [R], &mut [Level]),
        sink: &mut S,
        work: &mut u64,
    ) {
        let level = self.compiled.order.len() - levels.len();
        let (at, deeper) = levels.split_first_mut().expect("a level to bind");
        let side = self.compiled.order[level];
        let (key, others) = (self.compiled.key[level], &self.compiled.others[level]);
        let own = &self.compiled.owned[level];
        let rps = &mut at.ranges;
        rps.fill(RangePair::full());
        let mut rp = RangePair::full();
        for &((bound, slot), pred, mine) in &self.compiled.checks[level] {
            let pair = range_pair(pred, assignment[bound].at(slot));
            match others.iter().position(|&s| s == mine) {
                Some(i) => rps[i].intersect(&pair),
                None => rp.intersect(&pair),
            }
        }
        // The key slot's end range bounds its start ([`EndView::bound`]).
        if let Some(ev) = &self.ends[side] {
            ev.bound(&mut rp);
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
        own.unmet(assignment, &mut at.unmet);
        let (rps, unmet) = (&at.ranges, &at.unmet);
        let others_hold = |row: R| {
            R::ONE_SLOT
                || ((others.iter().zip(rps.iter())).all(|(&s, r)| r.contains(row.at(s)))
                    && own.reaches(unmet, row))
        };
        let list = &lists[side];
        let start_window = window_near(list, (at.hints.start, 0), |r| r.at(key).start(), rp.start);
        at.hints.start = start_window.0;
        // Scan the narrower window, filter by the other range — exact
        // either way.
        let size = start_window.1 - start_window.0;
        let (hints, rows) = (&mut at.hints, &mut at.rows);
        match self.end_window((list, side, key), rp.end, size, hints, rows) {
            Some(ends) => {
                *work += ends.len() as u64;
                let owned = closed(owned);
                let run = (ends.iter().map(|&(_, idx)| list[idx as usize]))
                    .filter(|&row| within(owned, row.at(key).start()) && others_hold(row));
                self.bind(lists, (assignment, deeper), side, run, sink, work);
            }
            None => {
                let (from, to) = narrowed(list, key, start_window, rp.start, owned);
                *work += (to - from) as u64;
                let end = closed(rp.end);
                let run = (list[from..to].iter().copied())
                    .filter(|&row| within(end, row.at(key).end()) && others_hold(row));
                self.bind(lists, (assignment, deeper), side, run, sink, work);
            }
        }
    }

    /// Binds `side` to each row of `run` in turn, under the binding of the
    /// earlier levels in `assignment`: the last level (no `deeper` levels)
    /// hands the run to `sink` whole, an earlier one descends under each
    /// row.
    fn bind<R: Row, S: BindingSink<R>>(
        &self,
        lists: &[Vec<R>],
        (assignment, deeper): (&mut [R], &mut [Level]),
        side: usize,
        run: impl Iterator<Item = R>,
        sink: &mut S,
        work: &mut u64,
    ) {
        if deeper.is_empty() {
            sink.push_run(assignment, side, run);
        } else {
            for row in run {
                assignment[side] = row;
                self.descend(lists, (&mut *assignment, &mut *deeper), sink, work);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;
    use crate::output::Tuples;
    use ij_interval::AllenPredicate::{self, *};
    use ij_query::JoinQuery;
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
            let plan = WindowPlan::of_program(&Program::new(KernelKind::Window, &q), &c, &[]);
            assert!(plan.ends.iter().all(Option::is_none), "{q}");
        }
    }

    #[test]
    fn end_views_follow_the_levels_that_constrain_the_end() {
        let c = cands(3, 20);
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let plan = WindowPlan::of_program(&Program::new(KernelKind::Window, &q), &c, &[]);
        assert_eq!(plan.compiled.order, vec![0, 1, 2]);
        let built: Vec<bool> = plan.ends.iter().map(Option::is_some).collect();
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
        let plan = WindowPlan::of_program(&Program::new(KernelKind::Window, &q), &c, &[]);
        let level_of_2 = plan.compiled.order.iter().position(|&r| r == 2).unwrap();
        assert_eq!(plan.compiled.checks[level_of_2], vec![((1, 0), After, 0)]);
        assert!(plan.ends[2].is_some());
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

    #[test]
    fn gallop_is_partition_point_from_every_hint() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut long: Vec<Time> = (0..200).map(|_| rng.gen_range(0..50)).collect();
        long.sort_unstable();
        let short = [1, 3, 3, 3, 7, 9, 9, 12, 15, 15, 15, 15, 20];
        for keys in [&short[..], &long] {
            for len in 0..=keys.len() {
                let list = &keys[..len];
                for x in -1..=51 {
                    for lo in [Bound::Included(x), Bound::Excluded(x), Bound::Unbounded] {
                        let want = window_by(list, |&k| k, lo, Bound::Excluded(x + 7));
                        for hint in 0..=len + 2 {
                            let below = |&k: &Time| !bounds_contain((lo, Bound::Unbounded), k);
                            assert_eq!(gallop(list, hint, below), want.0, "{lo:?} hint {hint}");
                            for upper in [0, hint, len, len + 2] {
                                let range = (lo, Bound::Excluded(x + 7));
                                let got = window_near(list, (hint, upper), |&k| k, range);
                                assert_eq!(got, want, "{range:?} hints {hint} {upper}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// `n` intervals per relation, starts uniform over `0..span`, lengths
    /// up to `max_len`.
    fn spread(m: usize, n: u32, span: i64, max_len: i64, seed: u64) -> Candidates {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Candidates::new(m);
        for r in 0..m {
            for t in 0..n {
                let s = rng.gen_range(0..span);
                c.push(
                    r,
                    Interval::new(s, s + rng.gen_range(0..=max_len)).unwrap(),
                    t,
                );
            }
        }
        c.finish();
        c
    }

    /// The plan's rows in emission order, and its work, over every outer
    /// position, in blocks cut at `cuts` that one carried [`Scan`] runs.
    fn scanned(plan: &WindowPlan, c: &Candidates, cuts: &[usize]) -> (Vec<Vec<TupleId>>, u64) {
        let (mut rows, mut work) = (Tuples::new(c.lists.len()), 0);
        let mut scan = plan.start(&c.lists);
        let ends = cuts.iter().copied().chain([plan.outer_len]);
        for block in [0].into_iter().chain(cuts.iter().copied()).zip(ends) {
            plan.run(&c.lists, &mut scan, block.0..block.1, &mut rows, &mut work);
        }
        (rows.iter().map(<[TupleId]>::to_vec).collect(), work)
    }

    /// The descent with every end view built up front and every window
    /// found by a fresh binary search, the start range bounded by the end
    /// range and the side's lengths, taking the end window whenever it is
    /// strictly narrower: the rows from `level` on under the binding `a`,
    /// and their work, into `out`. One-slot rows, no owner.
    fn eager(
        plan: &WindowPlan,
        c: &Candidates,
        ends: &[Option<Vec<(Time, u32)>>],
        level: usize,
        a: &mut [(Interval, TupleId)],
        out: &mut (Vec<Vec<TupleId>>, u64),
    ) {
        let Some(&side) = plan.compiled.order.get(level) else {
            out.0.push(a.iter().map(|r| r.1).collect());
            return;
        };
        let list = c.list(side);
        let mut rp = RangePair::full();
        for &((bound, _), pred, _) in &plan.compiled.checks[level] {
            rp.intersect(&range_pair(pred, a[bound].0));
        }
        if let Some(ev) = &plan.ends[side] {
            ev.bound(&mut rp);
        }
        let (from, to) = window_by(list, |r| r.0.start(), rp.start.0, rp.start.1);
        let mut rows = list[from..to].to_vec();
        if let Some(view) = &ends[side] {
            let (efrom, eto) = window_by(view, |e| e.0, rp.end.0, rp.end.1);
            if eto - efrom < to - from {
                rows = view[efrom..eto]
                    .iter()
                    .map(|&(_, i)| list[i as usize])
                    .collect();
            }
        }
        out.1 += rows.len() as u64;
        for row in rows.into_iter().filter(|row| rp.contains(row.0)) {
            a[side] = row;
            eager(plan, c, ends, level + 1, a, out);
        }
    }

    /// What [`eager`] scans for `q` over `c`.
    fn eagerly(plan: &WindowPlan, c: &Candidates) -> (Vec<Vec<TupleId>>, u64) {
        let ends: Vec<_> = (plan.ends.iter().zip(&c.lists))
            .map(|(ev, list)| ev.as_ref().map(|_| end_view(list, 0)))
            .collect();
        let mut a: Vec<_> = c.lists.iter().map(|l| l[0]).collect();
        let mut want = (Vec::new(), 0);
        eager(plan, c, &ends, 0, &mut a, &mut want);
        want
    }

    #[test]
    fn end_views_are_built_only_when_a_level_can_pick_them() {
        // Q1 on sparse data (short intervals far apart): the rows that
        // surely end past an outer interval's end outnumber its start
        // window at every level but the last few, whose end windows the
        // start order gathers.
        let sparse = spread(3, 2_000, 130_000, 100, 1);
        let q1 = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        // Q0 on dense data: the `contains` level's end window is often the
        // narrower one.
        let dense = spread(4, 300, 1_000, 100, 2);
        let q0 = JoinQuery::chain(&[Overlaps, Contains, Overlaps]).unwrap();
        for (q, c, builds) in [(q1, sparse, false), (q0, dense, true)] {
            let plan = WindowPlan::of_program(&Program::new(KernelKind::Window, &q), &c, &[]);
            let got = scanned(&plan, &c, &[]);
            assert!(!got.0.is_empty(), "{q}");
            let built = (plan.ends.iter().flatten()).any(|ev| ev.view.get().is_some());
            assert_eq!(built, builds, "{q}");
            assert_eq!(got, eagerly(&plan, &c), "{q}");
        }
    }

    /// Two relations joined by `r0 pred r1`, one row each `(start, end)`
    /// with its list index as its id: the bindings the descent finds,
    /// sorted, having checked them against the reference and the eager
    /// descent's rows and work.
    fn pair_join(pred: AllenPredicate, r0: &[(Time, Time)], r1: &[(Time, Time)]) -> Vec<[u32; 2]> {
        let mut c = Candidates::new(2);
        for (r, rows) in [r0, r1].into_iter().enumerate() {
            for (t, &(s, e)) in rows.iter().enumerate() {
                c.push(r, Interval::new(s, e).unwrap(), t as TupleId);
            }
        }
        c.finish();
        let q = JoinQuery::chain(&[pred]).unwrap();
        let plan = WindowPlan::of_program(&Program::new(KernelKind::Window, &q), &c, &[]);
        assert_eq!(plan.compiled.order, vec![0, 1], "{q}");
        let (rows, work) = scanned(&plan, &c, &[]);
        assert_eq!((rows.clone(), work), eagerly(&plan, &c), "{q}");
        let mut want = Vec::new();
        super::super::backtrack::reference_join(&q, &c, |a| want.push([a[0].1, a[1].1]));
        want.sort();
        let mut got: Vec<[u32; 2]> = rows.iter().map(|r| [r[0], r[1]]).collect();
        got.sort();
        assert_eq!(got, want, "{q}");
        got
    }

    /// Relation 1's rows are 2 to 5 ticks long, so an end range `(A, B)`
    /// bounds their starts to `(A − 5, B − 2)`: the row of exactly the
    /// longest length ending on the lower end bound, and the row of
    /// exactly the shortest ending on the upper one, start on the start
    /// bound's edges — `Included` (`finished-by`: the end is `e1`) and
    /// `Excluded` (`overlaps`: above `e1`; `contains`: below `e1`) alike —
    /// and are found.
    #[test]
    fn the_length_bound_keeps_the_rows_on_its_edges() {
        // End in [10, 10]: starts in [5, 8].
        let got = pair_join(FinishedBy, &[(0, 10)], &[(5, 10), (8, 10), (6, 9)]);
        assert_eq!(got, [[0, 0], [0, 1]]);
        // End in (10, ∞): starts above 5 (and in (0, 10)).
        let got = pair_join(Overlaps, &[(0, 10)], &[(6, 11), (9, 11), (3, 8)]);
        assert_eq!(got, [[0, 0], [0, 1]]);
        // End in (0, 20): starts in (−5, 18).
        let got = pair_join(Contains, &[(0, 20)], &[(17, 19), (1, 6), (18, 20)]);
        assert_eq!(got, [[0, 0], [0, 1]]);
    }

    /// At the `i64` extremes `A − longest` underflows and leaves the start
    /// unbounded below; an upper bound that underflows admits no row
    /// anyway, and is left unbounded too.
    #[test]
    fn the_length_bound_is_unbounded_where_it_underflows() {
        let (min, max) = (Time::MIN, Time::MAX);
        // End in (MIN, MAX), longest MAX − 1: the lower start bound
        // underflows.
        let got = pair_join(Contains, &[(min, max)], &[(min + 1, min + 2), (0, max - 1)]);
        assert_eq!(got, [[0, 0], [0, 1]]);
        // End in (MIN, MIN + 3), shortest 9: the upper one does.
        let got = pair_join(
            Contains,
            &[(min, min + 3)],
            &[(min + 1, min + 10), (0, max)],
        );
        assert!(got.is_empty());
    }

    /// Views built on demand, gathered end windows and galloping searches
    /// from carried hints scan what the eager descent scans — the same
    /// rows in the same order with the same work — on random
    /// two-condition chains over sparse, mixed and dense data, run whole
    /// and in blocks.
    #[test]
    fn the_descent_scans_what_the_eager_descent_scans() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut found = 0;
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let preds = [0, 1].map(|_| AllenPredicate::ALL[rng.gen_range(0..13)]);
            let q = JoinQuery::chain(&preds).unwrap();
            let (n, span) = [(150, 20_000), (150, 1_500), (100, 150)][seed as usize % 3];
            let c = spread(3, n, span, rng.gen_range(0..80), seed);
            let plan = WindowPlan::of_program(&Program::new(KernelKind::Window, &q), &c, &[]);
            let want = eagerly(&plan, &c);
            assert_eq!(scanned(&plan, &c, &[]), want, "{q} seed {seed}");
            let mut cuts: Vec<usize> = (0..rng.gen_range(1..6))
                .map(|_| rng.gen_range(0..=plan.outer_len))
                .collect();
            cuts.sort_unstable();
            let plan = WindowPlan::of_program(&Program::new(KernelKind::Window, &q), &c, &[]);
            assert_eq!(scanned(&plan, &c, &cuts), want, "{q} seed {seed} {cuts:?}");
            found += want.0.len();
        }
        assert!(found > 0);
    }
}
