//! The pair sweep: a genuine active-set plane sweep for two relations
//! joined by one `overlaps`/`contains`-shaped condition.
//!
//! Outer intervals are processed in end-point order; inner candidates
//! whose end point can no longer satisfy the end range are *retired* from
//! an alive list (a path-compressed next-pointer array over the
//! start-sorted inner list, O(1) amortized deletion and skip). Every alive
//! candidate inside the outer's start range is then an exact match —
//! enumeration is output-linear, `O(n log n + output)` overall. The
//! bucket's owner (see the [module docs](super)) bounds both starts: an
//! outer interval outside its owned range emits nothing and is skipped,
//! and the inner scan starts and stops at the owned start range, so an
//! unowned pair is never enumerated.
//!
//! Outer iteration is a contiguous position range of the end order, so the
//! driver in [`super`] can cut it into blocks. The alive state at an outer
//! interval depends only on that interval's end (retirement is monotone
//! along the outer order), so a thread's [`Alive`] state carries from one
//! of its blocks to its next — the blocks it pulls only move forward — and
//! its retirement pointer simply continues: the structure is built once
//! per thread, not per block, and the blocks' output is a permutation-free
//! concatenation of the serial emission order.

use super::ranges::{closed, within};
use super::window::{end_view, window_by};
use super::{slot_conditions, BindingSink, Compiled, Owned, StartRange, StartWindow};
use crate::executor::Candidates;
use ij_interval::{bounds_contain, AllenPredicate, Interval, Time, TupleId};
use ij_query::JoinQuery;
use std::ops::{Bound, Range};

/// The sweep structures of one bucket, shared (read-only) across parallel
/// chunks.
#[derive(Debug)]
pub(crate) struct PairSweep {
    outer_rel: usize,
    inner_rel: usize,
    /// `false` → `overlaps` shape (inner must outlive the outer: retire
    /// `e2 <= e1`, ends ascending); `true` → `contains` shape (inner must
    /// end inside the outer: retire `e2 >= e1`, ends descending).
    contains: bool,
    /// Outer list positions in processing order: ascending `(end, idx)`
    /// for `overlaps`, descending for `contains`.
    outer_order: Vec<u32>,
    /// Inner list positions sorted by ascending `(end, idx)` — the
    /// retirement schedule.
    inner_ends: Vec<(Time, u32)>,
    /// The owner's start range for an outer interval.
    outer_owned: StartRange,
    /// The owner's bounds on an inner interval, given the outer.
    inner_owned: Owned,
}

/// `(outer_rel, inner_rel, contains)` when `q` is pair-shaped: two
/// relations and a single condition that orients — outer = the provably
/// earlier-starting operand — to *overlaps* or *contains*.
fn shape(q: &JoinQuery) -> Option<(usize, usize, bool)> {
    use AllenPredicate::*;
    let [c] = q.conditions() else { return None };
    if q.num_relations() != 2 {
        return None;
    }
    let (l, r) = (c.left.rel.idx(), c.right.rel.idx());
    match c.pred {
        Overlaps => Some((l, r, false)),
        OverlappedBy => Some((r, l, false)),
        Contains => Some((l, r, true)),
        ContainedBy => Some((r, l, true)),
        _ => None,
    }
}

/// Whether the pair sweep is a complete executor for `q`.
pub(super) fn eligible(q: &JoinQuery) -> bool {
    shape(q).is_some()
}

/// First alive position `>= i` in the retirement array (path-halving find;
/// `next[i] == i` means alive, the last slot is a sentinel).
#[inline]
fn find(next: &mut [u32], mut i: usize) -> usize {
    while next[i] as usize != i {
        let p = next[i] as usize;
        next[i] = next[p];
        i = next[i] as usize;
    }
    i
}

impl PairSweep {
    /// Precondition: [`eligible`]`(q)`.
    pub(super) fn new(q: &JoinQuery, cands: &Candidates, owner: &[StartWindow]) -> PairSweep {
        let (outer_rel, inner_rel, contains) = shape(q).expect("pair sweep on a pair-shaped query");
        let order = vec![outer_rel, inner_rel];
        let mut owned = Compiled::new(order, &slot_conditions(q), owner).owned;
        let inner_owned = owned.pop().expect("two levels");
        let full = (Bound::Unbounded, Bound::Unbounded);
        let outer_owned = owned[0].narrow::<(Interval, TupleId)>(&[], full);
        let mut outer_order: Vec<u32> = end_view(cands.list(outer_rel), 0)
            .into_iter()
            .map(|(_, i)| i)
            .collect();
        if contains {
            outer_order.reverse();
        }
        PairSweep {
            outer_rel,
            inner_rel,
            contains,
            outer_order,
            inner_ends: end_view(cands.list(inner_rel), 0),
            outer_owned,
            inner_owned,
        }
    }

    /// Outer positions the driver cuts into blocks: one per outer
    /// interval.
    pub(super) fn outer_len(&self) -> usize {
        self.outer_order.len()
    }

    /// A thread's sweep before the first outer interval: every inner
    /// candidate alive.
    pub(super) fn start<'a>(&'a self, cands: &'a Candidates) -> Alive<'a> {
        let n = cands.len(self.inner_rel);
        Alive {
            plan: self,
            cands,
            assignment: vec![(Interval::point(0), 0); 2],
            // Alive structure over the start-sorted inner list.
            next: (0..=n as u32).collect(),
            retire: if self.contains { n } else { 0 },
        }
    }
}

/// One thread's pair sweep between its blocks: the binding being built,
/// the alive structure (`n + 1` path-halving retirement pointers, the
/// last a sentinel) and the retirement pointer its last outer interval
/// left.
pub(super) struct Alive<'a> {
    plan: &'a PairSweep,
    cands: &'a Candidates,
    assignment: Vec<(Interval, TupleId)>,
    next: Vec<u32>,
    retire: usize,
}

impl Alive<'_> {
    /// Runs the sweep over `outer` positions of the outer end order, which
    /// start at or after the end of every range this sweep ran before.
    pub(super) fn run<S: BindingSink>(
        &mut self,
        outer: Range<usize>,
        sink: &mut S,
        work: &mut u64,
    ) {
        let p = self.plan;
        let outer_list = self.cands.list(p.outer_rel);
        let inner_list = self.cands.list(p.inner_rel);
        let n = inner_list.len();
        let Alive {
            assignment,
            next,
            retire,
            ..
        } = self;
        for &oi in &p.outer_order[outer] {
            let (o_iv, o_tid) = outer_list[oi as usize];
            let (s1, e1) = (o_iv.start(), o_iv.end());
            *work += 1;
            // An outer interval outside its owner range is in no owned
            // pair; the next one retires what this one would have.
            if !bounds_contain(p.outer_owned, s1) {
                continue;
            }
            assignment[p.outer_rel] = (o_iv, o_tid);
            if p.contains {
                // Alive ⇔ e2 < e1 (outer ends descending ⇒ retire from
                // the top of the end order).
                while *retire > 0 && p.inner_ends[*retire - 1].0 >= e1 {
                    *retire -= 1;
                    let victim = p.inner_ends[*retire].1 as usize;
                    next[victim] = victim as u32 + 1;
                }
            } else {
                // Alive ⇔ e2 > e1 (outer ends ascending ⇒ retire from
                // the bottom).
                while *retire < n && p.inner_ends[*retire].0 <= e1 {
                    let victim = p.inner_ends[*retire].1 as usize;
                    next[victim] = victim as u32 + 1;
                    *retire += 1;
                }
            }
            // Every alive inner with s2 ∈ (s1, e1) is a match, and an
            // owned one when s2 also lies in the owner's bounds; in the
            // `contains` shape s2 <= e2 < e1 holds for every alive
            // inner, so only the owner's bound can cut the scan short.
            // The walk over them is the run, and counts its work as the
            // sink pulls it.
            let (lo, hi) =
                (p.inner_owned).narrow(assignment, (Bound::Excluded(s1), Bound::Excluded(e1)));
            let (from, _) = window_by(inner_list, |(iv, _)| iv.start(), lo, Bound::Unbounded);
            let below = closed((Bound::Unbounded, hi));
            let mut j = find(next, from);
            let run = std::iter::from_fn(|| {
                let &row = inner_list.get(j).filter(|r| within(below, r.0.start()))?;
                *work += 1;
                j = find(next, j + 1);
                Some(row)
            });
            sink.push_run(assignment, p.inner_rel, run);
        }
    }
}
