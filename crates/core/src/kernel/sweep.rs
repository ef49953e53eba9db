//! The pair sweep: a genuine active-set plane sweep for two relations
//! joined by one `overlaps`/`contains`-shaped condition.
//!
//! Outer intervals are processed in end-point order; inner candidates
//! whose end point can no longer satisfy the end range are *retired* from
//! an alive list (a path-compressed next-pointer array over the
//! start-sorted inner list, O(1) amortized deletion and skip). Every alive
//! candidate inside the outer's start range is then an exact match —
//! enumeration is output-linear, `O(n log n + output)` overall.
//!
//! Outer iteration is a contiguous position range of the end order, so the
//! parallel driver in [`super`] can chunk it: a worker's alive state
//! depends only on the outer interval being processed (retirement is
//! monotone along the outer order), making chunked output a
//! permutation-free concatenation of the serial emission order.

use super::scratch::{with_scratch, Scratch};
use super::window::end_view;
use super::Emit;
use crate::executor::Candidates;
use ij_interval::{AllenPredicate, Time};
use ij_query::JoinQuery;
use std::ops::Range;

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
    pub(super) fn new(q: &JoinQuery, cands: &Candidates) -> PairSweep {
        let (outer_rel, inner_rel, contains) = shape(q).expect("pair sweep on a pair-shaped query");
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
        }
    }

    /// Chunkable outer positions: one per outer interval.
    pub(super) fn outer_len(&self) -> usize {
        self.outer_order.len()
    }

    /// Runs the sweep over `outer` positions of the outer end order.
    pub(super) fn run(
        &self,
        cands: &Candidates,
        outer: Range<usize>,
        emit: &mut Emit<'_>,
        work: &mut u64,
    ) {
        let outer_list = cands.list(self.outer_rel);
        let inner_list = cands.list(self.inner_rel);
        let n = inner_list.len();
        with_scratch(|s| {
            s.reset_assignment(2);
            let Scratch {
                assignment, next, ..
            } = s;
            // Alive structure over the start-sorted inner list. Retirement
            // is monotone along the outer order, so a chunk starting
            // mid-order reaches the identical alive state by fast-forwarding
            // its own retirement pointer — no cross-chunk dependency.
            next.clear();
            next.extend(0..=n as u32);
            let mut retire = if self.contains { n } else { 0 };
            for &oi in &self.outer_order[outer] {
                let (o_iv, o_tid) = outer_list[oi as usize];
                let (s1, e1) = (o_iv.start(), o_iv.end());
                *work += 1;
                assignment[self.outer_rel] = (o_iv, o_tid);
                if self.contains {
                    // Alive ⇔ e2 < e1 (outer ends descending ⇒ retire from
                    // the top of the end order).
                    while retire > 0 && self.inner_ends[retire - 1].0 >= e1 {
                        retire -= 1;
                        let victim = self.inner_ends[retire].1 as usize;
                        next[victim] = victim as u32 + 1;
                    }
                } else {
                    // Alive ⇔ e2 > e1 (outer ends ascending ⇒ retire from
                    // the bottom).
                    while retire < n && self.inner_ends[retire].0 <= e1 {
                        let victim = self.inner_ends[retire].1 as usize;
                        next[victim] = victim as u32 + 1;
                        retire += 1;
                    }
                }
                // Every alive inner with s2 ∈ (s1, e1) is a match; in the
                // `contains` shape s2 <= e2 < e1 holds for every alive
                // inner, so the upper bound never cuts the scan short.
                let from = inner_list.partition_point(|(iv, _)| iv.start() <= s1);
                let mut j = find(next, from);
                while j < n && inner_list[j].0.start() < e1 {
                    *work += 1;
                    assignment[self.inner_rel] = inner_list[j];
                    emit(assignment);
                    j = find(next, j + 1);
                }
            }
        });
    }
}
