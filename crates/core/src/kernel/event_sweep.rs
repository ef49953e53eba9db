//! Event-list sweep for multi-way colocation condition sets
//! (Piatov-style: one merged endpoint event list, gapless active arrays).
//!
//! All relations' endpoints are merged into a single array of tagged
//! events sorted by `(time, is_end, rel, idx)` — start events before end
//! events at equal time, so endpoint-touching matches (*meets*-shaped
//! pairs) are still live when their partner starts. A cursor walks the
//! events once, maintaining one **gapless** active array per relation,
//! allocated at the most tuples of the relation the plan saw active at
//! once: a start event appends the tuple (recording its slot in a position
//! index), an end event swap-removes it, fixing up the displaced tuple's
//! slot — the arrays stay densely packed, so probes are pure linear scans
//! with no skip lists and no per-level binary searches.
//!
//! **Emission rule (Helly).** At each start event the kernel binds the
//! starting tuple and enumerates assignments from the *other* relations'
//! active arrays, checking the exact endpoint ranges of
//! [`super::ranges::range_pair`]. This finds every satisfying binding
//! exactly once *provided every pair of relations is guaranteed to
//! intersect*: pairwise-intersecting 1-D intervals share a common point
//! (Helly), that point is the maximum start, and the binding surfaces
//! precisely at the event of its latest-starting tuple, when all its
//! other tuples are active. [`qualifies`] decides that guarantee
//! statically — every directly-conditioned pair intersects (all
//! colocation predicates imply a shared point on closed intervals), the
//! containment-shaped predicates (*contains*, *starts*, *finishes*,
//! *equals* families) add subset facts whose transitive closure extends
//! intersection to indirectly-connected pairs. Overlaps *chains* famously
//! do not qualify (`[0,10] ov [5,15] ov [12,20]` has no common point) and
//! take the window scan.
//!
//! **Ownership.** An owner dimension the trigger belongs to compiles as a
//! bound on the trigger alone, checked before its probe (see the [module
//! docs](super)); the others intersect into the probe levels' range pairs.
//!
//! **Deterministic blocks.** The outer positions are event indices. A
//! thread's [`Active`] state carries the active arrays from one of its
//! blocks to the next, applying the events in between (appends and
//! swap-removes only — no probing, no work charged), so it reaches the
//! exact active-array contents *and order* at each block boundary. Active
//! state at event `i` is a pure function of `events[..i]`, so the blocks'
//! emission, absorbed in block order, is the serial order, and `work` /
//! `active_peak` are the serial run's for every thread count.

use super::ranges::{closed, range_pair, within};
use super::{BindingSink, Compiled, Program, RangePair, StartRange, StartWindow};
use crate::executor::Candidates;
use ij_interval::{bounds_contain, AllenPredicate, Interval, Time, TupleId};
use ij_query::{AttrRef, JoinQuery};
use std::ops::{Bound, Range};

/// Sentinel for "tuple not currently active" in the position index.
const INACTIVE: u32 = u32::MAX;

/// Whether `q`'s condition set guarantees that *every* pair of relations
/// intersects in every satisfying assignment — the precondition for the
/// event sweep's emit-at-latest-start rule to be complete.
///
/// Facts are derived statically: a direct colocation condition between
/// two relations proves they intersect; containment-shaped predicates
/// prove one operand is a subset of the other; subset facts compose
/// transitively, and `i` intersects `j` whenever some `k1 ⊆ i` and
/// `k2 ⊆ j` intersect (or coincide). Any sequence predicate, or any pair
/// left unproven, disqualifies the query.
pub(crate) fn qualifies(q: &JoinQuery) -> bool {
    use AllenPredicate::*;
    let m = q.num_relations() as usize;
    if m < 2 {
        return false;
    }
    // subset[i][j]: relation i's interval is provably contained in j's.
    let mut subset = vec![vec![false; m]; m];
    for (i, row) in subset.iter_mut().enumerate() {
        row[i] = true;
    }
    // inter[i][j]: i and j provably share a point (direct condition).
    let mut inter = vec![vec![false; m]; m];
    for c in q.conditions() {
        if !c.pred.is_colocation() {
            return false;
        }
        let (l, r) = (c.left.rel.idx(), c.right.rel.idx());
        inter[l][r] = true;
        inter[r][l] = true;
        match c.pred {
            Contains | StartedBy | FinishedBy => subset[r][l] = true,
            ContainedBy | Starts | Finishes => subset[l][r] = true,
            Equals => {
                subset[l][r] = true;
                subset[r][l] = true;
            }
            _ => {}
        }
    }
    for k in 0..m {
        let row_k = subset[k].clone();
        for row in subset.iter_mut() {
            if row[k] {
                for (dst, &via) in row.iter_mut().zip(&row_k) {
                    *dst |= via;
                }
            }
        }
    }
    for i in 0..m {
        for j in (i + 1)..m {
            let proven = (0..m).any(|k1| {
                subset[k1][i] && (0..m).any(|k2| subset[k2][j] && (k1 == k2 || inter[k1][k2]))
            });
            if !proven {
                return false;
            }
        }
    }
    true
}

/// One tagged endpoint. The derived sort order `(time, end, rel, idx)`
/// puts start events before end events at equal time and is a total
/// order, so the merged list — and everything downstream of it — is
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: Time,
    end: bool,
    rel: u32,
    idx: u32,
}

/// Precomputed event-sweep structures for one bucket, shared (read-only)
/// across parallel chunks.
#[derive(Debug)]
pub(crate) struct EventSweepPlan {
    /// All relations' endpoints, merged and sorted.
    events: Vec<Event>,
    /// One probe program per trigger relation: a BFS binding order rooted
    /// at it (`order[0]` is the trigger) with its per-level checks and
    /// owner bounds.
    programs: Vec<Compiled>,
    /// Per trigger relation, the owner's range for the trigger's start: a
    /// start event outside it probes nothing.
    gates: Vec<StartRange>,
    /// Whether relation `r` can ever hold a binding's latest-starting
    /// tuple (see [`possible_latest`]). Start events of pruned relations
    /// only update the active arrays — their probes would always come up
    /// empty, so they are skipped entirely.
    probe: Vec<bool>,
    /// Per relation, the most of its tuples active at once: the capacity
    /// of its active array, so that it never regrows.
    peaks: Vec<usize>,
}

/// Which relations can hold the *latest-starting* tuple of a satisfying
/// binding — the only start events whose probes can emit. A relation that
/// provably starts strictly before another ([`ij_query::StartOrder`])
/// never can: the strictly-later tuple of any would-be binding is not yet
/// active at its start event. Equal starts are a tie and stay unpruned —
/// the total event order decides which of the two probes last and emits.
fn possible_latest(q: &JoinQuery) -> Vec<bool> {
    let (order, m) = (q.start_order(), q.num_relations());
    let rel = AttrRef::whole;
    (0..m)
        .map(|r| !(0..m).any(|p| order.lt_start(rel(r), rel(p))))
        .collect()
}

impl EventSweepPlan {
    pub(crate) fn new(
        q: &JoinQuery,
        program: &Program,
        cands: &Candidates,
        owner: &[StartWindow],
    ) -> EventSweepPlan {
        debug_assert!(qualifies(q), "event sweep requires a qualifying query");
        let m = q.num_relations() as usize;
        let mut events = Vec::with_capacity((0..m).map(|r| 2 * cands.len(r)).sum());
        for r in 0..m {
            for (i, &(iv, _)) in cands.list(r).iter().enumerate() {
                let (rel, idx) = (r as u32, i as u32);
                events.push(Event {
                    time: iv.start(),
                    end: false,
                    rel,
                    idx,
                });
                events.push(Event {
                    time: iv.end(),
                    end: true,
                    rel,
                    idx,
                });
            }
        }
        events.sort_unstable();
        let (mut now, mut peaks) = (vec![0usize; m], vec![0usize; m]);
        for e in &events {
            let r = e.rel as usize;
            now[r] = if e.end { now[r] - 1 } else { now[r] + 1 };
            peaks[r] = peaks[r].max(now[r]);
        }
        let programs: Vec<Compiled> = (0..m)
            .map(|root| probe_program(program, root, owner))
            .collect();
        let full = (Bound::Unbounded, Bound::Unbounded);
        let gates = (programs.iter())
            .map(|p| p.owned[0].narrow::<(Interval, TupleId)>(&[], full))
            .collect();
        EventSweepPlan {
            events,
            programs,
            gates,
            probe: possible_latest(q),
            peaks,
        }
    }

    /// Chunkable outer positions: one per merged event.
    pub(crate) fn outer_len(&self) -> usize {
        self.events.len()
    }

    /// A thread's sweep before the first event: every active array empty,
    /// at its peak's capacity.
    pub(crate) fn start<'a>(&'a self, cands: &'a Candidates) -> Active<'a> {
        let (m, active) = (self.programs.len(), self.peaks.iter());
        Active {
            plan: self,
            cands,
            active: active.map(|&n| Vec::with_capacity(n)).collect(),
            pos: (0..m).map(|r| vec![INACTIVE; cands.len(r)]).collect(),
            assignment: vec![(Interval::point(0), 0); m],
            applied: 0,
            occupancy: 0,
        }
    }
}

/// One thread's event sweep between its blocks: the gapless active arrays
/// and their position index after `events[..applied]`, and the binding
/// being built.
pub(crate) struct Active<'a> {
    plan: &'a EventSweepPlan,
    cands: &'a Candidates,
    /// One gapless array per relation; the third slot is the tuple's
    /// candidate-list index (for `pos` fixup after a swap-remove).
    active: Vec<Vec<(Interval, TupleId, u32)>>,
    /// `pos[rel][list_idx]` is the slot of that tuple in `active[rel]`, or
    /// [`INACTIVE`].
    pos: Vec<Vec<u32>>,
    assignment: Vec<(Interval, TupleId)>,
    applied: usize,
    occupancy: u64,
}

impl Active<'_> {
    /// Processes event positions `outer`, which start at or after the end
    /// of every range this sweep ran before, having applied the events in
    /// between (state only, no probing, no work charged). `active_peak` is
    /// raised to the maximum total active occupancy observed over `outer`.
    pub(crate) fn run<S: BindingSink>(
        &mut self,
        outer: Range<usize>,
        sink: &mut S,
        work: &mut u64,
        active_peak: &mut u64,
    ) {
        let Active {
            plan,
            cands,
            active,
            pos,
            assignment,
            applied,
            occupancy,
        } = self;
        debug_assert!(*applied <= outer.start, "blocks run in order");
        for e in &plan.events[*applied..outer.start] {
            *occupancy = apply(e, cands, active, pos, *occupancy);
        }
        *applied = outer.end;
        for e in &plan.events[outer] {
            *occupancy = apply(e, cands, active, pos, *occupancy);
            *active_peak = (*active_peak).max(*occupancy);
            if e.end || !plan.probe[e.rel as usize] {
                continue;
            }
            *work += 1;
            let rel = e.rel as usize;
            if !bounds_contain(plan.gates[rel], e.time) {
                continue;
            }
            assignment[rel] = cands.list(rel)[e.idx as usize];
            probe(&plan.programs[rel], active, 1, assignment, sink, work);
        }
    }
}

/// Applies one event to the gapless active arrays, returning the new
/// total occupancy. Start: append and record the slot. End: swap-remove
/// and repoint the displaced tuple's slot.
fn apply(
    e: &Event,
    cands: &Candidates,
    active: &mut [Vec<(Interval, TupleId, u32)>],
    pos: &mut [Vec<u32>],
    occupancy: u64,
) -> u64 {
    let (rel, idx) = (e.rel as usize, e.idx as usize);
    if e.end {
        let p = pos[rel][idx] as usize;
        debug_assert_ne!(p as u32, INACTIVE, "end event for inactive tuple");
        pos[rel][idx] = INACTIVE;
        active[rel].swap_remove(p);
        if p < active[rel].len() {
            let moved = active[rel][p].2 as usize;
            pos[rel][moved] = p as u32;
        }
        occupancy - 1
    } else {
        let (iv, tid) = cands.list(rel)[idx];
        pos[rel][idx] = active[rel].len() as u32;
        active[rel].push((iv, tid, e.idx));
        occupancy + 1
    }
}

/// Enumerates bindings level by level from the active arrays, with the
/// level's intersected endpoint ranges and owner bounds checked exactly —
/// predicate satisfaction *is* range membership (see [`super::ranges`]).
/// The last level hands the active tuples inside its ranges to `sink` as
/// one run, the ranges normalized to inclusive bounds once.
fn probe<S: BindingSink>(
    program: &Compiled,
    active: &[Vec<(Interval, TupleId, u32)>],
    level: usize,
    assignment: &mut [(Interval, TupleId)],
    sink: &mut S,
    work: &mut u64,
) {
    let rel = program.order[level];
    let mut rp = RangePair::full();
    for &((other, _), pred, _) in &program.checks[level] {
        rp.intersect(&range_pair(pred, assignment[other].0));
    }
    rp.start = program.owned[level].narrow(assignment, rp.start);
    if rp.is_empty() {
        return;
    }
    let arr = &active[rel];
    *work += arr.len() as u64;
    let (start, end) = (closed(rp.start), closed(rp.end));
    let run = (arr.iter().map(|&(iv, tid, _)| (iv, tid)))
        .filter(|(iv, _)| within(start, iv.start()) && within(end, iv.end()));
    if level + 1 == program.order.len() {
        sink.push_run(assignment, rel, run);
    } else {
        for row in run {
            assignment[rel] = row;
            probe(program, active, level + 1, assignment, sink, work);
        }
    }
}

/// BFS binding order rooted at `root` (neighbors in ascending relation
/// index — deterministic), compiled to per-level checks and `owner`'s
/// bounds. The trigger holds the binding's latest start (Helly), so a
/// dimension it belongs to owns the binding exactly when the trigger's
/// start lies in its window: such a dimension compiles as the trigger
/// alone, a bound at level 0.
fn probe_program(program: &Program, root: usize, owner: &[StartWindow]) -> Compiled {
    let (m, adj) = (program.adj.len(), &program.adj);
    let mut order = vec![root];
    let mut seen = vec![false; m];
    seen[root] = true;
    let mut head = 0;
    while head < order.len() {
        let cur = order[head];
        head += 1;
        let mut next: Vec<usize> = adj[cur].iter().copied().filter(|&n| !seen[n]).collect();
        next.sort_unstable();
        next.dedup();
        for n in next {
            seen[n] = true;
            order.push(n);
        }
    }
    debug_assert_eq!(order.len(), m, "qualifying queries are connected");
    let trigger = [(root, 0)];
    let owner: Vec<StartWindow> = (owner.iter())
        .map(|&(lo, hi, members)| match members.contains(&trigger[0]) {
            true => (lo, hi, &trigger[..]),
            false => (lo, hi, members),
        })
        .collect();
    Compiled::new(order, &program.conditions, &owner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;
    use ij_query::Condition;

    fn chain(preds: &[AllenPredicate]) -> JoinQuery {
        JoinQuery::chain(preds).unwrap()
    }

    #[test]
    fn colocation_cliques_qualify() {
        // All pairs directly conditioned — qualification is immediate.
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Overlaps, 1),
                Condition::whole(1, Overlaps, 2),
                Condition::whole(0, Contains, 2),
            ],
        )
        .unwrap();
        assert!(qualifies(&q));
    }

    #[test]
    fn overlaps_chains_do_not_qualify() {
        // R1=[0,10] ov R2=[5,15] ov R3=[12,20] has no common point: the
        // (0,2) pair is unprovable, so the chain must stay off this path.
        assert!(!qualifies(&chain(&[Overlaps, Overlaps])));
        assert!(!qualifies(&chain(&[Overlaps, Overlaps, Overlaps])));
    }

    #[test]
    fn containment_chains_qualify_via_subset_closure() {
        // r3 ⊆ r2 ⊆ r1 proves the (0,2) intersection transitively.
        assert!(qualifies(&chain(&[Contains, Contains])));
        assert!(qualifies(&chain(&[ContainedBy, Equals, Starts])));
        // Mixed: 1 ov 2 is direct; 2 ⊆ 1 is not derivable from ov, but
        // contains on (1,2) then ov on (0,1) leaves (0,2) unprovable.
        assert!(!qualifies(&chain(&[Overlaps, Contains])));
    }

    #[test]
    fn sequence_or_tiny_queries_never_qualify() {
        assert!(!qualifies(&chain(&[Before])));
        assert!(!qualifies(&chain(&[Overlaps, Before])));
        // Pair colocation queries qualify (both relations conditioned).
        assert!(qualifies(&chain(&[Meets])));
        assert!(qualifies(&chain(&[Equals])));
    }

    #[test]
    fn disconnected_colocation_queries_do_not_qualify() {
        let q = JoinQuery::new(
            4,
            vec![
                Condition::whole(0, Overlaps, 1),
                Condition::whole(2, Overlaps, 3),
            ],
        )
        .unwrap();
        assert!(!qualifies(&q));
    }

    #[test]
    fn possible_latest_prunes_strictly_earlier_relations() {
        // ov(0,1) forces s0 < s1, contains(1,2) forces s1 < s2: only r2
        // can hold a binding's latest start, so r0/r1 probes are dead.
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Overlaps, 1),
                Condition::whole(1, Contains, 2),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        assert_eq!(possible_latest(&q), vec![false, false, true]);
        // Equal starts are a tie — both relations keep their probes (the
        // event order picks which of the two actually emits)...
        assert_eq!(possible_latest(&chain(&[Starts])), vec![true, true]);
        // ...but strictness composes *through* an equality: s0 == s1 < s2.
        assert_eq!(
            possible_latest(&chain(&[Starts, Contains])),
            vec![false, false, true]
        );
        // Containment chains leave only the innermost interval.
        assert_eq!(
            possible_latest(&chain(&[Contains, Contains])),
            vec![false, false, true]
        );
        assert_eq!(possible_latest(&chain(&[Equals])), vec![true, true]);
    }

    #[test]
    fn event_order_puts_starts_before_ends() {
        let a = Event {
            time: 5,
            end: false,
            rel: 1,
            idx: 9,
        };
        let b = Event {
            time: 5,
            end: true,
            rel: 0,
            idx: 0,
        };
        assert!(a < b, "equal-time start must sort before end");
    }
}
