//! Event-list sweep for multi-way colocation condition sets
//! (Piatov-style: one merged endpoint event list, gapless active arrays).
//!
//! All relations' endpoints are merged into a single array of tagged
//! events sorted by `(time, is_end, rel, idx)` — start events before end
//! events at equal time, so endpoint-touching matches (*meets*-shaped
//! pairs) are still live when their partner starts. A cursor walks the
//! events once, maintaining one **gapless** active array per relation:
//! a start event appends the tuple (recording its slot in a position
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
//! **Deterministic chunking.** The outer positions are event indices. A
//! chunk first replays its prefix events (appends and swap-removes only —
//! no probing, no work charged), reconstructing the exact active-array
//! contents *and order* at its start boundary, then processes its own
//! range. Active state at event `i` is a pure function of `events[..i]`,
//! so chunked emission is byte-identical to the serial order and `work` /
//! `active_peak` are chunk-invariant for every thread count.

use super::ranges::range_pair;
use super::scratch::with_scratch;
use super::{slot_conditions, Compiled, Emit, RangePair};
use crate::executor::Candidates;
use ij_interval::{AllenPredicate, Interval, Time, TupleId};
use ij_query::JoinQuery;
use std::ops::Range;

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
    /// at it (`order[0]` is the trigger) with its per-level checks.
    programs: Vec<Compiled>,
    /// Whether relation `r` can ever hold a binding's latest-starting
    /// tuple (see [`possible_latest`]). Start events of pruned relations
    /// only update the active arrays — their probes would always come up
    /// empty, so they are skipped entirely.
    probe: Vec<bool>,
}

/// Which relations can hold the *latest-starting* tuple of a satisfying
/// binding — the only start events whose probes can emit.
///
/// Colocation predicates impose a partial order on start points:
/// `overlaps`/`contains`/`meets`/`finished-by` force the left operand to
/// start strictly first (their converses force the right), while the
/// `starts`/`equals` family pins starts equal. A relation with a strict
/// successor in the transitive closure (through equalities) can never be
/// the latest-starter, so its start-event probes are statically dead:
/// the strictly-later tuple in any would-be binding cannot be active yet.
/// Ties stay unpruned — the total event order decides which of the two
/// equal-start tuples probes last and emits.
fn possible_latest(q: &JoinQuery) -> Vec<bool> {
    use AllenPredicate::*;
    let m = q.num_relations() as usize;
    let mut strict = vec![vec![false; m]; m];
    let mut eq = vec![vec![false; m]; m];
    for c in q.conditions() {
        let (l, r) = (c.left.rel.idx(), c.right.rel.idx());
        match c.pred {
            Overlaps | Contains | Meets | FinishedBy => strict[l][r] = true,
            OverlappedBy | ContainedBy | MetBy | Finishes => strict[r][l] = true,
            Starts | StartedBy | Equals => {
                eq[l][r] = true;
                eq[r][l] = true;
            }
            _ => {}
        }
    }
    // Fixpoint closure: strict composes with strict or equality on
    // either side. m is tiny, so the cubic loop-to-fixpoint is fine.
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..m {
            for k in 0..m {
                if !(strict[i][k] || eq[i][k]) {
                    continue;
                }
                for j in 0..m {
                    let via =
                        (strict[i][k] && (strict[k][j] || eq[k][j])) || (eq[i][k] && strict[k][j]);
                    if via && !strict[i][j] {
                        strict[i][j] = true;
                        changed = true;
                    }
                }
            }
        }
    }
    (0..m).map(|r| !(0..m).any(|p| strict[r][p])).collect()
}

impl EventSweepPlan {
    pub(crate) fn new(q: &JoinQuery, cands: &Candidates) -> EventSweepPlan {
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
        let mut adj = vec![Vec::new(); m];
        for c in q.conditions() {
            adj[c.left.rel.idx()].push(c.right.rel.idx());
            adj[c.right.rel.idx()].push(c.left.rel.idx());
        }
        let programs = (0..m).map(|root| probe_program(q, &adj, root)).collect();
        EventSweepPlan {
            events,
            programs,
            probe: possible_latest(q),
        }
    }

    /// Chunkable outer positions: one per merged event.
    pub(crate) fn outer_len(&self) -> usize {
        self.events.len()
    }

    /// Processes `outer` event positions after replaying the prefix
    /// events to reconstruct the active-array state at the chunk
    /// boundary. `active_peak` is raised to the maximum total active
    /// occupancy observed over the owned range.
    pub(crate) fn run(
        &self,
        cands: &Candidates,
        outer: Range<usize>,
        emit: &mut Emit<'_>,
        work: &mut u64,
        active_peak: &mut u64,
    ) {
        let m = self.programs.len();
        with_scratch(|s| {
            s.active.resize_with(m, Vec::new);
            s.pos.resize_with(m, Vec::new);
            for r in 0..m {
                s.active[r].clear();
                s.pos[r].clear();
                s.pos[r].resize(cands.len(r), INACTIVE);
            }
            s.reset_assignment(m);
            let (active, pos, assignment) = (&mut s.active, &mut s.pos, &mut s.assignment);
            let mut occupancy = 0u64;
            // Prefix replay: state only, no probing, no work charged.
            for e in &self.events[..outer.start] {
                occupancy = apply(e, cands, active, pos, occupancy);
            }
            for e in &self.events[outer] {
                occupancy = apply(e, cands, active, pos, occupancy);
                *active_peak = (*active_peak).max(occupancy);
                if e.end || !self.probe[e.rel as usize] {
                    continue;
                }
                *work += 1;
                let rel = e.rel as usize;
                assignment[rel] = cands.list(rel)[e.idx as usize];
                let program = &self.programs[rel];
                probe(program, active, 1, assignment, emit, work);
            }
        });
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
/// level's intersected endpoint ranges checked exactly — predicate
/// satisfaction *is* range membership (see [`super::ranges`]).
fn probe(
    program: &Compiled,
    active: &[Vec<(Interval, TupleId, u32)>],
    level: usize,
    assignment: &mut Vec<(Interval, TupleId)>,
    emit: &mut Emit<'_>,
    work: &mut u64,
) {
    if level == program.order.len() {
        emit(assignment);
        return;
    }
    let rel = program.order[level];
    let mut rp = RangePair::full();
    for &((other, _), pred, _) in &program.checks[level] {
        rp.intersect(&range_pair(pred, assignment[other].0));
    }
    if rp.is_empty() {
        return;
    }
    let arr = &active[rel];
    *work += arr.len() as u64;
    for &(iv, tid, _) in arr {
        if rp.contains(iv) {
            assignment[rel] = (iv, tid);
            probe(program, active, level + 1, assignment, emit, work);
        }
    }
}

/// BFS binding order rooted at `root` (neighbors in ascending relation
/// index — deterministic), compiled to per-level checks.
fn probe_program(q: &JoinQuery, adj: &[Vec<usize>], root: usize) -> Compiled {
    let m = q.num_relations() as usize;
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
    Compiled::new(order, &slot_conditions(q))
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
