//! The RCCIS replication-marking computation run by first-cycle reducers.
//!
//! Reducer `p` receives intervals intersecting partition `p` (one split
//! copy each) and must find `uS_p`: the union of all interval-sets that
//! satisfy C1 (consistent) and C2 (cross `p`). It then flags the members of
//! `uS_p` that *start* in `p`. Any input that holds every member of every
//! such set yields the same flags, so the component-matrix pipeline ships
//! only the copies within reach of `p`'s boundaries.
//!
//! ## A union of joins
//!
//! A crossing set never needs relations from two different *connected
//! pieces* of the query graph: if the set's relation-set is disconnected,
//! the crossing conditions factor per piece, so the union over connected
//! relation-subsets already yields `uS_p`. For each connected subset (for
//! the paper's chain queries these are the `O(m²)` contiguous ranges):
//!
//! 1. each member's list is filtered by its boundary need (B1/B2 on the
//!    query edges leaving the subset) — the need depends on the candidate
//!    alone, so it is a filter before the join, not a check inside it;
//! 2. the filtered lists are joined on the subset's induced sub-query by
//!    the reducer kernels ([`kernel::execute_into`]), with list positions
//!    as tuple ids; a singleton subset is its filter alone;
//! 3. every position in some binding is a member of a crossing set.
//!
//! The full relation set is an output tuple, never a crossing set, and is
//! skipped under C2.

use crate::executor::Candidates;
use crate::kernel::{self, BindingSink, KernelConfig, OutputSink};
use ij_interval::{Interval, PartitionIndex, Partitioning, TupleId};
use ij_query::{Condition, JoinQuery};

/// Per-relation inputs for one marking reducer: intervals intersecting the
/// partition, each with its tuple id.
pub type PerRelation = Vec<Vec<(Interval, TupleId)>>;

/// What the marking for partition `p` found. Only intervals whose start
/// point lies in `p` can be flagged.
pub struct Marking {
    /// `flagged[r]`: the ids of relation `r`'s intervals to replicate,
    /// ascending.
    pub flagged: Vec<Vec<TupleId>>,
    /// Candidates examined (reported to the cost model).
    pub work: u64,
}

/// The most relations a marked query may have: the marking enumerates
/// relation subsets as bitmasks.
pub(crate) const MAX_RELATIONS: usize = 16;

/// Options for [`mark_with_options`].
#[derive(Debug, Clone, Copy)]
pub struct MarkOptions {
    /// Enforce condition C2 (the set must *cross* the partition). Turning
    /// this off is the paper-motivated ablation: every interval belonging
    /// to any consistent set gets replicated, quantifying how much the
    /// crossing condition saves (DESIGN.md §8).
    pub enforce_crossing: bool,
}

impl Default for MarkOptions {
    fn default() -> Self {
        MarkOptions {
            enforce_crossing: true,
        }
    }
}

/// Computes the marking (see module docs).
pub fn mark(
    q: &JoinQuery,
    part: &Partitioning,
    p: PartitionIndex,
    per_rel: PerRelation,
) -> Marking {
    mark_with_options(q, part, p, per_rel, MarkOptions::default())
}

/// [`mark`] with explicit [`MarkOptions`].
pub fn mark_with_options(
    q: &JoinQuery,
    part: &Partitioning,
    p: PartitionIndex,
    per_rel: PerRelation,
    opts: MarkOptions,
) -> Marking {
    let m = q.num_relations() as usize;
    assert_eq!(per_rel.len(), m);
    assert!(
        m <= MAX_RELATIONS,
        "marking enumerates relation subsets; m <= 16"
    );
    let mut hits: Vec<Vec<bool>> = per_rel.iter().map(|l| vec![false; l.len()]).collect();
    let mut work = 0u64;
    let full_mask = (1u32 << m) - 1;
    for subset in connected_subsets(q) {
        if opts.enforce_crossing && subset == full_mask {
            continue; // an output tuple, never a crossing set (Section 6.1)
        }
        let members: Vec<usize> = (0..m).filter(|&r| subset & (1 << r) != 0).collect();
        let needs = &boundary_needs(q, subset, opts);
        let kept = |r: usize| {
            let list = per_rel[r].iter().enumerate();
            list.filter(move |(_, &(iv, _))| needs[r].met(part, p, iv))
        };
        if let [r] = members[..] {
            work += per_rel[r].len() as u64;
            kept(r).for_each(|(i, _)| hits[r][i] = true);
            continue;
        }
        let mut cands = Candidates::new(members.len());
        for (slot, &r) in members.iter().enumerate() {
            kept(r).for_each(|(i, &(iv, _))| cands.push(slot, iv, i as TupleId));
        }
        cands.finish();
        let mut found = Hits(
            members
                .iter()
                .map(|&r| vec![false; per_rel[r].len()])
                .collect(),
        );
        let (sub, serial) = (induced(q, &members), KernelConfig::serial());
        work += kernel::execute_into(&sub, &cands, &serial, |_| true, &mut found).work;
        for (&r, found) in members.iter().zip(found.0) {
            (hits[r].iter_mut().zip(found)).for_each(|(hit, f)| *hit |= f);
        }
    }
    let flagged = (per_rel.iter().zip(hits))
        .map(|(list, hits)| {
            let mut tids: Vec<TupleId> = (list.iter().zip(hits))
                .filter(|&(&(iv, _), hit)| hit && part.index_of(iv.start()) == p)
                .map(|(&(_, tid), _)| tid)
                .collect();
            tids.sort_unstable();
            tids
        })
        .collect();
    Marking { flagged, work }
}

/// The kernel sink of one subset's join: `0[slot][i]` is set once position
/// `i` of the slot's list is in some binding.
struct Hits(Vec<Vec<bool>>);

impl BindingSink for Hits {
    fn push(&mut self, binding: &[(Interval, TupleId)]) {
        for (hits, &(_, i)) in self.0.iter_mut().zip(binding) {
            hits[i as usize] = true;
        }
    }
}

impl OutputSink for Hits {
    type Chunk = Hits;
    fn fork(&self) -> Hits {
        Hits(self.0.iter().map(|h| vec![false; h.len()]).collect())
    }
    fn absorb(&mut self, chunk: Hits) {
        for (hits, found) in self.0.iter_mut().zip(chunk.0) {
            hits.iter_mut().zip(found).for_each(|(hit, f)| *hit |= f);
        }
    }
}

/// The conditions of `q` among `members`, over the members' slots.
fn induced(q: &JoinQuery, members: &[usize]) -> JoinQuery {
    let slot = |r: usize| members.iter().position(|&m| m == r);
    let conditions = (q.conditions().iter())
        .filter_map(|c| Some((slot(c.left.rel.idx())?, c.pred, slot(c.right.rel.idx())?)))
        .map(|(l, pred, r)| Condition::whole(l as u16, pred, r as u16))
        .collect();
    JoinQuery::new(members.len() as u16, conditions).expect("a connected subset has a condition")
}

/// Each relation's neighbours in the join graph, as a bitmask.
fn adjacency(q: &JoinQuery) -> Vec<u32> {
    let mut adj = vec![0u32; q.num_relations() as usize];
    for c in q.conditions() {
        adj[c.left.rel.idx()] |= 1 << c.right.rel.idx();
        adj[c.right.rel.idx()] |= 1 << c.left.rel.idx();
    }
    adj
}

/// Whether the relations of `mask` are connected through conditions
/// between them: a flood fill from the lowest set bit.
fn is_connected_subset(adj: &[u32], mask: u32) -> bool {
    let mut seen = 1u32 << mask.trailing_zeros();
    loop {
        let mut grew = false;
        for (r, &nbrs) in adj.iter().enumerate() {
            if seen & (1 << r) != 0 {
                let add = nbrs & mask & !seen;
                if add != 0 {
                    seen |= add;
                    grew = true;
                }
            }
        }
        if !grew {
            return seen == mask;
        }
    }
}

/// Whether every relation of `q` — one that no condition mentions
/// included — is connected to every other. Only then is every proper
/// connected subset bounded by a query edge, and so by B1/B2.
pub(crate) fn is_connected(q: &JoinQuery) -> bool {
    let m = q.num_relations() as usize;
    m <= MAX_RELATIONS && is_connected_subset(&adjacency(q), (1u32 << m) - 1)
}

/// All subsets of relations (as bitmasks) that are connected in the join
/// graph, in ascending mask order. Singletons are connected.
fn connected_subsets(q: &JoinQuery) -> Vec<u32> {
    let m = q.num_relations() as usize;
    let adj = adjacency(q);
    (1u32..(1 << m))
        .filter(|&mask| is_connected_subset(&adj, mask))
        .collect()
}

/// Per-relation boundary requirements of a subset (conditions B1/B2): for
/// every query edge with exactly one endpoint inside `mask`, the in-set
/// member must cross the right boundary if it is the lesser relation, the
/// left boundary otherwise; none when `opts` waive C2. Filtering by them
/// *before* the join, instead of testing crossing on every consistent set,
/// is what makes the marking cheap relative to the join itself.
fn boundary_needs(q: &JoinQuery, mask: u32, opts: MarkOptions) -> Vec<BoundaryNeed> {
    let m = q.num_relations() as usize;
    let mut needs = vec![BoundaryNeed::default(); m];
    for c in q.conditions().iter().filter(|_| opts.enforce_crossing) {
        let l_in = mask & (1 << c.left.rel.idx()) != 0;
        let r_in = mask & (1 << c.right.rel.idx()) != 0;
        let member = match (l_in, r_in) {
            (true, false) => c.left,
            (false, true) => c.right,
            _ => continue,
        };
        if c.lesser() == member {
            needs[member.rel.idx()].right = true;
        } else {
            needs[member.rel.idx()].left = true;
        }
    }
    needs
}

/// Whether a subset member must cross the partition's boundaries.
#[derive(Debug, Clone, Copy, Default)]
struct BoundaryNeed {
    left: bool,
    right: bool,
}

impl BoundaryNeed {
    fn met(self, part: &Partitioning, p: PartitionIndex, iv: Interval) -> bool {
        (!self.left || part.crosses_left(iv, p)) && (!self.right || part.crosses_right(iv, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;
    use ij_interval::Time;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    #[test]
    fn connected_subsets_of_a_chain_are_ranges() {
        // Chain R1-R2-R3: connected subsets are the 6 contiguous ranges.
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let subs = connected_subsets(&q);
        assert_eq!(subs, vec![0b001, 0b010, 0b011, 0b100, 0b110, 0b111]);
    }

    #[test]
    fn connected_subsets_of_a_star() {
        // Star R1-R2, R1-R3: {R2,R3} alone is NOT connected.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        let subs = connected_subsets(&q);
        assert!(!subs.contains(&0b110));
        assert!(subs.contains(&0b111));
        assert_eq!(subs.len(), 6);
    }

    /// A hand-verified Q0 marking at partition p = [10, 20):
    ///
    /// * R1 `(12,15)`: in no consistent crossing set (does not cross right
    ///   alone, does not overlap the only R2 interval) → unflagged;
    /// * R1 `(14,23)`: crosses right alone (B1 for `R1 ov R2`) → flagged;
    /// * R2 `(16,29)`: `{u=(14,23), v}` is consistent, and v crossing right
    ///   satisfies B1 for `R2 contains R3` → flagged;
    /// * R3 `(17,25)`: `{u, v, w}` is consistent and w crossing right
    ///   satisfies B1 for `R3 ov R4` → flagged (note `{v, w}` alone does NOT
    ///   cross: B2 for `R1 ov R2` needs v to cross left, and it does not).
    #[test]
    fn hand_verified_q0_marking() {
        let q = JoinQuery::chain(&[Overlaps, Contains, Overlaps]).unwrap();
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        let marking = mark(
            &q,
            &part,
            1,
            vec![
                vec![(iv(12, 15), 0), (iv(14, 23), 1)],
                vec![(iv(16, 29), 0)],
                vec![(iv(17, 25), 0)],
                vec![],
            ],
        );
        assert_eq!(marking.flagged, vec![vec![1], vec![0], vec![0], vec![]]);
        assert!(marking.work > 0);
    }

    #[test]
    fn nothing_flagged_when_no_set_crosses() {
        // Everything comfortably inside the partition: no crossing sets.
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        let marking = mark(&q, &part, 0, vec![vec![(iv(1, 4), 0)], vec![(iv(2, 6), 0)]]);
        assert!(marking.flagged.iter().all(Vec::is_empty));
    }

    #[test]
    fn singleton_set_can_cross() {
        // A lone R1 interval crossing right is a crossing set for
        // R1 overlaps R2 (B1 on the boundary edge).
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        let marking = mark(&q, &part, 0, vec![vec![(iv(3, 15), 0)], vec![]]);
        assert_eq!(marking.flagged[0], vec![0]);
    }

    #[test]
    fn only_intervals_starting_in_partition_flagged() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        // Both cross p1's right boundary but u starts in p0.
        let marking = mark(
            &q,
            &part,
            1,
            vec![vec![(iv(5, 25), 0), (iv(12, 25), 1)], vec![]],
        );
        // Only (12,25) starts in p1.
        assert_eq!(marking.flagged[0], vec![1]);
    }

    #[test]
    fn connectivity_sees_relations_no_condition_mentions() {
        let chain = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        assert!(is_connected(&chain));
        let cond = |l, r| ij_query::Condition::whole(l, Overlaps, r);
        let unmentioned = JoinQuery::new(3, vec![cond(0, 1)]).unwrap();
        assert!(!is_connected(&unmentioned));
        let two_pieces = JoinQuery::new(4, vec![cond(0, 1), cond(2, 3)]).unwrap();
        assert!(!is_connected(&two_pieces));
    }

    /// Fig. 3's definition by brute force: the members starting in `p` of
    /// every assignment — per relation absent or one interval of its list —
    /// that `is_consistent` accepts and, under C2, `crosses_partition` too.
    ///
    /// One exemption. The marking takes its input as intersecting `p`, but
    /// a split copy lying wholly outside the partitioned range (a point at
    /// `Time::MAX`, say) reaches `p` only through `index_of`'s clamp, and
    /// condition 2 rejects every set holding one. The crossing check
    /// therefore sees such a member as the two-point interval straddling
    /// the edge of the range it lies beyond, which intersects `p` and
    /// crosses exactly the boundaries the member crosses.
    fn flagged_by_definition(
        q: &JoinQuery,
        part: &Partitioning,
        p: PartitionIndex,
        per_rel: &PerRelation,
        opts: MarkOptions,
    ) -> Vec<Vec<TupleId>> {
        use ij_query::consistency::is_consistent;
        use ij_query::crosses_partition;
        let range = part.range();
        let seen = |iv: Interval| match iv {
            _ if iv.start() > range.end() => iv_at(range.end(), range.end() + 1),
            _ if iv.end() < range.start() => iv_at(range.start() - 1, range.start()),
            _ => iv,
        };
        let mut flagged = vec![std::collections::BTreeSet::new(); per_rel.len()];
        // `pick[r]`: 0 for absent, `i + 1` for `per_rel[r][i]`.
        let mut pick = vec![0usize; per_rel.len()];
        loop {
            let members = || (pick.iter().zip(per_rel)).map(|(&i, l)| l.get(i.checked_sub(1)?));
            let assign: Vec<Option<Interval>> = members().map(|m| m.map(|&(iv, _)| iv)).collect();
            let crossing: Vec<Option<Interval>> = assign.iter().map(|m| m.map(seen)).collect();
            if is_consistent(q, &assign)
                && (!opts.enforce_crossing || crosses_partition(q, part, p, &crossing))
            {
                for (set, &(iv, tid)) in flagged
                    .iter_mut()
                    .zip(members())
                    .filter_map(|(s, m)| Some((s, m?)))
                {
                    if part.index_of(iv.start()) == p {
                        set.insert(tid);
                    }
                }
            }
            // Odometer step over the product.
            let mut r = per_rel.len();
            loop {
                if r == 0 {
                    return flagged
                        .into_iter()
                        .map(|s| s.into_iter().collect())
                        .collect();
                }
                r -= 1;
                pick[r] += 1;
                if pick[r] <= per_rel[r].len() {
                    break;
                }
                pick[r] = 0;
            }
        }
    }

    fn iv_at(s: Time, e: Time) -> Interval {
        Interval::new(s, e).unwrap()
    }

    /// The marking against its definition: colocation chains, stars and
    /// cliques of two to four relations over all eleven colocation
    /// predicates; sparse, dense, long, point and `i64`-extreme data;
    /// equi-width and equi-depth boundaries; both [`MarkOptions`]. Each
    /// partition's lists are what its mark reducer receives: the intervals
    /// whose split reaches it.
    #[test]
    fn marking_matches_the_definition() {
        use crate::algorithm::{PartitionStrategy, RunArtifacts};
        use crate::input::JoinInput;
        use ij_interval::{ops, AllenPredicate, Relation};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let colocation: Vec<AllenPredicate> = (AllenPredicate::ALL.into_iter())
            .filter(|p| p.is_colocation())
            .collect();
        const EXTREMES: [Time; 7] = [Time::MIN, Time::MIN + 1, -1, 0, 1, Time::MAX - 1, Time::MAX];
        let interval = |rng: &mut StdRng, data: usize| {
            let (span, max_len) = match data {
                0 => (1000, 30), // sparse
                1 => (120, 40),  // dense
                2 => (400, 300), // long
                3 => (80, 0),    // points
                _ => {
                    let (a, b) = (EXTREMES[rng.gen_range(0..7)], EXTREMES[rng.gen_range(0..7)]);
                    return iv_at(a.min(b), a.max(b));
                }
            };
            let s = rng.gen_range(0..span);
            iv_at(s, s + rng.gen_range(0..=max_len))
        };
        let (mut checked, mut hits, mut next_pred) = (0, 0, 0);
        let mut rng = StdRng::seed_from_u64(31);
        for m in 2..=4usize {
            let chain: Vec<(usize, usize)> = (1..m).map(|r| (r - 1, r)).collect();
            let star: Vec<(usize, usize)> = (1..m).map(|r| (0, r)).collect();
            let clique: Vec<(usize, usize)> = (0..m)
                .flat_map(|a| (a + 1..m).map(move |b| (a, b)))
                .collect();
            for edges in [chain, star, clique] {
                let conditions = (edges.iter())
                    .map(|&(a, b)| {
                        next_pred += 1;
                        let pred = colocation[next_pred % colocation.len()];
                        Condition::whole(a as u16, pred, b as u16)
                    })
                    .collect();
                let q = JoinQuery::new(m as u16, conditions).unwrap();
                for (round, data) in (0..3).flat_map(|round| (0..5).map(move |d| (round, d))) {
                    let rels: Vec<Vec<Interval>> = (0..m)
                        .map(|_| {
                            let n = rng.gen_range(round..=12);
                            (0..n).map(|_| interval(&mut rng, data)).collect()
                        })
                        .collect();
                    let relations = (rels.iter())
                        .map(|ivs| Relation::from_intervals("R", ivs.iter().copied()))
                        .collect();
                    let input = JoinInput::bind_owned(&q, relations).unwrap();
                    for strategy in [PartitionStrategy::EquiWidth, PartitionStrategy::EquiDepth] {
                        let k = rng.gen_range(1..=6);
                        let part = RunArtifacts::partition_input(&input, k, strategy).unwrap();
                        for p in 0..part.len() {
                            let per_rel: PerRelation = (rels.iter())
                                .map(|ivs| {
                                    let tids = (0..).zip(ivs.iter().copied());
                                    let reach =
                                        tids.filter(|&(_, iv)| ops::split(iv, &part).contains(&p));
                                    reach.map(|(tid, iv)| (iv, tid)).collect()
                                })
                                .collect();
                            for enforce_crossing in [true, false] {
                                let opts = MarkOptions { enforce_crossing };
                                let want = flagged_by_definition(&q, &part, p, &per_rel, opts);
                                let got = mark_with_options(&q, &part, p, per_rel.clone(), opts);
                                assert_eq!(
                                    got.flagged, want,
                                    "{q} {part} p={p} {opts:?} {per_rel:?}"
                                );
                                checked += 1;
                                hits += want.iter().map(Vec::len).sum::<usize>();
                            }
                        }
                    }
                }
            }
        }
        assert!(
            checked > 0 && hits > 0,
            "vacuous: {checked} markings, {hits} flags"
        );
    }

    #[test]
    #[should_panic(expected = "m <= 16")]
    fn too_many_relations_rejected() {
        let preds = vec![Overlaps; 17];
        let q = JoinQuery::chain(&preds).unwrap();
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        mark(&q, &part, 0, vec![Vec::new(); 18]);
    }
}
