//! The component-matrix pipeline: **mark → prune → join**, written once.
//!
//! Paper §8.1 routes an interval of colocation component `k` that starts
//! in partition `q` to the consistent cells with `coord_k >= q` if RCCIS
//! flagged it and `coord_k == q` otherwise (conditions E1/E2). With one
//! relation per dimension that is All-Matrix (§7.1), with a single
//! dimension RCCIS (§6.1), with one more cycle PASM (§8.2): the four
//! families are [`ComponentMatrix`] settings built by their front-ends
//! (`rccis::rounds`, `all_matrix::algo`, `hybrid::{all_seq_matrix, pasm}`;
//! DESIGN.md §5 tabulates them).
//!
//! * **mark** — multi-member groups are *split*, each `(group, partition)`
//!   bucket runs the RCCIS marking on the group's colocation sub-query,
//!   and every interval is written once, by its start partition, with its
//!   flag. Singleton groups pass through unflagged; when *every* group is
//!   a singleton nothing can be flagged and the stage does not run.
//! * **prune** (on request) — each group's own join runs per partition and
//!   the intervals of its owned bindings are the *participants*; the join
//!   stage ships nobody else from a multi-member group.
//! * **join** — flagged intervals go to `cells_ge`, the rest to `cells_eq`;
//!   each cell joins what it received and keeps the bindings it owns.
//!
//! **Ownership** is one rule, used by all three stages: a binding belongs
//! to coordinate `c` of a dimension when the right-most start among the
//! dimension's members lies in partition `c`'s [`start_window`]. A cell
//! owns a binding when that holds in every dimension, so each output tuple
//! is emitted by exactly one cell.

use crate::algorithm::{iv_records, AlgoError};
use crate::all_matrix::CellSpace;
use crate::executor::Candidates;
use crate::input::JoinInput;
use crate::kernel;
use crate::output::{JoinOutput, OutputMode};
use crate::rccis::marking::{mark_with_options, MarkOptions};
use crate::records::{FlagRec, IvRec, OutRec};
use ij_interval::{ops, Interval, MapOp, Partitioning, RelId, Time, TupleId};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{Emitter, Engine, EngineError, JobChain, JobOutput, ReduceCtx, ValueStream};
use ij_query::{Condition, JoinQuery};
use std::collections::BTreeSet;

/// One setting of the pipeline (DESIGN.md §5 tabulates the four in use).
pub(crate) struct ComponentMatrix<'a> {
    /// Stage-name prefix: stages are `<family>-mark` / `-prune` / `-join`.
    pub family: &'static str,
    /// The full query — what the join stage evaluates.
    pub query: &'a JoinQuery,
    /// The 1-D partitioning every dimension shares.
    pub part: &'a Partitioning,
    /// The reducer matrix: one dimension per group, `part.len()` per side.
    pub space: &'a CellSpace,
    /// `groups[d]`: the relations of dimension `d`, ascending. A group of
    /// two or more must be connected by colocation conditions.
    pub groups: Vec<Vec<usize>>,
    /// Options of the marking stage.
    pub mark_options: MarkOptions,
    /// Whether to run the prune stage.
    pub prune: bool,
    /// Maintain the `rccis.*` map-operation counters — RCCIS's own; the
    /// matrix families never recorded them.
    pub map_op_counters: bool,
    /// Materialize or count.
    pub mode: OutputMode,
}

/// The start points partition `coord` owns, as an inclusive window: its
/// boundaries from `part`, with the first partition open below and the
/// last open above — exactly the clamp of [`Partitioning::index_of`], so
/// `lo <= t && t <= hi` iff `part.index_of(t) == coord`.
pub(crate) fn start_window(part: &Partitioning, coord: usize) -> (Time, Time) {
    let b = part.boundaries();
    let lo = if coord == 0 { Time::MIN } else { b[coord] };
    let hi = if coord + 1 == part.len() {
        Time::MAX
    } else {
        b[coord + 1] - 1
    };
    (lo, hi)
}

/// The ownership rule: in every `(lo, hi, members)` dimension the
/// right-most start among `binding[members]` lies in `[lo, hi]`.
fn owns(dims: &[(Time, Time, &[usize])], binding: &[(Interval, TupleId)]) -> bool {
    dims.iter().all(|&(lo, hi, members)| {
        let start = members
            .iter()
            .fold(Time::MIN, |s, &r| s.max(binding[r].0.start()));
        lo <= start && start <= hi
    })
}

/// The colocation conditions of `query` inside the group `members`, as a
/// query over the group's local slots; `None` for a singleton.
fn sub_query(query: &JoinQuery, members: &[usize], slot_of: &[usize]) -> Option<JoinQuery> {
    if members.len() < 2 {
        return None;
    }
    let inside = |r: RelId| members.contains(&r.idx());
    let slot = |r: RelId| slot_of[r.idx()] as u16;
    let conditions = (query.conditions().iter())
        .filter(|c| c.is_colocation() && inside(c.left.rel) && inside(c.right.rel))
        .map(|c| Condition::whole(slot(c.left.rel), c.pred, slot(c.right.rel)))
        .collect();
    let sub = JoinQuery::new(members.len() as u16, conditions);
    Some(sub.expect("a multi-member group is connected by colocation conditions"))
}

fn participant_key(rel: u64, tid: TupleId) -> u64 {
    rel << 32 | tid as u64
}

/// The prune stage's reducer output: the [`participant_key`] of every
/// interval in an owned group binding. A set, so absorbing chunks in any
/// grouping yields the serial result.
struct ParticipantSink<'a> {
    /// Global relation of each local slot of the group's sub-query.
    rels: &'a [usize],
    ids: BTreeSet<u64>,
}

impl kernel::BindingSink for ParticipantSink<'_> {
    fn push(&mut self, binding: &[(Interval, TupleId)]) {
        for (&rel, (_, tid)) in self.rels.iter().zip(binding) {
            self.ids.insert(participant_key(rel as u64, *tid));
        }
    }
}

impl kernel::OutputSink for ParticipantSink<'_> {
    type Chunk = Self;
    fn fork(&self) -> Self {
        ParticipantSink {
            rels: self.rels,
            ids: BTreeSet::new(),
        }
    }
    fn absorb(&mut self, mut chunk: Self) {
        self.ids.append(&mut chunk.ids);
    }
}

fn unflagged(rec: IvRec) -> FlagRec {
    FlagRec {
        rec,
        replicate: false,
    }
}

/// A setting, the engine it runs on, and what the stages derive from the
/// grouping.
struct Stages<'a> {
    cm: &'a ComponentMatrix<'a>,
    engine: &'a Engine,
    /// Relation → its dimension.
    group_of: Vec<usize>,
    /// Relation → its slot in its group's sub-query.
    slot_of: Vec<usize>,
    /// Per group: its colocation sub-query over local slots; `None` for a
    /// singleton, which has nothing to mark or prune.
    subs: Vec<Option<JoinQuery>>,
}

impl ComponentMatrix<'_> {
    /// Runs the stages this setting calls for and assembles the output,
    /// with every [`crate::output::RunStats`] field the stages produce.
    pub(crate) fn run(&self, input: &JoinInput, engine: &Engine) -> Result<JoinOutput, AlgoError> {
        let m = self.query.num_relations() as usize;
        let (mut group_of, mut slot_of) = (vec![0; m], vec![0; m]);
        for (g, members) in self.groups.iter().enumerate() {
            for (slot, &r) in members.iter().enumerate() {
                (group_of[r], slot_of[r]) = (g, slot);
            }
        }
        let subs: Vec<_> = (self.groups.iter())
            .map(|members| sub_query(self.query, members, &slot_of))
            .collect();
        let any_multi = subs.iter().any(Option::is_some);
        let stages = Stages {
            cm: self,
            engine,
            group_of,
            slot_of,
            subs,
        };

        let mut chain = JobChain::new();
        let flags = if any_multi {
            let marked = stages.mark(&iv_records(input))?;
            chain.push(marked.metrics);
            marked.outputs
        } else {
            // Nothing can be flagged: no interval needs the shuffle.
            iv_records(input).into_iter().map(unflagged).collect()
        };
        let mut participants = None;
        if self.prune && any_multi {
            let pruned = stages.prune(&flags)?;
            chain.push(pruned.metrics);
            participants = Some(pruned.outputs.into_iter().collect::<BTreeSet<u64>>());
        }
        let joined = stages.join(&flags, participants.as_ref())?;
        chain.push(joined.metrics);

        let mut out = JoinOutput::from_records(self.mode, joined.outputs, chain);
        out.stats.replicated_intervals = Some(flags.iter().filter(|f| f.replicate).count() as u64);
        let cells = self.space.consistent_cells().len() as u64;
        out.stats.consistent_cells = Some((cells, self.space.total_cells()));
        for (r, rel) in input.relations().iter().enumerate() {
            // Only relations of multi-member groups are ever pruned.
            let prunable = stages.subs[stages.group_of[r]].is_some() && !rel.is_empty();
            if let (Some(alive), true) = (&participants, prunable) {
                let alive = (0..rel.len() as u32)
                    .filter(|&t| alive.contains(&participant_key(r as u64, t)))
                    .count();
                let name = self.query.relations()[r].name.clone();
                let pruned = 1.0 - alive as f64 / rel.len() as f64;
                out.stats.pruned_fraction.push((name, pruned));
            }
        }
        Ok(out)
    }
}

/// Splits a mark / prune reducer key `group * partitions + p`.
fn group_partition(key: u64, partitions: u64) -> (usize, usize) {
    ((key / partitions) as usize, (key % partitions) as usize)
}

impl Stages<'_> {
    /// **Mark**: every interval exactly once, flagged.
    fn mark(&self, records: &[IvRec]) -> Result<JobOutput<FlagRec>, EngineError> {
        let (cm, p_count) = (self.cm, self.cm.part.len() as u64);
        self.engine.run_job(
            &format!("{}-mark", cm.family),
            records,
            |rec: &IvRec, em: &mut Emitter<IvRec>| {
                let g = self.group_of[rec.rel.idx()];
                let base = g as u64 * p_count;
                if self.subs[g].is_none() {
                    // Singletons only pass through to pick up their flag.
                    em.emit(base + ops::project(rec.iv, cm.part) as u64, *rec);
                    return;
                }
                let before = em.emitted();
                for p in ops::split(rec.iv, cm.part) {
                    em.emit(base + p as u64, *rec);
                }
                if cm.map_op_counters {
                    let copies = (em.emitted() - before) as u64;
                    em.inc(names::RCCIS_SPLIT_PAIRS, copies);
                    if copies > 1 {
                        // The interval crosses at least one boundary.
                        em.inc(names::RCCIS_CROSSING_INTERVALS, 1);
                    }
                }
            },
            |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<FlagRec>| {
                let (g, p) = group_partition(ctx.key, p_count);
                let Some(sub) = &self.subs[g] else {
                    // Singleton group: never replicated.
                    out.extend(values.by_ref().map(unflagged));
                    return;
                };
                let members = &cm.groups[g];
                let mut per_slot = vec![Vec::new(); members.len()];
                for v in values.by_ref() {
                    per_slot[self.slot_of[v.rel.idx()]].push((v.iv, v.tid));
                }
                let marking = mark_with_options(sub, cm.part, p, per_slot, cm.mark_options);
                ctx.add_work(marking.work);
                let (lo, hi) = start_window(cm.part, p);
                for ((&rel, list), flags) in members.iter().zip(&marking.sorted).zip(&marking.flags)
                {
                    let rel = RelId(rel as u16);
                    for (&(iv, tid), &replicate) in list.iter().zip(flags) {
                        // Each interval is written once: by its start partition.
                        if lo <= iv.start() && iv.start() <= hi {
                            if replicate && cm.map_op_counters {
                                ctx.inc(names::RCCIS_FLAGGED_INTERVALS, 1);
                            }
                            let rec = IvRec { rel, tid, iv };
                            out.push(FlagRec { rec, replicate });
                        }
                    }
                }
            },
        )
    }

    /// **Prune**: the [`participant_key`] of every interval that appears in
    /// some owned binding of its (multi-member) group's own join.
    fn prune(&self, flags: &[FlagRec]) -> Result<JobOutput<u64>, EngineError> {
        let (cm, p_count) = (self.cm, self.cm.part.len() as u64);
        self.engine.run_job(
            &format!("{}-prune", cm.family),
            flags,
            |rec: &FlagRec, em: &mut Emitter<IvRec>| {
                let g = self.group_of[rec.rec.rel.idx()];
                if self.subs[g].is_none() {
                    return; // singletons always participate
                }
                let op = if rec.replicate {
                    MapOp::Replicate
                } else {
                    MapOp::Project
                };
                for p in ops::apply(op, rec.rec.iv, cm.part) {
                    em.emit(g as u64 * p_count + p as u64, rec.rec);
                }
            },
            |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<u64>| {
                let (g, p) = group_partition(ctx.key, p_count);
                let Some(sub) = &self.subs[g] else {
                    return; // only multi-member groups are keyed
                };
                let rels = cm.groups[g].as_slice();
                let mut cands = Candidates::new(rels.len());
                for v in values.by_ref() {
                    cands.push(self.slot_of[v.rel.idx()], v.iv, v.tid);
                }
                cands.finish();
                let slots: Vec<usize> = (0..rels.len()).collect();
                let (lo, hi) = start_window(cm.part, p);
                let owned = |a: &[(Interval, TupleId)]| owns(&[(lo, hi, &slots)], a);
                let ids = BTreeSet::new();
                let mut participants = ParticipantSink { rels, ids };
                kernel::reduce_into(ctx, sub, &cands, owned, &mut participants);
                out.extend(participants.ids);
            },
        )
    }

    /// **Join**: route by flag, join per cell, emit the owned bindings.
    /// With `participants`, intervals of multi-member groups outside the
    /// set are never shuffled.
    fn join(
        &self,
        flags: &[FlagRec],
        participants: Option<&BTreeSet<u64>>,
    ) -> Result<JobOutput<OutRec>, EngineError> {
        let cm = self.cm;
        let m = cm.query.num_relations() as usize;
        // A singleton group's interval is never flagged, so it only reaches
        // cells at its own start coordinate: that dimension always owns.
        let tested: Vec<(usize, &[usize])> = (cm.groups.iter().enumerate())
            .filter(|(_, members)| members.len() >= 2)
            .map(|(d, members)| (d, members.as_slice()))
            .collect();
        self.engine.run_job(
            &format!("{}-join", cm.family),
            flags,
            |rec: &FlagRec, em: &mut Emitter<IvRec>| {
                let IvRec { rel, tid, iv } = rec.rec;
                let d = self.group_of[rel.idx()];
                let pruned = |alive: &BTreeSet<u64>| {
                    self.subs[d].is_some() && !alive.contains(&participant_key(rel.0 as u64, tid))
                };
                if participants.is_some_and(pruned) {
                    return;
                }
                let q = cm.part.index_of(iv.start());
                let (cells, counter) = if rec.replicate {
                    (cm.space.cells_ge(d, q), names::RCCIS_REPLICA_PAIRS)
                } else {
                    (cm.space.cells_eq(d, q), names::RCCIS_PROJECTED_PAIRS)
                };
                em.emit_to_all(cells.iter().copied(), &rec.rec);
                if cm.map_op_counters {
                    em.inc(counter, cells.len() as u64);
                }
            },
            |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<OutRec>| {
                let coords = cm.space.decode(ctx.key);
                let dims: Vec<(Time, Time, &[usize])> = (tested.iter())
                    .map(|&(d, members)| {
                        let (lo, hi) = start_window(cm.part, coords[d]);
                        (lo, hi, members)
                    })
                    .collect();
                let mut cands = Candidates::new(m);
                for v in values.by_ref() {
                    cands.push(v.rel.idx(), v.iv, v.tid);
                }
                cands.finish();
                let owned = |a: &[(Interval, TupleId)]| owns(&dims, a);
                kernel::reduce_join(ctx, cm.query, &cands, cm.mode, owned, out);
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every boundary and its two neighbours — so also the points just
    /// below the first boundary and at and above the last — plus the ends
    /// of the `i64` domain.
    fn probes(part: &Partitioning) -> Vec<Time> {
        let mut probes = vec![Time::MIN, Time::MIN + 1, Time::MAX - 1, Time::MAX];
        for &b in part.boundaries() {
            probes.extend([b.saturating_sub(1), b, b.saturating_add(1)]);
        }
        probes
    }

    /// For every coordinate, the window test on a one- and a two-member
    /// dimension is `index_of(right-most start) == coord`.
    fn assert_ownership_is_index_of_max_start(part: &Partitioning) {
        let probes = probes(part);
        let at = |start: Time| (Interval::new(start, start).unwrap(), 0);
        for coord in 0..part.len() {
            let (lo, hi) = start_window(part, coord);
            for &a in &probes {
                let alone = owns(&[(lo, hi, &[0])], &[at(a)]);
                assert_eq!(alone, part.index_of(a) == coord, "{part} {coord} {a}");
                for &b in &probes {
                    let pair = owns(&[(lo, hi, &[0, 1])], &[at(a), at(b)]);
                    let expected = part.index_of(a.max(b)) == coord;
                    assert_eq!(pair, expected, "{part} {coord} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn ownership_on_equi_width_and_equi_depth_boundaries() {
        assert_ownership_is_index_of_max_start(&Partitioning::equi_width(0, 100, 7).unwrap());
        assert_ownership_is_index_of_max_start(&Partitioning::equi_width(-5, 5, 1).unwrap());
        let skewed: Vec<Time> = (0..200).map(|i| (i * i) % 1000).collect();
        let depth = Partitioning::equi_depth(0, 1000, 8, &skewed).unwrap();
        assert!(depth.len() > 1);
        assert_ownership_is_index_of_max_start(&depth);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Explicit boundaries anywhere in the domain, its two ends
        /// included.
        #[test]
        fn ownership_on_explicit_boundaries(
            raw in proptest::collection::vec((0usize..8, -1000i64..1000), 2..9usize),
        ) {
            let mut boundaries: Vec<Time> = raw
                .iter()
                .map(|&(edge, t)| match edge {
                    0 => Time::MIN,
                    1 => Time::MAX,
                    _ => t,
                })
                .collect();
            boundaries.sort_unstable();
            boundaries.dedup();
            if let Ok(part) = Partitioning::from_boundaries(boundaries) {
                assert_ownership_is_index_of_max_start(&part);
            }
        }
    }

    /// The dimensions a cell tests are conjunctive: one outside its
    /// window disowns the binding.
    #[test]
    fn every_dimension_must_own() {
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        let at = |start: Time| (Interval::new(start, start + 3).unwrap(), 0);
        let binding = [at(5), at(12), at(31)];
        let owned_at = |c0: usize, c1: usize| {
            let ((lo0, hi0), (lo1, hi1)) = (start_window(&part, c0), start_window(&part, c1));
            owns(&[(lo0, hi0, &[0, 1]), (lo1, hi1, &[2])], &binding)
        };
        assert!(owned_at(1, 3));
        assert!(!owned_at(0, 3));
        assert!(!owned_at(1, 2));
    }
}
