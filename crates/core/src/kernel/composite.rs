//! The composite join: the reducer program of every family whose records
//! carry several intervals — the cascade's stages (Section 6), FCTS's
//! sequence matrix (Section 8) and Gen-Matrix's join (Section 9.1).
//!
//! A bucket holds one list of [`CompRec`]s per *side*, and a record holds
//! one interval per *slot*: the relations a cascade composite has joined,
//! the members of an FCTS component, the attributes of a Gen-Matrix tuple.
//! Conditions are Allen predicates between `(side, slot)` pairs. The cycle
//! itself — routing, cells and ownership — is the component-matrix join
//! stage (`component_matrix::JoinStage`), which runs this program in every
//! reducer (`BucketJoin`).
//!
//! A composite bucket is the window kernel's multi-slot case: its records
//! are the rows of the one windowed descent (see `kernel::window`), each
//! side's list sorted by the start of its level's key slot, and it runs
//! through the same level program, end views, chunk runner and `kernel.*`
//! / `join.*` counters as every single-attribute bucket, with the owner
//! compiled into its level program. A condition between two slots of one
//! side filters that side's list before the descent; sides with no
//! condition between them join as a cross product.

use super::window::{Row, Scan, WindowPlan};
use super::{drive, range_pair, reduce_rec, Program};
use super::{BindingSink, BucketJoin, Chunks};
use super::{Compiled, KernelConfig, KernelKind, KernelReport, Slot, SlotCondition, StartWindow};
use crate::input::JoinInput;
use crate::output::OutputMode;
use crate::records::{CompRec, OutRec};
use ij_interval::{Interval, RelId, TupleId};
use ij_mapreduce::{ReduceCtx, ValueStream};
use ij_query::{Condition, JoinQuery};
use std::ops::Range;

/// One composite join: its sides, the conditions between their slots and
/// the output row it gathers.
#[derive(Debug)]
pub struct CompositeJoin<'q> {
    /// Number of sides; a side no condition mentions joins as a factor.
    pub sides: usize,
    /// The conditions every binding satisfies.
    pub conditions: Vec<SlotCondition>,
    /// Per output column, the side and the slot its id comes from; a sink
    /// sees `(ivs[slot], tids[slot])`.
    pub gather: Vec<Slot>,
    /// Materialize or count.
    pub mode: OutputMode,
    /// Bind sides in this query's binding order (its relations are the
    /// sides) rather than in side order.
    pub order_by: Option<&'q JoinQuery>,
}

impl<'q> CompositeJoin<'q> {
    /// `q` itself: its relations are the sides, their attributes the
    /// slots, and a record's one tuple id is its output column.
    pub fn of_query(q: &'q JoinQuery, mode: OutputMode) -> Self {
        CompositeJoin {
            sides: q.num_relations() as usize,
            conditions: Program::new(KernelKind::Window, q).conditions,
            gather: (0..q.num_relations() as usize).map(|r| (r, 0)).collect(),
            mode,
            order_by: Some(q),
        }
    }

    /// The join of `sides` — side `s`'s records carry the relations
    /// `sides[s]`, one per slot — on `conditions`, gathering the relations
    /// `gather` in order.
    pub(crate) fn over<'c>(
        sides: &[Vec<RelId>],
        conditions: impl IntoIterator<Item = &'c Condition>,
        gather: impl IntoIterator<Item = RelId>,
        mode: OutputMode,
    ) -> Self {
        let slot = |rel: RelId| {
            (sides.iter().enumerate())
                .find_map(|(s, rels)| Some((s, rels.iter().position(|&r| r == rel)?)))
                .expect("every relation is on a side")
        };
        CompositeJoin {
            sides: sides.len(),
            conditions: (conditions.into_iter())
                .map(|c| (slot(c.left.rel), c.pred, slot(c.right.rel)))
                .collect(),
            gather: gather.into_iter().map(slot).collect(),
            mode,
            order_by: None,
        }
    }

    /// Joins one bucket of `records` (any sides, any order) into `out`:
    /// every binding that satisfies the conditions and that `owner` owns
    /// adds its gathered row, or one to the count. Chunked like every
    /// kernel bucket: rows, their order and the work are the serial run's
    /// for every `cfg`.
    pub fn join_into(
        &self,
        records: &[CompRec],
        cfg: &KernelConfig,
        owner: &[StartWindow],
        out: &mut OutRec,
    ) -> KernelReport {
        let kind = KernelKind::Window;
        let mut lists: Vec<Vec<&CompRec>> = vec![Vec::new(); self.sides];
        for rec in records {
            lists[rec.side as usize].push(rec);
        }
        let order = match self.order_by {
            Some(q) => Program::new(kind, q).order(|s| lists[s].len()),
            None => (0..self.sides).collect(),
        };
        for &((side, a), pred, (other, b)) in &self.conditions {
            if side == other {
                lists[side].retain(|rec| range_pair(pred, rec.ivs[a]).contains(rec.ivs[b]));
            }
        }
        if lists.iter().any(Vec::is_empty) {
            return KernelReport::idle(kind);
        }
        let compiled = Compiled::new(order, &self.conditions, owner);
        for (&side, &key) in compiled.order.iter().zip(&compiled.key) {
            lists[side].sort_unstable_by(|a, b| {
                (a.ivs[key].start(), &a.tids).cmp(&(b.ivs[key].start(), &b.tids))
            });
        }
        let plan = WindowPlan::new(compiled, &lists);
        let shape = (plan.outer_len, lists.iter().map(Vec::len).sum());
        let bucket = Bucket {
            plan,
            lists,
            gather: &self.gather,
        };
        match out {
            OutRec::Count(n) => drive(kind, shape, cfg, &bucket, n),
            OutRec::Rows(rows) => drive(kind, shape, cfg, &bucket, rows),
        }
    }
}

/// The multi-slot program: a bucket of [`CompRec`]s joined by
/// [`CompositeJoin::join_into`] under the engine's thread budget.
impl BucketJoin<CompRec> for CompositeJoin<'_> {
    fn reduce(
        &self,
        ctx: &mut ReduceCtx,
        values: &mut ValueStream<CompRec>,
        owner: &[StartWindow],
        out: &mut Vec<OutRec>,
    ) {
        let bucket: Vec<CompRec> = values.by_ref().collect();
        let rec = OutRec::new(self.mode, self.gather.len());
        reduce_rec(ctx, rec, out, |cfg, rec| {
            self.join_into(&bucket, cfg, owner, rec)
        });
    }
}

/// A composite record is a row with a slot per interval it carries.
impl Row for &CompRec {
    fn at(self, slot: usize) -> Interval {
        self.ivs[slot]
    }
}

/// One prepared composite bucket: sorted, filtered per-side lists.
struct Bucket<'a> {
    plan: WindowPlan,
    lists: Vec<Vec<&'a CompRec>>,
    gather: &'a [Slot],
}

impl<'r> Chunks for Bucket<'r> {
    /// Where each level's searches ended.
    type Carry<'a>
        = Scan<&'r CompRec>
    where
        Self: 'a;

    fn start(&self) -> Scan<&'r CompRec> {
        self.plan.start(&self.lists)
    }

    fn run<K: BindingSink>(
        &self,
        scan: &mut Scan<&'r CompRec>,
        outer: Range<usize>,
        sink: &mut K,
    ) -> KernelReport {
        let mut rep = KernelReport::idle(KernelKind::Window);
        let mut gathered = Gathered {
            columns: self.gather,
            row: Vec::with_capacity(self.gather.len()),
            sink,
        };
        self.plan
            .run(&self.lists, scan, outer, &mut gathered, &mut rep.work);
        rep
    }
}

/// The descent's sink over composite bindings: an owned binding reaches
/// `sink` as its gathered row, per output column the id and the interval
/// in that slot — one binding at a time (the default
/// [`BindingSink::push_run`]).
struct Gathered<'a, K> {
    columns: &'a [Slot],
    row: Vec<(Interval, TupleId)>,
    sink: &'a mut K,
}

impl<K: BindingSink> BindingSink<&CompRec> for Gathered<'_, K> {
    fn push(&mut self, b: &[&CompRec]) {
        self.row.clear();
        (self.row).extend((self.columns.iter()).map(|&(s, k)| (b[s].ivs[k], b[s].tids[k])));
        self.sink.push(&self.row);
    }
}

/// Composite records of `side` over `rels`, one per id row — slot `i`
/// holds relation `rels[i]`'s tuple and interval.
pub(crate) fn composites<'r>(
    side: usize,
    rels: &[RelId],
    rows: impl IntoIterator<Item = &'r [TupleId]>,
    input: &JoinInput,
) -> Vec<CompRec> {
    (rows.into_iter())
        .map(|row| CompRec {
            side: side as u16,
            tids: row.to_vec(),
            ivs: (row.iter().zip(rels))
                .map(|(&tid, &rel)| input.relation(rel).tuple(tid).attr(0))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Candidates;
    use crate::kernel::execute_kind;
    use crate::oracle::{oracle_join, reference_join};
    use ij_interval::AllenPredicate::{self, *};
    use ij_interval::Relation;
    use ij_query::query::RelationMeta;
    use ij_query::{AttrRef, Condition};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    fn rec(side: usize, tid: TupleId, ivs: Vec<Interval>) -> CompRec {
        CompRec {
            side: side as u16,
            tids: vec![tid],
            ivs,
        }
    }

    /// The rows `join` writes for `lists` in emission order, and its work.
    fn emitted(join: &CompositeJoin, lists: Vec<Vec<CompRec>>) -> (Vec<Vec<TupleId>>, u64) {
        let records: Vec<CompRec> = lists.into_iter().flatten().collect();
        let mut out = OutRec::new(OutputMode::Materialize, join.gather.len());
        let rep = join.join_into(&records, &KernelConfig::serial(), &[], &mut out);
        let OutRec::Rows(table) = out else {
            unreachable!("materializing")
        };
        (table.iter().map(<[TupleId]>::to_vec).collect(), rep.work)
    }

    /// The sorted rows `join` writes for `lists`, and its work.
    fn rows(join: &CompositeJoin, lists: Vec<Vec<CompRec>>) -> (Vec<Vec<TupleId>>, u64) {
        let (mut rows, work) = emitted(join, lists);
        rows.sort_unstable();
        (rows, work)
    }

    /// A whole input as composite lists: one record per tuple.
    fn lists_of(input: &JoinInput) -> Vec<Vec<CompRec>> {
        (input.relations().iter().enumerate())
            .map(|(r, rel)| {
                rel.tuples()
                    .map(|t| rec(r, t.id, t.intervals().collect()))
                    .collect()
            })
            .collect()
    }

    fn tids(a: &[(Interval, TupleId)]) -> Vec<TupleId> {
        a.iter().map(|(_, t)| *t).collect()
    }

    /// A single-attribute bucket as one-slot composite records joins like
    /// the window kernel on the same candidates: the same rows in the same
    /// emission order, the same work, and the reference's result set.
    /// Returns the number of rows.
    fn assert_one_slot_case_is_the_window_kernel(q: &JoinQuery, data: &[Vec<(i64, i64)>]) -> usize {
        let mut c = Candidates::new(data.len());
        let mut lists = vec![Vec::new(); data.len()];
        for (r, rows) in data.iter().enumerate() {
            for (t, &(s, e)) in rows.iter().enumerate() {
                c.push(r, iv(s, e), t as u32);
                lists[r].push(rec(r, t as u32, vec![iv(s, e)]));
            }
        }
        c.finish();
        let mut window = Vec::new();
        let rep = execute_kind(KernelKind::Window, q, &c, &[], |a| window.push(tids(a)))
            .expect("the window kernel takes every query");
        let join = CompositeJoin::of_query(q, OutputMode::Count);
        assert_eq!(emitted(&join, lists), (window.clone(), rep.work), "{q}");
        let mut want: Vec<Vec<TupleId>> = Vec::new();
        reference_join(q, &c, |a| want.push(tids(a)));
        want.sort();
        window.sort();
        assert_eq!(window, want, "{q}");
        want.len()
    }

    #[test]
    fn matches_the_reference_on_single_attribute_queries() {
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let data = vec![
            vec![(0, 10), (2, 7), (30, 35)],
            vec![(5, 12), (6, 20)],
            vec![(15, 18), (25, 40), (13, 14)],
        ];
        assert!(assert_one_slot_case_is_the_window_kernel(&q, &data) > 0);
        // Every predicate as a 2-way chain, and Overlaps∘Before, on
        // random data.
        let mut rng = StdRng::seed_from_u64(34);
        let chains =
            (AllenPredicate::ALL.map(|p| vec![p]).into_iter()).chain([vec![Overlaps, Before]]);
        let mut total = 0;
        for preds in chains {
            let q = JoinQuery::chain(&preds).unwrap();
            for _ in 0..8 {
                let data: Vec<Vec<(i64, i64)>> = (0..q.num_relations())
                    .map(|_| {
                        (0..12)
                            .map(|_| {
                                let s = rng.gen_range(0..40);
                                (s, s + rng.gen_range(0..15))
                            })
                            .collect()
                    })
                    .collect();
                total += assert_one_slot_case_is_the_window_kernel(&q, &data);
            }
        }
        assert!(total > 0, "the random buckets join nothing");
    }

    #[test]
    fn multi_attribute_conditions_all_hold() {
        // R1.a0 overlaps R2.a0 and R1.a1 = R2.a1
        let q = JoinQuery::with_relations(
            vec![
                RelationMeta {
                    name: "R1".into(),
                    attr_names: vec!["I".into(), "A".into()],
                },
                RelationMeta {
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
                rec(0, 0, vec![iv(0, 10), Interval::point(7)]),
                rec(0, 1, vec![iv(0, 10), Interval::point(8)]),
            ],
            vec![
                rec(1, 0, vec![iv(5, 15), Interval::point(7)]),
                rec(1, 1, vec![iv(5, 15), Interval::point(9)]),
            ],
        ];
        let join = CompositeJoin::of_query(&q, OutputMode::Materialize);
        assert_eq!(rows(&join, lists).0, vec![vec![0, 0]]);
    }

    /// The descent on whole inputs against the oracle's cross product.
    #[test]
    fn general_class_matches_brute_force_cross_product() {
        let meta = |name: &str, attrs: &[&str]| RelationMeta {
            name: name.into(),
            attr_names: attrs.iter().map(|a| a.to_string()).collect(),
        };
        // Q5 (Section 9.1): one interval and one or two real-valued
        // attributes per relation.
        let q5 = JoinQuery::with_relations(
            vec![
                meta("R1", &["I", "A"]),
                meta("R2", &["I", "B"]),
                meta("R3", &["I", "A", "B"]),
            ],
            vec![
                Condition::new(AttrRef::new(0, 0), Before, AttrRef::new(1, 0)),
                Condition::new(AttrRef::new(0, 0), Overlaps, AttrRef::new(2, 0)),
                Condition::new(AttrRef::new(0, 1), Equals, AttrRef::new(2, 1)),
                Condition::new(AttrRef::new(1, 1), Equals, AttrRef::new(2, 2)),
            ],
        )
        .unwrap();
        // Mixed: an interval attribute compared with a real-valued one,
        // and a less-than between two real-valued attributes.
        let mixed = JoinQuery::with_relations(
            vec![meta("S", &["I", "x"]), meta("T", &["J", "y"])],
            vec![
                Condition::new(AttrRef::new(0, 0), Contains, AttrRef::new(1, 1)),
                Condition::new(AttrRef::new(0, 1), Before, AttrRef::new(1, 1)),
                Condition::new(AttrRef::new(0, 0), OverlappedBy, AttrRef::new(1, 0)),
            ],
        )
        .unwrap();
        for (q, seeds) in [(&q5, 0..6u64), (&mixed, 6..12u64)] {
            assert_eq!(q.class(), ij_query::QueryClass::General);
            let mut total = 0;
            for seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                let rels = q
                    .relations()
                    .iter()
                    .map(|m| {
                        Relation::from_rows(
                            m.name.clone(),
                            (0..rng.gen_range(1..14usize)).map(|_| {
                                let s = rng.gen_range(0..60i64);
                                let mut row =
                                    vec![Interval::new(s, s + rng.gen_range(0..25)).unwrap()];
                                row.resize_with(m.attr_names.len(), || {
                                    Interval::point(rng.gen_range(0..5))
                                });
                                row
                            }),
                        )
                    })
                    .collect();
                let input = JoinInput::bind_owned(q, rels).unwrap();
                let join = CompositeJoin::of_query(q, OutputMode::Materialize);
                let want = oracle_join(q, &input);
                assert_eq!(rows(&join, lists_of(&input)).0, want, "{q} (seed {seed})");
                total += want.len();
            }
            assert!(total > 0, "{q}: workloads join nothing");
        }
    }

    #[test]
    fn a_condition_within_one_side_filters_it() {
        // Side 0 holds (a, b) pairs, side 1 single intervals:
        // 0.a before 0.b and 0.b overlaps 1.
        let join = CompositeJoin {
            sides: 2,
            conditions: vec![((0, 0), Before, (0, 1)), ((0, 1), Overlaps, (1, 0))],
            gather: vec![(0, 0), (0, 1), (1, 0)],
            mode: OutputMode::Materialize,
            order_by: None,
        };
        let comp = |tids: [TupleId; 2], a: Interval, b: Interval| CompRec {
            side: 0,
            tids: tids.to_vec(),
            ivs: vec![a, b],
        };
        let lists = vec![
            vec![
                comp([0, 0], iv(0, 2), iv(5, 10)),
                comp([1, 1], iv(6, 8), iv(5, 10)), // a not before b
            ],
            vec![rec(1, 0, vec![iv(7, 20)]), rec(1, 1, vec![iv(11, 20)])],
        ];
        let (got, work) = rows(&join, lists);
        assert_eq!(got, vec![vec![0, 0, 0]]);
        // The filtered composite is never a candidate; the window over
        // side 1's starts in (5, 10) holds one of its two records.
        assert_eq!(work, 1 + 1);
    }

    #[test]
    fn unconstrained_sides_join_as_a_cross_product() {
        let join = CompositeJoin {
            sides: 3,
            conditions: vec![((0, 0), Before, (2, 0))],
            gather: vec![(0, 0), (1, 0), (2, 0)],
            mode: OutputMode::Materialize,
            order_by: None,
        };
        let lists = vec![
            vec![rec(0, 0, vec![iv(0, 1)]), rec(0, 1, vec![iv(50, 60)])],
            vec![rec(1, 0, vec![iv(3, 4)]), rec(1, 1, vec![iv(90, 99)])],
            vec![rec(2, 0, vec![iv(10, 12)])],
        ];
        let (got, _) = rows(&join, lists);
        assert_eq!(got, vec![vec![0, 0, 0], vec![0, 1, 0]]);
        // No condition at all: every record of a single side is a row.
        let all = CompositeJoin {
            sides: 1,
            conditions: Vec::new(),
            gather: vec![(0, 0)],
            mode: OutputMode::Materialize,
            order_by: None,
        };
        let one = vec![vec![rec(0, 4, vec![iv(0, 1)]), rec(0, 2, vec![iv(0, 1)])]];
        assert_eq!(rows(&all, one), (vec![vec![2], vec![4]], 2));
        // A side without records joins nothing and examines nothing.
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let lists = vec![vec![rec(0, 0, vec![iv(0, 10)])], Vec::new()];
        let join = CompositeJoin::of_query(&q, OutputMode::Count);
        assert_eq!(rows(&join, lists), (Vec::new(), 0));
    }
}
