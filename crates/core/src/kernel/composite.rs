//! The composite join: the one reducer step of every family whose records
//! carry several intervals — the cascade's stages (Section 6), FCTS's
//! sequence matrix (Section 8) and Gen-Matrix's join (Section 9.1).
//!
//! A bucket holds one list of [`CompRec`]s per *side*, and a record holds
//! one interval per *slot*: the relations a cascade composite has joined,
//! the members of an FCTS component, the attributes of a Gen-Matrix tuple.
//! Conditions are Allen predicates between `(side, slot)` pairs. A family
//! keeps only its routing (a closure from a record to its cells) and, for
//! Gen-Matrix, an ownership test; [`CompositeJoin::run`] is the cycle.
//!
//! The reducer is one windowed descent that binds a side per level. A
//! level sorts its side's list by the start of one slot — the slot most of
//! its checks constrain — windows it on that slot's intersected
//! [`RangePair`] and filters every constrained slot with
//! [`RangePair::contains`]. Range membership is predicate truth (see
//! [`super::ranges`]), so no `holds` re-check runs. A condition between
//! two slots of one side filters that side's list before the descent;
//! sides with no condition between them join as a cross product.

use super::{range_pair, RangePair};
use crate::executor::{binding_order, window_by};
use crate::input::JoinInput;
use crate::output::OutputMode;
use crate::records::{CompRec, OutRec};
use ij_interval::{AllenPredicate, RelId, TupleId};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{Emitter, Engine, EngineError, JobOutput, ReduceCtx, ReducerId, ValueStream};
use ij_query::JoinQuery;
use std::cmp::{Ordering, Reverse};

/// A `(side, slot)` position in a composite join.
pub(crate) type Slot = (usize, usize);

/// `left pred right` between two slots.
pub(crate) type SlotCondition = (Slot, AllenPredicate, Slot);

/// The ownership test a family may add: the reducer's key and a binding,
/// one record per side.
pub(crate) type Accept<'a> = dyn Fn(ReducerId, &[&CompRec]) -> bool + Sync + 'a;

/// One composite join: its sides, the conditions between their slots and
/// the output row it gathers.
#[derive(Debug)]
pub(crate) struct CompositeJoin<'q> {
    /// Number of sides; a side no condition mentions joins as a factor.
    pub(crate) sides: usize,
    /// The conditions every binding satisfies.
    pub(crate) conditions: Vec<SlotCondition>,
    /// Per output column, the side and the `tids` slot its id comes from.
    pub(crate) gather: Vec<Slot>,
    /// Materialize or count.
    pub(crate) mode: OutputMode,
    /// Bind sides in this query's binding order (its relations are the
    /// sides) rather than in side order.
    pub(crate) order_by: Option<&'q JoinQuery>,
}

impl<'q> CompositeJoin<'q> {
    /// `q` itself: its relations are the sides, their attributes the
    /// slots, and a record's one tuple id is its output column.
    pub(crate) fn of_query(q: &'q JoinQuery, mode: OutputMode) -> Self {
        let slot = |at: ij_query::AttrRef| (at.rel.idx(), at.attr as usize);
        CompositeJoin {
            sides: q.num_relations() as usize,
            conditions: (q.conditions().iter())
                .map(|c| (slot(c.left), c.pred, slot(c.right)))
                .collect(),
            gather: (0..q.num_relations() as usize).map(|r| (r, 0)).collect(),
            mode,
            order_by: Some(q),
        }
    }

    /// Runs the join as the MR cycle `name`: `route` sends each record to
    /// its cells, and each reducer joins its bucket, keeps the bindings
    /// `accept` admits and writes one [`OutRec`].
    pub(crate) fn run(
        &self,
        engine: &Engine,
        name: &str,
        records: &[CompRec],
        route: impl Fn(&CompRec, &mut Emitter<CompRec>) + Sync,
        accept: Option<&Accept<'_>>,
    ) -> Result<JobOutput<OutRec>, EngineError> {
        engine.run_job(
            name,
            records,
            route,
            |ctx: &mut ReduceCtx, values: &mut ValueStream<CompRec>, out: &mut Vec<OutRec>| {
                let mut lists = vec![Vec::new(); self.sides];
                for rec in values.by_ref() {
                    lists[rec.side as usize].push(rec);
                }
                let key = ctx.key;
                let mut found = OutRec::new(self.mode, self.gather.len());
                let work =
                    self.join_into(&mut lists, |b| accept.is_none_or(|a| a(key, b)), &mut found);
                ctx.add_work(work);
                ctx.inc(names::JOIN_CANDIDATES, work);
                ctx.inc(names::JOIN_EMITTED, found.tuples());
                found.emit_into(out);
            },
        )
    }

    /// Joins one bucket, `lists[side]` holding that side's records (sorted
    /// and filtered in place): every binding that satisfies the conditions
    /// and `accept` is written to `out`. Returns the candidates examined.
    pub(crate) fn join_into(
        &self,
        lists: &mut [Vec<CompRec>],
        accept: impl Fn(&[&CompRec]) -> bool,
        out: &mut OutRec,
    ) -> u64 {
        debug_assert_eq!(lists.len(), self.sides);
        let order = match self.order_by {
            Some(q) => binding_order(q, |s| lists[s].len()),
            None => (0..self.sides).collect(),
        };
        let mut level_of = vec![0; self.sides];
        for (level, &side) in order.iter().enumerate() {
            level_of[side] = level;
        }
        // Each check sits at the later of its two sides' levels, oriented
        // so that side's slot is the right operand.
        let mut checks: Vec<Vec<(Slot, AllenPredicate, usize)>> = vec![Vec::new(); self.sides];
        for &(l, pred, r) in &self.conditions {
            match level_of[l.0].cmp(&level_of[r.0]) {
                Ordering::Less => checks[level_of[r.0]].push((l, pred, r.1)),
                Ordering::Greater => checks[level_of[l.0]].push((r, pred.inverse(), l.1)),
                Ordering::Equal => {
                    lists[l.0].retain(|rec| range_pair(pred, rec.ivs[l.1]).contains(rec.ivs[r.1]))
                }
            }
        }
        if lists.iter().any(Vec::is_empty) {
            return 0;
        }
        let levels: Vec<Level> = (order.iter().zip(checks))
            .map(|(&side, checks)| Level::new(side, checks))
            .collect();
        for level in &levels {
            if let Some(&key) = level.slots.first() {
                lists[level.side].sort_unstable_by(|a, b| {
                    (a.ivs[key].start().cmp(&b.ivs[key].start())).then_with(|| a.tids.cmp(&b.tids))
                });
            }
        }
        let lists = &*lists;
        let mut chosen: Vec<&CompRec> = lists.iter().map(|l| &l[0]).collect();
        let mut ranges = vec![RangePair::full(); levels.iter().map(|l| l.slots.len()).sum()];
        let mut work = 0;
        descend(
            lists,
            &levels,
            &mut chosen,
            &mut ranges,
            &mut |b| {
                if accept(b) {
                    out.push_row(self.gather.iter().map(|&(side, slot)| b[side].tids[slot]));
                }
            },
            &mut work,
        );
        work
    }
}

/// One level of the descent: the side it binds and its checks against the
/// sides bound before it.
#[derive(Debug)]
struct Level {
    side: usize,
    /// The slots the checks constrain, the windowed slot first.
    slots: Vec<usize>,
    /// `(bound slot, predicate with this side's slot as the right
    /// operand, index into slots)`.
    checks: Vec<(Slot, AllenPredicate, usize)>,
}

impl Level {
    /// Windows on the slot most checks constrain (the lowest on a tie).
    fn new(side: usize, mut checks: Vec<(Slot, AllenPredicate, usize)>) -> Level {
        let mut slots: Vec<usize> = checks.iter().map(|c| c.2).collect();
        slots.sort_unstable();
        slots.dedup();
        // Stable: slots with as many checks keep their order.
        slots.sort_by_key(|&s| Reverse(checks.iter().filter(|c| c.2 == s).count()));
        for check in &mut checks {
            check.2 = (slots.iter().position(|&s| s == check.2)).expect("a check's slot is listed");
        }
        Level {
            side,
            slots,
            checks,
        }
    }
}

/// Binds `levels[0]`'s side to every candidate in its window that meets
/// the level's ranges, then the rest; a full binding goes to `emit`.
/// `ranges` is scratch, one pair per slot of each remaining level.
fn descend<'a>(
    lists: &'a [Vec<CompRec>],
    levels: &[Level],
    chosen: &mut [&'a CompRec],
    ranges: &mut [RangePair],
    emit: &mut dyn FnMut(&[&CompRec]),
    work: &mut u64,
) {
    let Some((level, deeper)) = levels.split_first() else {
        emit(chosen);
        return;
    };
    let (rps, rest) = ranges.split_at_mut(level.slots.len());
    rps.fill(RangePair::full());
    for &((side, slot), pred, i) in &level.checks {
        rps[i].intersect(&range_pair(pred, chosen[side].ivs[slot]));
    }
    let list = &lists[level.side];
    let (from, to) = match (level.slots.first(), rps.first()) {
        (Some(&key), Some(rp)) => window_by(list, |r| r.ivs[key].start(), rp.start.0, rp.start.1),
        _ => (0, list.len()),
    };
    *work += (to - from) as u64;
    for rec in &list[from..to] {
        if (level.slots.iter().zip(&*rps)).all(|(&slot, rp)| rp.contains(rec.ivs[slot])) {
            chosen[level.side] = rec;
            descend(lists, deeper, chosen, rest, emit, work);
        }
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
                .map(|(&tid, &rel)| input.relation(rel).tuple(tid).interval())
                .collect(),
        })
        .collect()
}

/// One single-slot composite record of `side` per tuple of `rel`.
pub(crate) fn base_composites(side: usize, rel: RelId, input: &JoinInput) -> Vec<CompRec> {
    let ids = input.relation(rel).tuples().iter();
    composites(
        side,
        &[rel],
        ids.map(|t| std::slice::from_ref(&t.id)),
        input,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Candidates;
    use crate::oracle::{oracle_join, reference_join};
    use ij_interval::AllenPredicate::*;
    use ij_interval::{Interval, Relation};
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

    /// The sorted rows `join` writes for `lists`, and its work.
    fn rows(join: &CompositeJoin, mut lists: Vec<Vec<CompRec>>) -> (Vec<Vec<TupleId>>, u64) {
        let mut out = OutRec::new(OutputMode::Materialize, join.gather.len());
        let work = join.join_into(&mut lists, |_| true, &mut out);
        let OutRec::Rows(table) = out else {
            unreachable!("materializing")
        };
        let mut rows: Vec<Vec<TupleId>> = table.iter().map(<[TupleId]>::to_vec).collect();
        rows.sort_unstable();
        (rows, work)
    }

    /// A whole input as composite lists: one record per tuple.
    fn lists_of(input: &JoinInput) -> Vec<Vec<CompRec>> {
        (input.relations().iter().enumerate())
            .map(|(r, rel)| {
                (rel.tuples().iter())
                    .map(|t| rec(r, t.id, t.attrs.clone()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_the_reference_on_single_attribute_queries() {
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let mut c = Candidates::new(3);
        let data: [&[(i64, i64)]; 3] = [
            &[(0, 10), (2, 7), (30, 35)],
            &[(5, 12), (6, 20)],
            &[(15, 18), (25, 40), (13, 14)],
        ];
        let mut lists = vec![Vec::new(); 3];
        for (r, rows) in data.iter().enumerate() {
            for (t, &(s, e)) in rows.iter().enumerate() {
                c.push(r, iv(s, e), t as u32);
                lists[r].push(rec(r, t as u32, vec![iv(s, e)]));
            }
        }
        c.finish();
        let mut want: Vec<Vec<TupleId>> = Vec::new();
        reference_join(&q, &c, |a| want.push(a.iter().map(|(_, t)| *t).collect()));
        want.sort();
        assert!(!want.is_empty());
        assert_eq!(
            rows(&CompositeJoin::of_query(&q, OutputMode::Count), lists).0,
            want
        );
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
