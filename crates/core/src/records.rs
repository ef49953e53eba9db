//! Record types flowing through the MapReduce jobs.

use crate::input::JoinInput;
use crate::output::{OutputMode, Tuples};
use ij_interval::{AttrId, Interval, RelId, Relation, TupleId};
use ij_mapreduce::{MapInput, Record};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A single-attribute interval record: one tuple of one (logical) relation.
/// The workhorse of the Colocation / Sequence / Hybrid algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IvRec {
    /// Logical relation the tuple belongs to.
    pub rel: RelId,
    /// The tuple's id within its relation.
    pub tid: TupleId,
    /// The tuple's interval (attribute 0).
    pub iv: Interval,
}

impl Record for IvRec {}

/// One attribute of several relations read in place as [`IvRec`]s — the
/// single-attribute jobs' map input: a record is built as the engine reads
/// its row, so the input is never copied. The order is
/// [`iv_records`](crate::algorithm::iv_records)': relation after relation
/// as listed, tuple ids ascending.
pub struct Columns<'a> {
    /// Per listed relation: its id, the relation and attribute, and the
    /// indices of its records.
    cols: Vec<(RelId, &'a Relation, AttrId, Range<usize>)>,
}

impl<'a> Columns<'a> {
    /// Attribute `attr` of each `relation`, its records tagged `rel`.
    pub fn new(list: impl IntoIterator<Item = (RelId, &'a Relation, AttrId)>) -> Self {
        let mut len = 0;
        let cols = (list.into_iter())
            .map(|(rel, relation, attr)| {
                len += relation.len();
                (rel, relation, attr, len - relation.len()..len)
            })
            .collect();
        Columns { cols }
    }

    /// Attribute 0 of every relation of `input`, relation `r` as `RelId(r)`.
    pub fn of(input: &'a JoinInput) -> Self {
        let rels = input.relations().iter().enumerate();
        Columns::new(rels.map(|(r, rel)| (RelId(r as u16), &**rel, 0)))
    }

    /// The record indices of the `i`-th listed relation.
    pub fn rows(&self, i: usize) -> Range<usize> {
        self.cols[i].3.clone()
    }

    /// The longest interval (`end − start`) of the `i`-th listed relation.
    pub fn longest(&self, i: usize) -> u64 {
        let (starts, ends) = self.cols[i].1.bounds(self.cols[i].2);
        let lengths = starts.iter().zip(ends).map(|(&s, &e)| e.abs_diff(s));
        lengths.max().unwrap_or(0)
    }
}

impl MapInput for Columns<'_> {
    type Item = IvRec;

    fn len(&self) -> usize {
        self.cols.last().map_or(0, |c| c.3.end)
    }

    /// One walk down each relation's two columns, over its rows in `rows`.
    fn for_each_in(&self, rows: Range<usize>, mut f: impl FnMut(&IvRec)) {
        for &(rel, relation, attr, ref at) in &self.cols {
            let (starts, ends) = relation.bounds(attr);
            let clamp = |i: usize| i.clamp(at.start, at.end) - at.start;
            let (lo, hi) = (clamp(rows.start), clamp(rows.end));
            let ivs = starts[lo..hi].iter().zip(&ends[lo..hi]);
            for (tid, (&s, &e)) in (lo as TupleId..).zip(ivs) {
                let iv = Interval::new_unchecked(s, e);
                f(&IvRec { rel, tid, iv });
            }
        }
    }
}

/// An [`IvRec`] plus the RCCIS replication flag — the record format the
/// paper's first RCCIS cycle writes to the DFS (Section 6.1: "writes out all
/// the intervals on the disk along-with a flag"). The pipeline hands the
/// join a set of flagged keys instead; this 32-byte record stays public as
/// the one `ij-perf`'s Dfs layer writes and reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlagRec {
    /// The interval record.
    pub rec: IvRec,
    /// Whether RCCIS selected the interval for replication.
    pub replicate: bool,
}

impl Record for FlagRec {}

/// A record of a composite join ([`crate::kernel::composite`]), a row of
/// the window kernel's multi-slot case: one side's tuple ids and the
/// intervals of its slots — a cascade composite's joined relations, an
/// FCTS component result's members, or a Gen-Matrix tuple's attributes
/// (one id, an interval per attribute). What the slots stand for is the
/// caller's plan, not the record's.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompRec {
    /// The join side the record belongs to.
    pub side: u16,
    /// Tuple ids.
    pub tids: Vec<TupleId>,
    /// One interval per slot.
    pub ivs: Vec<Interval>,
}

impl Record for CompRec {
    /// A four-byte side tag, four bytes per id and sixteen per interval.
    fn approx_bytes(&self) -> u64 {
        4 + self.tids.len() as u64 * 4 + self.ivs.len() as u64 * 16
    }
}

/// Reducer output: the reducer's block of materialized output tuples or
/// its count of them — at most one record per reducer either way.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutRec {
    /// The output tuples this reducer found, in emission order.
    Rows(Tuples),
    /// This reducer found `n` output tuples (count-only mode).
    Count(u64),
}

impl OutRec {
    /// A reducer's empty accumulator for `mode`; rows hold `arity` ids.
    pub fn new(mode: OutputMode, arity: usize) -> OutRec {
        match mode {
            OutputMode::Materialize => OutRec::Rows(Tuples::new(arity)),
            OutputMode::Count => OutRec::Count(0),
        }
    }

    /// Output tuples the record stands for.
    pub fn tuples(&self) -> u64 {
        match self {
            OutRec::Rows(rows) => rows.len() as u64,
            OutRec::Count(n) => *n,
        }
    }

    /// Hands the record to the engine unless it stands for no tuple.
    pub fn emit_into(self, out: &mut Vec<OutRec>) {
        if self.tuples() > 0 {
            out.push(self);
        }
    }
}

impl Record for OutRec {
    /// A row is charged its ids plus a tag byte, as when each was a record.
    fn approx_bytes(&self) -> u64 {
        match self {
            OutRec::Rows(rows) => rows.len() as u64 * (1 + rows.arity() as u64 * 4),
            OutRec::Count(_) => 9,
        }
    }

    fn rows(&self) -> u64 {
        match self {
            OutRec::Rows(rows) => rows.len() as u64,
            OutRec::Count(_) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    #[test]
    fn record_sizes_reasonable() {
        let r = IvRec {
            rel: RelId(0),
            tid: 1,
            iv: iv(0, 5),
        };
        assert!(r.approx_bytes() >= 20);
        let t = CompRec {
            side: 0,
            tids: vec![1],
            ivs: vec![iv(0, 5), iv(1, 1)],
        };
        assert_eq!(t.approx_bytes(), 8 + 32);
        let mut table = Tuples::new(3);
        table.push_row([1, 2, 3]);
        table.push_row([4, 5, 6]);
        let rows = OutRec::Rows(table);
        assert_eq!(
            (rows.approx_bytes(), rows.rows(), rows.tuples()),
            (26, 2, 2)
        );
        let count = OutRec::Count(9);
        assert_eq!(
            (count.approx_bytes(), count.rows(), count.tuples()),
            (9, 1, 9)
        );
    }

    /// The records `columns` walks over `rows`.
    fn walked(columns: &Columns, rows: Range<usize>) -> Vec<IvRec> {
        let mut got = Vec::new();
        columns.for_each_in(rows, |rec| got.push(*rec));
        got
    }

    /// On random inputs of two to five relations, empty ones among them,
    /// the columns walk exactly `iv_records(input)` over random ranges,
    /// over every range between two relation boundaries, and over the
    /// engine's chunks at one to eight threads; each relation's rows and
    /// longest interval match the copy. Columns over a second attribute
    /// walk that attribute.
    #[test]
    fn columns_walk_exactly_the_copied_records() {
        use crate::algorithm::iv_records;
        use ij_interval::AllenPredicate::Overlaps;
        use ij_query::JoinQuery;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(47);
        let mut empties = 0;
        for case in 0..300 {
            let m = rng.gen_range(2..=5usize);
            let random_iv = |rng: &mut StdRng| {
                let s = rng.gen_range(-1_000..1_000);
                iv(s, s + rng.gen_range(0..50))
            };
            let relations: Vec<Relation> = (0..m)
                .map(|_| {
                    let n = [0, 1, 3, 17][rng.gen_range(0..4)];
                    let rows: Vec<Vec<Interval>> = (0..n)
                        .map(|_| vec![random_iv(&mut rng), random_iv(&mut rng)])
                        .collect();
                    let mut relation = Relation::new("R", 2);
                    rows.iter().for_each(|row| {
                        relation.push(row);
                    });
                    relation
                })
                .collect();
            empties += relations.iter().filter(|r| r.is_empty()).count();
            let q = JoinQuery::chain(&vec![Overlaps; m - 1]).unwrap();
            let input = JoinInput::bind_owned(&q, relations).unwrap();
            let (columns, want) = (Columns::of(&input), iv_records(&input));
            let n = want.len();
            assert_eq!(columns.len(), n, "case {case}");
            assert_eq!(walked(&columns, 0..n), want, "case {case}");
            let mut edges = vec![0];
            for r in 0..m {
                let rows = columns.rows(r);
                assert_eq!(rows.start, *edges.last().unwrap(), "case {case}");
                assert!(want[rows.clone()]
                    .iter()
                    .all(|rec| rec.rel == RelId(r as u16)));
                let longest = want[rows.clone()]
                    .iter()
                    .map(|rec| rec.iv.end() - rec.iv.start());
                assert_eq!(columns.longest(r), longest.max().unwrap_or(0) as u64);
                edges.push(rows.end);
            }
            assert_eq!(*edges.last().unwrap(), n);
            for &lo in &edges {
                for &hi in edges.iter().filter(|&&hi| hi >= lo) {
                    assert_eq!(walked(&columns, lo..hi), want[lo..hi], "case {case}");
                }
            }
            for _ in 0..8 {
                let lo = rng.gen_range(0..=n);
                let hi = rng.gen_range(lo..=n);
                assert_eq!(walked(&columns, lo..hi), want[lo..hi], "case {case}");
            }
            for threads in 1..=8 {
                let chunk = n.div_ceil(threads).max(1);
                let chunks = (0..n)
                    .step_by(chunk)
                    .map(|lo| walked(&columns, lo..n.min(lo + chunk)));
                assert_eq!(
                    chunks.collect::<Vec<_>>().concat(),
                    want,
                    "case {case} threads {threads}"
                );
            }
            let second =
                Columns::new((0..m).map(|r| (RelId(r as u16), input.relation(RelId(r as u16)), 1)));
            let attr1 = (0..m).flat_map(|r| {
                let rel = RelId(r as u16);
                let column = input.relation(rel).column(1).enumerate();
                column.map(move |(tid, iv)| IvRec {
                    rel,
                    tid: tid as TupleId,
                    iv,
                })
            });
            assert_eq!(walked(&second, 0..second.len()), attr1.collect::<Vec<_>>());
        }
        assert!(empties > 0);
    }
}
