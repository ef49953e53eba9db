//! Relations: named collections of [`Tuple`]s, stored by column.
//!
//! In the paper each relation is an HDFS file of interval tuples; a join
//! query names `m` (logical) relations. A *self-join* such as Table 2's
//! star query `R overlaps R and R overlaps R` is expressed by registering
//! the same `Relation` under several logical relation ids — the query layer
//! treats logical occurrences as distinct relations, exactly as the paper's
//! algorithms do.
//!
//! A relation keeps per attribute two dense columns, the start points and
//! the end points in tuple-id order: tuple `i` is row `i` of every column,
//! so ids are implicit and a relation costs a few heap blocks whatever its
//! size. [`Tuple`]s are views of a row; [`Relation::column`] walks one
//! attribute, and [`Relation::bounds`] hands out its two columns, which
//! the jobs' map inputs read in place.

use crate::interval::{Interval, Time};
use crate::tuple::{AttrId, Row, Tuple, TupleId};
use serde::{Deserialize, Serialize};

/// Identifier of a (logical) relation within a query: `R_1, R_2, …` are
/// `RelId(0), RelId(1), …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RelId(pub u16);

impl RelId {
    /// Zero-based index (for indexing per-relation arrays).
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0 + 1)
    }
}

/// A named collection of tuples sharing an attribute count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relation {
    /// Human-readable name (e.g. `"R1"`, `"cities"`).
    pub name: String,
    /// Number of attributes every tuple carries.
    pub n_attrs: u16,
    /// Number of tuples; tuple `i` is row `i` of every column.
    len: usize,
    /// Per attribute, every tuple's start point, in id order.
    pub(crate) starts: Vec<Vec<Time>>,
    /// Per attribute, every tuple's end point, in id order.
    pub(crate) ends: Vec<Vec<Time>>,
    /// Per attribute, the hull of the tuples' intervals there (minimum
    /// start, maximum end); empty while there are no tuples. The
    /// constructors and [`Relation::push`] widen it as tuples arrive, so
    /// [`Relation::attr_span`] reads it without a pass over the tuples.
    spans: Vec<Interval>,
}

impl Relation {
    /// An empty relation with `n_attrs` attributes per tuple.
    pub fn new(name: impl Into<String>, n_attrs: u16) -> Self {
        Relation::with_capacity(name, n_attrs, 0)
    }

    /// An empty relation whose columns hold `n` tuples before they grow.
    pub fn with_capacity(name: impl Into<String>, n_attrs: u16, n: usize) -> Self {
        let columns = || (0..n_attrs).map(|_| Vec::with_capacity(n)).collect();
        Relation {
            name: name.into(),
            n_attrs,
            len: 0,
            starts: columns(),
            ends: columns(),
            spans: Vec::new(),
        }
    }

    /// Builds a single-attribute relation from raw intervals; tuple ids are
    /// assigned densely in input order. An exact-size iterator fills
    /// columns of exactly its length.
    pub fn from_intervals(
        name: impl Into<String>,
        intervals: impl IntoIterator<Item = Interval>,
    ) -> Self {
        let intervals = intervals.into_iter();
        let mut rel = Relation::with_capacity(name, 1, intervals.size_hint().0);
        for iv in intervals {
            rel.push(&[iv]);
        }
        rel
    }

    /// Builds a multi-attribute relation from attribute rows; every row must
    /// have the same length. An empty `rows` gives a single-attribute
    /// relation.
    ///
    /// # Panics
    /// Panics if a row's length differs from the first row's.
    pub fn from_rows(
        name: impl Into<String>,
        rows: impl IntoIterator<Item = Vec<Interval>>,
    ) -> Self {
        let mut rows = rows.into_iter().peekable();
        let n_attrs = rows.peek().map_or(1, Vec::len) as u16;
        let mut rel = Relation::with_capacity(name, n_attrs, rows.size_hint().0);
        for (i, row) in rows.enumerate() {
            let n = n_attrs as usize;
            assert_eq!(row.len(), n, "row {i} has inconsistent arity");
            rel.push(&row);
        }
        rel
    }

    /// Appends a tuple, assigning it the next dense id. Returns the id.
    ///
    /// # Panics
    /// Panics if the tuple's arity does not match the relation's.
    pub fn push(&mut self, attrs: &[Interval]) -> TupleId {
        assert_eq!(attrs.len(), self.n_attrs as usize, "arity mismatch");
        if self.spans.is_empty() {
            self.spans.extend_from_slice(attrs);
        }
        for (a, &iv) in attrs.iter().enumerate() {
            self.starts[a].push(iv.start());
            self.ends[a].push(iv.end());
            self.spans[a] = self.spans[a].hull(iv);
        }
        self.len += 1;
        (self.len - 1) as TupleId
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Views of the tuples, in id order.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = Tuple<'_>> + DoubleEndedIterator + Clone {
        (0..self.len as TupleId).map(|id| self.tuple(id))
    }

    /// A view of the tuple with id `t`.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    #[inline]
    pub fn tuple(&self, t: TupleId) -> Tuple<'_> {
        assert!((t as usize) < self.len, "tuple {t} of {}", self.len);
        Tuple {
            id: t,
            row: Row::Columns(self),
        }
    }

    /// Attribute `a` of every tuple, in id order: one walk down its start
    /// and end columns.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn column(&self, a: AttrId) -> impl ExactSizeIterator<Item = Interval> + Clone + '_ {
        let (starts, ends) = self.bounds(a);
        (starts.iter().zip(ends)).map(|(&s, &e)| Interval::new_unchecked(s, e))
    }

    /// Attribute `a`'s start and end columns: row `i` of each is tuple
    /// `i`'s, so a range of rows is a range of tuple ids.
    ///
    /// # Panics
    /// Panics if `a` is out of range.
    pub fn bounds(&self, a: AttrId) -> (&[Time], &[Time]) {
        (&self.starts[a as usize], &self.ends[a as usize])
    }

    /// The minimum start and maximum end point over attribute `a` of all
    /// tuples — the tight time range to build a [`crate::Partitioning`] over.
    /// Returns `None` for an empty relation. O(1): the constructors keep
    /// the span as tuples arrive.
    ///
    /// # Panics
    /// Panics if `a` is out of range for a non-empty relation.
    pub fn attr_span(&self, a: AttrId) -> Option<Interval> {
        (!self.is_empty()).then(|| self.spans[a as usize])
    }
}

/// The tight time span covering attribute `a` of all listed relations —
/// used by the join algorithms to size the shared partitioning. Returns
/// `None` when every relation is empty.
pub fn joint_span<'a>(
    relations: impl IntoIterator<Item = &'a Relation>,
    a: AttrId,
) -> Option<Interval> {
    relations
        .into_iter()
        .filter_map(|r| r.attr_span(a))
        .reduce(|acc, iv| acc.hull(iv))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    #[test]
    fn from_intervals_assigns_dense_ids() {
        let r = Relation::from_intervals("R1", vec![iv(0, 5), iv(3, 4)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuple(0).id, 0);
        assert_eq!(r.tuple(1).id, 1);
        assert_eq!(r.tuple(1).interval(), iv(3, 4));
        assert_eq!(r.n_attrs, 1);
    }

    #[test]
    fn push_maintains_ids() {
        let mut r = Relation::new("R", 2);
        let a = r.push(&[iv(0, 1), Interval::point(9)]);
        let b = r.push(&[iv(2, 3), Interval::point(8)]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(r.tuple(b).attr(1), Interval::point(8));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn push_rejects_wrong_arity() {
        let mut r = Relation::new("R", 2);
        r.push(&[iv(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "inconsistent arity")]
    fn from_rows_rejects_ragged() {
        let _ = Relation::from_rows("R", vec![vec![iv(0, 1)], vec![iv(0, 1), iv(2, 3)]]);
    }

    #[test]
    fn attr_span_covers_all() {
        let r = Relation::from_intervals("R", vec![iv(5, 9), iv(1, 3), iv(8, 20)]);
        assert_eq!(r.attr_span(0), Some(iv(1, 20)));
        let empty = Relation::new("E", 1);
        assert_eq!(empty.attr_span(0), None);
    }

    /// The span every attribute's fold over `r`'s tuples gives.
    fn folded(r: &Relation) -> Vec<Option<Interval>> {
        (0..r.n_attrs)
            .map(|a| {
                let mut ivs = r.tuples().map(|t| t.attr(a));
                let first = ivs.next()?;
                Some(ivs.fold(first, Interval::hull))
            })
            .collect()
    }

    fn spans(r: &Relation) -> Vec<Option<Interval>> {
        (0..r.n_attrs).map(|a| r.attr_span(a)).collect()
    }

    /// The kept span is the fold over the tuples after every constructor
    /// and after each `push`: empty relations, several attributes, and
    /// intervals at the ends of the `Time` domain.
    #[test]
    fn kept_span_is_the_fold_over_the_tuples() {
        use crate::interval::Time;
        let (lo, hi) = (Time::MIN, Time::MAX);
        let rows = [
            vec![iv(5, 9), Interval::point(0)],
            vec![iv(lo, lo), iv(-3, 4)],
            vec![iv(1, hi), Interval::point(hi)],
            vec![iv(lo, hi), iv(lo, -1)],
            vec![iv(0, 0), iv(2, 2)],
        ];
        let built = [
            Relation::new("E", 1),
            Relation::new("E2", 2),
            Relation::from_intervals("E", []),
            Relation::from_rows("E", Vec::<Vec<Interval>>::new()),
            Relation::from_intervals("R", rows.iter().map(|r| r[0])),
            Relation::from_intervals("P", [iv(hi, hi), iv(lo, lo)]),
            Relation::from_rows("M", rows.iter().cloned()),
        ];
        for r in &built {
            assert_eq!(spans(r), folded(r), "{}", r.name);
        }
        let mut r = Relation::new("R", 2);
        for row in &rows {
            r.push(row);
            assert_eq!(spans(&r), folded(&r));
            assert!(spans(&r).iter().all(Option::is_some));
        }
        assert_eq!(r.attr_span(0), Some(iv(lo, hi)));
        assert_eq!(r.attr_span(1), Some(iv(lo, hi)));
        let mut one = Relation::new("R", 1);
        for row in &rows {
            one.push(&[row[1]]);
            assert_eq!(spans(&one), folded(&one));
        }
    }

    /// A random interval: endpoints near zero or at the ends of the `Time`
    /// domain, one in four a point.
    fn random_iv(rng: &mut impl rand::Rng) -> Interval {
        use crate::interval::Time;
        let extremes = [Time::MIN, Time::MIN + 1, Time::MAX - 1, Time::MAX];
        let mut at = || match rng.gen_range(0..4) {
            0 => extremes[rng.gen_range(0..extremes.len())],
            _ => rng.gen_range(-50..=50),
        };
        let (a, b) = (at(), at());
        if rng.gen_bool(0.25) {
            Interval::point(a)
        } else {
            iv(a.min(b), a.max(b))
        }
    }

    /// Random relations of 1–3 attributes, empty ones among them, built
    /// by `from_intervals`, `from_rows` and `push`: every view equals its
    /// row, ids are dense, every column walks its attribute, and each
    /// kept span is the fold over the rows.
    #[test]
    fn views_read_back_the_rows_they_were_built_from() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(44);
        for case in 0..400 {
            let n_attrs = rng.gen_range(1..=3usize);
            let n = if case % 8 == 0 {
                0
            } else {
                rng.gen_range(1..=30)
            };
            let rows: Vec<Vec<Interval>> = (0..n)
                .map(|_| (0..n_attrs).map(|_| random_iv(&mut rng)).collect())
                .collect();
            let mut pushed = Relation::new("P", n_attrs as u16);
            for row in &rows {
                pushed.push(row);
            }
            let mut built = vec![pushed, Relation::from_rows("R", rows.iter().cloned())];
            if n_attrs == 1 {
                built.push(Relation::from_intervals("I", rows.iter().map(|r| r[0])));
            }
            for r in &built {
                assert_eq!((r.len(), r.tuples().len()), (n, n), "{}", r.name);
                assert_eq!(r.is_empty(), n == 0);
                for ((t, row), id) in r.tuples().zip(&rows).zip(0..) {
                    assert_eq!(t, Tuple::multi(id, row), "{} case {case}", r.name);
                    assert_eq!(r.tuple(id), t);
                    assert_eq!(t.intervals().collect::<Vec<_>>(), *row);
                }
                for a in 0..r.n_attrs as usize {
                    let want: Vec<Interval> = rows.iter().map(|row| row[a]).collect();
                    assert_eq!(r.column(a as AttrId).collect::<Vec<_>>(), want);
                    let fold = want.into_iter().reduce(Interval::hull);
                    assert_eq!(r.attr_span(a as AttrId), fold, "{} case {case}", r.name);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tuple 2 of 2")]
    fn tuple_rejects_an_id_past_the_end() {
        let r = Relation::from_intervals("R", vec![iv(0, 1), iv(2, 3)]);
        let _ = r.tuple(2);
    }

    #[test]
    fn joint_span_over_relations() {
        let a = Relation::from_intervals("A", vec![iv(5, 9)]);
        let b = Relation::from_intervals("B", vec![iv(0, 2), iv(30, 31)]);
        let empty = Relation::new("E", 1);
        assert_eq!(joint_span([&a, &b, &empty], 0), Some(iv(0, 31)));
        assert_eq!(joint_span([&empty], 0), None);
    }

    #[test]
    fn rel_id_display() {
        assert_eq!(RelId(0).to_string(), "R1");
        assert_eq!(RelId(3).to_string(), "R4");
    }
}
