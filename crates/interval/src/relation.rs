//! Relations: named collections of [`Tuple`]s.
//!
//! In the paper each relation is an HDFS file of interval tuples; a join
//! query names `m` (logical) relations. A *self-join* such as Table 2's
//! star query `R overlaps R and R overlaps R` is expressed by registering
//! the same `Relation` under several logical relation ids — the query layer
//! treats logical occurrences as distinct relations, exactly as the paper's
//! algorithms do.

use crate::interval::Interval;
use crate::tuple::{AttrId, Tuple, TupleId};
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
    /// The tuples; `tuples[i].id == i` is maintained by the constructors.
    tuples: Vec<Tuple>,
    /// Per attribute, the hull of the tuples' intervals there (minimum
    /// start, maximum end); empty while there are no tuples. The
    /// constructors and [`Relation::push`] widen it as tuples arrive, so
    /// [`Relation::attr_span`] reads it without a pass over the tuples.
    spans: Vec<Interval>,
}

/// `spans` widened to cover one tuple's `attrs`.
fn widen(spans: &mut Vec<Interval>, attrs: &[Interval]) {
    if spans.is_empty() {
        spans.extend_from_slice(attrs);
    } else {
        for (span, &iv) in spans.iter_mut().zip(attrs) {
            *span = span.hull(iv);
        }
    }
}

impl Relation {
    /// An empty relation with `n_attrs` attributes per tuple.
    pub fn new(name: impl Into<String>, n_attrs: u16) -> Self {
        Relation {
            name: name.into(),
            n_attrs,
            tuples: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Builds a single-attribute relation from raw intervals; tuple ids are
    /// assigned densely in input order.
    pub fn from_intervals(
        name: impl Into<String>,
        intervals: impl IntoIterator<Item = Interval>,
    ) -> Self {
        let mut spans = Vec::new();
        let tuples = intervals
            .into_iter()
            .enumerate()
            .map(|(i, iv)| {
                widen(&mut spans, &[iv]);
                Tuple::single(i as TupleId, iv)
            })
            .collect();
        Relation {
            name: name.into(),
            n_attrs: 1,
            tuples,
            spans,
        }
    }

    /// Builds a multi-attribute relation from attribute rows; every row must
    /// have the same length.
    ///
    /// # Panics
    /// Panics if a row's length differs from the first row's.
    pub fn from_rows(
        name: impl Into<String>,
        rows: impl IntoIterator<Item = Vec<Interval>>,
    ) -> Self {
        let mut n_attrs = None;
        let mut spans = Vec::new();
        let tuples: Vec<Tuple> = rows
            .into_iter()
            .enumerate()
            .map(|(i, attrs)| {
                match n_attrs {
                    None => n_attrs = Some(attrs.len()),
                    Some(n) => assert_eq!(attrs.len(), n, "row {i} has inconsistent arity"),
                }
                widen(&mut spans, &attrs);
                Tuple::multi(i as TupleId, attrs)
            })
            .collect();
        Relation {
            name: name.into(),
            n_attrs: n_attrs.unwrap_or(1) as u16,
            tuples,
            spans,
        }
    }

    /// Appends a tuple, assigning it the next dense id. Returns the id.
    ///
    /// # Panics
    /// Panics if the tuple's arity does not match the relation's.
    pub fn push(&mut self, attrs: Vec<Interval>) -> TupleId {
        assert_eq!(attrs.len(), self.n_attrs as usize, "arity mismatch");
        let id = self.tuples.len() as TupleId;
        widen(&mut self.spans, &attrs);
        self.tuples.push(Tuple::multi(id, attrs));
        id
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples, in id order.
    #[inline]
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The tuple with id `t`.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    #[inline]
    pub fn tuple(&self, t: TupleId) -> &Tuple {
        &self.tuples[t as usize]
    }

    /// The minimum start and maximum end point over attribute `a` of all
    /// tuples — the tight time range to build a [`crate::Partitioning`] over.
    /// Returns `None` for an empty relation. O(1): the constructors keep
    /// the span as tuples arrive.
    ///
    /// # Panics
    /// Panics if `a` is out of range for a non-empty relation.
    pub fn attr_span(&self, a: AttrId) -> Option<Interval> {
        (!self.tuples.is_empty()).then(|| self.spans[a as usize])
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
        let a = r.push(vec![iv(0, 1), Interval::point(9)]);
        let b = r.push(vec![iv(2, 3), Interval::point(8)]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(r.tuple(b).attr(1), Interval::point(8));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn push_rejects_wrong_arity() {
        let mut r = Relation::new("R", 2);
        r.push(vec![iv(0, 1)]);
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
                let mut ivs = r.tuples().iter().map(|t| t.attr(a));
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
            r.push(row.clone());
            assert_eq!(spans(&r), folded(&r));
            assert!(spans(&r).iter().all(Option::is_some));
        }
        assert_eq!(r.attr_span(0), Some(iv(lo, hi)));
        assert_eq!(r.attr_span(1), Some(iv(lo, hi)));
        let mut one = Relation::new("R", 1);
        for row in &rows {
            one.push(vec![row[1]]);
            assert_eq!(spans(&one), folded(&one));
        }
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
