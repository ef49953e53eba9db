//! Tuples: rows of a relation, carrying one or more interval attributes.
//!
//! Following the paper's Section 9 observation that "a real-valued attribute
//! can be visualized as an interval of length 0", *every* attribute is
//! stored as an [`Interval`]; real values are length-0 intervals. A
//! single-interval-attribute relation (the common case in Sections 4–8)
//! simply has one attribute.
//!
//! A [`Tuple`] owns nothing: it is a `Copy` view of one row, either of a
//! [`Relation`]'s columns ([`Relation::tuple`], [`Relation::tuples`]) or
//! of a row of intervals the caller holds ([`Tuple::single`],
//! [`Tuple::multi`]).

use crate::interval::Interval;
use crate::relation::Relation;
use std::fmt;

/// Identifier of a tuple within its relation (dense, 0-based).
pub type TupleId = u32;

/// Index of an attribute within a relation's schema (0-based).
pub type AttrId = u16;

/// A tuple: an id plus one interval per attribute, viewed in place.
#[derive(Clone, Copy)]
pub struct Tuple<'a> {
    /// Dense id within the owning relation.
    pub id: TupleId,
    pub(crate) row: Row<'a>,
}

/// Where a [`Tuple`]'s intervals live.
#[derive(Clone, Copy)]
pub(crate) enum Row<'a> {
    /// Row `id` of a relation's columns.
    Columns(&'a Relation),
    /// A row of intervals, one per attribute.
    Intervals(&'a [Interval]),
}

impl<'a> Tuple<'a> {
    /// A single-attribute tuple viewing `iv`.
    pub fn single(id: TupleId, iv: &'a Interval) -> Self {
        Tuple::multi(id, std::slice::from_ref(iv))
    }

    /// A multi-attribute tuple viewing `attrs`, one interval per attribute.
    pub fn multi(id: TupleId, attrs: &'a [Interval]) -> Self {
        Tuple {
            id,
            row: Row::Intervals(attrs),
        }
    }

    /// The value of attribute `a`.
    ///
    /// # Panics
    /// Panics if `a` is out of range for this tuple.
    #[inline]
    pub fn attr(self, a: AttrId) -> Interval {
        match self.row {
            Row::Columns(rel) => {
                let (a, row) = (a as usize, self.id as usize);
                Interval::new_unchecked(rel.starts[a][row], rel.ends[a][row])
            }
            Row::Intervals(ivs) => ivs[a as usize],
        }
    }

    /// Every attribute's interval, in attribute order.
    pub fn intervals(self) -> impl ExactSizeIterator<Item = Interval> + 'a {
        let arity = match self.row {
            Row::Columns(rel) => rel.n_attrs as usize,
            Row::Intervals(ivs) => ivs.len(),
        };
        (0..arity).map(move |a| self.attr(a as AttrId))
    }

    /// The single interval of a single-attribute tuple.
    ///
    /// # Panics
    /// Panics if the tuple does not have exactly one attribute.
    #[inline]
    pub fn interval(self) -> Interval {
        let n = self.intervals().len();
        assert_eq!(n, 1, "tuple has {n} attributes");
        self.attr(0)
    }
}

/// Two views are equal when their ids and intervals are, wherever the
/// intervals live.
impl PartialEq for Tuple<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.intervals().eq(other.intervals())
    }
}

impl Eq for Tuple<'_> {}

impl fmt::Debug for Tuple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Tuple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}(", self.id)?;
        for (i, iv) in self.intervals().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_attribute_access() {
        let iv = Interval::new(1, 5).unwrap();
        let t = Tuple::single(3, &iv);
        assert_eq!(t.id, 3);
        assert_eq!(t.interval(), iv);
        assert_eq!(t.attr(0), iv);
    }

    #[test]
    #[should_panic(expected = "attributes")]
    fn interval_panics_on_multi_attribute() {
        let row = [Interval::point(1), Interval::point(2)];
        let _ = Tuple::multi(0, &row).interval();
    }

    #[test]
    fn multi_attribute_access() {
        let row = [
            Interval::new(0, 9).unwrap(),
            Interval::point(42),
            Interval::new(5, 6).unwrap(),
        ];
        let t = Tuple::multi(0, &row);
        assert_eq!(t.intervals().len(), 3);
        assert_eq!(t.attr(1), Interval::point(42));
        assert!(t.attr(1).is_point());
        assert_eq!(t.intervals().collect::<Vec<_>>(), row);
    }

    #[test]
    fn display_is_compact() {
        let iv = Interval::new(2, 4).unwrap();
        assert_eq!(Tuple::single(7, &iv).to_string(), "t7([2, 4])");
    }
}
