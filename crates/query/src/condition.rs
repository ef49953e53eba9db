//! Join conditions: `⟨R, A⟩ P ⟨R', A'⟩`.
//!
//! Section 9 generalizes conditions to relation-attribute pairs; the
//! single-attribute queries of Sections 4–8 are the special case where every
//! attribute is `0`.

use ij_interval::{AllenPredicate, AttrId, Interval, OperandOrder, RelId, Tuple};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A ⟨relation, attribute⟩ pair — a vertex of the join graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrRef {
    /// The (logical) relation.
    pub rel: RelId,
    /// The attribute within that relation.
    pub attr: AttrId,
}

impl AttrRef {
    /// Shorthand constructor.
    pub fn new(rel: u16, attr: u16) -> Self {
        AttrRef {
            rel: RelId(rel),
            attr,
        }
    }

    /// Attribute 0 of relation `rel` — the single-attribute common case.
    pub fn whole(rel: u16) -> Self {
        AttrRef::new(rel, 0)
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.attr == 0 {
            write!(f, "{}", self.rel)
        } else {
            write!(f, "{}.a{}", self.rel, self.attr)
        }
    }
}

/// One conjunct of a join query: `left P right`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Condition {
    /// Left operand.
    pub left: AttrRef,
    /// The Allen predicate.
    pub pred: AllenPredicate,
    /// Right operand.
    pub right: AttrRef,
}

impl Condition {
    /// Builds `left pred right`.
    pub fn new(left: AttrRef, pred: AllenPredicate, right: AttrRef) -> Self {
        Condition { left, pred, right }
    }

    /// Single-attribute shorthand: `R{l+1} pred R{r+1}` on attribute 0.
    pub fn whole(l: u16, pred: AllenPredicate, r: u16) -> Self {
        Condition::new(AttrRef::whole(l), pred, AttrRef::whole(r))
    }

    /// Whether this is a colocation condition (paper Section 1).
    pub fn is_colocation(self) -> bool {
        self.pred.is_colocation()
    }

    /// Whether this is a sequence condition.
    pub fn is_sequence(self) -> bool {
        self.pred.is_sequence()
    }

    /// Evaluates the condition on concrete operand intervals.
    #[inline]
    pub fn holds(self, left: Interval, right: Interval) -> bool {
        self.pred.holds(left, right)
    }

    /// Evaluates the condition on whole tuples (reads the referenced
    /// attributes).
    #[inline]
    pub fn holds_tuples(self, left: Tuple<'_>, right: Tuple<'_>) -> bool {
        self.pred
            .holds(left.attr(self.left.attr), right.attr(self.right.attr))
    }

    /// The operand that is *less-than* the other (starts no later), per the
    /// predicate's enforced order.
    pub fn lesser(self) -> AttrRef {
        match self.pred.operand_order() {
            OperandOrder::LeftFirst => self.left,
            OperandOrder::RightFirst => self.right,
        }
    }

    /// The operand that is *greater* (starts no earlier).
    pub fn greater(self) -> AttrRef {
        match self.pred.operand_order() {
            OperandOrder::LeftFirst => self.right,
            OperandOrder::RightFirst => self.left,
        }
    }

    /// Whether the condition touches the given vertex.
    pub fn touches(self, v: AttrRef) -> bool {
        self.left == v || self.right == v
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of this condition.
    pub fn other(self, v: AttrRef) -> AttrRef {
        if self.left == v {
            self.right
        } else if self.right == v {
            self.left
        } else {
            panic!("{v} is not an endpoint of {self}")
        }
    }

    /// The condition with operands swapped and the predicate inverted —
    /// logically equivalent.
    pub fn flipped(self) -> Condition {
        Condition {
            left: self.right,
            pred: self.pred.inverse(),
            right: self.left,
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.pred, self.right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;

    #[test]
    fn lesser_greater_follow_operand_order() {
        let c = Condition::whole(0, Overlaps, 1);
        assert_eq!(c.lesser(), AttrRef::whole(0));
        assert_eq!(c.greater(), AttrRef::whole(1));
        // Finishes: R2 < R1 per Figure 1 footer.
        let c = Condition::whole(0, Finishes, 1);
        assert_eq!(c.lesser(), AttrRef::whole(1));
        assert_eq!(c.greater(), AttrRef::whole(0));
    }

    #[test]
    fn flipped_is_equivalent() {
        let a = Interval::new(0, 5).unwrap();
        let b = Interval::new(3, 8).unwrap();
        let c = Condition::whole(0, Overlaps, 1);
        let f = c.flipped();
        assert_eq!(f.pred, OverlappedBy);
        assert_eq!(c.holds(a, b), f.holds(b, a));
    }

    #[test]
    fn other_endpoint() {
        let c = Condition::whole(0, Before, 1);
        assert_eq!(c.other(AttrRef::whole(0)), AttrRef::whole(1));
        assert_eq!(c.other(AttrRef::whole(1)), AttrRef::whole(0));
        assert!(c.touches(AttrRef::whole(0)));
        assert!(!c.touches(AttrRef::whole(2)));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        Condition::whole(0, Before, 1).other(AttrRef::whole(2));
    }

    #[test]
    fn holds_tuples_reads_attributes() {
        let r1 = [Interval::new(0, 1).unwrap(), Interval::new(0, 10).unwrap()];
        let r2 = [Interval::new(50, 60).unwrap(), Interval::new(2, 5).unwrap()];
        let (t1, t2) = (Tuple::multi(0, &r1), Tuple::multi(0, &r2));
        let c = Condition::new(AttrRef::new(0, 1), Contains, AttrRef::new(1, 1));
        assert!(c.holds_tuples(t1, t2));
        let c0 = Condition::new(AttrRef::new(0, 0), Contains, AttrRef::new(1, 0));
        assert!(!c0.holds_tuples(t1, t2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Condition::whole(0, Overlaps, 1).to_string(),
            "R1 overlaps R2"
        );
        let c = Condition::new(AttrRef::new(0, 2), Before, AttrRef::new(2, 0));
        assert_eq!(c.to_string(), "R1.a2 before R3");
    }
}
