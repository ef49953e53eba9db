//! Allen's interval algebra (paper Figure 1).
//!
//! Allen's algebra defines thirteen mutually exclusive, jointly exhaustive
//! relations between two intervals. The paper classifies them into two
//! groups:
//!
//! * **colocation predicates** — the two intervals share at least one common
//!   point (*overlaps*, *contains*, *meets*, *starts*, *finishes*, *equals*
//!   and their inverses). These are "likened to equality predicates" on
//!   real-valued data.
//! * **sequence predicates** — the two intervals are disjoint (*before*,
//!   *after*). These are "likened to theta/inequality predicates".
//!
//! Each predicate also induces a *less-than order* between its operand
//! relations (paper Section 5.1 and the footer of Figure 1): for every
//! satisfying pair, one operand's start point is `<=` the other's. All the
//! partition-pruning machinery of the paper builds on this order.

use crate::interval::{Interval, Time};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Bound;
use std::str::FromStr;

/// The thirteen relations of Allen's interval algebra.
///
/// Naming follows the paper's Figure 1: `P(r1, r2)` reads "`r1` *P* `r2`",
/// e.g. `Overlaps.holds(u, v)` is true when `u` overlaps `v` (and *not* the
/// other way around — `OverlappedBy` is the converse relation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllenPredicate {
    /// `r1` ends strictly before `r2` starts: `e1 < s2`. Sequence predicate.
    Before,
    /// Converse of [`Before`](Self::Before): `e2 < s1`. Sequence predicate.
    After,
    /// `s1 < s2 && s2 < e1 && e1 < e2`: `r1` starts first, the two share
    /// more than a point, and `r1` ends first — the strict classical
    /// definition. The boundary case `s2 == e1` is [`Meets`](Self::Meets),
    /// which keeps the thirteen relations disjoint and exhaustive.
    Overlaps,
    /// Converse of [`Overlaps`](Self::Overlaps).
    OverlappedBy,
    /// `s1 < s2 && e2 < e1`: `r1` strictly contains `r2`.
    Contains,
    /// Converse of [`Contains`](Self::Contains).
    ContainedBy,
    /// `e1 == s2`: `r1` ends exactly where `r2` starts.
    Meets,
    /// Converse of [`Meets`](Self::Meets): `e2 == s1`.
    MetBy,
    /// `s1 == s2 && e1 < e2`: same start, `r1` ends first.
    Starts,
    /// Converse of [`Starts`](Self::Starts): `s1 == s2 && e2 < e1`.
    StartedBy,
    /// `e1 == e2 && s2 < s1`: same end, `r1` starts later.
    Finishes,
    /// Converse of [`Finishes`](Self::Finishes): `e1 == e2 && s1 < s2`.
    FinishedBy,
    /// `s1 == s2 && e1 == e2`.
    Equals,
}

/// The paper's two-way classification of Allen predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredicateClass {
    /// The operands share at least one common point.
    Colocation,
    /// The operands are disjoint (*before* / *after*).
    Sequence,
}

/// Which operand relation is "less-than" the other under a predicate
/// (paper Figure 1 footer and Section 5.1).
///
/// `LeftFirst` means: for every satisfying pair `(r1, r2)`,
/// `r1.start <= r2.start` — relation `R1 < R2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperandOrder {
    /// `R1 < R2` — the left operand starts no later than the right.
    LeftFirst,
    /// `R2 < R1` — the right operand starts no later than the left.
    RightFirst,
}

impl OperandOrder {
    /// The order with operands swapped.
    pub fn flip(self) -> OperandOrder {
        match self {
            OperandOrder::LeftFirst => OperandOrder::RightFirst,
            OperandOrder::RightFirst => OperandOrder::LeftFirst,
        }
    }
}

/// The map-side routing operation a 2-way join applies to one relation
/// (paper Section 3 / Figure 1, column 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MapOp {
    /// Send the interval to the single partition containing its start point.
    Project,
    /// Send the interval to every partition it intersects.
    Split,
    /// Send the interval to its start partition and every later partition.
    Replicate,
}

impl AllenPredicate {
    /// All thirteen predicates, in Figure 1 order.
    pub const ALL: [AllenPredicate; 13] = [
        AllenPredicate::Before,
        AllenPredicate::After,
        AllenPredicate::Overlaps,
        AllenPredicate::OverlappedBy,
        AllenPredicate::Contains,
        AllenPredicate::ContainedBy,
        AllenPredicate::Meets,
        AllenPredicate::MetBy,
        AllenPredicate::Starts,
        AllenPredicate::StartedBy,
        AllenPredicate::Finishes,
        AllenPredicate::FinishedBy,
        AllenPredicate::Equals,
    ];

    /// Evaluates `r1 self r2`.
    #[inline]
    pub fn holds(self, r1: Interval, r2: Interval) -> bool {
        let (s1, e1, s2, e2) = (r1.start(), r1.end(), r2.start(), r2.end());
        match self {
            AllenPredicate::Before => e1 < s2,
            AllenPredicate::After => e2 < s1,
            AllenPredicate::Overlaps => s1 < s2 && s2 < e1 && e1 < e2,
            AllenPredicate::OverlappedBy => s2 < s1 && s1 < e2 && e2 < e1,
            AllenPredicate::Contains => s1 < s2 && e2 < e1,
            AllenPredicate::ContainedBy => s2 < s1 && e1 < e2,
            AllenPredicate::Meets => e1 == s2 && s1 < s2 && e1 < e2,
            AllenPredicate::MetBy => e2 == s1 && s2 < s1 && e2 < e1,
            AllenPredicate::Starts => s1 == s2 && e1 < e2,
            AllenPredicate::StartedBy => s1 == s2 && e2 < e1,
            AllenPredicate::Finishes => e1 == e2 && s2 < s1,
            AllenPredicate::FinishedBy => e1 == e2 && s1 < s2,
            AllenPredicate::Equals => s1 == s2 && e1 == e2,
        }
    }

    /// Classifies the (unique) Allen relation holding between `r1` and `r2`.
    ///
    /// The thirteen relations are mutually exclusive and jointly exhaustive,
    /// so exactly one holds; this is property-tested.
    pub fn relate(r1: Interval, r2: Interval) -> AllenPredicate {
        use std::cmp::Ordering::*;
        let (s1, e1, s2, e2) = (r1.start(), r1.end(), r2.start(), r2.end());
        match (s1.cmp(&s2), e1.cmp(&e2)) {
            (Equal, Equal) => AllenPredicate::Equals,
            (Equal, Less) => AllenPredicate::Starts,
            (Equal, Greater) => AllenPredicate::StartedBy,
            (Less, Equal) => AllenPredicate::FinishedBy,
            (Greater, Equal) => AllenPredicate::Finishes,
            (Less, Greater) => AllenPredicate::Contains,
            (Greater, Less) => AllenPredicate::ContainedBy,
            (Less, Less) => {
                if e1 < s2 {
                    AllenPredicate::Before
                } else if e1 == s2 {
                    AllenPredicate::Meets
                } else {
                    AllenPredicate::Overlaps
                }
            }
            (Greater, Greater) => {
                if e2 < s1 {
                    AllenPredicate::After
                } else if e2 == s1 {
                    AllenPredicate::MetBy
                } else {
                    AllenPredicate::OverlappedBy
                }
            }
        }
    }

    /// The converse relation: `inverse(P).holds(r2, r1) == P.holds(r1, r2)`.
    pub fn inverse(self) -> AllenPredicate {
        match self {
            AllenPredicate::Before => AllenPredicate::After,
            AllenPredicate::After => AllenPredicate::Before,
            AllenPredicate::Overlaps => AllenPredicate::OverlappedBy,
            AllenPredicate::OverlappedBy => AllenPredicate::Overlaps,
            AllenPredicate::Contains => AllenPredicate::ContainedBy,
            AllenPredicate::ContainedBy => AllenPredicate::Contains,
            AllenPredicate::Meets => AllenPredicate::MetBy,
            AllenPredicate::MetBy => AllenPredicate::Meets,
            AllenPredicate::Starts => AllenPredicate::StartedBy,
            AllenPredicate::StartedBy => AllenPredicate::Starts,
            AllenPredicate::Finishes => AllenPredicate::FinishedBy,
            AllenPredicate::FinishedBy => AllenPredicate::Finishes,
            AllenPredicate::Equals => AllenPredicate::Equals,
        }
    }

    /// The paper's colocation/sequence classification.
    pub fn class(self) -> PredicateClass {
        match self {
            AllenPredicate::Before | AllenPredicate::After => PredicateClass::Sequence,
            _ => PredicateClass::Colocation,
        }
    }

    /// Convenience: `class() == Colocation`.
    pub fn is_colocation(self) -> bool {
        self.class() == PredicateClass::Colocation
    }

    /// Convenience: `class() == Sequence`.
    pub fn is_sequence(self) -> bool {
        self.class() == PredicateClass::Sequence
    }

    /// The less-than order the predicate enforces between its operand
    /// relations (Figure 1 footer: *finishes*/*met-by*-style converses put
    /// `R2` first; everything else puts `R1` first; *starts*/*equals*
    /// families have equal starts, for which either order is valid — we
    /// follow the paper and report `R1 < R2`).
    pub fn operand_order(self) -> OperandOrder {
        match self {
            AllenPredicate::Before
            | AllenPredicate::Overlaps
            | AllenPredicate::Contains
            | AllenPredicate::Meets
            | AllenPredicate::FinishedBy
            | AllenPredicate::Starts
            | AllenPredicate::StartedBy
            | AllenPredicate::Equals => OperandOrder::LeftFirst,
            AllenPredicate::After
            | AllenPredicate::OverlappedBy
            | AllenPredicate::ContainedBy
            | AllenPredicate::MetBy
            | AllenPredicate::Finishes => OperandOrder::RightFirst,
        }
    }

    /// The pair of map-side operations a 2-way MR join uses for
    /// `R1 self R2` — `(op on R1, op on R2)` (paper Figure 1, column 3).
    ///
    /// Derivation (Section 4 logic): the relation that is *greater* in the
    /// less-than order is **projected** — the output tuple is computed at the
    /// reducer its start point lands on. The lesser relation must be routed
    /// so it reaches that reducer:
    ///
    /// * for sequence predicates the partner can start arbitrarily far to
    ///   the right, so the lesser relation is **replicated**;
    /// * for colocation predicates where the greater relation's start point
    ///   lies *inside* the lesser interval (*overlaps*, *contains*, *meets*,
    ///   *finishes* families), **splitting** the lesser relation already
    ///   covers that reducer;
    /// * when start points coincide (*starts*, *equals* families) both sides
    ///   can simply be **projected**.
    ///
    /// Note: the paper's Figure 1 as printed lists `Proj & Proj` for the
    /// *meets* and *finishes* rows; that loses outputs whenever the lesser
    /// interval crosses a partition boundary (its start partition differs
    /// from the greater interval's). We use the corrected `Split` ops, which
    /// are property-tested against a nested-loop oracle.
    pub fn map_ops(self) -> (MapOp, MapOp) {
        use AllenPredicate::*;
        use MapOp::*;
        match self {
            Before => (Replicate, Project),
            After => (Project, Replicate),
            Overlaps | Contains | Meets | FinishedBy => (Split, Project),
            OverlappedBy | ContainedBy | MetBy | Finishes => (Project, Split),
            Starts | StartedBy | Equals => (Project, Project),
        }
    }

    /// Bounds on the start point of the **right** operand `r2`, given the
    /// left operand `r1`, for `r1 self r2` to possibly hold.
    ///
    /// Used by the reducer-side backtracking join executor to binary-search
    /// candidate windows in start-sorted relations. The bounds are sound
    /// (never exclude a satisfying `r2`) and for most predicates tight.
    pub fn right_start_bounds(self, r1: Interval) -> (Bound<Time>, Bound<Time>) {
        use AllenPredicate::*;
        use Bound::*;
        let (s1, e1) = (r1.start(), r1.end());
        match self {
            Before => (Excluded(e1), Unbounded),
            After => (Unbounded, Excluded(s1)),
            Overlaps => (Excluded(s1), Excluded(e1)),
            OverlappedBy => (Unbounded, Excluded(s1)),
            Contains => (Excluded(s1), Excluded(e1)),
            ContainedBy => (Unbounded, Excluded(s1)),
            Meets => (Included(e1), Included(e1)),
            MetBy => (Unbounded, Excluded(s1)),
            Starts | StartedBy | Equals => (Included(s1), Included(s1)),
            Finishes => (Unbounded, Excluded(s1)),
            FinishedBy => (Excluded(s1), Included(e1)),
        }
    }

    /// Human-readable lower-case name (also accepted by [`FromStr`]).
    pub fn name(self) -> &'static str {
        match self {
            AllenPredicate::Before => "before",
            AllenPredicate::After => "after",
            AllenPredicate::Overlaps => "overlaps",
            AllenPredicate::OverlappedBy => "overlapped-by",
            AllenPredicate::Contains => "contains",
            AllenPredicate::ContainedBy => "contained-by",
            AllenPredicate::Meets => "meets",
            AllenPredicate::MetBy => "met-by",
            AllenPredicate::Starts => "starts",
            AllenPredicate::StartedBy => "started-by",
            AllenPredicate::Finishes => "finishes",
            AllenPredicate::FinishedBy => "finished-by",
            AllenPredicate::Equals => "equals",
        }
    }
}

impl fmt::Display for AllenPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing an [`AllenPredicate`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePredicateError(pub String);

impl fmt::Display for ParsePredicateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown Allen predicate: {:?}", self.0)
    }
}

impl std::error::Error for ParsePredicateError {}

impl FromStr for AllenPredicate {
    type Err = ParsePredicateError;

    /// Accepts the Figure 1 names (case-insensitive, `-`/`_` interchangeable)
    /// plus the real-valued comparison aliases of Section 9: `<` / `>` / `=`
    /// map to *before* / *after* / *equals*, and `during` to *contained-by*.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase().replace('_', "-");
        Ok(match norm.as_str() {
            "before" | "<" => AllenPredicate::Before,
            "after" | ">" => AllenPredicate::After,
            "overlaps" | "overlap" => AllenPredicate::Overlaps,
            "overlapped-by" | "overlappedby" => AllenPredicate::OverlappedBy,
            "contains" => AllenPredicate::Contains,
            "contained-by" | "containedby" | "during" => AllenPredicate::ContainedBy,
            "meets" => AllenPredicate::Meets,
            "met-by" | "metby" => AllenPredicate::MetBy,
            "starts" => AllenPredicate::Starts,
            "started-by" | "startedby" => AllenPredicate::StartedBy,
            "finishes" => AllenPredicate::Finishes,
            "finished-by" | "finishedby" => AllenPredicate::FinishedBy,
            "equals" | "equal" | "=" | "==" => AllenPredicate::Equals,
            _ => return Err(ParsePredicateError(s.to_string())),
        })
    }
}

/// Checks whether a point `t` satisfies bounds produced by
/// [`AllenPredicate::right_start_bounds`].
pub fn bounds_contain(bounds: (Bound<Time>, Bound<Time>), t: Time) -> bool {
    let lower_ok = match bounds.0 {
        Bound::Unbounded => true,
        Bound::Included(lo) => t >= lo,
        Bound::Excluded(lo) => t > lo,
    };
    let upper_ok = match bounds.1 {
        Bound::Unbounded => true,
        Bound::Included(hi) => t <= hi,
        Bound::Excluded(hi) => t < hi,
    };
    lower_ok && upper_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: Time, e: Time) -> Interval {
        Interval::new(s, e).unwrap()
    }

    /// The canonical examples from Figure 1, one per relation family.
    #[test]
    fn figure1_examples() {
        use AllenPredicate::*;
        // before / after
        assert!(Before.holds(iv(0, 2), iv(5, 7)));
        assert!(After.holds(iv(5, 7), iv(0, 2)));
        // overlaps / overlapped-by
        assert!(Overlaps.holds(iv(0, 5), iv(3, 8)));
        assert!(OverlappedBy.holds(iv(3, 8), iv(0, 5)));
        // contains / contained-by
        assert!(Contains.holds(iv(0, 10), iv(2, 6)));
        assert!(ContainedBy.holds(iv(2, 6), iv(0, 10)));
        // meets / met-by
        assert!(Meets.holds(iv(0, 4), iv(4, 9)));
        assert!(MetBy.holds(iv(4, 9), iv(0, 4)));
        // starts / started-by
        assert!(Starts.holds(iv(0, 4), iv(0, 9)));
        assert!(StartedBy.holds(iv(0, 9), iv(0, 4)));
        // finishes / finished-by
        assert!(Finishes.holds(iv(5, 9), iv(0, 9)));
        assert!(FinishedBy.holds(iv(0, 9), iv(5, 9)));
        // equals
        assert!(Equals.holds(iv(2, 7), iv(2, 7)));
    }

    #[test]
    fn relate_matches_holds_on_examples() {
        let cases = [
            (iv(0, 2), iv(5, 7), AllenPredicate::Before),
            (iv(5, 7), iv(0, 2), AllenPredicate::After),
            (iv(0, 5), iv(3, 8), AllenPredicate::Overlaps),
            (iv(3, 8), iv(0, 5), AllenPredicate::OverlappedBy),
            (iv(0, 10), iv(2, 6), AllenPredicate::Contains),
            (iv(2, 6), iv(0, 10), AllenPredicate::ContainedBy),
            (iv(0, 4), iv(4, 9), AllenPredicate::Meets),
            (iv(4, 9), iv(0, 4), AllenPredicate::MetBy),
            (iv(0, 4), iv(0, 9), AllenPredicate::Starts),
            (iv(0, 9), iv(0, 4), AllenPredicate::StartedBy),
            (iv(5, 9), iv(0, 9), AllenPredicate::Finishes),
            (iv(0, 9), iv(5, 9), AllenPredicate::FinishedBy),
            (iv(2, 7), iv(2, 7), AllenPredicate::Equals),
        ];
        for (a, b, expect) in cases {
            assert_eq!(AllenPredicate::relate(a, b), expect, "{a} vs {b}");
            assert!(expect.holds(a, b));
        }
    }

    #[test]
    fn exactly_one_predicate_holds() {
        // Small exhaustive sweep: all intervals with endpoints in 0..=4.
        let mut ivs = Vec::new();
        for s in 0..=4 {
            for e in s..=4 {
                ivs.push(iv(s, e));
            }
        }
        for &a in &ivs {
            for &b in &ivs {
                let holding: Vec<_> = AllenPredicate::ALL
                    .iter()
                    .filter(|p| p.holds(a, b))
                    .collect();
                assert_eq!(holding.len(), 1, "{a} vs {b}: {holding:?}");
                assert_eq!(*holding[0], AllenPredicate::relate(a, b));
            }
        }
    }

    #[test]
    fn inverse_is_converse() {
        let mut ivs = Vec::new();
        for s in 0..=4 {
            for e in s..=4 {
                ivs.push(iv(s, e));
            }
        }
        for &a in &ivs {
            for &b in &ivs {
                for p in AllenPredicate::ALL {
                    assert_eq!(p.holds(a, b), p.inverse().holds(b, a), "{p} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn inverse_is_involution() {
        for p in AllenPredicate::ALL {
            assert_eq!(p.inverse().inverse(), p);
        }
    }

    #[test]
    fn classification_matches_paper() {
        use AllenPredicate::*;
        assert!(Before.is_sequence());
        assert!(After.is_sequence());
        for p in [
            Overlaps,
            OverlappedBy,
            Contains,
            ContainedBy,
            Meets,
            MetBy,
            Starts,
            StartedBy,
            Finishes,
            FinishedBy,
            Equals,
        ] {
            assert!(p.is_colocation(), "{p}");
        }
    }

    #[test]
    fn colocation_implies_shared_point_sequence_implies_disjoint() {
        let mut ivs = Vec::new();
        for s in 0..=5 {
            for e in s..=5 {
                ivs.push(iv(s, e));
            }
        }
        for &a in &ivs {
            for &b in &ivs {
                let p = AllenPredicate::relate(a, b);
                match p.class() {
                    PredicateClass::Colocation => {
                        assert!(a.intersects(b), "{p}: {a} {b} must share a point")
                    }
                    PredicateClass::Sequence => {
                        assert!(!a.intersects(b), "{p}: {a} {b} must be disjoint")
                    }
                }
            }
        }
    }

    #[test]
    fn operand_order_respects_start_points() {
        let mut ivs = Vec::new();
        for s in 0..=5 {
            for e in s..=5 {
                ivs.push(iv(s, e));
            }
        }
        for &a in &ivs {
            for &b in &ivs {
                for p in AllenPredicate::ALL {
                    if p.holds(a, b) {
                        match p.operand_order() {
                            OperandOrder::LeftFirst => {
                                assert!(a.less_than(b), "{p}: {a} should be <= {b}")
                            }
                            OperandOrder::RightFirst => {
                                assert!(b.less_than(a), "{p}: {b} should be <= {a}")
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn figure1_footer_orders() {
        use AllenPredicate::*;
        // "Finishes(r1,r2) & FinishedBy(r2,r1): R2 < R1, Others: R1 < R2"
        assert_eq!(Finishes.operand_order(), OperandOrder::RightFirst);
        assert_eq!(FinishedBy.operand_order(), OperandOrder::LeftFirst);
        assert_eq!(Before.operand_order(), OperandOrder::LeftFirst);
        assert_eq!(Overlaps.operand_order(), OperandOrder::LeftFirst);
        assert_eq!(Contains.operand_order(), OperandOrder::LeftFirst);
    }

    #[test]
    fn right_start_bounds_are_sound() {
        let mut ivs = Vec::new();
        for s in 0..=5 {
            for e in s..=5 {
                ivs.push(iv(s, e));
            }
        }
        for &a in &ivs {
            for &b in &ivs {
                for p in AllenPredicate::ALL {
                    if p.holds(a, b) {
                        let bounds = p.right_start_bounds(a);
                        assert!(
                            bounds_contain(bounds, b.start()),
                            "{p}: bounds for {a} exclude satisfying {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parse_round_trips() {
        for p in AllenPredicate::ALL {
            assert_eq!(p.name().parse::<AllenPredicate>().unwrap(), p);
        }
        assert_eq!(
            "OVERLAPS".parse::<AllenPredicate>().unwrap(),
            AllenPredicate::Overlaps
        );
        assert_eq!(
            "met_by".parse::<AllenPredicate>().unwrap(),
            AllenPredicate::MetBy
        );
        assert_eq!(
            "<".parse::<AllenPredicate>().unwrap(),
            AllenPredicate::Before
        );
        assert_eq!(
            "=".parse::<AllenPredicate>().unwrap(),
            AllenPredicate::Equals
        );
        assert_eq!(
            "during".parse::<AllenPredicate>().unwrap(),
            AllenPredicate::ContainedBy
        );
        assert!("sideways".parse::<AllenPredicate>().is_err());
    }

    #[test]
    fn point_intervals_reduce_to_real_valued_semantics() {
        // Paper Section 1: "as the intervals are reduced to length 0, all
        // colocation predicates reduce to equality ... while all sequence
        // predicates reduce to inequality".
        for x in 0..5 {
            for y in 0..5 {
                let a = Interval::point(x);
                let b = Interval::point(y);
                let p = AllenPredicate::relate(a, b);
                if x == y {
                    assert_eq!(p, AllenPredicate::Equals);
                } else if x < y {
                    assert_eq!(p, AllenPredicate::Before);
                } else {
                    assert_eq!(p, AllenPredicate::After);
                }
            }
        }
    }
}
