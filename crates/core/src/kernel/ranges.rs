//! Exact endpoint-range decomposition of Allen predicates.
//!
//! Every Allen predicate `P`, given a fixed left operand `r1 = (s1, e1)`,
//! is *exactly* equivalent to a pair of independent range constraints on
//! the right operand's endpoints: `P.holds(r1, r2)` iff `r2.start` lies in
//! a start range and `r2.end` lies in an end range (both derived from
//! `r1` alone). For example `overlaps` decomposes into
//! `s2 ∈ (s1, e1)` and `e2 ∈ (e1, ∞)`; `contains` into `s2 ∈ (s1, e1)` and
//! `e2 ∈ (s1, e1)` (using `s2 <= e2`).
//!
//! This is what lets the production kernels drop the per-candidate `holds`
//! re-check of the backtracking reference: conditions at one binding
//! level intersect their start ranges and their end ranges, and membership
//! in both intersected ranges *is* satisfaction of all the conditions. The
//! decomposition is verified exhaustively against [`AllenPredicate::holds`]
//! in this module's tests.

use ij_interval::{bounds_contain, AllenPredicate, Interval, Time};
use std::ops::Bound;

/// Merges two lower bounds, keeping the tighter.
pub(crate) fn tighten_lower(a: Bound<Time>, b: Bound<Time>) -> Bound<Time> {
    use Bound::*;
    match (a, b) {
        (Unbounded, x) | (x, Unbounded) => x,
        (Included(x), Included(y)) => Included(x.max(y)),
        (Excluded(x), Excluded(y)) => Excluded(x.max(y)),
        (Included(i), Excluded(e)) | (Excluded(e), Included(i)) => {
            if e >= i {
                Excluded(e)
            } else {
                Included(i)
            }
        }
    }
}

/// Merges two upper bounds, keeping the tighter.
pub(crate) fn tighten_upper(a: Bound<Time>, b: Bound<Time>) -> Bound<Time> {
    use Bound::*;
    match (a, b) {
        (Unbounded, x) | (x, Unbounded) => x,
        (Included(x), Included(y)) => Included(x.min(y)),
        (Excluded(x), Excluded(y)) => Excluded(x.min(y)),
        (Included(i), Excluded(e)) | (Excluded(e), Included(i)) => {
            if e <= i {
                Excluded(e)
            } else {
                Included(i)
            }
        }
    }
}

/// Range constraints on a candidate interval's start and end points.
///
/// Produced by [`range_pair`] and intersected across all conditions at one
/// binding level. A contradictory pair (lower bound above upper bound)
/// simply yields empty windows / `contains == false`; no separate empty
/// flag is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePair {
    /// Bounds on the candidate's start point.
    pub start: (Bound<Time>, Bound<Time>),
    /// Bounds on the candidate's end point.
    pub end: (Bound<Time>, Bound<Time>),
}

impl RangePair {
    /// The unconstrained pair (identity of [`RangePair::intersect`]) —
    /// the starting point for conjoining any Allen predicate's ranges.
    pub fn full() -> RangePair {
        RangePair {
            start: (Bound::Unbounded, Bound::Unbounded),
            end: (Bound::Unbounded, Bound::Unbounded),
        }
    }

    /// Tightens `self` to the conjunction of both constraint pairs —
    /// how a condition set's Allen predicates compose on one candidate.
    pub fn intersect(&mut self, other: &RangePair) {
        self.start.0 = tighten_lower(self.start.0, other.start.0);
        self.start.1 = tighten_upper(self.start.1, other.start.1);
        self.end.0 = tighten_lower(self.end.0, other.end.0);
        self.end.1 = tighten_upper(self.end.1, other.end.1);
    }

    /// Whether `iv` satisfies both range constraints. Exact for every
    /// Allen predicate given a valid interval (`start <= end`).
    #[inline]
    pub fn contains(&self, iv: Interval) -> bool {
        bounds_contain(self.start, iv.start()) && bounds_contain(self.end, iv.end())
    }

    /// Whether either range is contradictory — no point can satisfy it.
    /// Class-independent: works on the intersected ranges of any
    /// predicate mix.
    ///
    /// Exact for the integer [`Time`] domain (an `(Excluded(a),
    /// Excluded(b))` range is empty iff `a + 1 >= b`), so a `true` lets a
    /// probe loop skip a scan entirely and a `false` guarantees the range
    /// admits at least one point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        fn empty(range: (Bound<Time>, Bound<Time>)) -> bool {
            match range {
                (Bound::Included(a), Bound::Included(b)) => a > b,
                (Bound::Included(a), Bound::Excluded(b))
                | (Bound::Excluded(a), Bound::Included(b)) => a >= b,
                (Bound::Excluded(a), Bound::Excluded(b)) => a.saturating_add(1) >= b,
                _ => false,
            }
        }
        empty(self.start) || empty(self.end)
    }
}

/// The exact endpoint ranges a candidate `r2` must satisfy for
/// `pred.holds(r1, r2)`.
///
/// Exactness (for any *valid* interval, i.e. `s2 <= e2`):
/// `range_pair(p, r1).contains(r2) == p.holds(r1, r2)` — tested
/// exhaustively below. The ranges are normalized with the `s2 <= e2`
/// implication (an upper bound on `e2` also bounds `s2`, a lower bound on
/// `s2` also bounds `e2`), so the start range is always at least as tight
/// as [`AllenPredicate::right_start_bounds`].
pub fn range_pair(pred: AllenPredicate, r1: Interval) -> RangePair {
    use AllenPredicate::*;
    use Bound::*;
    let (s1, e1) = (r1.start(), r1.end());
    type Endpoint = (Bound<Time>, Bound<Time>);
    let (start, end): (Endpoint, Endpoint) = match pred {
        // e1 < s2
        Before => ((Excluded(e1), Unbounded), (Unbounded, Unbounded)),
        // e2 < s1
        After => ((Unbounded, Unbounded), (Unbounded, Excluded(s1))),
        // s1 < s2 < e1 < e2
        Overlaps => ((Excluded(s1), Excluded(e1)), (Excluded(e1), Unbounded)),
        // s2 < s1 < e2 < e1
        OverlappedBy => ((Unbounded, Excluded(s1)), (Excluded(s1), Excluded(e1))),
        // s1 < s2 && e2 < e1
        Contains => ((Excluded(s1), Unbounded), (Unbounded, Excluded(e1))),
        // s2 < s1 && e1 < e2
        ContainedBy => ((Unbounded, Excluded(s1)), (Excluded(e1), Unbounded)),
        // s2 == e1 && s1 < s2 && e1 < e2 (point start; empty when s1 == e1)
        Meets => (
            (tighten_lower(Included(e1), Excluded(s1)), Included(e1)),
            (Excluded(e1), Unbounded),
        ),
        // e2 == s1 && s2 < s1 && e2 < e1 (point end; empty when s1 == e1)
        MetBy => (
            (Unbounded, Excluded(s1)),
            (Included(s1), tighten_upper(Included(s1), Excluded(e1))),
        ),
        // s2 == s1 && e1 < e2
        Starts => ((Included(s1), Included(s1)), (Excluded(e1), Unbounded)),
        // s2 == s1 && e2 < e1
        StartedBy => ((Included(s1), Included(s1)), (Unbounded, Excluded(e1))),
        // e2 == e1 && s2 < s1
        Finishes => ((Unbounded, Excluded(s1)), (Included(e1), Included(e1))),
        // e2 == e1 && s1 < s2
        FinishedBy => ((Excluded(s1), Unbounded), (Included(e1), Included(e1))),
        Equals => ((Included(s1), Included(s1)), (Included(e1), Included(e1))),
    };
    let mut rp = RangePair { start, end };
    // Normalize with s2 <= e2: e2's upper bound also caps s2, s2's lower
    // bound also floors e2. This keeps start windows tight for predicates
    // whose literal constraint touches only one endpoint.
    rp.start.1 = tighten_upper(rp.start.1, rp.end.1);
    rp.end.0 = tighten_lower(rp.end.0, rp.start.0);
    rp
}

/// Whether `pred` (candidate as right operand) constrains the candidate's
/// end point beyond what its start range already implies through
/// `s2 <= e2` — i.e. whether an end-sorted window over the candidates can
/// ever be narrower than the start window. Every Allen predicate but
/// `before` does: `before`'s literal constraint is `s2 > e1` alone, and
/// the normalized end range `e2 > e1` it induces admits every candidate
/// the start range admits.
pub(crate) fn constrains_end(pred: AllenPredicate) -> bool {
    pred != AllenPredicate::Before
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::bounds_contain;

    fn iv(s: Time, e: Time) -> Interval {
        Interval::new(s, e).unwrap()
    }

    fn universe(hi: Time) -> Vec<Interval> {
        let mut ivs = Vec::new();
        for s in 0..=hi {
            for e in s..=hi {
                ivs.push(iv(s, e));
            }
        }
        ivs
    }

    /// The decomposition is *exact*: range membership is predicate truth,
    /// for every predicate and every pair of small intervals.
    #[test]
    fn range_pair_is_exact() {
        let ivs = universe(5);
        for &a in &ivs {
            for p in AllenPredicate::ALL {
                let rp = range_pair(p, a);
                for &b in &ivs {
                    assert_eq!(
                        rp.contains(b),
                        p.holds(a, b),
                        "{p}: r1={a} r2={b} ranges={rp:?}"
                    );
                }
            }
        }
    }

    /// The normalized start range never loosens the executor's windows.
    #[test]
    fn start_range_at_least_as_tight_as_right_start_bounds() {
        let ivs = universe(5);
        for &a in &ivs {
            for p in AllenPredicate::ALL {
                let rp = range_pair(p, a);
                for t in -1..=6 {
                    if bounds_contain(rp.start, t) {
                        assert!(
                            bounds_contain(p.right_start_bounds(a), t),
                            "{p}: start range admits {t} outside right_start_bounds for {a}"
                        );
                    }
                }
            }
        }
    }

    /// Intersection is the conjunction of memberships.
    #[test]
    fn intersect_is_conjunction() {
        let ivs = universe(4);
        for &a in &ivs {
            for &b in &ivs {
                for p in AllenPredicate::ALL {
                    for q in AllenPredicate::ALL {
                        let mut rp = range_pair(p, a);
                        rp.intersect(&range_pair(q, b));
                        for &c in &ivs {
                            assert_eq!(
                                rp.contains(c),
                                p.holds(a, c) && q.holds(b, c),
                                "{p}∧{q}: r1={a} r1'={b} r2={c}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `is_empty` is exact on the small universe: a pair is empty iff no
    /// interval (indeed no endpoint pair) satisfies it.
    #[test]
    fn is_empty_matches_exhaustive_membership() {
        let ivs = universe(5);
        for &a in &ivs {
            for p in AllenPredicate::ALL {
                for &b in &ivs {
                    for q in AllenPredicate::ALL {
                        let mut rp = range_pair(p, a);
                        rp.intersect(&range_pair(q, b));
                        let any = ivs.iter().any(|&c| rp.contains(c));
                        if rp.is_empty() {
                            assert!(!any, "{p}∧{q}: empty pair admits a member ({a},{b})");
                        }
                    }
                }
            }
        }
        // And fully exact on single ranges over raw points.
        for lo in [Bound::Unbounded, Bound::Included(2), Bound::Excluded(2)] {
            for hi in [Bound::Unbounded, Bound::Included(3), Bound::Excluded(3)] {
                let rp = RangePair {
                    start: (lo, hi),
                    end: (Bound::Unbounded, Bound::Unbounded),
                };
                let any = (-1..=6).any(|t| bounds_contain((lo, hi), t));
                assert_eq!(rp.is_empty(), !any, "lo={lo:?} hi={hi:?}");
            }
        }
    }

    /// `constrains_end` is exactly "the end range can exclude a candidate
    /// the start range admits", over the dense universe.
    #[test]
    fn constrains_end_matches_the_ranges() {
        let ivs = universe(5);
        for p in AllenPredicate::ALL {
            let end_can_exclude = ivs.iter().any(|&a| {
                let rp = range_pair(p, a);
                ivs.iter()
                    .any(|&b| bounds_contain(rp.start, b.start()) && !rp.contains(b))
            });
            assert_eq!(constrains_end(p), end_can_exclude, "{p}");
        }
    }
}
