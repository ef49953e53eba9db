//! The less-than-order between relations and components (Section 5.1),
//! inferred soundly via an event-order closure.
//!
//! Every Allen predicate implies inequalities between the four *events* of
//! its operands (the two start and two end points) — e.g. `a overlaps b`
//! implies `s_a < s_b`, `s_b < e_a` and `e_a < e_b`. [`StartOrder`] collects
//! these implications for every condition of a query and closes them
//! transitively; `s_u <= s_v` is then *provable* exactly when every
//! satisfying assignment orders the start points that way.
//!
//! ## Why a closure, not Figure 1 alone
//!
//! For a single condition the closure reproduces Figure 1's footer orders
//! exactly (this is unit-tested). The generalization matters for the matrix
//! algorithms of Sections 7–9, which prune *inconsistent reducers* using
//! the order between relations/components. The paper derives the component
//! order directly from the sequence edge; that is sound only when every
//! member of the earlier component is provably ordered before some member
//! of the later one. A chain like `R1 ov R2 and R2 ov R3 and R1 before R4`
//! breaks the direct rule (an `R3` interval may start *after* the `R4`
//! interval), and pruning on it would silently drop outputs. The closure
//! derives exactly the constraints that hold, so pruning stays sound —
//! DESIGN.md §5 discusses this deviation.

use crate::components::Components;
use crate::condition::{AttrRef, Condition};
use ij_interval::AllenPredicate;
use serde::{Deserialize, Serialize};

/// Relation between two events in the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Rel {
    /// No provable ordering.
    Unknown,
    /// Provably `<=`.
    Le,
    /// Provably `<`.
    Lt,
}

impl Rel {
    fn join_path(a: Rel, b: Rel) -> Rel {
        match (a, b) {
            (Rel::Unknown, _) | (_, Rel::Unknown) => Rel::Unknown,
            (Rel::Lt, _) | (_, Rel::Lt) => Rel::Lt,
            _ => Rel::Le,
        }
    }

    fn strengthen(self, other: Rel) -> Rel {
        match (self, other) {
            (Rel::Lt, _) | (_, Rel::Lt) => Rel::Lt,
            (Rel::Le, _) | (_, Rel::Le) => Rel::Le,
            _ => Rel::Unknown,
        }
    }
}

/// The provable partial order on the start points of a query's vertices.
/// A [`JoinQuery`](crate::JoinQuery) derives it once, when it is built
/// ([`JoinQuery::start_order`](crate::JoinQuery::start_order)).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StartOrder {
    vertices: Vec<AttrRef>,
    /// `matrix[a * n + b]`, with `n` twice the vertex count: provable
    /// relation between event `a` and event `b`, where event `2i` is
    /// `s_{vertices[i]}` and event `2i+1` is `e_{vertices[i]}`.
    matrix: Vec<Rel>,
}

impl StartOrder {
    /// Infers the order implied by a conjunction of conditions.
    pub(crate) fn infer(conditions: &[Condition]) -> StartOrder {
        let mut vertices: Vec<AttrRef> = (conditions.iter())
            .flat_map(|c| [c.left, c.right])
            .collect();
        vertices.sort_unstable();
        vertices.dedup();
        let n = vertices.len() * 2;
        let mut m = vec![Rel::Unknown; n * n];
        let event = |v: AttrRef| vertices.binary_search(&v).expect("vertex present") * 2;
        for i in 0..n {
            m[i * n + i] = Rel::Le;
        }
        // s_v <= e_v for every vertex.
        for i in (0..n).step_by(2) {
            m[i * n + i + 1] = Rel::Le;
        }
        for c in conditions {
            let (a, b) = (event(c.left), event(c.right));
            let at = |e: Event| match e {
                Event::StartA => a,
                Event::EndA => a + 1,
                Event::StartB => b,
                Event::EndB => b + 1,
            };
            for &(x, y, rel) in implications(c.pred) {
                let xy = &mut m[at(x) * n + at(y)];
                *xy = xy.strengthen(rel);
            }
        }
        // Floyd–Warshall closure.
        for k in 0..n {
            for i in 0..n {
                if m[i * n + k] == Rel::Unknown {
                    continue;
                }
                for j in 0..n {
                    let via = Rel::join_path(m[i * n + k], m[k * n + j]);
                    if via != Rel::Unknown {
                        m[i * n + j] = m[i * n + j].strengthen(via);
                    }
                }
            }
        }
        StartOrder {
            vertices,
            matrix: m,
        }
    }

    /// The provable relation between events `a` and `b`.
    fn rel(&self, a: usize, b: usize) -> Rel {
        self.matrix[a * self.vertices.len() * 2 + b]
    }

    fn sidx(&self, v: AttrRef) -> Option<usize> {
        self.vertices.binary_search(&v).ok().map(|i| i * 2)
    }

    /// Whether `s_a <= s_b` is provable for every satisfying assignment.
    pub fn le_start(&self, a: AttrRef, b: AttrRef) -> bool {
        match (self.sidx(a), self.sidx(b)) {
            (Some(i), Some(j)) => self.rel(i, j) != Rel::Unknown,
            _ => false,
        }
    }

    /// Whether `s_a < s_b` (strict) is provable.
    pub fn lt_start(&self, a: AttrRef, b: AttrRef) -> bool {
        match (self.sidx(a), self.sidx(b)) {
            (Some(i), Some(j)) => self.rel(i, j) == Rel::Lt,
            _ => false,
        }
    }

    /// Whether the query is unsatisfiable: some event is provably strictly
    /// before itself. Section 9 notes that conflicting orders make the
    /// query output null; algorithms short-circuit on this.
    pub fn contradictory(&self) -> bool {
        (0..self.vertices.len() * 2).any(|i| self.rel(i, i) == Rel::Lt)
    }

    /// The vertices this order is over (sorted).
    pub fn vertices(&self) -> &[AttrRef] {
        &self.vertices
    }

    /// Whether the matrix constraint `index(C_a) <= index(C_b)` is sound
    /// for the two components: every vertex of `C_a` is provably
    /// start-ordered `<=` some vertex of `C_b`.
    ///
    /// The matrix algorithms route a component's data by the partition of
    /// the *right-most* member start; `q_a <= q_b` holds for all outputs iff
    /// `max_start(C_a) <= max_start(C_b)`, which this criterion guarantees.
    pub fn component_le(
        &self,
        a: &crate::components::Component,
        b: &crate::components::Component,
    ) -> bool {
        a.vertices
            .iter()
            .all(|&va| b.vertices.iter().any(|&vb| self.le_start(va, vb)))
    }

    /// All sound pairwise component constraints `(i, j)` meaning
    /// "dimension i's index must be `<=` dimension j's" — the consistent-
    /// reducer rule of Sections 7.1 / 8.1 / 9.1.
    pub fn component_constraints(&self, comps: &Components) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for a in &comps.components {
            for b in &comps.components {
                if a.id != b.id && self.component_le(a, b) {
                    out.push((a.id, b.id));
                }
            }
        }
        out
    }
}

/// One of the four events of a condition `P(a, b)`'s operands.
#[derive(Debug, Clone, Copy)]
enum Event {
    StartA,
    EndA,
    StartB,
    EndB,
}

/// The event inequalities implied by `P(a, b)`, as `(x, y, relation)`
/// triples meaning `x relation y`.
fn implications(p: AllenPredicate) -> &'static [(Event, Event, Rel)] {
    use AllenPredicate::*;
    use Event::{EndA as Ea, EndB as Eb, StartA as Sa, StartB as Sb};
    use Rel::*;
    match p {
        Before => &[(Ea, Sb, Lt)],
        After => &[(Eb, Sa, Lt)],
        Overlaps => &[(Sa, Sb, Lt), (Sb, Ea, Lt), (Ea, Eb, Lt)],
        OverlappedBy => &[(Sb, Sa, Lt), (Sa, Eb, Lt), (Eb, Ea, Lt)],
        Contains => &[(Sa, Sb, Lt), (Eb, Ea, Lt)],
        ContainedBy => &[(Sb, Sa, Lt), (Ea, Eb, Lt)],
        Meets => &[(Sa, Sb, Lt), (Ea, Sb, Le), (Sb, Ea, Le), (Ea, Eb, Lt)],
        MetBy => &[(Sb, Sa, Lt), (Eb, Sa, Le), (Sa, Eb, Le), (Eb, Ea, Lt)],
        Starts => &[(Sa, Sb, Le), (Sb, Sa, Le), (Ea, Eb, Lt)],
        StartedBy => &[(Sa, Sb, Le), (Sb, Sa, Le), (Eb, Ea, Lt)],
        Finishes => &[(Ea, Eb, Le), (Eb, Ea, Le), (Sb, Sa, Lt)],
        FinishedBy => &[(Ea, Eb, Le), (Eb, Ea, Le), (Sa, Sb, Lt)],
        Equals => &[(Sa, Sb, Le), (Sb, Sa, Le), (Ea, Eb, Le), (Eb, Ea, Le)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinQuery;
    use ij_interval::AllenPredicate::*;
    use ij_interval::OperandOrder;

    fn two_rel(p: AllenPredicate) -> StartOrder {
        JoinQuery::new(2, vec![Condition::whole(0, p, 1)])
            .unwrap()
            .start_order()
            .clone()
    }

    /// For a single condition, the closure must reproduce Figure 1's
    /// footer orders exactly.
    #[test]
    fn single_condition_matches_figure1() {
        for p in AllenPredicate::ALL {
            let o = two_rel(p);
            let (a, b) = (AttrRef::whole(0), AttrRef::whole(1));
            match p.operand_order() {
                OperandOrder::LeftFirst => {
                    assert!(o.le_start(a, b), "{p}: expected R1 <= R2")
                }
                OperandOrder::RightFirst => {
                    assert!(o.le_start(b, a), "{p}: expected R2 <= R1")
                }
            }
        }
    }

    #[test]
    fn strictness_matches_predicates() {
        let (a, b) = (AttrRef::whole(0), AttrRef::whole(1));
        assert!(two_rel(Overlaps).lt_start(a, b));
        assert!(two_rel(Before).lt_start(a, b));
        // Starts/equals give <= in both directions, strictly in neither.
        let o = two_rel(Starts);
        assert!(o.le_start(a, b) && o.le_start(b, a));
        assert!(!o.lt_start(a, b) && !o.lt_start(b, a));
    }

    #[test]
    fn transitive_chain_before() {
        // R1 before R2, R2 before R3 ==> s1 < s3 (the All-Matrix pruning).
        let q = JoinQuery::chain(&[Before, Before]).unwrap();
        let o = q.start_order();
        assert!(o.lt_start(AttrRef::whole(0), AttrRef::whole(2)));
    }

    #[test]
    fn contradiction_detected() {
        // R1 before R2 and R2 before R1 is unsatisfiable.
        let q = JoinQuery::new(
            2,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(1, Before, 0),
            ],
        )
        .unwrap();
        assert!(q.start_order().contradictory());
        // A satisfiable query is not.
        assert!(!JoinQuery::chain(&[Overlaps])
            .unwrap()
            .start_order()
            .contradictory());
    }

    #[test]
    fn q4_component_constraint_is_sound_and_derivable() {
        // Q4: R1 before R2 and R1 overlaps R3. C({R1,R3}) <= C({R2}) holds:
        // s1 < s2 via before; s3 < s2 via s3 < e1 < s2.
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        let comps = q.components();
        let o = q.start_order();
        let constraints = o.component_constraints(&comps);
        // Find the component ids.
        let c_r2 = comps.component_of(AttrRef::whole(1)).unwrap();
        let c_r1 = comps.component_of(AttrRef::whole(0)).unwrap();
        assert!(constraints.contains(&(c_r1, c_r2)));
        assert!(!constraints.contains(&(c_r2, c_r1)));
    }

    #[test]
    fn unsound_component_constraint_not_derived() {
        // R1 ov R2 and R2 ov R3 and R1 before R4: an R3 interval may start
        // after the R4 interval (s3 < e2, e2 unbounded vs s4), so no
        // constraint between the components may be emitted in either
        // direction. The paper's direct rule would wrongly emit C1 <= C2.
        let q = JoinQuery::new(
            4,
            vec![
                Condition::whole(0, Overlaps, 1),
                Condition::whole(1, Overlaps, 2),
                Condition::whole(0, Before, 3),
            ],
        )
        .unwrap();
        let comps = q.components();
        assert_eq!(comps.len(), 2);
        let o = q.start_order();
        assert!(
            o.component_constraints(&comps).is_empty(),
            "no sound constraint exists between the components"
        );
    }

    #[test]
    fn q3_component_constraint_derivable() {
        // Q3: R1 ov R2, R2 ov R3, R2 before R4, R4 ov R5 — here the chain
        // bounds every member of C1 before every R4 start: s1<s2, s3<e2<s4,
        // s2<=e2<s4; and s4<s5 side. So C1 <= C2 is derivable.
        let q = JoinQuery::new(
            5,
            vec![
                Condition::whole(0, Overlaps, 1),
                Condition::whole(1, Overlaps, 2),
                Condition::whole(1, Before, 3),
                Condition::whole(3, Overlaps, 4),
            ],
        )
        .unwrap();
        let comps = q.components();
        let o = q.start_order();
        let c1 = comps.component_of(AttrRef::whole(0)).unwrap();
        let c2 = comps.component_of(AttrRef::whole(3)).unwrap();
        assert!(o.component_constraints(&comps).contains(&(c1, c2)));
    }

    #[test]
    fn le_start_false_for_unknown_vertices() {
        let o = two_rel(Overlaps);
        assert!(!o.le_start(AttrRef::whole(0), AttrRef::whole(7)));
    }
}
