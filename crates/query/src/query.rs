//! The [`JoinQuery`] type: a conjunction of Allen conditions over relations.

use crate::classify::QueryClass;
use crate::components::Components;
use crate::condition::{AttrRef, Condition};
use crate::graph::JoinGraph;
use crate::order::StartOrder;
use ij_interval::{AllenPredicate, AttrId, RelId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Metadata of one (logical) relation in a query.
///
/// A self-join registers the same physical data under several logical
/// relations, each with its own `RelationMeta` (see Table 2's star
/// self-join).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelationMeta {
    /// Display name (`"R1"` by default).
    pub name: String,
    /// Attribute names; length gives the relation's arity in the query.
    pub attr_names: Vec<String>,
}

impl RelationMeta {
    fn single(name: String) -> Self {
        RelationMeta {
            name,
            attr_names: vec!["a0".to_string()],
        }
    }
}

/// Error constructing a [`JoinQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A condition references a relation id outside `0..num_relations`.
    UnknownRelation { rel: RelId },
    /// A condition references an attribute outside the relation's arity.
    UnknownAttr { at: AttrRef },
    /// Both operands of a condition are the same relation. Self-joins are
    /// expressed with distinct *logical* relations over shared data.
    SelfCondition { rel: RelId },
    /// The query has no conditions.
    NoConditions,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownRelation { rel } => write!(f, "unknown relation {rel}"),
            QueryError::UnknownAttr { at } => write!(f, "unknown attribute {at}"),
            QueryError::SelfCondition { rel } => write!(
                f,
                "condition joins {rel} with itself; register a second logical relation instead"
            ),
            QueryError::NoConditions => write!(f, "query has no join conditions"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A multi-way interval join query: `m` logical relations and a conjunction
/// of Allen-predicate conditions between them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinQuery {
    relations: Vec<RelationMeta>,
    conditions: Vec<Condition>,
    /// Derived from `conditions` when the query is built.
    start_order: StartOrder,
}

impl JoinQuery {
    /// Builds and validates a query over `num_relations` single-attribute
    /// relations named `R1..Rm`.
    pub fn new(num_relations: u16, conditions: Vec<Condition>) -> Result<Self, QueryError> {
        let relations = (0..num_relations)
            .map(|i| RelationMeta::single(format!("R{}", i + 1)))
            .collect();
        JoinQuery::with_relations(relations, conditions)
    }

    /// Builds and validates a query with explicit relation metadata
    /// (names and per-relation attribute lists).
    pub fn with_relations(
        relations: Vec<RelationMeta>,
        conditions: Vec<Condition>,
    ) -> Result<Self, QueryError> {
        if conditions.is_empty() {
            return Err(QueryError::NoConditions);
        }
        for c in &conditions {
            for at in [c.left, c.right] {
                let meta = relations
                    .get(at.rel.idx())
                    .ok_or(QueryError::UnknownRelation { rel: at.rel })?;
                if at.attr as usize >= meta.attr_names.len() {
                    return Err(QueryError::UnknownAttr { at });
                }
            }
            if c.left.rel == c.right.rel {
                return Err(QueryError::SelfCondition { rel: c.left.rel });
            }
        }
        Ok(JoinQuery {
            start_order: StartOrder::infer(&conditions),
            relations,
            conditions,
        })
    }

    /// Convenience: a chain query `R1 P1 R2 and R2 P2 R3 and …` over
    /// single-attribute relations.
    pub fn chain(preds: &[AllenPredicate]) -> Result<Self, QueryError> {
        let conditions = preds
            .iter()
            .enumerate()
            .map(|(i, &p)| Condition::whole(i as u16, p, i as u16 + 1))
            .collect();
        JoinQuery::new(preds.len() as u16 + 1, conditions)
    }

    /// Number of logical relations `m`.
    pub fn num_relations(&self) -> u16 {
        self.relations.len() as u16
    }

    /// Relation metadata.
    pub fn relations(&self) -> &[RelationMeta] {
        &self.relations
    }

    /// The conditions, in declaration order.
    pub fn conditions(&self) -> &[Condition] {
        &self.conditions
    }

    /// All conditions between the two given relations (either direction).
    pub fn conditions_between(&self, a: RelId, b: RelId) -> impl Iterator<Item = &Condition> + '_ {
        self.conditions.iter().filter(move |c| {
            (c.left.rel == a && c.right.rel == b) || (c.left.rel == b && c.right.rel == a)
        })
    }

    /// All conditions touching the given relation.
    pub fn conditions_of(&self, r: RelId) -> impl Iterator<Item = &Condition> + '_ {
        self.conditions
            .iter()
            .filter(move |c| c.left.rel == r || c.right.rel == r)
    }

    /// All distinct ⟨relation, attribute⟩ vertices appearing in conditions,
    /// sorted.
    pub fn vertices(&self) -> Vec<AttrRef> {
        self.start_order.vertices().to_vec()
    }

    /// The paper's four-way classification.
    pub fn class(&self) -> QueryClass {
        QueryClass::of(self)
    }

    /// The join graph over ⟨relation, attribute⟩ vertices.
    pub fn join_graph(&self) -> JoinGraph {
        JoinGraph::of(self)
    }

    /// The colocation connected components (graph `G'` of Sections 8–9).
    pub fn components(&self) -> Components {
        Components::of(self)
    }

    /// The inferred start-point partial order over vertices (Section 5.1's
    /// less-than-order, closed transitively; see DESIGN.md §5), derived
    /// once when the query was built.
    pub fn start_order(&self) -> &StartOrder {
        &self.start_order
    }

    /// Whether `assignment` (one interval per relation, single-attribute
    /// queries) satisfies every condition. This is the oracle's acceptance
    /// test and condition A2 of consistency when all relations are present.
    pub fn satisfied_by(&self, intervals: &[ij_interval::Interval]) -> bool {
        debug_assert_eq!(intervals.len(), self.relations.len());
        self.conditions
            .iter()
            .all(|c| c.holds(intervals[c.left.rel.idx()], intervals[c.right.rel.idx()]))
    }

    /// Whether full tuples (one per relation) satisfy every condition,
    /// honoring attribute references — the multi-attribute acceptance test.
    pub fn satisfied_by_tuples(&self, tuples: &[ij_interval::Tuple<'_>]) -> bool {
        debug_assert_eq!(tuples.len(), self.relations.len());
        self.conditions
            .iter()
            .all(|c| c.holds_tuples(tuples[c.left.rel.idx()], tuples[c.right.rel.idx()]))
    }

    /// The attributes of relation `r` that participate in some condition.
    pub fn join_attrs_of(&self, r: RelId) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = self
            .conditions
            .iter()
            .flat_map(|c| [c.left, c.right])
            .filter(|at| at.rel == r)
            .map(|at| at.attr)
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        attrs
    }
}

impl JoinQuery {
    /// Renders one operand with the query's relation/attribute names
    /// (single-attribute relations omit the attribute).
    fn fmt_operand(&self, f: &mut fmt::Formatter<'_>, at: AttrRef) -> fmt::Result {
        let meta = &self.relations[at.rel.idx()];
        if meta.attr_names.len() == 1 {
            write!(f, "{}", meta.name)
        } else {
            write!(f, "{}.{}", meta.name, meta.attr_names[at.attr as usize])
        }
    }
}

impl fmt::Display for JoinQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            self.fmt_operand(f, c.left)?;
            write!(f, " {} ", c.pred)?;
            self.fmt_operand(f, c.right)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;
    use ij_interval::Interval;

    /// The paper's running example Q0: R1 overlaps R2 and R2 contains R3 and
    /// R3 overlaps R4.
    pub(crate) fn q0() -> JoinQuery {
        JoinQuery::chain(&[Overlaps, Contains, Overlaps]).unwrap()
    }

    #[test]
    fn chain_builds_q0() {
        let q = q0();
        assert_eq!(q.num_relations(), 4);
        assert_eq!(q.conditions().len(), 3);
        assert_eq!(
            q.to_string(),
            "R1 overlaps R2 and R2 contains R3 and R3 overlaps R4"
        );
    }

    #[test]
    fn validation_rejects_bad_refs() {
        assert_eq!(
            JoinQuery::new(2, vec![Condition::whole(0, Before, 2)]).unwrap_err(),
            QueryError::UnknownRelation { rel: RelId(2) }
        );
        assert_eq!(
            JoinQuery::new(
                2,
                vec![Condition::new(
                    AttrRef::new(0, 1),
                    Before,
                    AttrRef::whole(1)
                )]
            )
            .unwrap_err(),
            QueryError::UnknownAttr {
                at: AttrRef::new(0, 1)
            }
        );
        assert_eq!(
            JoinQuery::new(2, vec![Condition::whole(1, Before, 1)]).unwrap_err(),
            QueryError::SelfCondition { rel: RelId(1) }
        );
        assert_eq!(
            JoinQuery::new(2, vec![]).unwrap_err(),
            QueryError::NoConditions
        );
    }

    #[test]
    fn conditions_between_finds_both_directions() {
        let q = q0();
        assert_eq!(q.conditions_between(RelId(1), RelId(2)).count(), 1);
        assert_eq!(q.conditions_between(RelId(2), RelId(1)).count(), 1);
        assert_eq!(q.conditions_between(RelId(0), RelId(3)).count(), 0);
    }

    #[test]
    fn satisfied_by_checks_all_conditions() {
        let q = q0();
        let iv = |s, e| Interval::new(s, e).unwrap();
        // u overlaps v, v contains w, w overlaps x.
        let good = [iv(0, 10), iv(5, 40), iv(12, 30), iv(20, 50)];
        assert!(q.satisfied_by(&good));
        let bad = [iv(0, 10), iv(5, 40), iv(12, 30), iv(45, 50)];
        assert!(!q.satisfied_by(&bad));
    }

    #[test]
    fn vertices_and_join_attrs() {
        let q = q0();
        assert_eq!(q.vertices().len(), 4);
        assert_eq!(q.join_attrs_of(RelId(1)), vec![0]);
    }
}
