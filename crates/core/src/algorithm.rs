//! The [`Algorithm`] trait and shared plumbing for the join algorithms.

use crate::input::JoinInput;
use crate::output::JoinOutput;
use crate::records::IvRec;
use ij_interval::{Interval, Partitioning, RelId, Time};
use ij_mapreduce::Engine;
use ij_query::JoinQuery;
use std::fmt;

/// Error running a join algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgoError {
    /// The algorithm does not support this query class.
    Unsupported {
        /// The algorithm's name.
        algorithm: &'static str,
        /// Why the query is out of scope.
        reason: String,
    },
    /// Bad tuning parameter (zero partitions, …).
    BadConfig(String),
    /// A map-reduce cycle failed inside the engine (retry budget exhausted
    /// under fault injection, or an engine invariant breached).
    Engine(ij_mapreduce::EngineError),
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::Unsupported { algorithm, reason } => {
                write!(f, "{algorithm} does not support this query: {reason}")
            }
            AlgoError::BadConfig(m) => write!(f, "bad algorithm configuration: {m}"),
            AlgoError::Engine(e) => write!(f, "map-reduce cycle failed: {e}"),
        }
    }
}

impl std::error::Error for AlgoError {}

impl From<ij_mapreduce::EngineError> for AlgoError {
    fn from(e: ij_mapreduce::EngineError) -> Self {
        AlgoError::Engine(e)
    }
}

/// A MapReduce join algorithm.
pub trait Algorithm {
    /// Short name for reports (`"RCCIS"`, `"All-Matrix"`, …).
    fn name(&self) -> &'static str;

    /// Runs the join of `input` under `query` on `engine`.
    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError>;
}

/// How the 1-D partitioning boundaries are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Equal-width partitions over the data span — the paper's setting.
    #[default]
    EquiWidth,
    /// Quantile (equi-depth) boundaries over the interval start points —
    /// keeps reducer loads balanced under skewed `dS` (Section 2's remark
    /// that skewed data "will need to be processed differently").
    EquiDepth,
}

/// Artifacts shared by the algorithm implementations: the global
/// partitioning and the flattened single-attribute input records.
pub struct RunArtifacts {
    /// The 1-D partitioning of the joint time span.
    pub partitioning: Partitioning,
}

impl RunArtifacts {
    /// The half-open range `[t0, tn)` to partition `span` into `k` parts:
    /// one tick past the maximal end point, and at least `k` representable
    /// points. A span that ends at `Time::MAX` cannot be widened; its last
    /// point then reaches the final partition through
    /// `Partitioning::index_of`'s clamp.
    fn partition_range(span: Interval, k: usize) -> (Time, Time) {
        let k = k as Time;
        let tn = span
            .end()
            .saturating_add(1)
            .max(span.start().saturating_add(k));
        (span.start().min(tn.saturating_sub(k)), tn)
    }

    /// Builds a `k`-partition equi-width partitioning over the input's
    /// attribute-0 span. The span is widened by one tick so the maximal end
    /// point lies inside the final partition.
    pub fn partition_span(span: Interval, k: usize) -> Result<Partitioning, AlgoError> {
        let k = k.max(1);
        let (t0, tn) = Self::partition_range(span, k);
        Partitioning::equi_width(t0, tn, k)
            .map_err(|e| AlgoError::BadConfig(format!("cannot partition span {span}: {e}")))
    }

    /// Builds a `k`-partitioning over the input's attribute-0 span using
    /// the given strategy (equi-depth samples every start point).
    pub fn partition_input(
        input: &JoinInput,
        k: usize,
        strategy: PartitionStrategy,
    ) -> Result<Partitioning, AlgoError> {
        let span = input.span();
        match strategy {
            PartitionStrategy::EquiWidth => Self::partition_span(span, k),
            PartitionStrategy::EquiDepth => {
                let starts: Vec<Time> = input
                    .relations()
                    .iter()
                    .flat_map(|r| r.tuples().iter().map(|t| t.interval().start()))
                    .collect();
                let k = k.max(1);
                let (t0, tn) = Self::partition_range(span, k);
                Partitioning::equi_depth(t0, tn, k, &starts)
                    .map_err(|e| AlgoError::BadConfig(format!("cannot partition span {span}: {e}")))
            }
        }
    }
}

/// Flattens the input into [`IvRec`]s (attribute 0), the record stream every
/// single-attribute job maps over.
pub fn iv_records(input: &JoinInput) -> Vec<IvRec> {
    let mut recs = Vec::with_capacity(input.total_tuples());
    for (r, rel) in input.relations().iter().enumerate() {
        for t in rel.tuples() {
            recs.push(IvRec {
                rel: RelId(r as u16),
                tid: t.id,
                iv: t.interval(),
            });
        }
    }
    recs
}

/// Requires a query to be single-attribute (classes Colocation, Sequence,
/// Hybrid), returning an [`AlgoError`] otherwise.
pub fn require_single_attr(algorithm: &'static str, q: &JoinQuery) -> Result<(), AlgoError> {
    if q.class() == ij_query::QueryClass::General {
        Err(AlgoError::Unsupported {
            algorithm,
            reason: "query uses multiple attributes; use Gen-Matrix".into(),
        })
    } else {
        Ok(())
    }
}

/// Refuses a query in which no condition mentions some relation, naming
/// it: that relation joins as a cross product, which the families growing
/// composite records along the conditions never reach.
pub(crate) fn require_all_joined(algorithm: &'static str, q: &JoinQuery) -> Result<(), AlgoError> {
    let unjoined = |r: &RelId| q.conditions_of(*r).next().is_none();
    match (0..q.num_relations()).map(RelId).find(unjoined) {
        None => Ok(()),
        Some(r) => {
            let name = &q.relations()[r.idx()].name;
            let reason = format!("no condition mentions relation {name}");
            Err(AlgoError::Unsupported { algorithm, reason })
        }
    }
}

/// Short-circuit for provably unsatisfiable queries (contradictory
/// less-than orders, Section 9): returns an empty output with no cycles.
pub fn empty_output(mode: crate::output::OutputMode) -> JoinOutput {
    JoinOutput::from_records(mode, Vec::new(), ij_mapreduce::JobChain::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;
    use ij_interval::Relation;

    #[test]
    fn partition_span_widens_to_cover_end() {
        let p = RunArtifacts::partition_span(Interval::new(0, 99).unwrap(), 4).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.index_of(99), 3);
    }

    #[test]
    fn partition_span_handles_tiny_spans() {
        let p = RunArtifacts::partition_span(Interval::new(5, 5).unwrap(), 8).unwrap();
        assert_eq!(p.len(), 8);
        assert_eq!(p.index_of(5), 0);
    }

    #[test]
    fn iv_records_flatten_in_relation_order() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", vec![Interval::new(0, 1).unwrap()]),
                Relation::from_intervals(
                    "B",
                    vec![Interval::new(2, 3).unwrap(), Interval::new(4, 5).unwrap()],
                ),
            ],
        )
        .unwrap();
        let recs = iv_records(&input);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].rel, RelId(0));
        assert_eq!(
            recs[2],
            IvRec {
                rel: RelId(1),
                tid: 1,
                iv: Interval::new(4, 5).unwrap()
            }
        );
    }

    #[test]
    fn require_single_attr_rejects_general() {
        use ij_query::{AttrRef, Condition};
        let q = JoinQuery::with_relations(
            vec![
                ij_query::query::RelationMeta {
                    name: "R1".into(),
                    attr_names: vec!["I".into(), "A".into()],
                },
                ij_query::query::RelationMeta {
                    name: "R2".into(),
                    attr_names: vec!["I".into()],
                },
            ],
            vec![Condition::new(
                AttrRef::new(0, 1),
                Equals,
                AttrRef::new(1, 0),
            )],
        )
        .unwrap();
        assert!(require_single_attr("T", &q).is_err());
        assert!(require_single_attr("T", &JoinQuery::chain(&[Overlaps]).unwrap()).is_ok());
    }
}
