//! 2-way interval joins (paper Section 4, Figure 1 column 3).
//!
//! One MR cycle: the two relations are routed with the predicate's
//! project/split/replicate pair — the component-matrix pipeline
//! (`crate::component_matrix`) over one dimension with fixed routes. The
//! projected side provably starts last, so each output pair reaches exactly
//! one reducer and no ownership test runs.

use crate::algorithm::{require_single_attr, AlgoError, Algorithm, RunArtifacts};
use crate::component_matrix::ComponentMatrix;
use crate::input::JoinInput;
use crate::output::{JoinOutput, OutputMode};
use crate::plan::Report;
use ij_mapreduce::Engine;
use ij_query::JoinQuery;

/// The Section 4 two-way join.
#[derive(Debug, Clone)]
pub struct TwoWayJoin {
    /// Number of partition-intervals (= logical reducers), `k` in the paper.
    pub partitions: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl TwoWayJoin {
    /// A two-way join over `partitions` partitions, materializing output.
    pub fn new(partitions: usize) -> Self {
        TwoWayJoin {
            partitions,
            mode: OutputMode::Materialize,
        }
    }
}

impl Algorithm for TwoWayJoin {
    fn name(&self) -> &'static str {
        "2-way"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        if query.num_relations() != 2 {
            return Err(AlgoError::Unsupported {
                algorithm: self.name(),
                reason: format!(
                    "{} relations; 2-way joins take exactly 2",
                    query.num_relations()
                ),
            });
        }
        let part = RunArtifacts::partition_span(input.span(), self.partitions)?;
        // Route by the FIRST condition's operation pair; the reducer-side
        // executor checks all conditions (extra conditions between the same
        // two relations only shrink the output).
        let primary = query.conditions()[0];
        let (op_left, op_right) = primary.pred.map_ops();
        let mut routes = vec![[op_right; 2]; 2];
        routes[primary.left.rel.idx()] = [op_left; 2];
        let setting = ComponentMatrix {
            family: "2way",
            query,
            part,
            constraints: Vec::new(),
            groups: vec![vec![0, 1]],
            routes,
            mark_options: Default::default(),
            prune: false,
            route_counters: None,
            mode: self.mode,
        };
        setting.plan(input, Report::Neither)?.run(input, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::{self, *};
    use ij_interval::{Interval, Relation};
    use ij_mapreduce::ClusterConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rel(rng: &mut StdRng, n: usize, span: i64, max_len: i64) -> Relation {
        Relation::from_intervals(
            "R",
            (0..n).map(|_| {
                let s = rng.gen_range(0..span);
                let e = s + rng.gen_range(0..=max_len);
                Interval::new(s, e).unwrap()
            }),
        )
    }

    fn check_predicate(pred: AllenPredicate, seed: u64) {
        let q = JoinQuery::chain(&[pred]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 120, 200, 30),
                random_rel(&mut rng, 120, 200, 30),
            ],
        )
        .unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let got = TwoWayJoin::new(7)
            .run(&q, &input, &engine)
            .unwrap()
            .assert_no_duplicates();
        let want = oracle_join(&q, &input);
        assert_eq!(got, want, "predicate {pred}");
    }

    #[test]
    fn every_allen_predicate_matches_oracle() {
        for (i, pred) in AllenPredicate::ALL.into_iter().enumerate() {
            check_predicate(pred, 1000 + i as u64);
        }
    }

    #[test]
    fn overlap_from_figure1_strategy() {
        // Overlaps must split R1 and project R2 — verify the op table.
        assert_eq!(
            Overlaps.map_ops(),
            (ij_interval::MapOp::Split, ij_interval::MapOp::Project)
        );
        assert_eq!(
            Before.map_ops(),
            (ij_interval::MapOp::Replicate, ij_interval::MapOp::Project)
        );
    }

    #[test]
    fn count_mode_counts_without_materializing() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 80, 100, 20),
                random_rel(&mut rng, 80, 100, 20),
            ],
        )
        .unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let alg = TwoWayJoin {
            partitions: 5,
            mode: OutputMode::Count,
        };
        let out = alg.run(&q, &input, &engine).unwrap();
        assert!(out.tuples.is_empty());
        assert_eq!(out.count, oracle_join(&q, &input).len() as u64);
    }

    #[test]
    fn rejects_multiway_queries() {
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", vec![Interval::new(0, 1).unwrap()]),
                Relation::from_intervals("B", vec![Interval::new(0, 1).unwrap()]),
                Relation::from_intervals("C", vec![Interval::new(0, 1).unwrap()]),
            ],
        )
        .unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(2));
        assert!(matches!(
            TwoWayJoin::new(4).run(&q, &input, &engine),
            Err(AlgoError::Unsupported { .. })
        ));
    }

    #[test]
    fn contradictory_query_short_circuits() {
        let q = JoinQuery::new(
            2,
            vec![
                ij_query::Condition::whole(0, Before, 1),
                ij_query::Condition::whole(1, Before, 0),
            ],
        )
        .unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", vec![Interval::new(0, 1).unwrap()]),
                Relation::from_intervals("B", vec![Interval::new(5, 6).unwrap()]),
            ],
        )
        .unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(2));
        let out = TwoWayJoin::new(4).run(&q, &input, &engine).unwrap();
        assert_eq!(out.count, 0);
        assert_eq!(out.chain.num_cycles(), 0);
    }

    #[test]
    fn reversed_condition_orientation() {
        // Condition written as R2 overlapped-by R1 (left operand is R2).
        let q = JoinQuery::new(2, vec![ij_query::Condition::whole(1, OverlappedBy, 0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 100, 150, 25),
                random_rel(&mut rng, 100, 150, 25),
            ],
        )
        .unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let got = TwoWayJoin::new(6)
            .run(&q, &input, &engine)
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input));
    }
}
