//! FSTC — First Sequence Then Colocation (Section 8, baseline).
//!
//! The family builds a plan (`crate::plan`). Stage 1 joins the relations
//! touched by sequence conditions with an All-Matrix sub-plan; stage 2
//! cascades the colocation conditions onto the resulting composites (the
//! cascade's stages), or filters them in place when no relation is left
//! to introduce. Like FCTS, it pays for materializing and re-shuffling
//! intermediate results.

use crate::algorithm::{require_single_attr, AlgoError, Algorithm};
use crate::all_matrix::AllMatrix;
use crate::cascade::{plan_stages, TwoWayCascade};
use crate::input::{induced, JoinInput};
use crate::kernel::composite::CompositeJoin;
use crate::output::{JoinOutput, OutputMode};
use crate::plan::{Plan, Report, Step};
use ij_interval::RelId;
use ij_mapreduce::Engine;
use ij_query::{Condition, JoinQuery, QueryClass};

/// The FSTC baseline.
#[derive(Debug, Clone)]
pub struct Fstc {
    /// Partitions for the colocation cascade stages.
    pub partitions: usize,
    /// Partitions per dimension for the sequence All-Matrix stage.
    pub per_dim: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl Fstc {
    /// FSTC with the given partition counts, materializing output.
    pub fn new(partitions: usize, per_dim: usize) -> Self {
        Fstc {
            partitions,
            per_dim,
            mode: OutputMode::Materialize,
        }
    }
}

impl Algorithm for Fstc {
    fn name(&self) -> &'static str {
        "FSTC"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        crate::algorithm::require_all_joined(self.name(), query)?;
        if query.class() != QueryClass::Hybrid {
            return Err(AlgoError::Unsupported {
                algorithm: self.name(),
                reason: "FSTC needs both sequence and colocation conditions".into(),
            });
        }

        // ---- Stage 1: All-Matrix over the sequence sub-query ---------------
        let mut seq_rels: Vec<RelId> = (query.conditions().iter())
            .filter(|c| c.is_sequence())
            .flat_map(|c| [c.left.rel, c.right.rel])
            .collect();
        seq_rels.sort_unstable();
        seq_rels.dedup();
        let members: Vec<usize> = seq_rels.iter().map(|r| r.idx()).collect();
        let sub_q = induced(query, &members, |c| c.is_sequence());
        let seq = AllMatrix::new(self.per_dim);
        // Composites over the sequence relations.
        let sub_input = input.restrict(&sub_q, &seq_rels);
        let mut steps = vec![Step::Sub {
            side: 0,
            rels: seq_rels.clone(),
            plan: seq.plan(&sub_q, &sub_input)?,
            input: sub_input,
        }];

        // ---- Stage 2: cascade the colocation conditions --------------------
        let coloc_conditions: Vec<Condition> = (query.conditions().iter().copied())
            .filter(|c| c.is_colocation())
            .collect();
        let all_within_seed = coloc_conditions
            .iter()
            .all(|c| seq_rels.contains(&c.left.rel) && seq_rels.contains(&c.right.rel));
        if all_within_seed {
            // Every colocation condition sits between sequence relations,
            // which are then all of the query's (each one is joined):
            // filter the seed locally, with no relation left to introduce.
            let every = (0..query.num_relations()).map(RelId);
            let sides = [seq_rels];
            let filter = CompositeJoin::over(&sides, &coloc_conditions, every, self.mode);
            steps.push(Step::Filter(filter));
        } else {
            let stages = plan_stages(seq_rels.clone(), &coloc_conditions)?;
            let cascade = TwoWayCascade {
                partitions: self.partitions,
                per_dim_2d: self.per_dim,
                mode: self.mode,
            };
            steps.extend(cascade.steps(input, seq_rels, &stages)?);
        }
        Plan::new(query, input, self.mode, Report::Neither, steps).run(input, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::*;
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

    fn engine() -> Engine {
        Engine::new(ClusterConfig::with_slots(4))
    }

    fn check_q(q: &JoinQuery, seed: u64, n: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rels = (0..q.num_relations())
            .map(|_| random_rel(&mut rng, n, 300, 50))
            .collect();
        let input = JoinInput::bind_owned(q, rels).unwrap();
        let want = oracle_join(q, &input);
        assert!(!want.is_empty(), "query {q}: workload too sparse");
        let got = Fstc::new(6, 4).run(q, &input, &engine()).unwrap();
        assert_eq!(got.assert_no_duplicates(), want, "query {q}");
        let counted = Fstc {
            mode: OutputMode::Count,
            ..Fstc::new(6, 4)
        }
        .run(q, &input, &engine())
        .unwrap();
        assert_eq!(counted.count, want.len() as u64, "query {q}");
        assert!(
            counted.tuples.is_empty(),
            "query {q}: Count mode built rows"
        );
    }

    #[test]
    fn q4_matches_oracle() {
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        check_q(&q, 1, 50);
    }

    #[test]
    fn q3_matches_oracle() {
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
        check_q(&q, 2, 20);
    }

    #[test]
    fn hybrid_chain_matches_oracle() {
        check_q(&JoinQuery::chain(&[Overlaps, Before]).unwrap(), 3, 50);
        check_q(&JoinQuery::chain(&[Before, Overlaps]).unwrap(), 4, 50);
    }

    #[test]
    fn rejects_non_hybrid() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", vec![Interval::new(0, 1).unwrap()]),
                Relation::from_intervals("B", vec![Interval::new(0, 2).unwrap()]),
            ],
        )
        .unwrap();
        assert!(matches!(
            Fstc::new(4, 4).run(&q, &input, &engine()),
            Err(AlgoError::Unsupported { .. })
        ));
    }

    #[test]
    fn colocation_inside_the_sequence_seed_counts_in_count_mode() {
        // Both colocation endpoints are sequence relations, so no cascade
        // stage runs: the driver filters the seed itself.
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(2, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        check_q(&q, 6, 40);
    }

    #[test]
    fn colocation_between_sequence_relations_filters_locally() {
        // R1 before R2 and R1 meets R2 is contradictory... use a satisfiable
        // combo: R1 before R2 and R1 before R3 and R2 overlaps R3.
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Before, 2),
                Condition::whole(1, Overlaps, 2),
            ],
        )
        .unwrap();
        check_q(&q, 5, 40);
    }
}
