//! FSTC — First Sequence Then Colocation (Section 8, baseline).
//!
//! Stage 1 joins the relations touched by sequence conditions with
//! All-Matrix; stage 2 cascades the colocation conditions onto the
//! resulting composites (the cascade's stage loop). Like FCTS, it pays for
//! materializing and re-shuffling intermediate results.

use crate::algorithm::{empty_output, require_single_attr, AlgoError, Algorithm};
use crate::all_matrix::AllMatrix;
use crate::cascade::{plan_stages, TwoWayCascade};
use crate::input::JoinInput;
use crate::kernel::composite::{composites, CompositeJoin};
use crate::kernel::KernelConfig;
use crate::output::{JoinOutput, OutputMode};
use crate::records::OutRec;
use ij_interval::RelId;
use ij_mapreduce::Engine;
use ij_query::{Condition, JoinQuery, QueryClass};
use std::sync::Arc;

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
        if query.start_order().contradictory() {
            return Ok(empty_output(self.mode));
        }

        // ---- Stage 1: All-Matrix over the sequence sub-query ---------------
        let seq_conditions: Vec<Condition> = query
            .conditions()
            .iter()
            .copied()
            .filter(|c| c.is_sequence())
            .collect();
        let mut seq_rels: Vec<RelId> = seq_conditions
            .iter()
            .flat_map(|c| [c.left.rel, c.right.rel])
            .collect();
        seq_rels.sort_unstable();
        seq_rels.dedup();
        let local_of = |r: RelId| seq_rels.iter().position(|&x| x == r).expect("seq rel");
        let sub_conditions: Vec<Condition> = seq_conditions
            .iter()
            .map(|c| {
                Condition::whole(
                    local_of(c.left.rel) as u16,
                    c.pred,
                    local_of(c.right.rel) as u16,
                )
            })
            .collect();
        let sub_q = JoinQuery::new(seq_rels.len() as u16, sub_conditions)
            .expect("sequence sub-query is valid");
        let sub_rels: Vec<Arc<ij_interval::Relation>> = seq_rels
            .iter()
            .map(|r| input.relations()[r.idx()].clone())
            .collect();
        let sub_input = JoinInput::bind(&sub_q, sub_rels).expect("sub input arity");
        let seq_out = AllMatrix {
            per_dim: self.per_dim,
            mode: OutputMode::Materialize,
            prune_inconsistent: true,
        }
        .run(&sub_q, &sub_input, engine)?;
        // Composites over the sequence relations.
        let comps = composites(0, &seq_rels, &seq_out.tuples, input);
        let mut chain = seq_out.chain;

        // ---- Stage 2: cascade the colocation conditions --------------------
        let coloc_conditions: Vec<Condition> = query
            .conditions()
            .iter()
            .copied()
            .filter(|c| c.is_colocation())
            .collect();
        let all_within_seed = coloc_conditions
            .iter()
            .all(|c| seq_rels.contains(&c.left.rel) && seq_rels.contains(&c.right.rel));
        if all_within_seed {
            // Every colocation condition sits between sequence relations,
            // which are then all of the query's (each one is joined):
            // filter the seed locally, with no relation left to introduce.
            let slot = |rel: RelId| (0, local_of(rel));
            let filter = CompositeJoin {
                sides: 1,
                conditions: (coloc_conditions.iter())
                    .map(|c| (slot(c.left.rel), c.pred, slot(c.right.rel)))
                    .collect(),
                gather: (0..query.num_relations()).map(|r| slot(RelId(r))).collect(),
                mode: self.mode,
                order_by: None,
            };
            let mut found = OutRec::new(self.mode, filter.gather.len());
            filter.join_into(&comps, &KernelConfig::serial(), |_| true, &mut found);
            return Ok(JoinOutput::from_records(self.mode, vec![found], chain));
        }
        let stages = plan_stages(seq_rels.clone(), &coloc_conditions)?;
        let cascade = TwoWayCascade {
            partitions: self.partitions,
            per_dim_2d: self.per_dim,
            mode: self.mode,
        };
        let finals = cascade.run_stages(input, engine, seq_rels, comps, &stages, &mut chain)?;
        Ok(JoinOutput::from_records(self.mode, finals, chain))
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
