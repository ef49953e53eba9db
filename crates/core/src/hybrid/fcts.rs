//! FCTS — First Colocation Then Sequence (Section 8, baseline).
//!
//! The family builds a plan (`crate::plan`). Stage 1 solves each
//! colocation component with an RCCIS sub-plan, materializing the
//! component join results. Stage 2 joins the component results on the
//! sequence conditions with a component-dimensional All-Matrix — the
//! component-matrix join stage (`component_matrix::JoinStage`) with one
//! `[Project; 2]` lane per component over all of its member slots, so a
//! result goes to the cells at its right-most member's start, and no
//! ownership test. Its reducer is the window kernel's multi-slot case
//! (`kernel::composite`): one side per component, its member relations
//! the slots. The intermediate materialization is the cost All-Seq-Matrix
//! avoids.

use crate::algorithm::{require_single_attr, AlgoError, Algorithm, RunArtifacts};
use crate::all_matrix::CellSpace;
use crate::component_matrix::{JoinStage, Lane};
use crate::input::JoinInput;
use crate::kernel::composite::CompositeJoin;
use crate::output::{JoinOutput, OutputMode};
use crate::plan::{Plan, Report, Step};
use crate::rccis::Rccis;
use ij_interval::{MapOp, RelId};
use ij_mapreduce::Engine;
use ij_query::JoinQuery;

/// The FCTS baseline.
#[derive(Debug, Clone)]
pub struct Fcts {
    /// Partitions for the RCCIS stages.
    pub partitions: usize,
    /// Partitions per dimension for the sequence matrix stage.
    pub per_dim: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl Fcts {
    /// FCTS with the given partition counts, materializing output.
    pub fn new(partitions: usize, per_dim: usize) -> Self {
        Fcts {
            partitions,
            per_dim,
            mode: OutputMode::Materialize,
        }
    }
}

impl Algorithm for Fcts {
    fn name(&self) -> &'static str {
        "FCTS"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        crate::algorithm::require_all_joined(self.name(), query)?;
        let (order, comps) = (query.start_order(), query.components());
        let part = RunArtifacts::partition_span(input.span(), self.per_dim)?;
        let rccis = Rccis::new(self.partitions);

        // ---- Stage 1: solve each component with RCCIS ----------------------
        // Component k's result tuples become side k's records, its member
        // relations (in vertex order) their slots.
        let sides: Vec<Vec<RelId>> = (comps.components.iter())
            .map(|c| c.vertices.iter().map(|v| v.rel).collect())
            .collect();
        let subs: Vec<_> = comps.components.iter().map(|c| c.as_query(query)).collect();
        let mut steps = Vec::new();
        for ((comp, rels), sub) in comps.components.iter().zip(&sides).zip(&subs) {
            let (side, rels) = (comp.id, rels.clone());
            steps.push(match sub {
                // Singleton component: its results are the base tuples.
                None => Step::Base {
                    side,
                    rel: rels[0],
                    attrs: false,
                },
                Some(query) => {
                    let input = input.restrict(query, &rels);
                    let plan = rccis.plan(query, &input)?;
                    Step::Sub {
                        side,
                        rels,
                        input,
                        plan,
                    }
                }
            });
        }

        // ---- Stage 2: All-Matrix over components ---------------------------
        // One dimension per component; a component result goes to the
        // cells at the partition of its right-most member start.
        let grids = vec![part; comps.len()];
        let constraints = order.component_constraints(&comps);
        let space = CellSpace::new(&grids.iter().collect::<Vec<_>>(), constraints)?;
        let sequence = (comps.sequence_condition_idxs.iter()).map(|&ci| &query.conditions()[ci]);
        let every = (0..query.num_relations()).map(RelId);
        let stage = JoinStage {
            name: "fcts-seq-matrix".into(),
            grids,
            space,
            sides: (sides.iter().enumerate())
                .map(|(k, rels)| {
                    vec![Lane::fixed(
                        k,
                        (0..rels.len()).collect(),
                        MapOp::Project,
                        None,
                    )]
                })
                .collect(),
            owner: Vec::new(),
            join: CompositeJoin::over(&sides, sequence, every, self.mode),
        };
        steps.push(Step::Join(stage, None));
        Plan::new(query, input, self.mode, Report::Cells, steps).run(input, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::*;
    use ij_interval::{Interval, Relation};
    use ij_mapreduce::ClusterConfig;
    use ij_query::Condition;
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
        let got = Fcts::new(6, 4)
            .run(q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(q, &input), "query {q}");
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
        check_q(&q, 2, 25);
    }

    #[test]
    fn hybrid_chain_matches_oracle() {
        check_q(
            &JoinQuery::chain(&[Overlaps, Before, Overlaps]).unwrap(),
            3,
            30,
        );
    }

    #[test]
    fn pure_sequence_matches_oracle() {
        check_q(&JoinQuery::chain(&[Before, Before]).unwrap(), 4, 40);
    }

    #[test]
    fn cycle_count_includes_component_rccis() {
        // Q4: one 2-relation component (2 RCCIS cycles) + one singleton +
        // the matrix stage = 3 cycles.
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let rels = (0..3).map(|_| random_rel(&mut rng, 20, 200, 30)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let out = Fcts::new(4, 4).run(&q, &input, &engine()).unwrap();
        assert_eq!(out.chain.num_cycles(), 3);
    }
}
