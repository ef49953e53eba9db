//! FCTS — First Colocation Then Sequence (Section 8, baseline).
//!
//! Stage 1 solves each colocation component with RCCIS, materializing the
//! component join results. Stage 2 joins the component results on the
//! sequence conditions with a component-dimensional All-Matrix whose
//! reducer is the window kernel's multi-slot case (`kernel::composite`):
//! one side per component, its member relations the slots. The
//! intermediate materialization is the cost All-Seq-Matrix avoids.

use crate::algorithm::{empty_output, require_single_attr, AlgoError, Algorithm, RunArtifacts};
use crate::all_matrix::CellSpace;
use crate::input::JoinInput;
use crate::kernel::composite::{base_composites, composites, CompositeJoin};
use crate::output::{JoinOutput, OutputMode};
use crate::rccis::Rccis;
use crate::records::CompRec;
use ij_interval::RelId;
use ij_mapreduce::{Engine, JobChain};
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
        let order = query.start_order();
        if order.contradictory() {
            return Ok(empty_output(self.mode));
        }
        let comps = query.components();
        let part = RunArtifacts::partition_span(input.span(), self.per_dim)?;
        let mut chain = JobChain::new();

        // ---- Stage 1: solve each component with RCCIS ----------------------
        // Component k's result tuples become side k's records, its member
        // relations (in vertex order) their slots.
        let mut records: Vec<CompRec> = Vec::new();
        for comp in &comps.components {
            let rels: Vec<RelId> = comp.vertices.iter().map(|v| v.rel).collect();
            match comp.as_query(query) {
                // Singleton component: its results are the base tuples.
                None => records.extend(base_composites(comp.id, rels[0], input)),
                Some(sub_q) => {
                    let sub_rels = rels.iter().map(|r| input.relations()[r.idx()].clone());
                    let sub_input = JoinInput::bind(&sub_q, sub_rels.collect())
                        .expect("component input arity matches");
                    let rccis = Rccis {
                        partitions: self.partitions,
                        mode: OutputMode::Materialize,
                        mark_options: Default::default(),
                        partition_strategy: Default::default(),
                    };
                    let sub_out = rccis.run(&sub_q, &sub_input, engine)?;
                    records.extend(composites(comp.id, &rels, &sub_out.tuples, input));
                    chain.extend(sub_out.chain);
                }
            }
        }

        // ---- Stage 2: All-Matrix over components ---------------------------
        let constraints = order.component_constraints(&comps);
        let space = CellSpace::new(&vec![&part; comps.len()], constraints)?;
        // Relation r sits at slot `s` of component `k`'s records.
        let mut slot_of = vec![(0, 0); query.num_relations() as usize];
        for comp in &comps.components {
            for (s, v) in comp.vertices.iter().enumerate() {
                slot_of[v.rel.idx()] = (comp.id, s);
            }
        }
        let join = CompositeJoin {
            sides: comps.len(),
            conditions: (comps.sequence_condition_idxs.iter())
                .map(|&ci| query.conditions()[ci])
                .map(|c| {
                    (
                        slot_of[c.left.rel.idx()],
                        c.pred,
                        slot_of[c.right.rel.idx()],
                    )
                })
                .collect(),
            gather: slot_of,
            mode: self.mode,
            order_by: None,
        };
        let out = join.run(
            engine,
            "fcts-seq-matrix",
            &records,
            |rec, em| {
                // Route by the right-most member start (the component's
                // owner partition).
                let q = (rec.ivs.iter())
                    .map(|iv| part.index_of(iv.start()))
                    .max()
                    .expect("composite non-empty");
                em.emit_to_all(space.cells_eq(rec.side as usize, q).iter().copied(), rec);
            },
            None,
        )?;
        chain.push(out.metrics);

        let mut result = JoinOutput::from_records(self.mode, out.outputs, chain);
        result.stats.consistent_cells =
            Some((space.consistent_cells().len() as u64, space.total_cells()));
        Ok(result)
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
