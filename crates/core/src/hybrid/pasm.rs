//! Pruned-All-Seq-Matrix (paper Section 8.2): All-Seq-Matrix's setting of
//! the component-matrix pipeline (`crate::component_matrix`) with the
//! prune stage switched on — mark → prune → join. Each colocation
//! component's own join marks the intervals that *participate* in it, and
//! the matrix join never shuffles the rest.
//!
//! Pruning shrinks both the communication and the per-reducer work; when
//! little prunes, the extra cycle can make PASM slightly slower than
//! All-Seq-Matrix (the Table 3 trade-off). The extra cycle is cheap when a
//! component has a small member: since the participants do not depend on
//! partitioning, its prune broadcasts every member but the largest to the
//! prune tasks whenever that ships fewer pairs, and the largest never
//! crosses the shuffle (on Table 3's Q4, R3's 1 000 intervals to 6 tasks
//! instead of R1 to 6 partitions). When every component is a singleton
//! there is nothing to mark or prune, and the join runs alone.
//!
//! With two or three matrix dimensions the three stages use three grids.
//! The mark runs on the paper's `o` partitions each cut into `D`, one part
//! per matrix dimension; the prune on the paper's `o` partitions, which
//! keeps the broadcast at `o` tasks; and each join dimension on its own
//! coarsening of the mark grid, picked after the prune by an exact count
//! of the participants' traffic. On
//! Q4's `ij-perf` workload the join runs on 12 × 2 partitions instead of
//! 6 × 6 and ships about a third fewer pairs.

use crate::algorithm::{AlgoError, Algorithm};
use crate::hybrid::AllSeqMatrix;
use crate::input::JoinInput;
use crate::output::{JoinOutput, OutputMode};
use ij_mapreduce::Engine;
use ij_query::JoinQuery;

/// The PASM algorithm.
#[derive(Debug, Clone)]
pub struct Pasm {
    /// Partitions per matrix dimension of the paper's grid (`o`); the
    /// join's grid is chosen within its cell budget (`core::component_matrix`).
    pub per_dim: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl Pasm {
    /// PASM with `o = per_dim`, materializing output.
    pub fn new(per_dim: usize) -> Self {
        Pasm {
            per_dim,
            mode: OutputMode::Materialize,
        }
    }
}

impl Algorithm for Pasm {
    fn name(&self) -> &'static str {
        "PASM"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        let (per_dim, mode) = (self.per_dim, self.mode);
        AllSeqMatrix { per_dim, mode }.run_setting(self.name(), true, query, input, engine)
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
        let got = Pasm::new(5)
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
    fn hybrid_chain_matches_oracle() {
        check_q(&JoinQuery::chain(&[Overlaps, Before]).unwrap(), 2, 50);
        check_q(
            &JoinQuery::chain(&[Overlaps, Before, Overlaps]).unwrap(),
            3,
            25,
        );
    }

    #[test]
    fn three_cycles_and_pruning_stats() {
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // Make R3 tiny so many R1 intervals prune away (the Table 3 lever).
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 200, 2000, 20),
                random_rel(&mut rng, 50, 2000, 20),
                random_rel(&mut rng, 4, 2000, 20),
            ],
        )
        .unwrap();
        let out = Pasm::new(5).run(&q, &input, &engine()).unwrap();
        let stages: Vec<&str> = out.chain.cycles.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(stages, ["pasm-mark", "pasm-prune", "pasm-join"]);
        let r1_pruned = out
            .stats
            .pruned_fraction
            .iter()
            .find(|(name, _)| name == "R1")
            .map(|(_, f)| *f)
            .unwrap();
        assert!(r1_pruned > 0.5, "expected heavy pruning, got {r1_pruned}");
        // And correctness under pruning:
        assert_eq!(out.assert_no_duplicates(), oracle_join(&q, &input));
    }

    #[test]
    fn pasm_shuffles_fewer_pairs_than_asm_when_pruning() {
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 300, 3000, 20),
                random_rel(&mut rng, 50, 3000, 20),
                random_rel(&mut rng, 3, 3000, 20),
            ],
        )
        .unwrap();
        let pasm = Pasm::new(5).run(&q, &input, &engine()).unwrap();
        let asm = AllSeqMatrix::new(5).run(&q, &input, &engine()).unwrap();
        assert_eq!(pasm.assert_no_duplicates(), asm.assert_no_duplicates());
        // PASM's final join cycle must shuffle fewer pairs than ASM's.
        let pasm_join_pairs = pasm.chain.cycles.last().unwrap().intermediate_pairs;
        let asm_join_pairs = asm.chain.cycles.last().unwrap().intermediate_pairs;
        assert!(
            pasm_join_pairs < asm_join_pairs,
            "pasm {pasm_join_pairs} vs asm {asm_join_pairs}"
        );
    }
}
