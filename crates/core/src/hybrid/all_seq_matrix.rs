//! All-Seq-Matrix (paper Section 8.1): the component-matrix pipeline
//! (`crate::component_matrix`) at its defining setting — one dimension per
//! colocation component (and per relation no condition mentions), cells
//! constrained by the sound component order, multi-member components
//! marked, singletons projected, mark → join. On a query whose components
//! are all singletons nothing can be flagged and the join runs alone,
//! exactly All-Matrix.

use crate::algorithm::{require_single_attr, AlgoError, Algorithm, RunArtifacts};
use crate::component_matrix::{ComponentMatrix, MARKED};
use crate::input::JoinInput;
use crate::output::{JoinOutput, OutputMode};
use crate::plan::Report;
use ij_interval::MapOp;
use ij_mapreduce::Engine;
use ij_query::components::Component;
use ij_query::JoinQuery;

/// The All-Seq-Matrix algorithm.
#[derive(Debug, Clone)]
pub struct AllSeqMatrix {
    /// Partitions per matrix dimension of the paper's grid (`o`); the
    /// join's grid is chosen within its cell budget (`core::component_matrix`).
    pub per_dim: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl AllSeqMatrix {
    /// All-Seq-Matrix with `o = per_dim`, materializing output.
    pub fn new(per_dim: usize) -> Self {
        AllSeqMatrix {
            per_dim,
            mode: OutputMode::Materialize,
        }
    }

    /// Plans and runs this setting — or, with `prune`, PASM's, which is
    /// this one plus the prune stage — reporting errors under `name`.
    pub(crate) fn run_setting(
        &self,
        name: &'static str,
        prune: bool,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(name, query)?;
        let order = query.start_order();
        let comps = query.components();
        let part = RunArtifacts::partition_span(input.span(), self.per_dim)?;
        let constraints = order.component_constraints(&comps);
        let members = |c: &Component| c.vertices.iter().map(|v| v.rel.idx()).collect();
        let mut groups: Vec<Vec<usize>> = comps.components.iter().map(members).collect();
        // A relation no condition mentions is in no component: it gets an
        // unconstrained dimension of its own, as in All-Matrix.
        let m = query.num_relations() as usize;
        let covered: Vec<usize> = groups.concat();
        groups.extend((0..m).filter(|r| !covered.contains(r)).map(|r| vec![r]));
        let mut routes = vec![[MapOp::Project; 2]; m];
        (groups.iter().filter(|g| g.len() > 1).flatten()).for_each(|&r| routes[r] = MARKED);
        let setting = ComponentMatrix {
            family: if prune { "pasm" } else { "asm" },
            query,
            part,
            constraints,
            groups,
            routes,
            mark_options: Default::default(),
            prune,
            route_counters: None,
            mode: self.mode,
        };
        setting.plan(input, Report::Both)?.run(input, engine)
    }
}

impl Algorithm for AllSeqMatrix {
    fn name(&self) -> &'static str {
        "All-Seq-Matrix"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        self.run_setting(self.name(), false, query, input, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::{self, *};
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

    fn check_q(q: &JoinQuery, seed: u64, n: usize, o: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rels = (0..q.num_relations())
            .map(|_| random_rel(&mut rng, n, 300, 50))
            .collect();
        let input = JoinInput::bind_owned(q, rels).unwrap();
        let got = AllSeqMatrix::new(o)
            .run(q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(q, &input), "query {q}");
    }

    fn check(preds: &[AllenPredicate], seed: u64, n: usize, o: usize) {
        check_q(&JoinQuery::chain(preds).unwrap(), seed, n, o);
    }

    #[test]
    fn hybrid_chains_match_oracle() {
        check(&[Overlaps, Before], 1, 50, 5);
        check(&[Before, Overlaps], 2, 50, 5);
        check(&[Overlaps, Before, Overlaps], 3, 30, 4);
    }

    #[test]
    fn q3_shape_matches_oracle() {
        // Q3: R1 ov R2, R2 ov R3, R2 before R4, R4 ov R5.
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
        check_q(&q, 4, 25, 4);
    }

    #[test]
    fn q4_shape_matches_oracle() {
        // Q4: R1 before R2 and R1 overlaps R3 (Table 3's query).
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Before, 1),
                Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap();
        check_q(&q, 5, 60, 6);
    }

    #[test]
    fn pure_sequence_degenerates_to_all_matrix() {
        check(&[Before, Before], 6, 40, 5);
        // Every component is a singleton: nothing to mark, the join runs
        // alone — for PASM too, which has nothing to prune either.
        let q = JoinQuery::chain(&[Before, Before]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let rels = (0..3).map(|_| random_rel(&mut rng, 40, 300, 50)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let asm = AllSeqMatrix::new(5).run(&q, &input, &engine()).unwrap();
        let pasm = crate::hybrid::Pasm::new(5)
            .run(&q, &input, &engine())
            .unwrap();
        assert_eq!(asm.chain.cycles[0].name, "asm-join");
        assert_eq!(pasm.chain.cycles[0].name, "pasm-join");
        assert_eq!((asm.chain.num_cycles(), pasm.chain.num_cycles()), (1, 1));
        assert_eq!(asm.stats.replicated_intervals, Some(0));
    }

    #[test]
    fn pure_colocation_works_too() {
        // One component: cycle 2 is a 1-D matrix — effectively RCCIS.
        check(&[Overlaps, Contains], 7, 40, 6);
    }

    #[test]
    fn unsound_component_order_case_still_correct() {
        // R1 ov R2, R2 ov R3, R1 before R4 — the case where the paper's
        // direct component-order rule would lose tuples (DESIGN.md §5). Our
        // sound inference emits no constraint, so the run stays correct.
        let q = JoinQuery::new(
            4,
            vec![
                Condition::whole(0, Overlaps, 1),
                Condition::whole(1, Overlaps, 2),
                Condition::whole(0, Before, 3),
            ],
        )
        .unwrap();
        for seed in 0..5 {
            check_q(&q, 100 + seed, 30, 4);
        }
        // And the constructed counterexample data specifically:
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("R1", vec![Interval::new(0, 10).unwrap()]),
                Relation::from_intervals("R2", vec![Interval::new(5, 50).unwrap()]),
                Relation::from_intervals("R3", vec![Interval::new(45, 60).unwrap()]),
                Relation::from_intervals("R4", vec![Interval::new(20, 25).unwrap()]),
            ],
        )
        .unwrap();
        let got = AllSeqMatrix::new(6)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, vec![vec![0, 0, 0, 0]]);
    }

    #[test]
    fn two_cycles_and_stats() {
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let rels = (0..3).map(|_| random_rel(&mut rng, 30, 200, 30)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let out = AllSeqMatrix::new(4).run(&q, &input, &engine()).unwrap();
        let stages: Vec<&str> = out.chain.cycles.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(stages, ["asm-mark", "asm-join"]);
        assert!(out.stats.consistent_cells.is_some());
        assert!(out.stats.replicated_intervals.is_some());
    }

    #[test]
    fn randomized_agreement() {
        for seed in 0..6 {
            check(&[Overlaps, Before], 200 + seed, 40, 5);
        }
        for seed in 0..4 {
            check(&[Contains, Before, Overlaps], 300 + seed, 25, 4);
        }
    }
}
