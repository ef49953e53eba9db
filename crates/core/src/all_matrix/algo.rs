//! The All-Matrix algorithm (Section 7.1).
//!
//! One MR cycle. Each relation is a dimension of the reducer matrix; an
//! interval of relation `k` starting in partition `q` is sent to every
//! *consistent* cell whose k-th coordinate is `q` (conditions D1 and D2).
//! Each output tuple is computed at exactly one cell — the vector of its
//! members' start partitions — so no ownership filter is needed. In the
//! component-matrix pipeline (`crate::component_matrix`) this is the
//! setting with one dimension per relation: no marking, the join alone.
//!
//! Presented in the paper for sequence queries, where it fixes All-Rep's
//! load skew by spreading the heavy right-most work across a whole face of
//! the matrix; the routing is in fact correct for *any* single-attribute
//! query (colocation predicates just make most cells empty), which we use
//! for cross-validation in tests.

use crate::algorithm::{require_single_attr, AlgoError, Algorithm, RunArtifacts};
use crate::component_matrix::{starts_last, ComponentMatrix};
use crate::input::JoinInput;
use crate::output::{JoinOutput, OutputMode};
use crate::plan::{Plan, Report};
use ij_interval::MapOp;
use ij_mapreduce::Engine;
use ij_query::JoinQuery;

/// The All-Matrix algorithm.
#[derive(Debug, Clone)]
pub struct AllMatrix {
    /// Partitions per dimension, `o` in the paper (the matrix has
    /// `o^m` cells); the join's grid is chosen within that cell budget
    /// (`core::component_matrix`).
    pub per_dim: usize,
    /// Materialize or count.
    pub mode: OutputMode,
    /// Prune inconsistent cells (condition D1). Disabling this is an
    /// ablation: the join stays correct (reducers verify the predicates
    /// and routing still sends each tuple to one owner cell), but data is
    /// shuffled to cells that can never produce output — measuring exactly
    /// what the less-than-order pruning saves.
    pub prune_inconsistent: bool,
}

impl AllMatrix {
    /// All-Matrix with `o = per_dim`, materializing output.
    pub fn new(per_dim: usize) -> Self {
        AllMatrix {
            per_dim,
            mode: OutputMode::Materialize,
            prune_inconsistent: true,
        }
    }

    /// The ordering constraints between relation dimensions: `(j, k)` when
    /// `s_{Rj} <= s_{Rk}` is provable (sound inconsistent-reducer pruning;
    /// see `ij_query::order`).
    fn constraints(q: &JoinQuery) -> Vec<(usize, usize)> {
        let (order, m) = (q.start_order(), q.num_relations() as usize);
        let pairs = (0..m).flat_map(|j| (0..m).map(move |k| (j, k)));
        pairs
            .filter(|&(j, k)| j != k && starts_last(order, &[j, k], k))
            .collect()
    }

    /// The plan over `input`. Every relation is a dimension of its own,
    /// whatever the query's colocation components are: nothing is marked,
    /// every interval goes to the cells at its own start coordinate, the
    /// join runs alone.
    pub(crate) fn plan<'a>(
        &self,
        query: &'a JoinQuery,
        input: &JoinInput,
    ) -> Result<Plan<'a>, AlgoError> {
        let m = query.num_relations() as usize;
        let part = RunArtifacts::partition_span(input.span(), self.per_dim)?;
        let constraints = match self.prune_inconsistent {
            true => Self::constraints(query),
            false => Vec::new(),
        };
        let setting = ComponentMatrix {
            family: "all-matrix",
            query,
            part,
            constraints,
            groups: (0..m).map(|r| vec![r]).collect(),
            routes: vec![[MapOp::Project; 2]; m],
            mark_options: Default::default(),
            prune: false,
            route_counters: None,
            mode: self.mode,
        };
        setting.plan(input, Report::Cells)
    }
}

impl Algorithm for AllMatrix {
    fn name(&self) -> &'static str {
        "All-Matrix"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        self.plan(query, input)?.run(input, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_replicate::AllReplicate;
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

    fn engine() -> Engine {
        Engine::new(ClusterConfig::with_slots(4))
    }

    fn check(preds: &[AllenPredicate], seed: u64, n: usize, o: usize) {
        let q = JoinQuery::chain(preds).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rels = (0..q.num_relations())
            .map(|_| random_rel(&mut rng, n, 300, 40))
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let got = AllMatrix::new(o)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input), "preds {preds:?}");
    }

    #[test]
    fn q2_before_chain_matches_oracle() {
        check(&[Before, Before], 1, 50, 6);
    }

    #[test]
    fn two_way_before_matches_oracle() {
        check(&[Before], 2, 100, 8);
    }

    #[test]
    fn works_on_colocation_queries_too() {
        // Not the paper's use, but the routing is valid for any
        // single-attribute query — a useful cross-check of the machinery.
        check(&[Overlaps, Overlaps], 3, 40, 5);
        check(&[Overlaps, Before], 4, 40, 5);
    }

    #[test]
    fn consistent_cell_stats_reported() {
        let q = JoinQuery::chain(&[Before, Before]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let rels = (0..3).map(|_| random_rel(&mut rng, 20, 200, 10)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let out = AllMatrix::new(6).run(&q, &input, &engine()).unwrap();
        // 56 of 216 (paper reports 55; see DESIGN.md §5).
        assert_eq!(out.stats.consistent_cells, Some((56, 216)));
        let stages: Vec<&str> = out.chain.cycles.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(stages, ["all-matrix-join"]);
    }

    #[test]
    fn better_balanced_than_all_rep_on_sequence() {
        // Figure 4's claim, quantified: on `before`, All-Matrix spreads the
        // load that All-Rep piles on the rightmost reducer.
        let q = JoinQuery::chain(&[Before]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 600, 1200, 10),
                random_rel(&mut rng, 600, 1200, 10),
            ],
        )
        .unwrap();
        let am = AllMatrix::new(3).run(&q, &input, &engine()).unwrap();
        // All-Rep with a similar number of reducers (6 consistent cells).
        let ar = AllReplicate::new(6).run(&q, &input, &engine()).unwrap();
        assert_eq!(am.assert_no_duplicates(), ar.assert_no_duplicates());
        let am_skew = am.chain.cycles[0].skew();
        let ar_skew = ar.chain.cycles[0].skew();
        assert!(
            am_skew < ar_skew,
            "All-Matrix skew {am_skew} should beat All-Rep {ar_skew}"
        );
    }

    #[test]
    fn contradictory_query_empty() {
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
                Relation::from_intervals("B", vec![Interval::new(2, 3).unwrap()]),
            ],
        )
        .unwrap();
        let out = AllMatrix::new(4).run(&q, &input, &engine()).unwrap();
        assert_eq!(out.count, 0);
        assert_eq!(out.chain.num_cycles(), 0);
    }

    #[test]
    fn equal_start_predicates_work() {
        // starts/equals put both relations in the same partition index —
        // constraints in both directions.
        check(&[Starts], 7, 60, 5);
        check(&[Equals], 8, 60, 5);
    }
}
