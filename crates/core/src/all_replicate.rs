//! All-Replicate (paper Sections 6–7, baseline).
//!
//! One MR cycle: project the right-most relation (the one provably greater
//! than every other in the less-than order) and replicate the rest; when no
//! unique right-most relation exists, replicate everything and let each
//! reducer emit only the tuples it owns (those whose maximal start point
//! falls in its partition) — the component-matrix pipeline
//! (`crate::component_matrix`) over one dimension with fixed routes. Correct
//! for any single-attribute query, but — as Sections 6.2 and 7 demonstrate
//! — communication-heavy and, for sequence queries, badly load-skewed toward
//! the right-most reducers.

use crate::algorithm::{empty_output, require_single_attr, AlgoError, Algorithm, RunArtifacts};
use crate::component_matrix::{starts_last, ComponentMatrix};
use crate::input::JoinInput;
use crate::output::{JoinOutput, OutputMode};
use ij_interval::MapOp;
use ij_mapreduce::metrics::names;
use ij_mapreduce::Engine;
use ij_query::JoinQuery;

/// The All-Replicate baseline.
#[derive(Debug, Clone)]
pub struct AllReplicate {
    /// Number of partition-intervals.
    pub partitions: usize,
    /// Materialize or count.
    pub mode: OutputMode,
}

impl AllReplicate {
    /// All-Replicate over `partitions` partitions, materializing output.
    pub fn new(partitions: usize) -> Self {
        AllReplicate {
            partitions,
            mode: OutputMode::Materialize,
        }
    }

    /// The relation to project: one provably `>=` all others in start
    /// order, if any ("the rightmost relation"; with several co-maximal
    /// relations the paper replicates everything).
    fn projected_relation(q: &JoinQuery) -> Option<usize> {
        let all: Vec<usize> = (0..q.num_relations() as usize).collect();
        let order = q.start_order();
        all.iter().copied().find(|&r| starts_last(&order, &all, r))
    }
}

impl Algorithm for AllReplicate {
    fn name(&self) -> &'static str {
        "All-Rep"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        if query.start_order().contradictory() {
            return Ok(empty_output(self.mode));
        }
        let part = RunArtifacts::partition_span(input.span(), self.partitions)?;
        let m = query.num_relations() as usize;
        let mut routes = vec![[MapOp::Replicate; 2]; m];
        if let Some(r) = Self::projected_relation(query) {
            routes[r] = [MapOp::Project; 2];
        }
        let mut out = ComponentMatrix {
            family: "all-replicate",
            query,
            part: &part,
            constraints: Vec::new(),
            groups: vec![(0..m).collect()],
            routes,
            mark_options: Default::default(),
            prune: false,
            route_counters: Some((names::ALLREP_REPLICA_PAIRS, names::ALLREP_PROJECTED_PAIRS)),
            mode: self.mode,
        }
        .run(input, engine)?;
        out.stats.consistent_cells = None;
        Ok(out)
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

    fn run_case(preds: &[ij_interval::AllenPredicate], seed: u64, n: usize) {
        let q = JoinQuery::chain(preds).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rels = (0..q.num_relations())
            .map(|_| random_rel(&mut rng, n, 300, 40))
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let got = AllReplicate::new(8)
            .run(&q, &input, &engine)
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input), "preds {preds:?}");
    }

    #[test]
    fn colocation_chain_matches_oracle() {
        run_case(&[Overlaps, Overlaps], 21, 60);
        run_case(&[Overlaps, Contains, Overlaps], 22, 40);
    }

    #[test]
    fn sequence_chain_matches_oracle() {
        run_case(&[Before, Before], 23, 40);
    }

    #[test]
    fn hybrid_matches_oracle() {
        run_case(&[Overlaps, Before], 24, 50);
    }

    #[test]
    fn projected_relation_is_rightmost() {
        // Q0: the chain orders R1 < R2 < R3 < R4, so R4 (index 3) projects.
        let q = JoinQuery::chain(&[Overlaps, Contains, Overlaps]).unwrap();
        assert_eq!(AllReplicate::projected_relation(&q), Some(3));
        // A query with incomparable maxima: R1 before R2 and R1 before R3 —
        // neither R2 nor R3 dominates the other.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Before, 1),
                ij_query::Condition::whole(0, Before, 2),
            ],
        )
        .unwrap();
        assert_eq!(AllReplicate::projected_relation(&q), None);
    }

    #[test]
    fn no_unique_rightmost_still_correct() {
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Before, 1),
                ij_query::Condition::whole(0, Before, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 30, 200, 20),
                random_rel(&mut rng, 30, 200, 20),
                random_rel(&mut rng, 30, 200, 20),
            ],
        )
        .unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let got = AllReplicate::new(6)
            .run(&q, &input, &engine)
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input));
    }

    #[test]
    fn replicated_count_reported() {
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 50, 200, 20),
                random_rel(&mut rng, 60, 200, 20),
                random_rel(&mut rng, 70, 200, 20),
            ],
        )
        .unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let out = AllReplicate::new(6).run(&q, &input, &engine).unwrap();
        // R3 is projected; R1 and R2 are replicated entirely.
        assert_eq!(out.stats.replicated_intervals, Some(110));
    }

    #[test]
    fn counters_count_replica_and_join_pairs() {
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 50, 200, 20),
                random_rel(&mut rng, 60, 200, 20),
                random_rel(&mut rng, 70, 200, 20),
            ],
        )
        .unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let out = AllReplicate::new(6).run(&q, &input, &engine).unwrap();
        let c = out.chain.total_counters();
        // R1+R2 replicate (110 intervals, >= 1 copy each); R3 projects one
        // pair per interval.
        assert!(c.get("allrep.replica_pairs") >= 110);
        assert_eq!(c.get("allrep.projected_pairs"), 70);
        assert!(c.get("join.candidates") >= c.get("join.emitted"));
        // Counters and shuffle metrics agree on total communication.
        assert_eq!(
            c.get("allrep.replica_pairs") + c.get("allrep.projected_pairs"),
            out.chain.total_pairs()
        );
    }

    #[test]
    fn sequence_join_load_is_skewed() {
        // The Figure 4 story: All-Rep on `before` piles load on the
        // rightmost reducer.
        let q = JoinQuery::chain(&[Before]).unwrap();
        let mut rng = StdRng::seed_from_u64(51);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 400, 1000, 10),
                random_rel(&mut rng, 400, 1000, 10),
            ],
        )
        .unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let out = AllReplicate::new(8).run(&q, &input, &engine).unwrap();
        let cycle = &out.chain.cycles[0];
        assert!(
            cycle.skew() > 1.5,
            "expected skew toward rightmost reducer, got {}",
            cycle.skew()
        );
        // And the most loaded reducer is the last one.
        let max = cycle
            .reducer_loads
            .iter()
            .max_by_key(|l| l.pairs_received)
            .unwrap();
        assert_eq!(max.key, 7);
    }
}
