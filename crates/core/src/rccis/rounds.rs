//! RCCIS as a setting of the component-matrix pipeline
//! (`crate::component_matrix`): one dimension holding every relation, no
//! cell constraints, mark → join.

use crate::algorithm::{empty_output, require_single_attr, AlgoError, Algorithm, RunArtifacts};
use crate::component_matrix::{ComponentMatrix, MARKED};
use crate::input::JoinInput;
use crate::output::{JoinOutput, OutputMode};
use ij_mapreduce::metrics::names;
use ij_mapreduce::Engine;
use ij_query::{JoinQuery, QueryClass};

/// RCCIS (Section 6.1) — the efficient multi-way colocation join.
#[derive(Debug, Clone)]
pub struct Rccis {
    /// Number of partition-intervals.
    pub partitions: usize,
    /// Materialize or count.
    pub mode: OutputMode,
    /// Marking options; `enforce_crossing: false` is the C2 ablation
    /// (replicate every interval in any consistent set — still correct,
    /// just more communication).
    pub mark_options: crate::rccis::marking::MarkOptions,
    /// Boundary placement (equi-width by default; equi-depth for skew).
    pub partition_strategy: crate::algorithm::PartitionStrategy,
}

impl Rccis {
    /// RCCIS over `partitions` partitions, materializing output.
    pub fn new(partitions: usize) -> Self {
        Rccis {
            partitions,
            mode: OutputMode::Materialize,
            mark_options: Default::default(),
            partition_strategy: Default::default(),
        }
    }
}

impl Algorithm for Rccis {
    fn name(&self) -> &'static str {
        "RCCIS"
    }

    fn run(
        &self,
        query: &JoinQuery,
        input: &JoinInput,
        engine: &Engine,
    ) -> Result<JoinOutput, AlgoError> {
        require_single_attr(self.name(), query)?;
        if query.class() == QueryClass::Sequence || query.class() == QueryClass::Hybrid {
            // Sequence predicates force replicating everything — "RCCIS
            // hence reduces to All-Rep" (Section 7). We reject instead of
            // silently degrading.
            return Err(AlgoError::Unsupported {
                algorithm: self.name(),
                reason: "sequence predicates present; use All-Matrix / All-Seq-Matrix".into(),
            });
        }
        if query.start_order().contradictory() {
            return Ok(empty_output(self.mode));
        }
        let part = RunArtifacts::partition_input(input, self.partitions, self.partition_strategy)?;
        // Cycle 1 splits everything and marks; cycle 2 replicates the
        // flagged, projects the rest, joins and keeps the tuples whose
        // right-most start is the reducer's: a one-dimensional matrix whose
        // cells are the partitions.
        let mut out = ComponentMatrix {
            family: "rccis",
            query,
            part: &part,
            constraints: Vec::new(),
            groups: vec![(0..query.num_relations() as usize).collect()],
            routes: vec![MARKED; query.num_relations() as usize],
            mark_options: self.mark_options,
            prune: false,
            route_counters: Some((names::RCCIS_REPLICA_PAIRS, names::RCCIS_PROJECTED_PAIRS)),
            mode: self.mode,
        }
        .run(input, engine)?;
        // Table 1 reports RCCIS's replication, not a cell count.
        out.stats.consistent_cells = None;
        Ok(out)
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

    fn check(preds: &[AllenPredicate], seed: u64, n: usize, span: i64, max_len: i64, k: usize) {
        let q = JoinQuery::chain(preds).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let rels = (0..q.num_relations())
            .map(|_| random_rel(&mut rng, n, span, max_len))
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let got = Rccis::new(k)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input), "preds {preds:?} seed {seed}");
    }

    #[test]
    fn q1_overlap_chain_matches_oracle() {
        check(&[Overlaps, Overlaps], 1, 80, 400, 60, 8);
    }

    #[test]
    fn q0_mixed_colocation_chain_matches_oracle() {
        check(&[Overlaps, Contains, Overlaps], 2, 50, 400, 80, 8);
    }

    #[test]
    fn long_intervals_spanning_many_partitions() {
        // Intervals longer than several partitions stress the replication
        // chain (an output can span most of the time range).
        check(&[Overlaps, Contains], 3, 40, 200, 150, 10);
    }

    #[test]
    fn exotic_predicates_match_oracle() {
        check(&[Meets, Overlaps], 4, 60, 300, 40, 6);
        check(&[FinishedBy, Contains], 5, 60, 300, 40, 6);
        check(&[Starts, OverlappedBy], 6, 60, 300, 40, 6);
        check(&[Equals, Overlaps], 7, 80, 200, 30, 6);
    }

    #[test]
    fn star_queries_match_oracle() {
        // R1 ov R2, R1 contains R3 — the star shape exercises non-chain
        // connected subsets in the marking.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(0, Contains, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 60, 300, 60),
                random_rel(&mut rng, 60, 300, 60),
                random_rel(&mut rng, 60, 300, 60),
            ],
        )
        .unwrap();
        let got = Rccis::new(8)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input));
    }

    #[test]
    fn replicates_fewer_than_all_rep() {
        // The Table 1 claim: RCCIS replicates far fewer intervals.
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let rels = (0..3)
            .map(|_| random_rel(&mut rng, 300, 5000, 50))
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let rccis = Rccis::new(16).run(&q, &input, &engine()).unwrap();
        let allrep = AllReplicate::new(16).run(&q, &input, &engine()).unwrap();
        assert_eq!(rccis.assert_no_duplicates(), allrep.assert_no_duplicates());
        let r = rccis.stats.replicated_intervals.unwrap();
        let a = allrep.stats.replicated_intervals.unwrap();
        assert!(r * 4 < a, "RCCIS replicated {r}, All-Rep {a}");
        assert!(rccis.chain.total_pairs() < allrep.chain.total_pairs());
    }

    #[test]
    fn rejects_sequence_queries() {
        let q = JoinQuery::chain(&[Before]).unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", vec![Interval::new(0, 1).unwrap()]),
                Relation::from_intervals("B", vec![Interval::new(5, 6).unwrap()]),
            ],
        )
        .unwrap();
        assert!(matches!(
            Rccis::new(4).run(&q, &input, &engine()),
            Err(AlgoError::Unsupported { .. })
        ));
    }

    #[test]
    fn two_cycles_reported() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let input = JoinInput::bind_owned(
            &q,
            vec![
                random_rel(&mut rng, 30, 100, 20),
                random_rel(&mut rng, 30, 100, 20),
            ],
        )
        .unwrap();
        let out = Rccis::new(4).run(&q, &input, &engine()).unwrap();
        assert_eq!(out.chain.num_cycles(), 2);
        assert_eq!(out.chain.cycles[0].name, "rccis-mark");
        assert_eq!(out.chain.cycles[1].name, "rccis-join");
    }

    #[test]
    fn counters_surface_in_chain() {
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let rels = (0..3).map(|_| random_rel(&mut rng, 120, 800, 60)).collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let out = Rccis::new(8).run(&q, &input, &engine()).unwrap();
        let c = out.chain.total_counters();
        // Cycle 1 splits every record at least once.
        assert!(c.get("rccis.split_pairs") >= 360);
        assert!(c.get("rccis.crossing_intervals") > 0);
        // Cycle 2 routes the marking's verdicts; the flagged count matches
        // the replication stat the algorithm already reports.
        assert_eq!(
            c.get("rccis.flagged_intervals"),
            out.stats.replicated_intervals.unwrap()
        );
        assert!(c.get("rccis.projected_pairs") > 0);
        // The join examined at least as many candidates as it emitted.
        assert!(c.get("join.candidates") >= c.get("join.emitted"));
        assert!(c.get("join.emitted") > 0);
        // Per-cycle attribution: split counters live in cycle 1 only.
        assert_eq!(out.chain.cycles[1].counters.get("rccis.split_pairs"), 0);
    }

    #[test]
    fn self_join_star_matches_oracle() {
        // Table 2's query: R ov R and R ov R on one physical relation.
        let q = JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(1, Overlaps, 2),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let data = std::sync::Arc::new(random_rel(&mut rng, 120, 600, 40));
        let input = JoinInput::bind_self_join(&q, data).unwrap();
        let got = Rccis::new(8)
            .run(&q, &input, &engine())
            .unwrap()
            .assert_no_duplicates();
        assert_eq!(got, oracle_join(&q, &input));
    }

    #[test]
    fn c2_ablation_correct_but_replicates_more() {
        // Without the crossing condition, every interval in any consistent
        // set is flagged: the join output is unchanged (replication is
        // always safe) but communication grows — quantifying what C2 saves.
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let rels = (0..3)
            .map(|_| random_rel(&mut rng, 150, 1500, 60))
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let with_c2 = Rccis::new(12).run(&q, &input, &engine()).unwrap();
        let without_c2 = Rccis {
            partitions: 12,
            mode: OutputMode::Materialize,
            mark_options: crate::rccis::marking::MarkOptions {
                enforce_crossing: false,
            },
            partition_strategy: Default::default(),
        }
        .run(&q, &input, &engine())
        .unwrap();
        assert_eq!(
            without_c2.assert_no_duplicates(),
            with_c2.assert_no_duplicates()
        );
        let r_with = with_c2.stats.replicated_intervals.unwrap();
        let r_without = without_c2.stats.replicated_intervals.unwrap();
        assert!(
            r_without > r_with * 3,
            "ablation should replicate much more: {r_without} vs {r_with}"
        );
        assert!(without_c2.chain.total_pairs() > with_c2.chain.total_pairs());
    }

    #[test]
    fn equi_depth_partitioning_correct_and_balanced_under_skew() {
        use crate::algorithm::PartitionStrategy;
        // Zipf-like skew: most intervals packed at the left of the range.
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let mut rng = StdRng::seed_from_u64(88);
        let rels = (0..3)
            .map(|_| {
                Relation::from_intervals(
                    "R",
                    (0..200).map(|_| {
                        let u: f64 = rng.gen();
                        let s = (u * u * u * 2000.0) as i64;
                        Interval::new(s, s + rng.gen_range(0..40)).unwrap()
                    }),
                )
            })
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();
        let width = Rccis::new(10).run(&q, &input, &engine()).unwrap();
        let depth = Rccis {
            partitions: 10,
            mode: OutputMode::Materialize,
            mark_options: Default::default(),
            partition_strategy: PartitionStrategy::EquiDepth,
        }
        .run(&q, &input, &engine())
        .unwrap();
        // Same join either way.
        assert_eq!(depth.assert_no_duplicates(), width.assert_no_duplicates());
        // And meaningfully better balanced in the (split) marking cycle.
        let sw = width.chain.cycles[0].skew();
        let sd = depth.chain.cycles[0].skew();
        assert!(sd < sw, "equi-depth skew {sd} should beat equi-width {sw}");
    }

    /// Randomized stress: many seeds, several query shapes, vs oracle.
    #[test]
    fn randomized_agreement() {
        let shapes: Vec<Vec<AllenPredicate>> = vec![
            vec![Overlaps],
            vec![Contains, Overlaps],
            vec![Overlaps, Overlaps, Overlaps],
            vec![ContainedBy, Meets],
        ];
        for (i, preds) in shapes.iter().enumerate() {
            for seed in 0..4 {
                check(preds, 100 + i as u64 * 10 + seed, 35, 250, 70, 7);
            }
        }
    }
}
