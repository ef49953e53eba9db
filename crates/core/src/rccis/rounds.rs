//! The two MR cycles of RCCIS.

use crate::algorithm::{
    empty_output, iv_records, require_single_attr, AlgoError, Algorithm, RunArtifacts,
};
use crate::executor::Candidates;
use crate::input::JoinInput;
use crate::kernel;
use crate::output::{JoinOutput, OutputMode};
use crate::records::{FlagRec, IvRec, OutRec};
use ij_interval::{ops, Interval, Partitioning, TupleId};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{Dfs, Emitter, Engine, JobChain, ReduceCtx, ValueStream};
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
        let mut chain = JobChain::new();
        let dfs = Dfs::new();

        // ---- Cycle 1: split everything; mark intervals for replication ----
        let flags = run_marking_cycle(
            query,
            &part,
            &iv_records(input),
            engine,
            &mut chain,
            self.mark_options,
        )?;
        let replicated = flags.iter().filter(|f| f.replicate).count() as u64;
        dfs.write("rccis/flags", flags).expect("fresh dfs path");

        // ---- Cycle 2: replicate flagged / project rest; join; own-filter --
        let flags = dfs.read::<FlagRec>("rccis/flags").expect("just written");
        let records = run_join_cycle(query, &part, &flags, self.mode, engine, &mut chain)?;

        let mut out = JoinOutput::from_records(self.mode, records, chain);
        out.stats.replicated_intervals = Some(replicated);
        Ok(out)
    }
}

/// Cycle 1: split all relations; each reducer marks the intervals starting
/// in its partition that belong to a consistent crossing set. Returns every
/// interval exactly once, flagged.
pub(crate) fn run_marking_cycle(
    query: &JoinQuery,
    part: &Partitioning,
    records: &[IvRec],
    engine: &Engine,
    chain: &mut JobChain,
    opts: crate::rccis::marking::MarkOptions,
) -> Result<Vec<FlagRec>, AlgoError> {
    let m = query.num_relations() as usize;
    let q = query.clone();
    let partc = part.clone();
    let out = engine.run_job(
        "rccis-mark",
        records,
        {
            let partc = partc.clone();
            move |rec: &IvRec, em: &mut Emitter<IvRec>| {
                let before = em.emitted();
                for p in ops::split(rec.iv, &partc) {
                    em.emit(p as u64, *rec);
                }
                let copies = (em.emitted() - before) as u64;
                em.inc(names::RCCIS_SPLIT_PAIRS, copies);
                if copies > 1 {
                    // The interval crosses at least one partition boundary.
                    em.inc(names::RCCIS_CROSSING_INTERVALS, 1);
                }
            }
        },
        move |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<FlagRec>| {
            let p = ctx.key as usize;
            let mut per_rel: Vec<Vec<(Interval, TupleId)>> = vec![Vec::new(); m];
            // Keep (rel -> tids) so flags can be matched back to records.
            for v in values.by_ref() {
                per_rel[v.rel.idx()].push((v.iv, v.tid));
            }
            let marking = crate::rccis::marking::mark_with_options(&q, &partc, p, per_rel, opts);
            ctx.add_work(marking.work);
            for (r, (list, flags)) in marking.sorted.iter().zip(&marking.flags).enumerate() {
                for (&(iv, tid), &replicate) in list.iter().zip(flags) {
                    // Each interval is written once: by its start partition.
                    if partc.index_of(iv.start()) == p {
                        if replicate {
                            ctx.inc(names::RCCIS_FLAGGED_INTERVALS, 1);
                        }
                        out.push(FlagRec {
                            rec: IvRec {
                                rel: ij_interval::RelId(r as u16),
                                tid,
                                iv,
                            },
                            replicate,
                        });
                    }
                }
            }
        },
    )?;
    chain.push(out.metrics);
    Ok(out.outputs)
}

/// Cycle 2: route by flag, join, and emit owned tuples (max start point in
/// the reducer's partition).
pub(crate) fn run_join_cycle(
    query: &JoinQuery,
    part: &Partitioning,
    flags: &[FlagRec],
    mode: OutputMode,
    engine: &Engine,
    chain: &mut JobChain,
) -> Result<Vec<OutRec>, AlgoError> {
    let m = query.num_relations() as usize;
    let q = query.clone();
    let partc = part.clone();
    let out = engine.run_job(
        "rccis-join",
        flags,
        {
            let partc = partc.clone();
            move |rec: &FlagRec, em: &mut Emitter<IvRec>| {
                let op = if rec.replicate {
                    ij_interval::MapOp::Replicate
                } else {
                    ij_interval::MapOp::Project
                };
                let before = em.emitted();
                for p in ops::apply(op, rec.rec.iv, &partc) {
                    em.emit(p as u64, rec.rec);
                }
                let copies = (em.emitted() - before) as u64;
                if rec.replicate {
                    em.inc(names::RCCIS_REPLICA_PAIRS, copies);
                } else {
                    em.inc(names::RCCIS_PROJECTED_PAIRS, copies);
                }
            }
        },
        move |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<OutRec>| {
            let mut cands = Candidates::new(m);
            for v in values.by_ref() {
                cands.push(v.rel.idx(), v.iv, v.tid);
            }
            cands.finish();
            let own = ctx.key as usize;
            let partr = &partc;
            kernel::reduce_join(
                ctx,
                &q,
                &cands,
                mode,
                |a: &[(Interval, TupleId)]| {
                    let max_start = a.iter().map(|(iv, _)| iv.start()).max().expect("nonempty");
                    partr.index_of(max_start) == own
                },
                out,
            );
        },
    )?;
    chain.push(out.metrics);
    Ok(out.outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_replicate::AllReplicate;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::{self, *};
    use ij_interval::Relation;
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
