//! All-Replicate (paper Sections 6–7, baseline).
//!
//! One MR cycle: project the right-most relation (the one provably greater
//! than every other in the less-than order) and replicate the rest; when no
//! unique right-most relation exists, replicate everything and let each
//! reducer emit only the tuples it owns (those whose maximal start point
//! falls in its partition). Correct for any single-attribute query, but —
//! as Sections 6.2 and 7 demonstrate — communication-heavy and, for
//! sequence queries, badly load-skewed toward the right-most reducers.

use crate::algorithm::{
    empty_output, iv_records, require_single_attr, AlgoError, Algorithm, RunArtifacts,
};
use crate::executor::Candidates;
use crate::input::JoinInput;
use crate::kernel;
use crate::output::{JoinOutput, OutputMode};
use crate::records::{IvRec, OutRec};
use ij_interval::{ops, Interval, TupleId};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{Emitter, Engine, JobChain, ReduceCtx, ValueStream};
use ij_query::{AttrRef, JoinQuery};

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
        let order = q.start_order();
        let m = q.num_relations() as usize;
        (0..m).find(|&r| {
            (0..m).all(|other| {
                other == r || order.le_start(AttrRef::whole(other as u16), AttrRef::whole(r as u16))
            })
        })
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
        let projected = Self::projected_relation(query);

        // Count replicated intervals for the Table 1 statistic.
        let replicated_intervals: u64 = input
            .relations()
            .iter()
            .enumerate()
            .filter(|(r, _)| Some(*r) != projected)
            .map(|(_, rel)| rel.len() as u64)
            .sum();

        let m = query.num_relations() as usize;
        let mode = self.mode;
        let q = query.clone();
        let partc = part.clone();
        let need_owner_filter = projected.is_none();
        let out = engine.run_job(
            "all-replicate",
            &iv_records(input),
            {
                let partc = partc.clone();
                move |rec: &IvRec, em: &mut Emitter<IvRec>| {
                    let replicate = Some(rec.rel.idx()) != projected;
                    let op = if replicate {
                        ij_interval::MapOp::Replicate
                    } else {
                        ij_interval::MapOp::Project
                    };
                    let before = em.emitted();
                    for p in ops::apply(op, rec.iv, &partc) {
                        em.emit(p as u64, *rec);
                    }
                    let copies = (em.emitted() - before) as u64;
                    if replicate {
                        em.inc(names::ALLREP_REPLICA_PAIRS, copies);
                    } else {
                        em.inc(names::ALLREP_PROJECTED_PAIRS, copies);
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
                let accept = |a: &[(Interval, TupleId)]| {
                    if !need_owner_filter {
                        return true;
                    }
                    let max_start = a.iter().map(|(iv, _)| iv.start()).max().expect("nonempty");
                    partr.index_of(max_start) == own
                };
                kernel::reduce_join(ctx, &q, &cands, mode, accept, out);
            },
        )?;

        let mut chain = JobChain::new();
        chain.push(out.metrics);
        let mut result = JoinOutput::from_records(self.mode, out.outputs, chain);
        result.stats.replicated_intervals = Some(replicated_intervals);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_join;
    use ij_interval::AllenPredicate::*;
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
