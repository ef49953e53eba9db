//! Property tests for the kernel layer: the sweep kernel, the sort-merge
//! kernel and the windowed-backtracking fallback are *complete* executors
//! for any single-attribute query, so on random chains and cliques over all
//! 13 Allen predicates the three must produce identical result sets — and
//! all must agree with the nested-loop oracle. The event-list sweep is
//! complete only on its qualifying domain (pairwise-intersection-
//! guaranteed colocation sets), checked here on colocation cliques and
//! containment chains of arity 3–4. Separately, the parallel driver must
//! emit byte-identical output (same tuples, same order) and identical
//! work units — and, for the event sweep, an identical active peak — for
//! every intra-bucket thread count and chunking threshold — through the
//! closure adapter and through the folding count/tuple sinks alike.

use ij_core::executor::Candidates;
use ij_core::kernel::{self, KernelConfig, KernelStrategy};
use ij_core::oracle::oracle_join;
use ij_core::records::{IvRec, OutRec};
use ij_core::{JoinInput, OutputMode};
use ij_interval::{AllenPredicate, Interval, RelId, Relation, TupleId};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{
    ClusterConfig, Emitter, Engine, ReduceCtx, SchedConfig, SchedPolicy, ValueStream,
};
use ij_query::{Condition, JoinQuery};
use proptest::prelude::*;

/// One relation's worth of random intervals: `(start, len)` pairs over a
/// span small enough that every predicate (including the point-equality
/// ones: meets, starts, equals, …) fires regularly.
fn rel_strategy() -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(
        (0i64..30, 0i64..12).prop_map(|(s, l)| Interval::new(s, s + l).unwrap()),
        3..25usize,
    )
}

fn pred_strategy() -> impl Strategy<Value = AllenPredicate> {
    (0usize..13).prop_map(|i| AllenPredicate::ALL[i])
}

/// Builds the two candidate representations the executors take: the
/// reducer-side `Candidates` and the oracle's `JoinInput`, with matching
/// sequential tuple ids.
fn build_inputs(q: &JoinQuery, rels: &[Vec<Interval>]) -> (Candidates, JoinInput) {
    let mut cands = Candidates::new(rels.len());
    for (r, ivs) in rels.iter().enumerate() {
        for (t, &iv) in ivs.iter().enumerate() {
            cands.push(r, iv, t as TupleId);
        }
    }
    cands.finish();
    let input = JoinInput::bind_owned(
        q,
        rels.iter()
            .map(|ivs| Relation::from_intervals("R", ivs.iter().copied()))
            .collect(),
    )
    .expect("single-attr input binds");
    (cands, input)
}

/// Sorted result sets from all three forced kernels plus the oracle; panics
/// (via prop_assert in the caller) when any pair disagrees.
fn all_kernel_results(q: &JoinQuery, cands: &Candidates) -> [Vec<Vec<TupleId>>; 3] {
    type Emit<'a> = dyn FnMut(&[(Interval, TupleId)]) + 'a;
    let collect = |run: &dyn Fn(&mut Emit<'_>)| {
        let mut got: Vec<Vec<TupleId>> = Vec::new();
        run(&mut |a| got.push(a.iter().map(|(_, t)| *t).collect()));
        got.sort();
        got
    };
    [
        collect(&|emit| {
            kernel::backtrack_join(q, cands, |_| true, |a| emit(a));
        }),
        collect(&|emit| {
            kernel::sweep_join(q, cands, |_| true, |a| emit(a));
        }),
        collect(&|emit| {
            kernel::merge_join(q, cands, |_| true, |a| emit(a));
        }),
    ]
}

/// The 11 colocation predicates (everything but before/after) — the
/// domain where clique condition sets qualify for the event sweep.
const COLOCATION_PREDS: [AllenPredicate; 11] = {
    use AllenPredicate::*;
    [
        Overlaps,
        OverlappedBy,
        Contains,
        ContainedBy,
        Meets,
        MetBy,
        Starts,
        StartedBy,
        Finishes,
        FinishedBy,
        Equals,
    ]
};

fn colocation_pred_strategy() -> impl Strategy<Value = AllenPredicate> {
    (0usize..COLOCATION_PREDS.len()).prop_map(|i| COLOCATION_PREDS[i])
}

/// A clique: one condition between every pair of relations. Often
/// contradictory — those cases must simply produce empty sets everywhere.
fn clique(m: u16, preds: &[AllenPredicate]) -> JoinQuery {
    let mut conds = Vec::new();
    let mut pi = 0;
    for i in 0..m {
        for j in (i + 1)..m {
            conds.push(Condition::whole(i, preds[pi % preds.len()], j));
            pi += 1;
        }
    }
    JoinQuery::new(m, conds).expect("clique query builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Chains of 2–4 relations over random predicate mixes: every kernel
    /// and the oracle agree on the exact result set.
    #[test]
    fn kernels_match_oracle_on_chains(
        preds in proptest::collection::vec(pred_strategy(), 1..4usize),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = JoinQuery::chain(&preds).unwrap();
        let m = q.num_relations() as usize;
        let rels = &seed_rels[..m];
        let (cands, input) = build_inputs(&q, rels);
        let [bt, sw, mg] = all_kernel_results(&q, &cands);
        let mut oracle = oracle_join(&q, &input);
        oracle.sort();
        prop_assert_eq!(&bt, &sw, "sweep != backtrack for {}", q);
        prop_assert_eq!(&bt, &mg, "merge != backtrack for {}", q);
        prop_assert_eq!(&bt, &oracle, "kernels != oracle for {}", q);
    }

    /// Cliques over 3–4 relations (including contradictory ones, which must
    /// yield empty sets from every path).
    #[test]
    fn kernels_match_oracle_on_cliques(
        m in 3u16..5,
        preds in proptest::array::uniform3(pred_strategy()),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = clique(m, &preds);
        let rels = &seed_rels[..m as usize];
        let (cands, input) = build_inputs(&q, rels);
        let [bt, sw, mg] = all_kernel_results(&q, &cands);
        let mut oracle = oracle_join(&q, &input);
        oracle.sort();
        prop_assert_eq!(&bt, &sw, "sweep != backtrack for {}", q);
        prop_assert_eq!(&bt, &mg, "merge != backtrack for {}", q);
        prop_assert_eq!(&bt, &oracle, "kernels != oracle for {}", q);
    }

    /// The heavy-bucket parallel driver is invisible: for thread counts
    /// 1, 2 and 8 the dispatching kernel emits the same tuples in the same
    /// order (byte-identical output) and reports identical work units.
    #[test]
    fn parallel_execution_is_byte_identical(
        preds in proptest::collection::vec(pred_strategy(), 1..3usize),
        seed_rels in proptest::array::uniform3(rel_strategy()),
    ) {
        let q = JoinQuery::chain(&preds).unwrap();
        let m = q.num_relations() as usize;
        let rels = &seed_rels[..m];
        let (cands, _) = build_inputs(&q, rels);
        let run = |threads: usize| {
            let cfg = KernelConfig { threads, parallel_threshold: 0 };
            let mut flat: Vec<TupleId> = Vec::new();
            let rep = kernel::execute(
                &q,
                &cands,
                &cfg,
                |a| a.iter().map(|(_, t)| *t as u64).sum::<u64>() % 5 != 1,
                |a| flat.extend(a.iter().map(|(_, t)| *t)),
            );
            (rep.work, flat)
        };
        let (base_work, base) = run(1);
        for threads in [2usize, 8] {
            let (work, flat) = run(threads);
            prop_assert_eq!(
                &flat, &base,
                "thread count {} changed output for {}", threads, q
            );
            prop_assert_eq!(
                work, base_work,
                "thread count {} changed work units for {}", threads, q
            );
        }
    }

    /// Arity-3/4 colocation cliques always qualify for the event sweep
    /// (every pair directly conditioned); its result set must match the
    /// oracle and the other complete kernels exactly — including the
    /// contradictory cliques, which must be empty everywhere.
    #[test]
    fn event_sweep_matches_oracle_on_colocation_cliques(
        m in 3u16..5,
        preds in proptest::collection::vec(colocation_pred_strategy(), 6),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = clique(m, &preds);
        let rels = &seed_rels[..m as usize];
        let (cands, input) = build_inputs(&q, rels);
        let mut es: Vec<Vec<TupleId>> = Vec::new();
        kernel::event_sweep_join(&q, &cands, |_| true, |a| {
            es.push(a.iter().map(|(_, t)| *t).collect())
        });
        es.sort();
        let [bt, _, _] = all_kernel_results(&q, &cands);
        let mut oracle = oracle_join(&q, &input);
        oracle.sort();
        prop_assert_eq!(&es, &bt, "event sweep != backtrack for {}", q);
        prop_assert_eq!(&es, &oracle, "event sweep != oracle for {}", q);
    }

    /// Containment-family chains (arity 3–4) reach the event sweep via the
    /// subset closure; the result set must still match the oracle.
    #[test]
    fn event_sweep_matches_oracle_on_containment_chains(
        preds in proptest::collection::vec(
            (0usize..5).prop_map(|i| [
                AllenPredicate::Contains,
                AllenPredicate::ContainedBy,
                AllenPredicate::Starts,
                AllenPredicate::Finishes,
                AllenPredicate::Equals,
            ][i]),
            2..4usize,
        ),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = JoinQuery::chain(&preds).unwrap();
        let m = q.num_relations() as usize;
        let rels = &seed_rels[..m];
        let (cands, input) = build_inputs(&q, rels);
        let mut es: Vec<Vec<TupleId>> = Vec::new();
        kernel::event_sweep_join(&q, &cands, |_| true, |a| {
            es.push(a.iter().map(|(_, t)| *t).collect())
        });
        es.sort();
        let mut oracle = oracle_join(&q, &input);
        oracle.sort();
        prop_assert_eq!(&es, &oracle, "event sweep != oracle for {}", q);
    }

    /// Chunked parallel event sweep is invisible: for worker thread counts
    /// 1/2/8 crossed with "always chunk" and "never chunk" thresholds, the
    /// dispatcher routes qualifying cliques to the event sweep and emits
    /// byte-identical output with chunk-invariant work and active peak.
    #[test]
    fn event_sweep_parallel_chunking_is_invariant(
        m in 3u16..5,
        preds in proptest::collection::vec(colocation_pred_strategy(), 6),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = clique(m, &preds);
        let rels = &seed_rels[..m as usize];
        let (cands, _) = build_inputs(&q, rels);
        let run = |threads: usize, parallel_threshold: usize| {
            let cfg = KernelConfig { threads, parallel_threshold };
            let mut flat: Vec<TupleId> = Vec::new();
            let rep = kernel::execute(
                &q,
                &cands,
                &cfg,
                |a| a.iter().map(|(_, t)| *t as u64).sum::<u64>() % 5 != 1,
                |a| flat.extend(a.iter().map(|(_, t)| *t)),
            );
            assert_eq!(rep.kind, kernel::KernelKind::EventSweep, "{q}");
            (rep.work, rep.active_peak, flat)
        };
        let (base_work, base_peak, base) = run(1, 0);
        for threads in [1usize, 2, 8] {
            for threshold in [0usize, usize::MAX] {
                let (work, peak, flat) = run(threads, threshold);
                prop_assert_eq!(
                    &flat, &base,
                    "threads {} threshold {} changed output for {}", threads, threshold, q
                );
                prop_assert_eq!(
                    work, base_work,
                    "threads {} threshold {} changed work for {}", threads, threshold, q
                );
                prop_assert_eq!(
                    peak, base_peak,
                    "threads {} threshold {} changed active peak for {}", threads, threshold, q
                );
            }
        }
    }

    /// The folding sinks are invisible too: on one query per kernel
    /// strategy, for threads 1/2/3/8 × "always chunk"/"never chunk", the
    /// count sink equals the serial count, the tuple sink's rows are the
    /// serial closure run's rows in the same order, and work and active
    /// peak do not move.
    #[test]
    fn sinks_match_serial_closure_on_every_kernel(
        seed_rels in proptest::array::uniform3(rel_strategy()),
    ) {
        use AllenPredicate::*;
        for (q, strategy) in [
            (JoinQuery::chain(&[Overlaps]).unwrap(), KernelStrategy::PairSweep),
            (JoinQuery::chain(&[Overlaps, Overlaps]).unwrap(), KernelStrategy::DualWindow),
            (clique(3, &[Overlaps, Overlaps, Contains]), KernelStrategy::EventSweep),
            (JoinQuery::chain(&[Before, Before]).unwrap(), KernelStrategy::SortMerge),
            (JoinQuery::chain(&[Overlaps, Before]).unwrap(), KernelStrategy::Backtrack),
        ] {
            prop_assert_eq!(kernel::planned_kernel(&q), strategy);
            let (cands, _) = build_inputs(&q, &seed_rels[..q.num_relations() as usize]);
            let accept = |a: &[(Interval, TupleId)]| {
                a.iter().map(|(_, t)| *t as u64).sum::<u64>() % 5 != 1
            };
            let mut base: Vec<OutRec> = Vec::new();
            let base_rep = kernel::execute(&q, &cands, &KernelConfig::serial(), accept, |a| {
                base.push(OutRec::Tuple(a.iter().map(|(_, t)| *t).collect()))
            });
            for threads in [1usize, 2, 3, 8] {
                for parallel_threshold in [0usize, usize::MAX] {
                    let cfg = KernelConfig { threads, parallel_threshold };
                    let mut count = 0u64;
                    let count_rep = kernel::execute_into(&q, &cands, &cfg, accept, &mut count);
                    let mut rows: Vec<OutRec> = Vec::new();
                    let rows_rep = kernel::execute_into(&q, &cands, &cfg, accept, &mut rows);
                    let at = format!("{strategy:?} threads {threads} threshold {parallel_threshold}");
                    prop_assert_eq!(count, base.len() as u64, "count sink, {}", at);
                    prop_assert_eq!(&rows, &base, "tuple sink, {}", at);
                    // Every relation has >= 3 tuples, so "always chunk"
                    // with spare threads really takes the parallel path.
                    let chunked = threads > 1 && parallel_threshold == 0;
                    for rep in [count_rep, rows_rep] {
                        prop_assert_eq!(rep.parallel_chunks > 1, chunked, "chunks, {}", at);
                        prop_assert_eq!(rep.work, base_rep.work, "work, {}", at);
                        prop_assert_eq!(rep.active_peak, base_rep.active_peak, "peak, {}", at);
                    }
                }
            }
        }
    }
}

/// `n` intervals per relation, dense enough that every chunk of a
/// 4-way split joins.
fn dense_records(m: u16, n: u32) -> Vec<IvRec> {
    let mut recs = Vec::new();
    for rel in 0..m {
        for tid in 0..n {
            let s = ((tid * 7 + rel as u32 * 3) % 90) as i64;
            let iv = Interval::new(s, s + 5 + (tid % 11) as i64).unwrap();
            recs.push(IvRec {
                rel: RelId(rel),
                tid,
                iv,
            });
        }
    }
    recs
}

/// A Count-mode reducer on the parallel path hands back one
/// `OutRec::Count` and nothing else: no rows were ever staged in `out`
/// (its capacity stays at the single push), and the count and the join
/// counters equal the materializing run's.
#[test]
fn parallel_count_reduce_join_never_buffers_rows() {
    let q = JoinQuery::chain(&[AllenPredicate::Overlaps, AllenPredicate::Overlaps]).unwrap();
    let recs = dense_records(3, 120);
    let run = |mode: OutputMode, threads: usize| {
        let engine = Engine::new(ClusterConfig {
            reducer_slots: 1,
            worker_threads: threads,
            intra_reduce_threads: threads,
            heavy_bucket_threshold: 8,
            sched: SchedConfig::with_policy(SchedPolicy::Uniform),
            ..ClusterConfig::default()
        });
        let q = q.clone();
        engine
            .run_job(
                "sink-test",
                &recs,
                |r: &IvRec, em: &mut Emitter<IvRec>| em.emit(0, *r),
                move |ctx: &mut ReduceCtx, vs: &mut ValueStream<IvRec>, out: &mut Vec<OutRec>| {
                    let mut cands = Candidates::new(3);
                    for v in vs.by_ref() {
                        cands.push(v.rel.idx(), v.iv, v.tid);
                    }
                    cands.finish();
                    kernel::reduce_join(ctx, &q, &cands, mode, |a| a[0].1 % 3 != 0, out);
                    if mode == OutputMode::Count {
                        assert!(matches!(out.as_slice(), [OutRec::Count(_)]), "{out:?}");
                        assert!(out.capacity() <= 4, "row buffer grew: {}", out.capacity());
                    }
                },
            )
            .expect("job runs")
    };
    let rows = run(OutputMode::Materialize, 1);
    assert!(rows.outputs.len() > 100, "workload too sparse");
    for threads in [1, 4] {
        let counted = run(OutputMode::Count, threads);
        assert_eq!(
            counted.outputs,
            vec![OutRec::Count(rows.outputs.len() as u64)]
        );
        let counters = &counted.metrics.counters;
        assert_eq!(
            counters.get(names::KERNEL_PARALLEL_BUCKETS),
            (threads > 1) as u64
        );
        for name in [names::JOIN_EMITTED, names::JOIN_CANDIDATES] {
            assert_eq!(
                counters.get(name),
                rows.metrics.counters.get(name),
                "{name}"
            );
        }
        assert_eq!(counters.get(names::JOIN_EMITTED), rows.outputs.len() as u64);
    }
}

/// A panic inside a worker's `accept` is not swallowed with the worker:
/// the driver re-raises the original payload on the caller's thread.
#[test]
fn worker_accept_panic_is_reraised_on_the_caller() {
    let q = JoinQuery::chain(&[AllenPredicate::Overlaps]).unwrap();
    let rels: Vec<Vec<Interval>> = (0..2)
        .map(|_| (0..40).map(|s| Interval::new(s, s + 10).unwrap()).collect())
        .collect();
    let (cands, _) = build_inputs(&q, &rels);
    let cfg = KernelConfig {
        threads: 4,
        parallel_threshold: 0,
    };
    let caught = std::panic::catch_unwind(|| {
        let mut count = 0u64;
        // Tuple 35 sits in the last of the four outer chunks.
        kernel::execute_into(
            &q,
            &cands,
            &cfg,
            |a| {
                if a[0].1 == 35 {
                    panic!("accept exploded")
                } else {
                    true
                }
            },
            &mut count,
        )
    });
    let payload = caught.expect_err("worker panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"accept exploded"));
}
