//! End-to-end determinism and fault tolerance.
//!
//! The engine promises byte-identical results regardless of worker-thread
//! count and across injected reducer failures (Hadoop semantics: reduce
//! tasks are pure and retried). These tests verify the promise holds
//! through complete multi-cycle algorithms, not just single jobs.

use ij_core::hybrid::{AllSeqMatrix, Pasm};
use ij_core::rccis::Rccis;
use ij_core::{Algorithm, JoinInput, JoinOutput};
use ij_interval::AllenPredicate::{Before, Overlaps};
use ij_interval::{Interval, Relation};
use ij_mapreduce::{ClusterConfig, CostModel, Engine, FaultPlan};
use ij_query::JoinQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn workload(q: &JoinQuery, seed: u64) -> JoinInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let rels = (0..q.num_relations())
        .map(|r| {
            Relation::from_intervals(
                format!("R{r}"),
                (0..120).map(|_| {
                    let s = rng.gen_range(0..400);
                    Interval::new(s, s + rng.gen_range(0..50)).unwrap()
                }),
            )
        })
        .collect();
    JoinInput::bind_owned(q, rels).unwrap()
}

fn engine_with_threads(threads: usize) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        cost: CostModel::default(),
        ..ClusterConfig::default()
    })
}

fn run_rccis(engine: &Engine, q: &JoinQuery, input: &JoinInput) -> JoinOutput {
    Rccis::new(6).run(q, input, engine).unwrap()
}

#[test]
fn identical_results_across_thread_counts() {
    let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
    let input = workload(&q, 1);
    let base = run_rccis(&engine_with_threads(1), &q, &input);
    for threads in [2, 3, 8] {
        let out = run_rccis(&engine_with_threads(threads), &q, &input);
        assert_eq!(out.tuples, base.tuples, "threads = {threads}");
        assert_eq!(out.count, base.count);
        // Metrics that do not depend on wall time must match too — the
        // partitioned shuffle's byte accounting is thread-count invariant.
        for (a, b) in out.chain.cycles.iter().zip(&base.chain.cycles) {
            assert_eq!(a.intermediate_pairs, b.intermediate_pairs);
            assert_eq!(a.shuffle_bytes, b.shuffle_bytes);
            assert_eq!(a.map_input_bytes, b.map_input_bytes);
            assert_eq!(a.output_bytes, b.output_bytes);
            assert_eq!(a.reducer_loads, b.reducer_loads);
        }
    }
}

#[test]
fn phase_walls_cover_every_cycle() {
    let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
    let input = workload(&q, 4);
    let out = run_rccis(&engine_with_threads(4), &q, &input);
    for c in &out.chain.cycles {
        let phases = c.map_wall + c.shuffle_wall + c.reduce_wall;
        assert!(
            phases <= c.wall,
            "cycle {}: phases {phases:?} exceed wall {:?}",
            c.name,
            c.wall
        );
    }
    // Chain totals aggregate the per-cycle walls.
    let total =
        out.chain.total_map_wall() + out.chain.total_shuffle_wall() + out.chain.total_reduce_wall();
    assert!(total <= out.chain.total_wall());
}

/// Runs `alg` on `cluster` clean and under `faults`; the retried run must
/// return the clean run's output and record at least `min_retries`
/// retries. Returns the retried run.
fn assert_identical_under_retries(
    alg: &dyn Algorithm,
    q: &JoinQuery,
    input: &JoinInput,
    cluster: &ClusterConfig,
    faults: FaultPlan,
    min_retries: u64,
) -> JoinOutput {
    let clean = alg.run(q, input, &Engine::new(cluster.clone())).unwrap();
    let faulty_engine = Engine::new(cluster.clone()).with_faults(faults);
    let faulty = alg.run(q, input, &faulty_engine).unwrap();

    assert_eq!(faulty.tuples, clean.tuples, "{}", alg.name());
    assert_eq!(faulty.count, clean.count);
    // Retries happened and were recorded.
    let retries: u64 = faulty.chain.cycles.iter().map(|c| c.retries()).sum();
    assert!(
        retries >= min_retries,
        "{}: expected recorded retries, got {retries}",
        alg.name()
    );
    faulty
}

#[test]
fn identical_results_under_reducer_retries() {
    let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
    let input = workload(&q, 2);
    let cluster = ClusterConfig {
        reducer_slots: 4,
        worker_threads: 4,
        ..ClusterConfig::default()
    };
    // Fail several reducers of both cycles once or twice.
    let asm_faults = FaultPlan::new()
        .fail("asm-mark", 0, 1)
        .fail("asm-mark", 2, 2)
        .fail("asm-join", 1, 1)
        .fail("asm-join", 5, 2);
    assert_identical_under_retries(&AllSeqMatrix::new(4), &q, &input, &cluster, asm_faults, 3);

    // PASM's prune reducer folds a `ParticipantSink` through fork/absorb
    // when its bucket runs the parallel kernel: make every prune bucket
    // heavy, fail each of them once (and a join reducer twice), and the
    // retried attempts must rebuild the same participant set.
    let parallel = ClusterConfig {
        intra_reduce_threads: 2,
        heavy_bucket_threshold: 8,
        ..cluster
    };
    let pasm_faults = (0..4)
        .fold(FaultPlan::new(), |plan, key| {
            plan.fail("pasm-prune", key, 1)
        })
        .fail("pasm-join", 5, 2);
    let pasm = assert_identical_under_retries(&Pasm::new(4), &q, &input, &parallel, pasm_faults, 6);
    let prune = &pasm.chain.cycles[1];
    assert_eq!(prune.name, "pasm-prune");
    assert!(
        prune.counters.get("kernel.parallel_buckets") > 0,
        "the prune stage's fork/absorb path ran"
    );

    // With the second relation cut to 10 intervals, the prune broadcasts
    // them to its 4 tasks, and each task reads its slice of the first
    // relation in place: a retried task must read the same slice.
    let rels = (input.relations().iter().enumerate()).map(|(r, rel)| {
        let n = if r == 1 { 10 } else { rel.len() };
        let intervals = rel.tuples()[..n].iter().map(|t| t.interval());
        Relation::from_intervals(format!("R{r}"), intervals)
    });
    let small_side = JoinInput::bind_owned(&q, rels.collect()).unwrap();
    let faults = (0..4).fold(FaultPlan::new(), |plan, key| {
        plan.fail("pasm-prune", key, 1)
    });
    let pasm = assert_identical_under_retries(&Pasm::new(4), &q, &small_side, &parallel, faults, 4);
    assert_eq!(
        pasm.chain.cycles[1].intermediate_pairs,
        10 * 4,
        "the small side to each task"
    );
}

#[test]
fn repeated_runs_are_bit_identical() {
    let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
    let input = workload(&q, 3);
    let engine = engine_with_threads(8);
    let a = run_rccis(&engine, &q, &input);
    let b = run_rccis(&engine, &q, &input);
    assert_eq!(a.tuples, b.tuples);
    assert_eq!(a.chain.total_pairs(), b.chain.total_pairs());
    assert_eq!(a.chain.total_simulated(), b.chain.total_simulated());
}
