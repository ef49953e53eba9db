//! Property tests for the memory-budgeted (spilling) reduce path.
//!
//! The engine promises that `reduce_memory_budget` is *invisible* to the
//! data plane: for any budget and any `worker_threads` count, a job's
//! outputs, reducer loads and data-plane counters are byte-identical to
//! the unlimited in-memory run. Spilling may only change execution-shape
//! observables (`spill.*` counters, `spill_wall`). These properties pin
//! that equivalence over arbitrary emit patterns.

use ij_mapreduce::metrics::names;
use ij_mapreduce::{
    is_execution_shape, ClusterConfig, CostModel, Counters, Emitter, Engine, JobOutput, ReduceCtx,
    ValueStream,
};
use proptest::prelude::*;

/// Budgets the property sweeps: unlimited (pure in-memory), tiny (every
/// non-trivial bucket spills, many runs) and mid (only heavy buckets
/// spill).
const BUDGETS: [Option<u64>; 3] = [None, Some(64), Some(1024)];

fn engine(threads: usize, budget: Option<u64>) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        intra_reduce_threads: threads,
        reduce_memory_budget: budget,
        cost: CostModel::default(),
        ..ClusterConfig::default()
    })
}

/// Runs the shared fan-out job: each input value emits `1 + n % fanout`
/// pairs across 13 reducer keys, and the reducer echoes its stream in
/// order (so any reordering or loss through the spill files is visible).
fn run(input: &[u64], fanout: u64, threads: usize, budget: Option<u64>) -> JobOutput<(u64, u64)> {
    engine(threads, budget)
        .run_job(
            "spill-prop",
            input,
            move |&n: &u64, e: &mut Emitter<u64>| {
                for i in 0..1 + n % fanout {
                    e.emit((n + i) % 13, n * 10 + i);
                }
            },
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                ctx.inc(names::PROGRESS_REDUCERS_DONE, 1);
                for v in vs.by_ref() {
                    out.push((ctx.key, v));
                }
            },
        )
        .expect("job runs")
}

/// The data-plane slice of a counter set: everything except
/// execution-shape names (`spill.*`, `kernel.parallel_buckets`).
fn data_plane(counters: &Counters) -> Vec<(String, u64)> {
    counters
        .iter()
        .filter(|(k, _)| !is_execution_shape(k))
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spilled_runs_match_in_memory_runs_exactly(
        input in proptest::collection::vec(0u64..5_000, 0..400),
        fanout in 1u64..4,
    ) {
        let base = run(&input, fanout, 1, None);
        prop_assert_eq!(base.metrics.counters.get("spill.buckets"), 0);
        for budget in BUDGETS {
            for threads in [1usize, 2, 8] {
                let out = run(&input, fanout, threads, budget);
                prop_assert_eq!(
                    &out.outputs, &base.outputs,
                    "budget {:?}, threads {}", budget, threads
                );
                prop_assert_eq!(
                    &out.metrics.reducer_loads, &base.metrics.reducer_loads,
                    "budget {:?}, threads {}", budget, threads
                );
                prop_assert_eq!(
                    data_plane(&out.metrics.counters),
                    data_plane(&base.metrics.counters),
                    "budget {:?}, threads {}", budget, threads
                );
                prop_assert_eq!(out.metrics.intermediate_pairs, base.metrics.intermediate_pairs);
                prop_assert_eq!(out.metrics.shuffle_bytes, base.metrics.shuffle_bytes);
            }
        }
    }

    #[test]
    fn spill_shape_is_thread_count_independent(
        input in proptest::collection::vec(0u64..5_000, 0..400),
        fanout in 1u64..4,
    ) {
        // With a fixed budget, even the spill layout (bucket/run/byte
        // counts) must not depend on worker_threads: the merged shuffle
        // stream the spiller consumes is itself deterministic.
        let budget = Some(64);
        let base = run(&input, fanout, 1, budget);
        let base_spill: Vec<(String, u64)> = base
            .metrics
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("spill."))
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        for threads in [2usize, 8] {
            let out = run(&input, fanout, threads, budget);
            let spill: Vec<(String, u64)> = out
                .metrics
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("spill."))
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            prop_assert_eq!(&spill, &base_spill, "threads {}", threads);
        }
    }
}
