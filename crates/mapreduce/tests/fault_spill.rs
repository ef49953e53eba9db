//! Fault × spill interplay: a `FaultPlan`-injected retry on a *spilled*
//! bucket must re-read its Dfs runs and produce byte-identical output vs
//! the no-fault run, across budgets {64, 256, ∞} × threads {1, 2, 8}.
//!
//! The engine's retry contract says a spilled bucket's per-attempt
//! "clone" is just its run paths — every attempt streams the runs back
//! from the spill store. These properties pin that the re-read really is
//! lossless and order-preserving, and (the satellite fix verification)
//! that a spilled bucket's `pairs_received` reports the *full logical
//! length* of the bucket, not the in-memory tail left after spilling —
//! the quantity the skew-driven scheduler scores buckets by.

use ij_mapreduce::metrics::names;
use ij_mapreduce::{
    is_execution_shape, ClusterConfig, Counters, Emitter, Engine, FaultPlan, JobOutput, ReduceCtx,
    ValueStream,
};
use proptest::prelude::*;

/// The budget sweep: tiny (many runs per spilled bucket), small (few
/// runs) and unlimited (the in-memory control).
const BUDGETS: [Option<u64>; 3] = [Some(64), Some(256), None];

const JOB: &str = "fault-spill";

/// The reducer key every input value is routed to (besides its fan-out
/// key), so its bucket is guaranteed to overflow any finite budget here.
const HOT_KEY: u64 = 0;

fn engine(threads: usize, budget: Option<u64>, faults: Option<FaultPlan>) -> Engine {
    let eng = Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        intra_reduce_threads: threads,
        reduce_memory_budget: budget,
        ..ClusterConfig::default()
    });
    match faults {
        Some(plan) => eng.with_faults(plan),
        None => eng,
    }
}

/// Every value lands in the hot bucket (which spills under any finite
/// budget here) plus one fan-out bucket; the reducer echoes its stream in
/// order, so loss, duplication or reordering through the re-read runs is
/// visible in the output bytes.
fn run(
    input: &[u64],
    threads: usize,
    budget: Option<u64>,
    faults: Option<FaultPlan>,
) -> JobOutput<(u64, u64)> {
    engine(threads, budget, faults)
        .run_job(
            JOB,
            input,
            |&n: &u64, e: &mut Emitter<u64>| {
                e.emit(HOT_KEY, n);
                e.emit(1 + n % 12, n);
            },
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                ctx.inc(names::PROGRESS_REDUCERS_DONE, 1);
                for v in vs.by_ref() {
                    out.push((ctx.key, v));
                }
            },
        )
        .expect("job survives injected faults within max_attempts")
}

fn data_plane(counters: &Counters) -> Vec<(String, u64)> {
    counters
        .iter()
        .filter(|(k, _)| !is_execution_shape(k))
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two injected failures on the hot (spilled) bucket: attempts 1 and 2
    /// die, attempt 3 must re-read the runs and reproduce the no-fault
    /// run byte-for-byte — outputs, data-plane counters and per-reducer
    /// pair counts — under every budget × thread combination.
    #[test]
    fn retry_on_spilled_bucket_rereads_runs_byte_identically(
        input in proptest::collection::vec(0u64..5_000, 48..160),
        fails in 1u32..3,
    ) {
        let base = run(&input, 1, None, None);
        for budget in BUDGETS {
            for threads in [1usize, 2, 8] {
                let plan = FaultPlan::new().fail(JOB, HOT_KEY, fails);
                let out = run(&input, threads, budget, Some(plan));
                if budget.is_some() {
                    prop_assert!(
                        out.metrics.counters.get(names::SPILL_BUCKETS) > 0,
                        "budget {:?} never spilled — the retry path under test \
                         was not exercised", budget
                    );
                }
                prop_assert_eq!(
                    &out.outputs, &base.outputs,
                    "budget {:?}, threads {}, fails {}", budget, threads, fails
                );
                prop_assert_eq!(
                    data_plane(&out.metrics.counters),
                    data_plane(&base.metrics.counters),
                    "budget {:?}, threads {}", budget, threads
                );
                let hot = out
                    .metrics
                    .reducer_loads
                    .iter()
                    .find(|l| l.key == HOT_KEY)
                    .expect("hot bucket present");
                prop_assert_eq!(
                    hot.attempts, fails + 1,
                    "injected failures must cost exactly one attempt each"
                );
                // Loads besides the attempt counter are fault-invariant.
                let base_hot = base
                    .metrics
                    .reducer_loads
                    .iter()
                    .find(|l| l.key == HOT_KEY)
                    .expect("hot bucket present in baseline");
                prop_assert_eq!(hot.pairs_received, base_hot.pairs_received);
                prop_assert_eq!(hot.output, base_hot.output);
            }
        }
    }

    /// `pairs_received` — the scheduler's load signal — is taken from
    /// `source.len()` before the bucket is consumed. For a spilled bucket
    /// that must be the full logical length (every value the budgeted
    /// merge routed there), never the in-memory tail left after the runs
    /// were cut, and therefore identical across all budgets.
    #[test]
    fn spilled_buckets_report_full_logical_length(
        input in proptest::collection::vec(0u64..5_000, 48..160),
    ) {
        let base = run(&input, 1, None, None);
        for budget in [Some(64), Some(256)] {
            let out = run(&input, 1, budget, None);
            prop_assert!(out.metrics.counters.get(names::SPILL_BUCKETS) > 0);
            prop_assert_eq!(
                &out.metrics.reducer_loads, &base.metrics.reducer_loads,
                "budget {:?} skewed a reducer's pairs_received", budget
            );
        }
        // The hot bucket's reported length equals what was actually
        // routed to it: one pair per input value.
        let hot = base
            .metrics
            .reducer_loads
            .iter()
            .find(|l| l.key == HOT_KEY)
            .expect("hot bucket present");
        prop_assert_eq!(hot.pairs_received, input.len() as u64);
    }
}
