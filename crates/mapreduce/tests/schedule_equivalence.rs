//! Schedule equivalence: a Dfs snapshot of a job's outputs plus its
//! data-plane counters must be byte-identical whether heavy buckets take
//! multi-thread grants (`intra_reduce_threads = worker_threads`) or every
//! bucket runs serial (`intra_reduce_threads = 1`) — the schedule may only
//! change *when* work runs, never *what* is emitted.
//!
//! The workloads mimic the join layer's bucket mixes: a chain-style mix
//! (many similar-sized buckets) and a clique-style mix (one dominant hot
//! bucket plus a light tail — the skewed regime the schedule exists for).
//! Each is swept across `intra_reduce_threads` {1, threads} × threads
//! {1, 2, 8} × budgets {∞, 64}, every combination byte-diffed against the
//! serial single-thread unbudgeted baseline through a fresh [`Dfs`] — the
//! same discipline as the root `tests/audit_determinism.rs`. A last case
//! pins that the heavy classification reads pairs alone, whatever the
//! budget.

use ij_mapreduce::metrics::names;
use ij_mapreduce::{
    is_execution_shape, ClusterConfig, Dfs, Emitter, Engine, JobOutput, ReduceCtx, ValueStream,
};
use proptest::prelude::*;

/// Low heavy cutoff so the schedule actually classifies the hot bucket
/// heavy (and hands it a multi-thread grant) at test scale.
const HEAVY_THRESHOLD: usize = 32;

fn engine(threads: usize, intra: usize, budget: Option<u64>) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        intra_reduce_threads: intra,
        heavy_bucket_threshold: HEAVY_THRESHOLD,
        reduce_memory_budget: budget,
    })
}

/// `hot_share` of 8 routes each value to the hot bucket (key 0); the
/// rest fan out over 16 light keys. `hot_share = 1` approximates a
/// chain's balanced mix, `hot_share = 6` a clique's skewed one.
fn run(
    input: &[u64],
    hot_share: u64,
    threads: usize,
    intra: usize,
    budget: Option<u64>,
) -> JobOutput<(u64, u64)> {
    engine(threads, intra, budget)
        .run_job(
            "sched-prop",
            input,
            move |&n: &u64, e: &mut Emitter<u64>| {
                if n % 8 < hot_share {
                    e.emit(0, n);
                } else {
                    e.emit(1 + n % 16, n);
                }
            },
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                ctx.inc(names::PROGRESS_REDUCERS_DONE, 1);
                let mut acc = 0u64;
                for v in vs.by_ref() {
                    acc = acc.wrapping_mul(31).wrapping_add(v);
                    out.push((ctx.key, acc));
                }
            },
        )
        .expect("job runs")
}

/// One run's byte snapshot through the Dfs: outputs in emission order
/// plus every non-execution-shape counter (the `sched.*` family is
/// execution-shape — grants legitimately differ across thread settings —
/// so it must NOT appear here).
fn snapshot(out: &JobOutput<(u64, u64)>) -> Vec<u8> {
    let mut lines: Vec<String> = out.outputs.iter().map(|t| format!("{t:?}")).collect();
    for (k, v) in out.metrics.counters.iter() {
        if !is_execution_shape(k) {
            lines.push(format!("counter {k}={v}"));
        }
    }
    for l in &out.metrics.reducer_loads {
        lines.push(format!(
            "load key={} pairs={} out={}",
            l.key, l.pairs_received, l.output
        ));
    }
    let dfs = Dfs::new();
    dfs.write("sched/snapshot", lines).expect("dfs write");
    dfs.read::<String>("sched/snapshot")
        .expect("dfs read")
        .join("\n")
        .into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full matrix: chain-like and clique-like mixes,
    /// `intra_reduce_threads` 1 and `threads`, threads 1/2/8, budgets ∞/64
    /// — all byte-identical.
    #[test]
    fn grants_never_change_output_bytes(
        input in proptest::collection::vec(0u64..10_000, 40..240),
        hot_share in 1u64..7,
    ) {
        let base = snapshot(&run(&input, hot_share, 1, 1, None));
        for threads in [1usize, 2, 8] {
            for intra in [1, threads] {
                for budget in [None, Some(64)] {
                    let out = run(&input, hot_share, threads, intra, budget);
                    prop_assert_eq!(
                        snapshot(&out),
                        base.clone(),
                        "intra {}, threads {}, budget {:?} diverged",
                        intra, threads, budget
                    );
                }
            }
        }
    }

    /// On the skewed mix the schedule must actually deviate from serial
    /// execution: with 8 workers the hot bucket is heavy, so the summed
    /// grants exceed the bucket count (some bucket ran multi-threaded) and
    /// the heavy classification is recorded — while
    /// `intra_reduce_threads: 1` grants one thread per bucket.
    #[test]
    fn grants_exceed_one_per_bucket_on_skewed_mix(
        input in proptest::collection::vec(0u64..10_000, 120..240),
    ) {
        let skew = run(&input, 6, 8, 8, None);
        let buckets = skew.metrics.distinct_reducers;
        prop_assert!(
            skew.metrics.counters.get(names::SCHED_HEAVY_BUCKETS) > 0,
            "hot bucket never classified heavy"
        );
        prop_assert!(
            skew.metrics.counters.get(names::SCHED_GRANTS) > buckets,
            "summed grants {} never exceeded the {} buckets — no \
             multi-thread grant landed",
            skew.metrics.counters.get(names::SCHED_GRANTS),
            buckets
        );
        let serial = run(&input, 6, 8, 1, None);
        prop_assert_eq!(
            serial.metrics.counters.get(names::SCHED_GRANTS),
            buckets,
            "intra_reduce_threads 1 must grant exactly one thread per bucket"
        );
    }
}

/// Buckets just below, at and above [`HEAVY_THRESHOLD`], plus a light one
/// that fits a 64-byte budget: the below bucket holds 24 pairs, within
/// `[⌈t/1.5⌉, t)`, and spills under that budget. Heavy means
/// `pairs_received ≥ t`, so spilling must not make it heavy: the heavy
/// count is the same with and without a budget, and the same at every
/// thread count.
#[test]
fn heavy_buckets_do_not_depend_on_the_memory_budget() {
    let sizes: [(u64, u64); 4] = [(0, 24), (1, 32), (2, 50), (3, 5)];
    let input: Vec<(u64, u64)> = (sizes.iter())
        .flat_map(|&(key, n)| (0..n).map(move |v| (key, v)))
        .collect();
    let expected = (sizes.iter())
        .filter(|&&(_, n)| n >= HEAVY_THRESHOLD as u64)
        .count() as u64;
    for threads in [1usize, 2, 8] {
        for budget in [None, Some(64)] {
            let out = engine(threads, threads, budget)
                .run_job(
                    "sched-budget",
                    &input[..],
                    |&(key, v): &(u64, u64), e: &mut Emitter<u64>| e.emit(key, v),
                    |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                        out.push((ctx.key, vs.sum()));
                    },
                )
                .expect("job runs");
            let counters = &out.metrics.counters;
            if budget.is_some() {
                // Every bucket but the 5-pair one overflows 64 bytes.
                assert_eq!(counters.get(names::SPILL_BUCKETS), 3, "threads {threads}");
            }
            assert_eq!(
                counters.get(names::SCHED_HEAVY_BUCKETS),
                expected,
                "threads {threads}, budget {budget:?}"
            );
        }
    }
}
