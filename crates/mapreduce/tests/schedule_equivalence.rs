//! Scheduler equivalence: a Dfs snapshot of a job's outputs plus its
//! data-plane counters must be byte-identical across intra-reduce grant
//! policies (skew-driven vs all-serial) — the scheduler may
//! only change *when* work runs, never *what* is emitted.
//!
//! The workloads mimic the join layer's bucket mixes: a chain-style mix
//! (many similar-sized buckets) and a clique-style mix (one dominant hot
//! bucket plus a light tail — the skewed regime the scheduler exists
//! for). Each is swept across policies × threads {1, 2, 8} × budgets
//! {∞, 64}, every combination byte-diffed against the skew-driven
//! single-thread unbudgeted baseline through a fresh [`Dfs`] — the same
//! discipline as the root `tests/audit_determinism.rs`.

use ij_mapreduce::metrics::names;
use ij_mapreduce::{
    is_execution_shape, ClusterConfig, CostModel, Dfs, Emitter, Engine, JobOutput, ReduceCtx,
    SchedConfig, SchedPolicy, ValueStream,
};
use proptest::prelude::*;

const POLICIES: [SchedPolicy; 2] = [SchedPolicy::SkewDriven, SchedPolicy::AllSerial];

/// Low heavy cutoff so the skew-driven policy actually classifies the
/// hot bucket heavy (and hands it a multi-thread grant) at test scale.
const HEAVY_THRESHOLD: usize = 32;

fn engine(threads: usize, budget: Option<u64>, policy: SchedPolicy) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        intra_reduce_threads: threads,
        heavy_bucket_threshold: HEAVY_THRESHOLD,
        reduce_memory_budget: budget,
        sched: SchedConfig::with_policy(policy),
        cost: CostModel::default(),
    })
}

/// `hot_share` of 8 routes each value to the hot bucket (key 0); the
/// rest fan out over 16 light keys. `hot_share = 1` approximates a
/// chain's balanced mix, `hot_share = 6` a clique's skewed one.
fn run(
    input: &[u64],
    hot_share: u64,
    threads: usize,
    budget: Option<u64>,
    policy: SchedPolicy,
) -> JobOutput<(u64, u64)> {
    engine(threads, budget, policy)
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
/// execution-shape — grants legitimately differ across policies — so it
/// must NOT appear here).
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

    /// The full matrix: chain-like and clique-like mixes, every policy,
    /// threads 1/2/8, budgets ∞/64 — all byte-identical.
    #[test]
    fn grant_policies_never_change_output_bytes(
        input in proptest::collection::vec(0u64..10_000, 40..240),
        hot_share in 1u64..7,
    ) {
        let base = snapshot(&run(&input, hot_share, 1, None, SchedPolicy::SkewDriven));
        for policy in POLICIES {
            for threads in [1usize, 2, 8] {
                for budget in [None, Some(64)] {
                    let out = run(&input, hot_share, threads, budget, policy);
                    prop_assert_eq!(
                        snapshot(&out),
                        base.clone(),
                        "policy {}, threads {}, budget {:?} diverged",
                        policy, threads, budget
                    );
                }
            }
        }
    }

    /// On the skewed mix the skew-driven policy must actually deviate
    /// from serial execution: with 8 workers the hot bucket is heavy, so
    /// the summed grants exceed the bucket count (some bucket ran
    /// multi-threaded) and the heavy classification is recorded — while
    /// all-serial stays at one thread per bucket by construction.
    #[test]
    fn skew_policy_grants_exceed_serial_on_skewed_mix(
        input in proptest::collection::vec(0u64..10_000, 120..240),
    ) {
        let skew = run(&input, 6, 8, None, SchedPolicy::SkewDriven);
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
        let serial = run(&input, 6, 8, None, SchedPolicy::AllSerial);
        prop_assert_eq!(
            serial.metrics.counters.get(names::SCHED_GRANTS),
            buckets,
            "all-serial must grant exactly one thread per bucket"
        );
    }
}
