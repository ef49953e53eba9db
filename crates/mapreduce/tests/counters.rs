//! Property tests for the user-counter facility.
//!
//! The engine merges per-worker counter maps with a per-name sum. These
//! properties pin what that buys: the merge is associative and commutative
//! (any merge tree gives the same totals), and a job's merged counters are
//! identical for every `worker_threads` count — the Hadoop counter
//! contract the algorithms' replica/candidate statistics rely on.

use ij_mapreduce::metrics::names::{self, Counter};
use ij_mapreduce::{ClusterConfig, Counters, Emitter, Engine, ReduceCtx, ValueStream};
use proptest::prelude::*;

/// The `i`-th registered name, cycling — counters can only be recorded
/// under registered names.
fn name(i: u64) -> &'static Counter {
    names::ALL[i as usize % names::ALL.len()]
}

/// A small name pool keeps collisions frequent, which is where merge bugs
/// would hide.
fn entries_strategy() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..6, 0u64..1_000), 0..40)
}

fn counters_from(entries: &[(u8, u64)]) -> Counters {
    let mut c = Counters::new();
    for (i, delta) in entries {
        c.inc(name(u64::from(*i)), *delta);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn merge_is_associative_and_commutative(
        a in entries_strategy(),
        b in entries_strategy(),
        c in entries_strategy(),
    ) {
        let (a, b, c) = (counters_from(&a), counters_from(&b), counters_from(&c));

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Identity: merging an empty map changes nothing.
        let mut id = a.clone();
        id.merge(&Counters::new());
        prop_assert_eq!(&id, &a);
    }

    #[test]
    fn job_counters_identical_across_worker_threads(
        input in proptest::collection::vec(0u64..5_000, 0..300),
        fanout in 1u64..4,
    ) {
        // Mappers and reducers both increment counters whose names and
        // deltas depend on the record, so different chunkings produce
        // different per-worker partial maps — the merged totals must not
        // care.
        let run = |threads: usize| {
            Engine::new(ClusterConfig {
                reducer_slots: 4,
                worker_threads: threads,
    ..ClusterConfig::default()
            })
            .run_job(
                "prop-counters",
                &input[..],
                move |&n: &u64, e: &mut Emitter<u64>| {
                    e.inc(name(n % 2), 1 + n % 3);
                    for i in 0..1 + n % fanout {
                        e.emit((n + i) % 13, n);
                    }
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    ctx.inc(names::PROGRESS_REDUCERS_DONE, 1);
                    ctx.inc(name(2 + ctx.key % 3), vs.len() as u64);
                    out.push(vs.len() as u64);
                },
            )
            .unwrap()
            .metrics
            .counters
            .clone()
        };
        let base = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(&run(threads), &base, "threads = {}", threads);
        }
    }
}

#[test]
fn execution_shape_classifiers_are_registry_backed() {
    // Both classifiers must be the registry's: the crate-root counter
    // re-export and the snapshot's data-plane projection agree with the
    // registry module on every registered name.
    let mut all = ij_mapreduce::TelemetrySnapshot::default();
    for name in names::ALL {
        assert_eq!(
            ij_mapreduce::is_execution_shape(name),
            names::is_execution_shape(name),
            "{name}"
        );
        all.series.insert(name.to_string(), 1);
    }
    let kept = all.data_plane().series;
    for name in names::ALL {
        assert_eq!(
            kept.contains_key(&***name),
            !names::is_execution_shape_series(name),
            "{name}"
        );
    }
    // The one intentionally split classification stays pinned: reduce
    // heartbeats are execution-shape as counters but data-plane as series.
    assert!(names::is_execution_shape(names::HEARTBEATS_REDUCE));
    assert!(!names::is_execution_shape_series(names::HEARTBEATS_REDUCE));
}
