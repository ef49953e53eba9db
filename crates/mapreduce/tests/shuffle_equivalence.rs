//! Property tests for the sort-free shuffle.
//!
//! The engine never sorts intermediate pairs: each map worker's `Emitter`
//! partitions by key at emit, and the shuffle splices the workers' per-key
//! segments in chunk order. These properties pin that against the
//! definition it replaces — concatenate every worker's emissions in chunk
//! order, stable-sort by key, group — for `worker_threads` 1/2/8, over
//! emission patterns chosen to defeat the emitter's last-key fast path and
//! to leave workers and keys lopsided.

use ij_mapreduce::{
    merge_keyed_runs, ClusterConfig, Emitter, Engine, ReduceCtx, ReducerId, ShuffleStats,
    ValueStream,
};
use proptest::prelude::*;

/// One input record: the `(key, tag)` pairs its map call emits, in order.
type Emissions = Vec<(ReducerId, u32)>;

/// Keys the generator draws from: both ends of the key space and a few in
/// between (the gaps make "next key" a real search, not `+ 1`).
const POOL: [ReducerId; 7] = [0, 1, 2, 7, 1 << 40, u64::MAX - 1, u64::MAX];

const THREADS: [usize; 3] = [1, 2, 8];

/// The shuffle by definition: all emissions in input (= chunk) order,
/// stable-sorted by key and grouped, plus the volume they add up to
/// (4-byte tag + 8-byte key per pair).
fn reference(input: &[Emissions]) -> (Vec<(ReducerId, Vec<u32>)>, ShuffleStats) {
    let mut pairs: Vec<(ReducerId, u32)> = input.iter().flatten().copied().collect();
    let stats = ShuffleStats {
        pairs: pairs.len() as u64,
        bytes: pairs.len() as u64 * 12,
    };
    pairs.sort_by_key(|(k, _)| *k);
    let mut buckets: Vec<(ReducerId, Vec<u32>)> = Vec::new();
    for (k, v) in pairs {
        match buckets.last_mut() {
            Some((last, vals)) if *last == k => vals.push(v),
            _ => buckets.push((k, vec![v])),
        }
    }
    (buckets, stats)
}

/// Checks both surfaces against the reference for every thread count: the
/// splice itself over runs built through `Emitter` from the engine's
/// chunking, and `run_job` end to end.
fn check(input: &[Emissions]) {
    let (want, want_stats) = reference(input);
    let flat: Vec<(ReducerId, u32)> = want
        .iter()
        .flat_map(|(k, vs)| vs.iter().map(|v| (*k, *v)))
        .collect();
    for threads in THREADS {
        let runs = input
            .chunks(input.len().div_ceil(threads).max(1))
            .map(|chunk| {
                let mut em = Emitter::default();
                for (k, v) in chunk.iter().flatten() {
                    em.emit(*k, *v);
                }
                em.finish().0
            })
            .collect();
        let (buckets, stats) = merge_keyed_runs(runs);
        assert_eq!(&buckets, &want, "splice, threads = {}", threads);
        assert_eq!(stats, want_stats, "splice stats, threads = {}", threads);

        let out = Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: threads,
            ..ClusterConfig::default()
        })
        .run_job(
            "shuffle-eq",
            input,
            |rec: &Emissions, e: &mut Emitter<u32>| {
                for (k, v) in rec {
                    e.emit(*k, *v);
                }
            },
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u32>, out: &mut Vec<(u64, u32)>| {
                out.extend(vs.map(|v| (ctx.key, v)));
            },
        )
        .unwrap();
        assert_eq!(&out.outputs, &flat, "run_job, threads = {}", threads);
        assert_eq!(out.metrics.intermediate_pairs, want_stats.pairs);
        assert_eq!(out.metrics.shuffle_bytes, want_stats.bytes);
        let loads: Vec<(ReducerId, u64)> = out
            .metrics
            .reducer_loads
            .iter()
            .map(|l| (l.key, l.pairs_received))
            .collect();
        let want_loads: Vec<(ReducerId, u64)> =
            want.iter().map(|(k, vs)| (*k, vs.len() as u64)).collect();
        assert_eq!(loads, want_loads, "loads, threads = {}", threads);
    }
}

/// Tags every emission with its global position, so any two values are
/// distinguishable and a per-key order mix-up cannot cancel out.
fn tagged(keys: Vec<Vec<ReducerId>>) -> Vec<Emissions> {
    let mut tag = 0u32;
    keys.into_iter()
        .map(|rec| {
            rec.into_iter()
                .map(|k| {
                    tag += 1;
                    (k, tag)
                })
                .collect()
        })
        .collect()
}

/// One record's key sequence: nothing, random pool keys, the pool strictly
/// descending, or the pool round-robin from a random offset — the last two
/// miss the emitter's last-key cache on every single emit.
fn record_keys() -> impl Strategy<Value = Vec<ReducerId>> {
    (0u8..5, proptest::collection::vec(0usize..POOL.len(), 0..6)).prop_map(|(pattern, picks)| {
        match pattern {
            0 => Vec::new(),
            1 => POOL.iter().rev().copied().collect(),
            2 => {
                let from = picks.first().copied().unwrap_or(0);
                (0..2 * POOL.len())
                    .map(|i| POOL[(from + i) % POOL.len()])
                    .collect()
            }
            _ => picks.into_iter().map(|i| POOL[i]).collect(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn shuffle_equals_stable_sort_of_concatenated_emissions(
        keys in proptest::collection::vec(record_keys(), 0..40),
    ) {
        check(&tagged(keys));
    }
}

/// The lopsided shapes, pinned by hand so they run on every `cargo test`
/// whatever the generator draws: 16 records make 8 two-record chunks at
/// `worker_threads = 8`; chunk 2 emits nothing, key 7 comes from chunk 0
/// alone, keys 0 and `u64::MAX` come from every other chunk, and chunk 7
/// walks the pool descending then round-robin.
#[test]
fn silent_worker_lonely_key_and_key_space_ends() {
    let mut keys: Vec<Vec<ReducerId>> = (0..16).map(|_| vec![u64::MAX, 0, u64::MAX]).collect();
    keys[0] = vec![7, 0, 7];
    keys[4] = Vec::new();
    keys[5] = Vec::new();
    keys[14] = POOL.iter().rev().copied().filter(|k| *k != 7).collect();
    keys[15] = (0..12).map(|i| [0, 2, u64::MAX][i % 3]).collect();
    check(&tagged(keys));
    check(&[]);
}
