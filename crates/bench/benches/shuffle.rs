//! Shuffle micro-benchmarks: grouping throughput of the key-major segment
//! splice at 10^5–10^7 pairs, under uniform and zipf-skewed key
//! distributions (the group keeps its historical `merge_sorted_runs` id so
//! recorded baselines still compare), the map-side emit path at 16 and 216
//! keys, and the end-to-end reduce path with and without a fault plan
//! (i.e. the zero-clone move path vs. the clone-per-attempt path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ij_datagen::Distribution;
use ij_mapreduce::{
    merge_keyed_runs, ClusterConfig, CostModel, Emitter, Engine, FaultPlan, KeyedRun, ReduceCtx,
    ReducerId, ValueStream,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KEYS: i64 = 1024;

/// One map worker's output for `pairs`, built the way the map phase
/// builds it.
fn emit_run(pairs: &[(ReducerId, u64)]) -> KeyedRun<u64> {
    let mut em = Emitter::default();
    for &(k, v) in pairs {
        em.emit(k, v);
    }
    em.finish().0
}

/// Generates `n` intermediate pairs with the given key distribution, split
/// into `workers` key-grouped runs — the shape the map phase hands to the
/// shuffle.
fn make_runs(n: usize, workers: usize, dist: Distribution, seed: u64) -> Vec<KeyedRun<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs: Vec<(ReducerId, u64)> = (0..n)
        .map(|i| (dist.sample(&mut rng, 0, KEYS - 1) as ReducerId, i as u64))
        .collect();
    pairs.chunks(n.div_ceil(workers)).map(emit_run).collect()
}

fn bench_grouping(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_sorted_runs");
    for &n in &[100_000usize, 1_000_000, 10_000_000] {
        for (name, dist) in [
            ("uniform", Distribution::Uniform),
            ("zipf", Distribution::Zipf { theta: 2.0 }),
        ] {
            let runs = make_runs(n, 8, dist, 42);
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(name, n), &runs, |b, runs| {
                b.iter(|| {
                    let (buckets, stats) = merge_keyed_runs(runs.clone());
                    assert_eq!(stats.pairs, n as u64);
                    criterion::black_box(buckets)
                })
            });
        }
    }
    group.finish();
}

/// The map worker's side of the shuffle: 1 M pairs through one `Emitter`.
/// 16 keys is the 1-D partitioning of RCCIS; 216 is All-Matrix's 6×6×6
/// cell space. Round-robin emission misses the last-key fast path on
/// every pair (what replicating an interval to consecutive partitions
/// does); random keys miss it almost always.
fn bench_map_emit(c: &mut Criterion) {
    const PAIRS: usize = 1_000_000;
    let mut group = c.benchmark_group("map_emit");
    group.throughput(Throughput::Elements(PAIRS as u64));
    for keys in [16u64, 216] {
        let mut rng = StdRng::seed_from_u64(42);
        let random: Vec<(ReducerId, u64)> = (0..PAIRS as u64)
            .map(|i| {
                let k = Distribution::Uniform.sample(&mut rng, 0, keys as i64 - 1);
                (k as ReducerId, i)
            })
            .collect();
        let round_robin: Vec<(ReducerId, u64)> = (0..PAIRS as u64).map(|i| (i % keys, i)).collect();
        for (order, pairs) in [("random", random), ("round_robin", round_robin)] {
            group.bench_function(format!("{keys}_keys_{order}"), |b| {
                b.iter(|| {
                    let run = emit_run(&pairs);
                    assert_eq!(run.len(), keys as usize);
                    criterion::black_box(run)
                })
            });
        }
    }
    group.finish();
}

fn bench_reduce_ownership(c: &mut Criterion) {
    let input: Vec<u64> = (0..1_000_000u64).collect();
    let engine = |faults: bool| {
        let e = Engine::new(ClusterConfig {
            reducer_slots: 16,
            worker_threads: 8,
            cost: CostModel::default(),
            ..ClusterConfig::default()
        });
        if faults {
            // An (empty) attached plan forces the clone-per-attempt path.
            e.with_faults(FaultPlan::new())
        } else {
            e
        }
    };
    let run = |e: &Engine| {
        e.run_job(
            "bench-reduce",
            &input,
            |&n: &u64, em: &mut Emitter<u64>| em.emit(n % 64, n),
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                out.push((ctx.key, vs.sum()));
            },
        )
        .unwrap()
    };

    let mut group = c.benchmark_group("reduce_path");
    group.throughput(Throughput::Elements(input.len() as u64));
    let zero_clone = engine(false);
    group.bench_function("zero_clone", |b| {
        b.iter(|| criterion::black_box(run(&zero_clone)))
    });
    let cloning = engine(true);
    group.bench_function("fault_plan_clone", |b| {
        b.iter(|| criterion::black_box(run(&cloning)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_grouping,
    bench_map_emit,
    bench_reduce_ownership
);
criterion_main!(benches);
