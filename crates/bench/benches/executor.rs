//! Benchmarks of the reducer-side join as the reducers run it — the
//! dispatching kernel on one thread — on the chain shapes that motivate
//! the start-ordered binding order (see `ij_core::executor`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ij_core::executor::Candidates;
use ij_core::kernel::{self, KernelConfig};
use ij_interval::AllenPredicate::{Before, Contains, Overlaps};
use ij_interval::Interval;
use ij_query::JoinQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn candidates(m: usize, n: usize, span: i64, max_len: i64, seed: u64) -> Candidates {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Candidates::new(m);
    for r in 0..m {
        for t in 0..n as u32 {
            let s = rng.gen_range(0..span);
            c.push(
                r,
                Interval::new(s, s + rng.gen_range(0..=max_len)).unwrap(),
                t,
            );
        }
    }
    c.finish();
    c
}

fn serial_count(q: &JoinQuery, cands: &Candidates) -> u64 {
    let mut outs = 0u64;
    kernel::execute(q, cands, &KernelConfig::serial(), |_| true, |_| outs += 1);
    outs
}

fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor");

    for &n in &[500usize, 2000] {
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let cands = candidates(3, n, 50_000, 100, 7);
        group.bench_with_input(BenchmarkId::new("overlap_chain_3way", n), &n, |b, _| {
            b.iter(|| serial_count(&q, &cands))
        });
    }

    // Sequence joins have inherently unbounded windows; output-sized work.
    let q = JoinQuery::chain(&[Before]).unwrap();
    let cands = candidates(2, 400, 5_000, 50, 8);
    group.bench_function("before_2way_400", |b| b.iter(|| serial_count(&q, &cands)));

    // Containment chains exercise the both-sided windows.
    let q = JoinQuery::chain(&[Contains, Contains]).unwrap();
    let cands = candidates(3, 1000, 20_000, 400, 9);
    group.bench_function("contains_chain_1k", |b| b.iter(|| serial_count(&q, &cands)));

    group.finish();
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
