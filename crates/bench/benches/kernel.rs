//! Join-kernel micro-benchmarks: the dispatching kernel (pair sweep /
//! event sweep / window scan) against the `holds`-based windowed
//! backtracking reference (`windowed_backtracking`) and two single-node
//! oracles, on the bucket shapes reducers actually see.
//!
//! `overlap_heavy` is the case the pair sweep targets: long outer
//! intervals whose start windows cover a large fraction of the inner list
//! while only a thin end-window slice actually matches — exactly where the
//! backtracking path degrades to wide scans with per-candidate `holds`
//! re-checks. `sequence_heavy` exercises the window scan on `before`
//! chains, where it is a merge join, and `hybrid` on an
//! `overlaps`∘`before` bucket sized like a `q4_hybrid_pasm` cell, where
//! output enumeration dominates. The dispatching kernel must beat
//! `windowed_backtracking` by ≥2× on `overlap_heavy` (checked in CI via
//! the BENCH_JSON summary).
//!
//! `kernel_materialize` sends an overlap-heavy bucket whose inners are as
//! long as its outers (~2.4 M matches — `overlap_heavy`'s own bucket emits
//! ~3 k) into the row sink (`Tuples`, what a materializing reducer passes)
//! beside the count sink, serial and on two chunks: the difference between
//! the two sinks is output assembly — one append of `arity` ids per
//! binding and one buffer append per chunk — which no other group times.
//!
//! `event_sweep` pits the merged-event-list sweep against the window
//! scan (`dual_window_sweep`) on an overlap-heavy arity-3 colocation
//! *clique* — the multi-way shape the event kernel targets, where
//! per-level binary searches and wide windows dominate the window scan
//! while the gapless active arrays stay small. The event sweep must beat
//! `dual_window_sweep` by ≥2× here (same BENCH_JSON trend gate). Its
//! `front_loaded_*` entries time a clique bucket with Zipf(2) starts at
//! the default 4 096-candidate heavy threshold, serial and on two
//! threads: most of its work sits in its first events, so the second
//! thread pays only if the chunk runner's blocks spread that front.
//!
//! `kernel_composite` times the window descent's multi-slot case: one
//! cascade-stage bucket of 2-slot composites × base records under a
//! primary `overlaps` and an extra `before` (the composite join of the
//! cascade, FCTS and Gen-Matrix), sized at the default 4 096-record heavy
//! threshold, serial and on two chunks through the same runner as the
//! single-attribute kernels.
//!
//! `kernel_owned` times a bucket under an owner: an All-Rep bucket of
//! `R1 before R2 ∧ R1 before R3`, a query with no provably right-most
//! relation, whose replicated relations start anywhere up to the cell's
//! window and whose owner keeps a binding only where its right-most start
//! lies in the window — about 40 % of the bindings the kernel would
//! enumerate without it are not owned. Serial and on two chunks, its count
//! is asserted against a nested loop filtered by the ownership rule.
//!
//! `kernel_sparse_chain` times a bucket of `q1_sparse_shuffle`'s shape
//! from its unsorted candidates: `Candidates::finish` plus `execute_into`
//! of the Q1 chain (`R1 overlaps R2 overlaps R3`) over 3 × 19 000
//! intervals of length 1–100 spread over 1.25 M ticks, under one owner
//! window, serial and on two chunks. The join finds few bindings, so the
//! sort and the window searches are most of its time. Its count is
//! asserted against the `holds` reference filtered by the ownership rule.
//!
//! `schedule_bench` drives the whole engine (map → shuffle → reduce) on a
//! skewed clique bucket mix — one dominant hot bucket plus a light tail —
//! at 8 worker threads, twice: `skew` lets the heavy bucket take up to 8
//! threads (`intra_reduce_threads: 8`), `serial` grants every bucket one
//! (`intra_reduce_threads: 1`). The multi-thread grant should beat the
//! serial floor on the reduce makespan (checked in CI via the BENCH_JSON
//! trend; not asserted at runtime since single-core hosts cannot show it).
//! Outputs are verified byte-identical across both before timing.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use ij_core::executor::Candidates;
use ij_core::kernel::composite::CompositeJoin;
use ij_core::kernel::{self, KernelConfig, KernelKind};
use ij_core::oracle::reference_join;
use ij_core::records::{CompRec, OutRec};
use ij_core::{OutputMode, Tuples};
use ij_interval::{Interval, TupleId};
use ij_mapreduce::{ClusterConfig, Emitter, Engine, ReduceCtx, ValueStream};
use ij_query::JoinQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn iv(s: i64, e: i64) -> Interval {
    Interval::new(s, e).unwrap()
}

/// An overlap-heavy bucket: `n` long outer intervals (relation 0) and `n`
/// inner intervals (relation 1) of lengths in `inner_len`, over a span of
/// `10 n`. With short inners (`0..30`) most start inside an outer (huge
/// start windows) but end inside it too, failing `overlaps`' `e2 > e1` end
/// range — the join is highly selective while the windowed scan stays
/// quadratic-ish. With inners as long as the outers about one pair in four
/// overlaps and the bucket's cost is its output.
fn overlap_bucket(n: usize, seed: u64, inner_len: std::ops::Range<i64>) -> Candidates {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = 10 * n as i64;
    let mut c = Candidates::new(2);
    for t in 0..n {
        let s = rng.gen_range(0..span);
        c.push(
            0,
            iv(s, s + rng.gen_range(span / 4..span / 2)),
            t as TupleId,
        );
        let s2 = rng.gen_range(0..span);
        c.push(
            1,
            iv(s2, s2 + rng.gen_range(inner_len.clone())),
            t as TupleId,
        );
    }
    c.finish();
    c
}

/// A sequence-heavy bucket: two relations of short intervals spread over a
/// wide span, joined by `before` (half-open windows).
fn sequence_bucket(n: usize, seed: u64) -> Candidates {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = 20 * n as i64;
    let mut c = Candidates::new(2);
    for t in 0..n {
        for r in 0..2 {
            let s = rng.gen_range(0..span);
            c.push(r, iv(s, s + rng.gen_range(0..40)), t as TupleId);
        }
    }
    c.finish();
    c
}

/// Nested-loop oracle: every pair, `holds` per pair.
fn nested_loop_count(q: &JoinQuery, c: &Candidates) -> u64 {
    let pred = q.conditions()[0].pred;
    let mut count = 0u64;
    for &(a, _) in c.list(0) {
        for &(b, _) in c.list(1) {
            if pred.holds(a, b) {
                count += 1;
            }
        }
    }
    count
}

/// Classic Brinkhoff-style plane-sweep oracle over *intersecting* pairs
/// (valid for colocation predicates, whose matches always intersect as
/// closed intervals), filtered by the predicate.
fn plane_sweep_oracle_count(q: &JoinQuery, c: &Candidates) -> u64 {
    let pred = q.conditions()[0].pred;
    let (l0, l1) = (c.list(0), c.list(1));
    let mut count = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    let scan = |a: Interval, list: &[(Interval, TupleId)], from: usize, left: bool| {
        let mut n = 0u64;
        for &(b, _) in &list[from..] {
            if b.start() > a.end() {
                break;
            }
            let ok = if left {
                pred.holds(a, b)
            } else {
                pred.holds(b, a)
            };
            if ok {
                n += 1;
            }
        }
        n
    };
    while i < l0.len() && j < l1.len() {
        if l0[i].0.start() <= l1[j].0.start() {
            count += scan(l0[i].0, l1, j, true);
            i += 1;
        } else {
            count += scan(l1[j].0, l0, i, false);
            j += 1;
        }
    }
    count
}

/// Match count of the dispatching kernel under `cfg`, folded per chunk by
/// the count sink (serial under [`KernelConfig::serial`]).
fn parallel_count(q: &JoinQuery, cands: &Candidates, cfg: &KernelConfig) -> u64 {
    let mut count = 0u64;
    kernel::execute_into(q, cands, cfg, &[], &mut count);
    count
}

/// `count`, asserted equal to the independently counted `expect` — what
/// every kernel entry of a group returns from its timed body.
fn checked(count: u64, expect: u64) -> u64 {
    assert_eq!(count, expect);
    count
}

/// Match count of the dispatching kernel on one thread, through the
/// closure form.
fn serial_count(q: &JoinQuery, cands: &Candidates) -> u64 {
    let mut count = 0u64;
    kernel::execute(q, cands, &KernelConfig::serial(), |_| true, |_| count += 1);
    count
}

/// Match count of the `holds`-based reference.
fn reference_count(q: &JoinQuery, cands: &Candidates) -> u64 {
    let mut count = 0u64;
    reference_join(q, cands, |_| count += 1);
    count
}

/// Match count of `kind` forced on a query inside its domain.
fn forced_count(kind: KernelKind, q: &JoinQuery, cands: &Candidates) -> u64 {
    let mut count = 0u64;
    kernel::execute_kind(kind, q, cands, &[], |_| count += 1)
        .expect("bench query lies in the forced kernel's domain");
    count
}

/// Adds `windowed_backtracking` (the `holds` reference),
/// `dispatching_kernel` (the closure form, one binding at a time) and
/// `dispatching_kernel_count_sink` (the serial count sink, which adds each
/// run's length) on one bucket to `group`, each asserting the
/// independently counted `expect`.
fn bench_reference_and_dispatch(
    group: &mut BenchmarkGroup<'_>,
    q: &JoinQuery,
    cands: &Candidates,
    expect: u64,
) {
    group.bench_function("windowed_backtracking", |b| {
        b.iter(|| checked(reference_count(q, cands), expect))
    });
    group.bench_function("dispatching_kernel", |b| {
        b.iter(|| checked(serial_count(q, cands), expect))
    });
    let serial = KernelConfig::serial();
    group.bench_function("dispatching_kernel_count_sink", |b| {
        b.iter(|| checked(parallel_count(q, cands, &serial), expect))
    });
}

fn bench_overlap_heavy(c: &mut Criterion) {
    let n = 3000;
    let q = JoinQuery::chain(&[ij_interval::AllenPredicate::Overlaps]).unwrap();
    let cands = overlap_bucket(n, 7, 0..30);
    let expect = nested_loop_count(&q, &cands);

    let mut group = c.benchmark_group("kernel_overlap_heavy");
    group.throughput(Throughput::Elements((2 * n) as u64));
    group.bench_function("nested_loop_oracle", |b| {
        b.iter(|| criterion::black_box(nested_loop_count(&q, &cands)))
    });
    group.bench_function("plane_sweep_oracle", |b| {
        b.iter(|| criterion::black_box(plane_sweep_oracle_count(&q, &cands)))
    });
    bench_reference_and_dispatch(&mut group, &q, &cands, expect);
    // The parallel entries go through the count sink, as Count-mode
    // reducers do: a reintroduced per-chunk row buffer shows up here.
    for threads in [2, 4] {
        let cfg = KernelConfig {
            threads,
            parallel_threshold: 0,
        };
        group.bench_function(format!("dispatching_kernel_parallel{threads}"), |b| {
            b.iter(|| checked(parallel_count(&q, &cands, &cfg), expect))
        });
    }
    group.finish();
}

fn bench_materialize(c: &mut Criterion) {
    let n = 3000;
    let q = JoinQuery::chain(&[ij_interval::AllenPredicate::Overlaps]).unwrap();
    let cands = overlap_bucket(n, 7, 7_500..15_000);
    let expect = nested_loop_count(&q, &cands);
    assert!(
        expect > 500_000,
        "materialize workload too sparse: {expect}"
    );

    let mut group = c.benchmark_group("kernel_materialize");
    group.throughput(Throughput::Elements((2 * n) as u64));
    for (label, threads) in [("serial", 1), ("parallel2", 2)] {
        let cfg = KernelConfig {
            threads,
            parallel_threshold: 0,
        };
        group.bench_function(format!("count_sink_{label}"), |b| {
            b.iter(|| checked(parallel_count(&q, &cands, &cfg), expect))
        });
        group.bench_function(format!("row_sink_{label}"), |b| {
            b.iter(|| {
                let mut rows = Tuples::new(2);
                kernel::execute_into(&q, &cands, &cfg, &[], &mut rows);
                checked(rows.len() as u64, expect);
                rows
            })
        });
    }
    group.finish();
}

fn bench_sequence_heavy(c: &mut Criterion) {
    let n = 1200;
    let q = JoinQuery::chain(&[ij_interval::AllenPredicate::Before]).unwrap();
    let cands = sequence_bucket(n, 11);
    let expect = nested_loop_count(&q, &cands);

    let mut group = c.benchmark_group("kernel_sequence_heavy");
    group.throughput(Throughput::Elements((2 * n) as u64));
    group.bench_function("nested_loop_oracle", |b| {
        b.iter(|| criterion::black_box(nested_loop_count(&q, &cands)))
    });
    bench_reference_and_dispatch(&mut group, &q, &cands, expect);
    group.finish();
}

/// A three-relation bucket: `counts[r]` intervals of relation `r` with
/// starts drawn by `start` and lengths in `lens[r]`.
fn three_way_bucket(
    counts: [usize; 3],
    lens: [std::ops::Range<i64>; 3],
    start: impl Fn(&mut StdRng) -> i64,
    seed: u64,
) -> Candidates {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Candidates::new(3);
    for (r, (n, len)) in counts.into_iter().zip(lens).enumerate() {
        for t in 0..n {
            let s = start(&mut rng);
            c.push(r, iv(s, s + rng.gen_range(len.clone())), t as TupleId);
        }
    }
    c.finish();
    c
}

/// `overlaps`∘`before` count by pair enumeration plus a sorted-starts
/// suffix count — independent of every kernel.
fn hybrid_expected_count(c: &Candidates) -> u64 {
    use ij_interval::AllenPredicate::Overlaps;
    let starts: Vec<i64> = c.list(2).iter().map(|(iv, _)| iv.start()).collect();
    let mut count = 0u64;
    for &(a, _) in c.list(0) {
        for &(b, _) in c.list(1) {
            if Overlaps.holds(a, b) {
                count += (starts.len() - starts.partition_point(|&s| s <= b.end())) as u64;
            }
        }
    }
    count
}

fn bench_hybrid(c: &mut Criterion) {
    use ij_interval::AllenPredicate::{Before, Overlaps};
    let counts = [3000, 450, 240];
    let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
    // Sized like one `q4_hybrid_pasm` cell after pruning: skewed
    // cardinalities joined at a near-100 % candidate hit ratio, so
    // enumerating the ~10⁶ outputs — not filtering — is the cost.
    let uniform = |rng: &mut StdRng| rng.gen_range(0..4000);
    let cands = three_way_bucket(counts, [0..100, 0..100, 0..600], uniform, 19);
    let expect = hybrid_expected_count(&cands);
    assert!(expect > 100_000, "hybrid workload too sparse: {expect}");

    let mut group = c.benchmark_group("kernel_hybrid");
    group.throughput(Throughput::Elements(counts.iter().sum::<usize>() as u64));
    bench_reference_and_dispatch(&mut group, &q, &cands, expect);
    group.finish();
}

/// A cascade stage's bucket: `n` composites over (A, B) on side 0 — short
/// A intervals, long B ones — and `n` base records of C on side 1, over a
/// span of `10 n`.
fn stage_bucket(n: usize, seed: u64) -> Vec<CompRec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let span = 10 * n as i64;
    let mut at = |len: std::ops::Range<i64>| {
        let s = rng.gen_range(0..span);
        iv(s, s + rng.gen_range(len))
    };
    let mut recs = Vec::with_capacity(2 * n);
    for t in 0..n as TupleId {
        let ivs = vec![at(0..100), at(200..1_200)];
        recs.push(CompRec {
            side: 0,
            tids: vec![t, t],
            ivs,
        });
    }
    for t in 0..n as TupleId {
        let ivs = vec![at(0..400)];
        recs.push(CompRec {
            side: 1,
            tids: vec![t],
            ivs,
        });
    }
    recs
}

fn bench_owned(c: &mut Criterion) {
    use ij_interval::AllenPredicate::Before;
    let q = JoinQuery::new(
        3,
        vec![
            ij_query::Condition::whole(0, Before, 1),
            ij_query::Condition::whole(0, Before, 2),
        ],
    )
    .unwrap();
    let uniform = |rng: &mut StdRng| rng.gen_range(0..4000);
    let cands = three_way_bucket([600, 300, 300], [0..200, 0..200, 0..200], uniform, 29);
    // The cell's start window: everything in the bucket starts at or
    // before its end, as a replicated relation's intervals do.
    let members = [(0, 0), (1, 0), (2, 0)];
    let owner = [(2900, 4000, &members[..])];
    let (mut all, mut expect) = (0u64, 0u64);
    for &(a, _) in cands.list(0) {
        for &(b, _) in cands.list(1) {
            for &(c, _) in cands.list(2) {
                if Before.holds(a, b) && Before.holds(a, c) {
                    all += 1;
                    let last = a.start().max(b.start()).max(c.start());
                    expect += (2900..=4000).contains(&last) as u64;
                }
            }
        }
    }
    let unowned = (all - expect) as f64 / all as f64;
    assert!((0.35..0.45).contains(&unowned), "unowned share {unowned}");

    let mut group = c.benchmark_group("kernel_owned");
    group.throughput(Throughput::Elements(1200));
    for (label, threads) in [("serial", 1), ("parallel2", 2)] {
        let cfg = KernelConfig {
            threads,
            parallel_threshold: 0,
        };
        group.bench_function(format!("all_rep_cell_{label}"), |b| {
            b.iter(|| {
                let mut count = 0u64;
                kernel::execute_into(&q, &cands, &cfg, &owner, &mut count);
                checked(count, expect)
            })
        });
    }
    group.finish();
}

fn bench_sparse_chain(c: &mut Criterion) {
    use ij_interval::AllenPredicate::Overlaps;
    let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
    let (n, span) = (19_000, 1_250_000);
    let mut rng = StdRng::seed_from_u64(37);
    let mut unsorted = Candidates::new(3);
    for r in 0..3 {
        for t in 0..n {
            // A few start before the cell, as a crossing interval does.
            let s = rng.gen_range(-100..span);
            unsorted.push(r, iv(s, s + rng.gen_range(1..=100)), t);
        }
    }
    let members = [(0, 0), (1, 0), (2, 0)];
    let owner = [(0, span - 1, &members[..])];
    let mut sorted = unsorted.clone();
    sorted.finish();
    let mut expect = 0u64;
    reference_join(&q, &sorted, |a| {
        let last = a.iter().map(|(iv, _)| iv.start()).max().unwrap_or(i64::MIN);
        expect += (0..span).contains(&last) as u64;
    });
    assert!(expect > 1_000, "sparse chain too sparse: {expect}");

    let mut group = c.benchmark_group("kernel_sparse_chain");
    group.throughput(Throughput::Elements(3 * n as u64));
    for (label, threads) in [("serial", 1), ("parallel2", 2)] {
        let cfg = KernelConfig {
            threads,
            parallel_threshold: 0,
        };
        group.bench_function(format!("finish_and_join_{label}"), |b| {
            b.iter(|| {
                let mut cands = unsorted.clone();
                cands.finish();
                let mut count = 0u64;
                kernel::execute_into(&q, &cands, &cfg, &owner, &mut count);
                checked(count, expect)
            })
        });
    }
    group.finish();
}

fn bench_composite(c: &mut Criterion) {
    use ij_interval::AllenPredicate::{Before, Overlaps};
    let n = 2048;
    let recs = stage_bucket(n, 23);
    // B overlaps C routes the stage; A before C is its extra check.
    let stage = CompositeJoin {
        sides: 2,
        conditions: vec![((0, 1), Overlaps, (1, 0)), ((0, 0), Before, (1, 0))],
        gather: vec![(0, 0), (0, 1), (1, 0)],
        mode: OutputMode::Count,
        order_by: None,
    };
    let (comps, base) = recs.split_at(n);
    let expect = (comps.iter())
        .map(|a| {
            (base.iter())
                .filter(|b| Overlaps.holds(a.ivs[1], b.ivs[0]) && Before.holds(a.ivs[0], b.ivs[0]))
                .count() as u64
        })
        .sum::<u64>();
    assert!(expect > 10_000, "composite workload too sparse: {expect}");

    let mut group = c.benchmark_group("kernel_composite");
    group.throughput(Throughput::Elements(recs.len() as u64));
    for (label, threads) in [("serial", 1), ("parallel2", 2)] {
        let cfg = KernelConfig {
            threads,
            parallel_threshold: 0,
        };
        group.bench_function(format!("cascade_stage_{label}"), |b| {
            b.iter(|| {
                let mut count = OutRec::Count(0);
                stage.join_into(&recs, &cfg, &[], &mut count);
                checked(count.tuples(), expect)
            })
        });
    }
    group.finish();
}

/// A satisfiable arity-3 colocation clique: r0 ov r1, r1 ⊇ r2, r0 ov r2.
/// Every pair is directly conditioned, so the dispatcher routes the
/// bucket to the event sweep.
fn clique3() -> JoinQuery {
    use ij_interval::AllenPredicate::{Contains, Overlaps};
    JoinQuery::new(
        3,
        vec![
            ij_query::Condition::whole(0, Overlaps, 1),
            ij_query::Condition::whole(1, Contains, 2),
            ij_query::Condition::whole(0, Overlaps, 2),
        ],
    )
    .unwrap()
}

/// An overlap-heavy arity-3 bucket: short-to-medium intervals over a
/// wide span, nested lengths (r0 longest, r2 shortest) so the clique
/// actually fires, with skewed cardinalities (r0 largest) as reducer
/// buckets typically have. Instantaneous concurrency — the gapless
/// active-array size — stays small while every dual-window binding level
/// still pays four `partition_point` searches per visited tuple; the
/// event sweep replaces all of that with linear scans of the tiny active
/// arrays, and its start-order pruning probes only at r2 starts (the
/// clique forces `s0 < s1 < s2`).
fn clique_bucket(counts: [usize; 3], span: i64, seed: u64) -> Candidates {
    let uniform = |rng: &mut StdRng| rng.gen_range(0..span);
    three_way_bucket(counts, [30..90, 15..60, 0..25], uniform, seed)
}

/// [`clique_bucket`]'s shape with Zipf(2) starts — `span · u²`, as
/// `clique_zipf_count` draws them — so the event sweep's work piles up in
/// its first events: a front-loaded bucket, the case an even cut of the
/// outer range leaves to one thread.
fn zipf_clique_bucket(counts: [usize; 3], span: i64, seed: u64) -> Candidates {
    let zipf = |rng: &mut StdRng| {
        let u: f64 = rng.gen_range(0.0..1.0);
        (span as f64 * u * u) as i64
    };
    three_way_bucket(counts, [30..90, 15..60, 0..25], zipf, seed)
}

/// Triple nested-loop oracle for the clique, with the (0,1) pair check
/// hoisted out of the innermost loop so the count stays tractable.
fn clique_nested_loop_count(q: &JoinQuery, c: &Candidates) -> u64 {
    let conds = q.conditions();
    let pair_conds: Vec<_> = conds
        .iter()
        .filter(|cd| cd.left.rel.idx() < 2 && cd.right.rel.idx() < 2)
        .collect();
    let rest: Vec<_> = conds
        .iter()
        .filter(|cd| cd.left.rel.idx() == 2 || cd.right.rel.idx() == 2)
        .collect();
    let mut count = 0u64;
    for &(a, _) in c.list(0) {
        for &(b, _) in c.list(1) {
            let asg = [a, b, a];
            if !pair_conds.iter().all(|cd| {
                cd.pred
                    .holds(asg[cd.left.rel.idx()], asg[cd.right.rel.idx()])
            }) {
                continue;
            }
            for &(d, _) in c.list(2) {
                let asg = [a, b, d];
                if rest.iter().all(|cd| {
                    cd.pred
                        .holds(asg[cd.left.rel.idx()], asg[cd.right.rel.idx()])
                }) {
                    count += 1;
                }
            }
        }
    }
    count
}

fn bench_event_sweep(c: &mut Criterion) {
    let n = 12000;
    let q = clique3();
    let cands = clique_bucket([6000, 4000, 2000], 8000, 13);
    let expect = clique_nested_loop_count(&q, &cands);
    assert!(expect > 0, "clique workload too sparse");

    let mut group = c.benchmark_group("kernel_event_sweep");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("windowed_backtracking", |b| {
        b.iter(|| checked(reference_count(&q, &cands), expect))
    });
    group.bench_function("dual_window_sweep", |b| {
        b.iter(|| checked(forced_count(KernelKind::Window, &q, &cands), expect))
    });
    group.bench_function("event_sweep", |b| {
        b.iter(|| checked(forced_count(KernelKind::EventSweep, &q, &cands), expect))
    });
    group.bench_function("event_sweep_parallel4", |b| {
        let cfg = KernelConfig {
            threads: 4,
            parallel_threshold: 0,
        };
        b.iter(|| checked(parallel_count(&q, &cands, &cfg), expect))
    });
    // A front-loaded bucket at the default 4 096-candidate heavy
    // threshold, serial and on two threads.
    let zipf = zipf_clique_bucket([2048, 1366, 682], 1000, 13);
    let zipf_expect = clique_nested_loop_count(&q, &zipf);
    assert!(zipf_expect > 0, "front-loaded clique workload too sparse");
    for (label, threads) in [("serial", 1), ("parallel2", 2)] {
        let cfg = KernelConfig {
            threads,
            parallel_threshold: 0,
        };
        group.bench_function(format!("front_loaded_{label}"), |b| {
            b.iter(|| checked(parallel_count(&q, &zipf, &cfg), zipf_expect))
        });
    }
    group.finish();
}

/// One record of the scheduler workload: (reduce bucket, relation,
/// interval endpoints). Bucket 0 carries a `clique_bucket`-shaped heavy
/// mix; the tail buckets get the same shape scaled down ~30×, so the
/// reduce makespan is set by when bucket 0 starts and how many threads it
/// holds — exactly what the schedule controls.
fn skewed_clique_records(light_buckets: u64, seed: u64) -> Vec<(u64, u32, (i64, i64))> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lens = [30i64..90, 15..60, 0..25];
    let mut recs = Vec::new();
    let mut emit_bucket = |rng: &mut StdRng, bucket: u64, counts: [usize; 3], span: i64| {
        for (r, n) in counts.into_iter().enumerate() {
            for _ in 0..n {
                let s = rng.gen_range(0..span);
                let e = s + rng.gen_range(lens[r].clone());
                recs.push((bucket, r as u32, (s, e)));
            }
        }
    };
    emit_bucket(&mut rng, 0, [1200, 800, 400], 4000);
    for b in 1..=light_buckets {
        emit_bucket(&mut rng, b, [40, 26, 14], 400);
    }
    recs
}

/// Runs the clique join over the skewed bucket mix through `engine`,
/// returning per-bucket match counts (key order).
fn run_scheduled(
    engine: &Engine,
    q: &JoinQuery,
    input: &[(u64, u32, (i64, i64))],
) -> Vec<(u64, u64)> {
    engine
        .run_job(
            "schedule-bench",
            input,
            |&(b, r, iv): &(u64, u32, (i64, i64)), e: &mut Emitter<(u32, (i64, i64))>| {
                e.emit(b, (r, iv));
            },
            |ctx: &mut ReduceCtx,
             vs: &mut ValueStream<(u32, (i64, i64))>,
             out: &mut Vec<(u64, u64)>| {
                let mut cands = Candidates::new(3);
                let mut next_id = [0 as TupleId; 3];
                for (r, (s, e)) in vs.by_ref() {
                    let r = r as usize;
                    cands.push(r, iv(s, e), next_id[r]);
                    next_id[r] += 1;
                }
                cands.finish();
                let mut count = 0u64;
                kernel::reduce_into(ctx, q, &cands, &[], &mut count);
                out.push((ctx.key, count));
            },
        )
        .expect("schedule bench job runs")
        .outputs
}

fn sched_engine(intra_reduce_threads: usize) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: 8,
        intra_reduce_threads,
        // Well under the hot bucket's 2,400 pairs and above the light
        // buckets' 80, so exactly one bucket is classified heavy and, with
        // more than one intra-reduce thread, runs on several.
        heavy_bucket_threshold: 1000,
        reduce_memory_budget: None,
    })
}

fn bench_schedule(c: &mut Criterion) {
    let q = clique3();
    let input = skewed_clique_records(15, 17);
    let entries = [("skew", 8), ("serial", 1)];
    // The schedule's contract before any timing: both grant settings
    // produce the same bytes, and the mix really joins.
    let expect = run_scheduled(&sched_engine(1), &q, &input);
    assert!(expect.iter().any(|&(_, n)| n > 0), "clique mix too sparse");
    for (id, intra) in entries {
        assert_eq!(
            run_scheduled(&sched_engine(intra), &q, &input),
            expect,
            "{id} changed output bytes"
        );
    }

    let mut group = c.benchmark_group("schedule_bench");
    group.throughput(Throughput::Elements(input.len() as u64));
    group.sample_size(10);
    for (id, intra) in entries {
        let engine = sched_engine(intra);
        group.bench_function(id, |b| {
            b.iter(|| criterion::black_box(run_scheduled(&engine, &q, &input)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_overlap_heavy,
    bench_materialize,
    bench_sequence_heavy,
    bench_hybrid,
    bench_owned,
    bench_sparse_chain,
    bench_composite,
    bench_event_sweep,
    bench_schedule
);
criterion_main!(benches);
