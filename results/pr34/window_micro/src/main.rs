//! Serial single-attribute window-kernel buckets, timed through
//! `kernel::execute_into` into the count sink: an Overlaps∘Before bucket
//! sized like `kernel_hybrid`, a two-relation `before` bucket, a Q1 chain
//! and a Q0 chain. Prints the fastest of several runs in ms and
//! `count + work` (which must match across trees).
//!
//! Run: `cargo run --release --offline`.

use ij_core::executor::Candidates;
use ij_core::kernel::{self, KernelConfig};
use ij_interval::AllenPredicate::*;
use ij_interval::{Interval, TupleId};
use ij_query::JoinQuery;
use std::time::Instant;

fn bucket(counts: &[usize], lens: &[(i64, i64)], span: i64, seed: u64) -> Candidates {
    let mut x = seed;
    let mut next = move |b: i64| { x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); ((x >> 33) % b as u64) as i64 };
    let mut c = Candidates::new(counts.len());
    for (r, (&n, &(lo, hi))) in counts.iter().zip(lens).enumerate() {
        for t in 0..n {
            let s = next(span);
            c.push(r, Interval::new(s, s + lo + next(hi - lo)).expect("len >= 0"), t as TupleId);
        }
    }
    c.finish();
    c
}

fn main() {
    let cases: Vec<(&str, JoinQuery, Candidates, usize)> = vec![
        ("hybrid", JoinQuery::chain(&[Overlaps, Before]).expect("chain"), bucket(&[3000, 450, 240], &[(0, 100), (0, 100), (0, 600)], 4000, 19), 5),
        ("seq", JoinQuery::chain(&[Before]).unwrap(), bucket(&[1200, 1200], &[(0, 40), (0, 40)], 24000, 11), 20),
        ("q1", JoinQuery::chain(&[Overlaps, Overlaps]).unwrap(), bucket(&[3000, 3000, 3000], &[(1, 100), (1, 100), (1, 100)], 30000, 7), 20),
        ("q0", JoinQuery::chain(&[Overlaps, Contains, Overlaps]).unwrap(), bucket(&[2000, 2000, 2000, 2000], &[(1, 100), (1, 100), (1, 100), (1, 100)], 10000, 5), 10),
    ];
    for (name, q, c, iters) in &cases {
        let mut best = f64::MAX;
        let mut out = 0u64;
        for _ in 0..*iters {
            let t = Instant::now();
            let mut count = 0u64;
            let rep = kernel::execute_into(q, c, &KernelConfig::serial(), |_| true, &mut count);
            let dt = t.elapsed().as_secs_f64();
            out = count + rep.work;
            best = best.min(dt);
        }
        println!("{name} {:.3}ms {out}", best * 1e3);
    }
}
