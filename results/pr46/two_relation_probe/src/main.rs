//! Two-relation buckets timed per kernel: the dispatched kernel
//! (`kernel::execute_into`), and the window scan and the event sweep
//! forced (`kernel::execute_kind_into`), each serial into the count sink, on
//! five bucket shapes under the four overlaps/contains predicates. Prints
//! one row per shape and predicate: the fastest of 41 runs in ms per
//! column, the binding count (which must match across columns and trees)
//! and the work of the dispatched kernel and of the window scan.
//!
//! Shapes (`n` intervals per relation, starts uniform over `span`):
//! `overlap_heavy` and `materialize` are the kernel bench's groups of
//! those names (long outers, inners of 0–30 and of 7 500–15 000 ticks);
//! `long_inner` swaps `overlap_heavy`'s relations; `uniform` and `dense`
//! draw both relations' lengths from 1–100 over 10 and 1 ticks per
//! interval.
//!
//! Run: `cargo run --release --offline`.

use ij_core::executor::Candidates;
use ij_core::kernel::{self, KernelConfig, KernelKind};
use ij_interval::AllenPredicate::{self, *};
use ij_interval::{Interval, TupleId};
use ij_query::JoinQuery;
use std::time::Instant;

/// `n` intervals per relation, relation `r`'s lengths in `lens[r]`,
/// starts in `0..span`, from an inline LCG.
fn bucket(n: usize, lens: [(i64, i64); 2], span: i64, seed: u64) -> Candidates {
    let mut x = seed;
    let mut next = move |b: i64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) % b as u64) as i64
    };
    let mut c = Candidates::new(2);
    for t in 0..n {
        for (r, &(lo, hi)) in lens.iter().enumerate() {
            let s = next(span);
            c.push(r, Interval::new(s, s + lo + next(hi - lo)).unwrap(), t as TupleId);
        }
    }
    c.finish();
    c
}

/// The fastest wall time in ms of 41 runs of `run` (the least disturbed
/// by other work on the host), and its last result.
fn timed(mut run: impl FnMut() -> (u64, u64)) -> (f64, (u64, u64)) {
    let mut best = f64::MAX;
    let mut out = (0, 0);
    for _ in 0..41 {
        let t = Instant::now();
        out = run();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

fn main() {
    let n = 3000;
    let span = 10 * n as i64;
    let long = (span / 4, span / 2);
    let shapes = [
        ("overlap_heavy", bucket(n, [long, (0, 30)], span, 7)),
        ("materialize", bucket(n, [long, (7_500, 15_000)], span, 7)),
        ("long_inner", bucket(n, [(0, 30), long], span, 7)),
        ("uniform", bucket(n, [(1, 100), (1, 100)], span, 11)),
        ("dense", bucket(n, [(1, 100), (1, 100)], n as i64, 13)),
    ];
    let preds: [AllenPredicate; 4] = [Overlaps, OverlappedBy, Contains, ContainedBy];
    println!("shape pred dispatched_ms window_ms event_ms count dispatched_work window_work");
    let serial = KernelConfig::serial();
    for (name, c) in &shapes {
        for p in preds {
            let q = JoinQuery::chain(&[p]).unwrap();
            let (dispatched, (count, work)) = timed(|| {
                let mut count = 0u64;
                let rep = kernel::execute_into(&q, c, &serial, &[], &mut count);
                (count, rep.work)
            });
            let forced = |kind| {
                timed(|| {
                    let mut count = 0u64;
                    let rep = kernel::execute_kind_into(kind, &q, c, &serial, &[], &mut count);
                    (count, rep.unwrap().work)
                })
            };
            let (window, (wc, window_work)) = forced(KernelKind::Window);
            let (event, (ec, _)) = forced(KernelKind::EventSweep);
            assert_eq!((wc, ec), (count, count), "{name} {p}");
            println!("{name} {p} {dispatched:.3} {window:.3} {event:.3} {count} {work} {window_work}");
        }
    }
}
