//! The 16 join buckets of a `perf/` workload's RCCIS cycle, replayed
//! serially: per partition of 16 equal-width ones, every interval whose
//! `split` range covers it, under the partition's owner window. Prints the
//! fastest of `reps` runs of `Candidates::finish` over every bucket and of
//! `kernel::execute_into` into the count sink, and the work and count
//! (which must match across trees).
//!
//! Run: `cargo run --release --offline -- <q1_sparse|q1_dense|q0_dense> [seed] [reps]`.

use ij_core::executor::Candidates;
use ij_core::kernel::{self, KernelConfig};
use ij_datagen::synth::SynthConfig;
use ij_interval::AllenPredicate::*;
use ij_interval::{ops, Partitioning};
use ij_query::JoinQuery;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map_or("q1_sparse", String::as_str);
    let seed: u64 = args.get(2).map_or(42, |s| s.parse().expect("a seed"));
    let reps: usize = args.get(3).map_or(5, |s| s.parse().expect("a count"));
    let (q, m, n, t_max) = match which {
        "q1_sparse" => (JoinQuery::chain(&[Overlaps, Overlaps]), 3, 300_000, 20_000_000),
        "q1_dense" => (JoinQuery::chain(&[Overlaps, Overlaps]), 3, 50_000, 100_000),
        "q0_dense" => (JoinQuery::chain(&[Overlaps, Contains, Overlaps]), 4, 22_000, 100_000),
        _ => panic!("unknown workload {which}"),
    };
    let q = q.expect("a valid chain");
    let rels: Vec<_> = (0..m)
        .map(|r| {
            let cfg = SynthConfig { t_max, ..SynthConfig::table1(n, seed + r as u64) };
            cfg.generate(format!("R{r}"))
        })
        .collect();
    let part = Partitioning::equi_width(0, t_max, 16).expect("16 partitions");
    let b = part.boundaries().to_vec();
    let mut unsorted: Vec<Candidates> = (0..16).map(|_| Candidates::new(m)).collect();
    for (r, rel) in rels.iter().enumerate() {
        for t in rel.tuples() {
            for i in ops::split(t.interval(), &part) {
                unsorted[i].push(r, t.interval(), t.id);
            }
        }
    }
    let members: Vec<(usize, usize)> = (0..m).map(|r| (r, 0)).collect();
    let (mut sort_s, mut exec_s, mut total) = (f64::MAX, f64::MAX, (0u64, 0u64));
    for _ in 0..reps {
        let mut buckets = unsorted.clone();
        let t = Instant::now();
        buckets.iter_mut().for_each(Candidates::finish);
        sort_s = sort_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (mut work, mut count) = (0u64, 0u64);
        for (p, c) in buckets.iter().enumerate() {
            let owner = [(b[p], b[p + 1] - 1, &members[..])];
            work += kernel::execute_into(&q, c, &KernelConfig::serial(), &owner, &mut count).work;
        }
        exec_s = exec_s.min(t.elapsed().as_secs_f64());
        total = (work, count);
    }
    println!(
        "{which} seed {seed} sort {:.2} ms exec {:.2} ms work {} count {}",
        sort_s * 1e3,
        exec_s * 1e3,
        total.0,
        total.1
    );
}
