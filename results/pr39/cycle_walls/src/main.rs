//! Per-cycle walls of `q4_hybrid_pasm` or `clique_zipf_count` (the
//! generator settings, engine and plan of `perf/src/workloads.rs`): for
//! each MR cycle, the median over `runs` ops of its map, shuffle and
//! reduce walls, in ms, plus the cycle's pairs and its `join.candidates`,
//! `join.emitted` and `kernel.active_peak` counters (which must not move
//! between checkouts).
//!
//! Run: `cargo run --release -- <q4|clique> <seed> <runs>` from this
//! directory.

use ij_core::planner::{plan, PlanConfig};
use ij_core::{JoinInput, OutputMode};
use ij_datagen::{Distribution, SynthConfig};
use ij_interval::AllenPredicate::{Before, Contains, Overlaps};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{ClusterConfig, Engine};
use ij_query::{Condition, JoinQuery};
use std::collections::BTreeMap;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| "q4".into());
    let seed: u64 = args.next().map_or(42, |s| s.parse().unwrap());
    let runs: usize = args.next().map_or(31, |s| s.parse().unwrap());
    let table1 = |n: usize, r: u64| SynthConfig::table1(n, seed + r);
    let (q, configs, prune_hybrid) = match workload.as_str() {
        "q4" => {
            let q = JoinQuery::new(
                3,
                vec![
                    Condition::whole(0, Before, 1),
                    Condition::whole(0, Overlaps, 2),
                ],
            )
            .unwrap();
            let rel = |n: usize, i_max: i64, r: u64| SynthConfig {
                t_max: 200_000,
                i_max,
                ..table1(n, r)
            };
            (q, [rel(80_000, 100, 0), rel(2_000, 100, 1), rel(1_000, 600, 2)], true)
        }
        "clique" => {
            let q = JoinQuery::new(
                3,
                vec![
                    Condition::whole(0, Overlaps, 1),
                    Condition::whole(1, Contains, 2),
                    Condition::whole(0, Overlaps, 2),
                ],
            )
            .unwrap();
            let zipf = |i_max: i64, r: u64| SynthConfig {
                ds: Distribution::Zipf { theta: 2.0 },
                i_max,
                ..table1(26_000, r)
            };
            (q, [zipf(90, 0), zipf(60, 1), zipf(25, 2)], false)
        }
        other => panic!("no workload {other:?}: q4 or clique"),
    };
    let rels = (configs.iter().enumerate())
        .map(|(r, c)| c.generate(format!("R{}", r + 1)))
        .collect();
    let input = JoinInput::bind_owned(&q, rels).unwrap();
    let engine = Engine::new(ClusterConfig {
        reducer_slots: 16,
        worker_threads: 2,
        intra_reduce_threads: 2,
        ..ClusterConfig::default()
    });
    let cfg = PlanConfig {
        partitions: 16,
        per_dim: 6,
        mode: OutputMode::Count,
        prune_hybrid,
    };
    let alg = plan(&q, cfg);
    // (cycle index, name) -> (pairs and counters, map, shuffle, reduce
    // walls in ms)
    type Cycle = ([u64; 4], [Vec<f64>; 3]);
    let mut walls: BTreeMap<(usize, String), Cycle> = BTreeMap::new();
    let mut count = None;
    for _ in 0..runs {
        let out = alg.run(&q, &input, &engine).unwrap();
        assert_eq!(*count.get_or_insert(out.count), out.count);
        for (i, cy) in out.chain.cycles.iter().enumerate() {
            let e = walls.entry((i, cy.name.clone())).or_default();
            let c = &cy.counters;
            let counts = [
                cy.intermediate_pairs,
                c.get(names::JOIN_CANDIDATES),
                c.get(names::JOIN_EMITTED),
                c.get(names::KERNEL_ACTIVE_PEAK),
            ];
            assert!(e.1[0].is_empty() || e.0 == counts, "counts move between runs");
            e.0 = counts;
            let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
            e.1[0].push(ms(cy.map_wall));
            e.1[1].push(ms(cy.shuffle_wall));
            e.1[2].push(ms(cy.reduce_wall));
        }
    }
    println!(
        "{workload} seed {seed}: count {}, medians of {runs} runs (ms)",
        count.unwrap()
    );
    println!("| cycle | pairs | join.candidates | join.emitted | kernel.active_peak | map | shuffle | reduce |");
    println!("|---|---|---|---|---|---|---|---|");
    for ((_, name), ([pairs, cands, emitted, peak], [map, shuffle, reduce])) in walls {
        println!(
            "| `{name}` | {pairs} | {cands} | {emitted} | {peak} | {:.2} | {:.2} | {:.2} |",
            median(map),
            median(shuffle),
            median(reduce)
        );
    }
}
