//! Per-cycle traffic of the six `ij-perf` workloads at full size, one run
//! each: stage, input records, pairs, shuffle bytes, the most pairs one
//! reducer received and the output records, plus the mark-stage counters,
//! the pairs the paper's shuffled prune would move
//! (`pasm.shuffled_prune_pairs`), and for a matrix setting of two or more
//! dimensions the grid its join chose (`k_d` partitions per dimension) and
//! the pairs the paper's grid would ship (`matrix.paper_grid_join_pairs`).
//! Counts do not depend on threads or time, so one run per seed is exact.
//! The generator settings mirror `perf/src/workloads.rs`; `--scale`,
//! `--slots` and `--json` are accepted and ignored.
//!
//! Run: `cargo run --release -p ij-bench --bin cycle_counts [--seed n]`.

use ij_bench::scale::BenchArgs;
use ij_core::planner::{plan, PlanConfig};
use ij_core::{JoinInput, OutputMode};
use ij_datagen::{Distribution, SynthConfig};
use ij_interval::AllenPredicate::{Before, Contains, Overlaps};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{ClusterConfig, Engine};
use ij_query::{Condition, JoinQuery};

/// One workload: name, query, per-relation generators, output mode,
/// whether a hybrid query is pruned, and the reduce memory budget.
type Workload<'a> = (
    &'static str,
    &'a JoinQuery,
    Vec<SynthConfig>,
    OutputMode,
    bool,
    Option<u64>,
);

fn main() {
    let args = BenchArgs::parse(
        1.0,
        "cycle_counts: per-cycle traffic of the ij-perf workloads",
    );
    let seed = args.seed;
    let q1 = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
    let q0 = JoinQuery::chain(&[Overlaps, Contains, Overlaps]).unwrap();
    let clique = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Overlaps, 1),
            Condition::whole(1, Contains, 2),
            Condition::whole(0, Overlaps, 2),
        ],
    )
    .unwrap();
    let q4 = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Before, 1),
            Condition::whole(0, Overlaps, 2),
        ],
    )
    .unwrap();
    let table1 = |n: usize, r: u64| SynthConfig::table1(n, seed + r);
    let sparse = |r: u64| SynthConfig {
        t_max: 20_000_000,
        ..table1(300_000, r)
    };
    let zipf = |i_max: i64, r: u64| SynthConfig {
        ds: Distribution::Zipf { theta: 2.0 },
        i_max,
        ..table1(26_000, r)
    };
    let q4_rel = |n: usize, i_max: i64, r: u64| SynthConfig {
        t_max: 200_000,
        i_max,
        ..table1(n, r)
    };
    let (count, materialize) = (OutputMode::Count, OutputMode::Materialize);
    let workloads: Vec<Workload> = vec![
        (
            "q1_dense_count",
            &q1,
            (0..3).map(|r| table1(50_000, r)).collect(),
            count,
            false,
            None,
        ),
        (
            "q1_sparse_shuffle",
            &q1,
            (0..3).map(sparse).collect(),
            materialize,
            false,
            None,
        ),
        (
            "q1_sparse_spill",
            &q1,
            (0..3).map(sparse).collect(),
            materialize,
            false,
            Some(262_144),
        ),
        (
            "q0_dense_materialize",
            &q0,
            (0..4).map(|r| table1(22_000, r)).collect(),
            materialize,
            false,
            None,
        ),
        (
            "clique_zipf_count",
            &clique,
            vec![zipf(90, 0), zipf(60, 1), zipf(25, 2)],
            count,
            false,
            None,
        ),
        (
            "q4_hybrid_pasm",
            &q4,
            vec![
                q4_rel(80_000, 100, 0),
                q4_rel(2_000, 100, 1),
                q4_rel(1_000, 600, 2),
            ],
            count,
            true,
            None,
        ),
    ];
    for (name, q, configs, mode, prune_hybrid, budget) in workloads {
        let rels = (configs.iter().enumerate())
            .map(|(r, c)| c.generate(format!("R{}", r + 1)))
            .collect();
        let input = JoinInput::bind_owned(q, rels).unwrap();
        let engine = Engine::new(ClusterConfig {
            reducer_slots: 16,
            worker_threads: 2,
            intra_reduce_threads: 2,
            reduce_memory_budget: budget,
            ..ClusterConfig::default()
        });
        let cfg = PlanConfig {
            partitions: 16,
            per_dim: 6,
            mode,
            prune_hybrid,
        };
        let out = plan(q, cfg).run(q, &input, &engine).unwrap();
        let c = out.chain.total_counters();
        let grid = match out.stats.grid.len() {
            0 | 1 => String::new(),
            _ => format!(
                " grid={:?} paper_grid_join_pairs={}",
                out.stats.grid,
                c.get(names::MATRIX_PAPER_GRID_JOIN_PAIRS)
            ),
        };
        println!(
            "== {name} seed {seed}: count={} replicated={:?} split={} crossing={} flagged={} shuffled_prune={}{grid}",
            out.count,
            out.stats.replicated_intervals,
            c.get(names::RCCIS_SPLIT_PAIRS),
            c.get(names::RCCIS_CROSSING_INTERVALS),
            c.get(names::RCCIS_FLAGGED_INTERVALS),
            c.get(names::PASM_SHUFFLED_PRUNE_PAIRS),
        );
        for cy in &out.chain.cycles {
            let max = (cy.reducer_loads.iter().map(|l| l.pairs_received))
                .max()
                .unwrap_or(0);
            println!(
                "  {:<24} in={:>8} pairs={:>8} bytes={:>9} max_reducer_pairs={:>6} out_records={:>7} out_bytes={:>9}",
                cy.name,
                cy.map_input_records,
                cy.intermediate_pairs,
                cy.shuffle_bytes,
                max,
                cy.output_records,
                cy.output_bytes
            );
        }
    }
}
