//! Trace demo: run a 3-way RCCIS join with tracing enabled and dump a
//! Chrome trace-event file of the whole chain (marking + join cycles,
//! their map/shuffle/reduce phases, per-worker tasks, and per-reducer
//! invocations).
//!
//! ```sh
//! cargo run --release --example trace_demo [out.json]
//! ```
//!
//! Open the resulting file in `chrome://tracing` or
//! <https://ui.perfetto.dev> to see where time goes and how reduce work
//! spreads over the 16 simulated slots.

use interval_joins_mr::datagen::SynthConfig;
use interval_joins_mr::interval::AllenPredicate::Overlaps;
use interval_joins_mr::join::rccis::Rccis;
use interval_joins_mr::join::{Algorithm, JoinInput, OutputMode};
use interval_joins_mr::mapreduce::{ClusterConfig, Engine, Observer};
use interval_joins_mr::query::JoinQuery;
use std::sync::Arc;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_demo.json".to_string());

    // The paper's colocation query Q1: R1 overlaps R2 and R2 overlaps R3.
    let query = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
    let rels = (0..3)
        .map(|r| SynthConfig::table1(20_000, 42 + r).generate(format!("R{}", r + 1)))
        .collect();
    let input = JoinInput::bind_owned(&query, rels).unwrap();

    // A simulated 16-slot cluster with an observer attached.
    let observer = Arc::new(Observer::new());
    let engine = Engine::new(ClusterConfig::with_slots(16)).with_observer(observer.clone());

    let rccis = Rccis {
        partitions: 16,
        mode: OutputMode::Count,
        mark_options: Default::default(),
        partition_strategy: Default::default(),
    };
    let out = rccis.run(&query, &input, &engine).expect("supported query");
    println!(
        "RCCIS joined 3 x 20,000 intervals: {} output tuples over {} MR cycles",
        out.count,
        out.chain.num_cycles()
    );

    // Hadoop-style user counters, merged across both cycles.
    println!("\ncounters:");
    for (name, value) in out.chain.total_counters().iter() {
        println!("  {name:<28} {value}");
    }

    // Per-reducer load of the final join cycle.
    let join_cycle = out.chain.cycles.last().unwrap();
    let skew = join_cycle.skew_report(3);
    println!(
        "\njoin-cycle skew: {} reducers, max/mean {:.2}, p99/p50 {:.2}, gini {:.3}",
        skew.reducers, skew.max_mean_ratio, skew.p99_p50_ratio, skew.gini
    );

    std::fs::write(&path, observer.chrome_trace())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "\nwrote {path}: {} events — open in chrome://tracing or ui.perfetto.dev",
        observer.len()
    );
}
