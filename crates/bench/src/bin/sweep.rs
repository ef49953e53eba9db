//! Ablations and supplementary sweeps (DESIGN.md §8):
//!
//! 1. **Distribution sweep** — the paper reports only uniform data and
//!    claims "similar results" for other dS/dI settings; we run Q1 across
//!    uniform / normal / zipf / exponential start-point distributions.
//! 2. **Scale sweep** — Table 1's "2-way Cd is worst" emerges with size
//!    because the cascade's intermediate result grows quadratically; this
//!    sweep shows the crossover.
//! 3. **D1 ablation** — All-Matrix with inconsistent-cell pruning turned
//!    off, measuring what the less-than-order pruning saves (Section 7.1).
//! 4. **C2 ablation** — RCCIS marking without the crossing condition
//!    (replicate every interval in any consistent set), measuring what
//!    Section 5.3's crossing requirement saves.
//! 5. **Skew remedy** — RCCIS with equi-depth (quantile) partition
//!    boundaries on zipfian start points, the fix for Section 2's remark
//!    that skewed data needs different processing.
//!
//! Run: `cargo run --release -p ij-bench --bin sweep [--scale f]`.

use ij_bench::report::{fmt_phases, fmt_sched, fmt_sim, fmt_spill, telemetry_note, Report};
use ij_bench::scale::BenchArgs;
use ij_bench::scenarios::{
    assert_same_output, measure, observed_engine, write_metrics, write_trace,
};
use ij_core::all_matrix::AllMatrix;
use ij_core::all_replicate::AllReplicate;
use ij_core::cascade::TwoWayCascade;
use ij_core::rccis::Rccis;
use ij_core::{JoinInput, OutputMode};
use ij_datagen::{Distribution, SynthConfig};
use ij_interval::AllenPredicate::{Before, Overlaps};
use ij_query::JoinQuery;

fn main() {
    let args = BenchArgs::parse(
        0.03,
        "sweep: ablations (distributions, scale crossover, D1)",
    );
    let (engine, observer) = observed_engine(
        args.slots,
        args.trace.is_some() || args.metrics_out.is_some(),
        args.budget,
    );

    // ---- 1. Distribution sweep on Q1 ---------------------------------------
    let q1 = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
    let mut rep = Report::new(
        "sweep-distributions",
        "Q1 under different start-point distributions (paper: 'similar results')",
        &[
            "dS",
            "sim 2wCd",
            "sim AllRep",
            "sim RCCIS",
            "repl RCCIS",
            "output",
            "spill RCCIS",
            "sched RCCIS",
        ],
    );
    let n = args.scale.apply(1_000_000);
    rep.note(format!(
        "nI={n} per relation, dI=Uniform, range=(0,100K), lengths=(1,100)"
    ));
    match args.budget {
        Some(b) => rep.note(format!(
            "reduce memory budget {b}B/bucket (spill col: buckets/runs/bytes + spill wall time)"
        )),
        None => rep.note("reduce memory budget unlimited — no spilling"),
    }
    rep.note("sched col: granted threads/heavy buckets, - if no bucket was heavy");
    for (name, ds) in [
        ("uniform", Distribution::Uniform),
        ("normal", Distribution::Normal),
        ("zipf(2)", Distribution::Zipf { theta: 2.0 }),
        ("exp(.25)", Distribution::Exponential { scale: 0.25 }),
    ] {
        let rels = (0..3)
            .map(|r| {
                SynthConfig {
                    ds,
                    ..SynthConfig::table1(n, args.seed + r)
                }
                .generate(format!("R{}", r + 1))
            })
            .collect();
        let input = JoinInput::bind_owned(&q1, rels).unwrap();
        let cd = measure(
            &TwoWayCascade {
                partitions: 16,
                per_dim_2d: 4,
                mode: OutputMode::Count,
            },
            &q1,
            &input,
            &engine,
        );
        let ar = measure(
            &AllReplicate {
                partitions: 16,
                mode: OutputMode::Count,
            },
            &q1,
            &input,
            &engine,
        );
        let rc = measure(
            &Rccis {
                partitions: 16,
                mode: OutputMode::Count,
                mark_options: Default::default(),
                partition_strategy: Default::default(),
            },
            &q1,
            &input,
            &engine,
        );
        assert_same_output(&[cd.clone(), ar.clone(), rc.clone()]);
        if name == "uniform" {
            // Which join kernel the reducers picked (DESIGN.md §10): Q1 is
            // a colocation query, so every bucket should go to the sweep.
            for m in [&cd, &ar, &rc] {
                let kernel: Vec<String> = m
                    .counters
                    .iter()
                    .filter(|(k, _)| k.starts_with("kernel."))
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                if !kernel.is_empty() {
                    rep.note(format!("{}: {}", m.algorithm, kernel.join(" ")));
                }
            }
        }
        rep.row(vec![
            name.into(),
            fmt_sim(cd.simulated).into(),
            fmt_sim(ar.simulated).into(),
            fmt_sim(rc.simulated).into(),
            rc.replicated.unwrap_or(0).into(),
            rc.output.into(),
            fmt_spill(&rc.counters, rc.spill_secs).into(),
            fmt_sched(&rc.counters).into(),
        ]);
    }
    rep.finish(None);

    // ---- 2. Scale crossover for the cascade --------------------------------
    let mut rep = Report::new(
        "sweep-scale",
        "Q1: the cascade's quadratic intermediate result vs scale",
        &[
            "nI",
            "sim 2wCd",
            "sim AllRep",
            "sim RCCIS",
            "Cd/RCCIS",
            "AllRep/RCCIS",
            "RCCIS m/s/r",
        ],
    );
    for &n in &[10_000usize, 25_000, 50_000, 100_000] {
        let rels = (0..3)
            .map(|r| SynthConfig::table1(n, args.seed + 50 + r).generate(format!("R{}", r + 1)))
            .collect();
        let input = JoinInput::bind_owned(&q1, rels).unwrap();
        let cd = measure(
            &TwoWayCascade {
                partitions: 16,
                per_dim_2d: 4,
                mode: OutputMode::Count,
            },
            &q1,
            &input,
            &engine,
        );
        let ar = measure(
            &AllReplicate {
                partitions: 16,
                mode: OutputMode::Count,
            },
            &q1,
            &input,
            &engine,
        );
        let rc = measure(
            &Rccis {
                partitions: 16,
                mode: OutputMode::Count,
                mark_options: Default::default(),
                partition_strategy: Default::default(),
            },
            &q1,
            &input,
            &engine,
        );
        rep.row(vec![
            (n as u64).into(),
            fmt_sim(cd.simulated).into(),
            fmt_sim(ar.simulated).into(),
            fmt_sim(rc.simulated).into(),
            (cd.simulated / rc.simulated).into(),
            (ar.simulated / rc.simulated).into(),
            fmt_phases(rc.map_secs, rc.shuffle_secs, rc.reduce_secs).into(),
        ]);
        eprintln!("  scale row nI={n} done");
    }
    rep.finish(None);

    // ---- 3. D1 ablation: inconsistent-cell pruning off ----------------------
    let q2 = JoinQuery::chain(&[Before, Before]).unwrap();
    let mut rep = Report::new(
        "sweep-d1",
        "All-Matrix with and without inconsistent-cell pruning (condition D1)",
        &[
            "nI",
            "pairs pruned",
            "pairs unpruned",
            "sim pruned",
            "sim unpruned",
            "cells",
        ],
    );
    for &base in &[2_000u64, 6_000, 10_000] {
        let n = args.scale.apply(base) * 8; // sequence joins need less data
        let rels = (0..3)
            .map(|r| SynthConfig::fig5a(n, args.seed + 90 + r).generate(format!("R{}", r + 1)))
            .collect();
        let input = JoinInput::bind_owned(&q2, rels).unwrap();
        let pruned = measure(
            &AllMatrix {
                per_dim: 6,
                mode: OutputMode::Count,
                prune_inconsistent: true,
            },
            &q2,
            &input,
            &engine,
        );
        let unpruned = measure(
            &AllMatrix {
                per_dim: 6,
                mode: OutputMode::Count,
                prune_inconsistent: false,
            },
            &q2,
            &input,
            &engine,
        );
        assert_same_output(&[pruned.clone(), unpruned.clone()]);
        let cells = pruned
            .consistent_cells
            .map(|(c, t)| format!("{c}/{t}"))
            .unwrap_or_default();
        rep.row(vec![
            (n as u64).into(),
            pruned.pairs.into(),
            unpruned.pairs.into(),
            fmt_sim(pruned.simulated).into(),
            fmt_sim(unpruned.simulated).into(),
            cells.into(),
        ]);
    }
    rep.finish(None);

    // ---- 4. C2 ablation: RCCIS without the crossing condition ---------------
    let mut rep = Report::new(
        "sweep-c2",
        "RCCIS with and without the crossing condition C2",
        &[
            "nI",
            "repl C2",
            "repl no-C2",
            "pairs C2",
            "pairs no-C2",
            "sim C2",
            "sim no-C2",
        ],
    );
    for &base in &[250_000u64, 500_000, 1_000_000] {
        let n = args.scale.apply(base);
        let rels = (0..3)
            .map(|r| SynthConfig::table1(n, args.seed + 120 + r).generate(format!("R{}", r + 1)))
            .collect();
        let input = JoinInput::bind_owned(&q1, rels).unwrap();
        let with_c2 = measure(
            &Rccis {
                partitions: 16,
                mode: OutputMode::Count,
                mark_options: Default::default(),
                partition_strategy: Default::default(),
            },
            &q1,
            &input,
            &engine,
        );
        let without_c2 = measure(
            &Rccis {
                partitions: 16,
                mode: OutputMode::Count,
                mark_options: ij_core::rccis::marking::MarkOptions {
                    enforce_crossing: false,
                },
                partition_strategy: Default::default(),
            },
            &q1,
            &input,
            &engine,
        );
        assert_same_output(&[with_c2.clone(), without_c2.clone()]);
        rep.row(vec![
            (n as u64).into(),
            with_c2.replicated.unwrap_or(0).into(),
            without_c2.replicated.unwrap_or(0).into(),
            with_c2.pairs.into(),
            without_c2.pairs.into(),
            fmt_sim(with_c2.simulated).into(),
            fmt_sim(without_c2.simulated).into(),
        ]);
    }
    rep.finish(None);

    // ---- 5. Equi-depth boundaries on skewed data ----------------------------
    let mut rep = Report::new(
        "sweep-skew",
        "RCCIS under zipfian dS: equi-width vs equi-depth boundaries",
        &[
            "nI",
            "skew width",
            "skew depth",
            "gini width",
            "gini depth",
            "p99/p50 w",
            "p99/p50 d",
            "sim width",
            "sim depth",
        ],
    );
    for &base in &[150_000u64, 300_000] {
        let n = args.scale.apply(base);
        let rels = (0..3)
            .map(|r| {
                SynthConfig {
                    ds: Distribution::Zipf { theta: 3.0 },
                    ..SynthConfig::table1(n, args.seed + 150 + r)
                }
                .generate(format!("R{}", r + 1))
            })
            .collect();
        let input = JoinInput::bind_owned(&q1, rels).unwrap();
        let width = measure(
            &Rccis {
                partitions: 16,
                mode: OutputMode::Count,
                mark_options: Default::default(),
                partition_strategy: ij_core::PartitionStrategy::EquiWidth,
            },
            &q1,
            &input,
            &engine,
        );
        let depth = measure(
            &Rccis {
                partitions: 16,
                mode: OutputMode::Count,
                mark_options: Default::default(),
                partition_strategy: ij_core::PartitionStrategy::EquiDepth,
            },
            &q1,
            &input,
            &engine,
        );
        assert_same_output(&[width.clone(), depth.clone()]);
        // The marking (split) cycle is where boundary placement shows up.
        let sw = width.out.chain.cycles[0].skew_report(3);
        let sd = depth.out.chain.cycles[0].skew_report(3);
        rep.row(vec![
            (n as u64).into(),
            width.skew.into(),
            depth.skew.into(),
            sw.gini.into(),
            sd.gini.into(),
            sw.p99_p50_ratio.into(),
            sd.p99_p50_ratio.into(),
            fmt_sim(width.simulated).into(),
            fmt_sim(depth.simulated).into(),
        ]);
    }
    if let (Some(_), Some(obs)) = (&args.metrics_out, &observer) {
        rep.note(telemetry_note(&obs.snapshot()));
    }
    rep.finish(args.json.as_deref());
    write_trace(args.trace.as_deref(), &observer);
    write_metrics(args.metrics_out.as_deref(), &observer);
}
