//! Table 1 — varying data size on the colocation query
//! Q1 = `R1 overlaps R2 and R2 overlaps R3` (Section 6.2).
//!
//! Paper setting: dS, dI uniform; range (0, 100K); lengths (1, 100);
//! nI = 0.5M, 0.75M, 1.0M, 1.25M per relation; 16 reducers. Compared:
//! 2-way Cascade, All-Replicate and RCCIS, reporting time, the intervals
//! replicated by RCCIS vs All-Rep and the total key-value pairs.
//!
//! `pairs RCCIS` is the paper's count; `shuffled RCCIS` is what the run
//! shuffled (see `ij_bench::scenarios::rccis_paper_pairs`).
//!
//! Run: `cargo run --release -p ij-bench --bin table1 [--scale f]`.

use ij_bench::report::{
    fmt_phases, fmt_sched, fmt_sim, fmt_spill, skew_report_table, skew_row, telemetry_note, Report,
};
use ij_bench::scale::BenchArgs;
use ij_bench::scenarios::{
    assert_same_output, measure, observed_engine, rccis_paper_pairs, write_metrics, write_trace,
};
use ij_core::all_replicate::AllReplicate;
use ij_core::cascade::TwoWayCascade;
use ij_core::rccis::Rccis;
use ij_core::{JoinInput, OutputMode};
use ij_datagen::SynthConfig;
use ij_interval::AllenPredicate::Overlaps;
use ij_query::JoinQuery;

fn main() {
    let args = BenchArgs::parse(
        0.05,
        "table1: Q1 = R1 ov R2 ov R3, varying nI (paper: 0.5M..1.25M)",
    );
    let (engine, observer) = observed_engine(
        args.slots,
        args.trace.is_some() || args.metrics_out.is_some(),
        args.budget,
    );
    let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
    let paper_sizes: [u64; 4] = [500_000, 750_000, 1_000_000, 1_250_000];
    let mut skew_rep = skew_report_table(
        "table1-skew",
        "Per-reducer load distribution at the largest size",
    );
    let mut counters_note: Vec<String> = Vec::new();

    let mut report = Report::new(
        "table1",
        "Varying data size — Q1 = R1 ov R2 and R2 ov R3",
        &[
            "nI",
            "sim 2wCd",
            "sim AllRep",
            "sim RCCIS",
            "repl RCCIS",
            "repl AllRep",
            "pairs 2wCd",
            "pairs AllRep",
            "pairs RCCIS",
            "shuffled RCCIS",
            "output",
            "RCCIS m/s/r",
            "spill RCCIS",
            "sched RCCIS",
        ],
    );
    report.note(format!(
        "dS,dI=Uniform (t_min,t_max)=(0,100K) (i_min,i_max)=(1,100) slots={} scale={} (paper sizes x scale)",
        args.slots, args.scale
    ));
    match args.budget {
        Some(b) => report.note(format!(
            "reduce memory budget {b}B/bucket — oversized buckets spill to the Dfs \
             (spill col: buckets/runs/bytes + spill wall time)"
        )),
        None => report.note("reduce memory budget unlimited — no spilling"),
    }
    report.note("sched col: granted threads/heavy buckets, - if no bucket was heavy");

    for (i, &paper_n) in paper_sizes.iter().enumerate() {
        let n = args.scale.apply(paper_n);
        let rels = (0..3)
            .map(|r| {
                SynthConfig::table1(n, args.seed + (i * 3 + r) as u64)
                    .generate(format!("R{}", r + 1))
            })
            .collect();
        let input = JoinInput::bind_owned(&q, rels).unwrap();

        let cd = measure(
            &TwoWayCascade {
                partitions: 16,
                per_dim_2d: 4,
                mode: OutputMode::Count,
            },
            &q,
            &input,
            &engine,
        );
        let ar = measure(
            &AllReplicate {
                partitions: 16,
                mode: OutputMode::Count,
            },
            &q,
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
            &q,
            &input,
            &engine,
        );
        assert_same_output(&[cd.clone(), ar.clone(), rc.clone()]);

        if i == paper_sizes.len() - 1 {
            // The skew diagnosis at the largest size: one row per MR cycle.
            for m in [&cd, &ar, &rc] {
                for cycle in &m.out.chain.cycles {
                    let label = format!("{} {}", m.algorithm, cycle.name);
                    skew_row(&mut skew_rep, &label, &cycle.skew_report(3));
                }
                let counters: Vec<String> = m
                    .counters
                    .iter()
                    .map(|(name, v)| format!("{name}={v}"))
                    .collect();
                if !counters.is_empty() {
                    counters_note.push(format!("{}: {}", m.algorithm, counters.join(" ")));
                }
            }
        }

        report.row(vec![
            (n as u64).into(),
            fmt_sim(cd.simulated).into(),
            fmt_sim(ar.simulated).into(),
            fmt_sim(rc.simulated).into(),
            rc.replicated.unwrap_or(0).into(),
            ar.replicated.unwrap_or(0).into(),
            cd.pairs.into(),
            ar.pairs.into(),
            rccis_paper_pairs(&rc).into(),
            rc.pairs.into(),
            rc.output.into(),
            fmt_phases(rc.map_secs, rc.shuffle_secs, rc.reduce_secs).into(),
            fmt_spill(&rc.counters, rc.spill_secs).into(),
            fmt_sched(&rc.counters).into(),
        ]);
        eprintln!(
            "  nI={n}: wall 2wCd {:.2}s, AllRep {:.2}s, RCCIS {:.2}s (RCCIS map/shuffle/reduce {}, spill {})",
            cd.wall_secs,
            ar.wall_secs,
            rc.wall_secs,
            fmt_phases(rc.map_secs, rc.shuffle_secs, rc.reduce_secs),
            fmt_spill(&rc.counters, rc.spill_secs)
        );
    }
    if let (Some(_), Some(obs)) = (&args.metrics_out, &observer) {
        report.note(telemetry_note(&obs.snapshot()));
    }
    report.finish(args.json.as_deref());
    for n in counters_note {
        skew_rep.note(n);
    }
    skew_rep.finish(None);
    write_trace(args.trace.as_deref(), &observer);
    write_metrics(args.metrics_out.as_deref(), &observer);
}
