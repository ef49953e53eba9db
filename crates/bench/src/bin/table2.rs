//! Table 2 — RCCIS vs 2-way Cascade on Internet packet-train data
//! (Section 6.2).
//!
//! Paper setting: six 15-minute MAWI traces (P03–P08); packet trains built
//! with a 500 ms inter-arrival cutoff; each trace replicated to 3M trains;
//! star self-join `R overlaps R and R overlaps R` with 16 reducers.
//!
//! The MAWI traces are simulated (see DESIGN.md §4): per-profile packet
//! streams reproduce the paper's packet/train counts and train-length
//! statistics in shape.
//!
//! `pairs RCCIS` is the paper's count; `shuffled RCCIS` is what the run
//! shuffled (see `ij_bench::scenarios::rccis_paper_pairs`).
//!
//! Run: `cargo run --release -p ij-bench --bin table2 [--scale f]`.

use ij_bench::report::{fmt_sim, Report};
use ij_bench::scale::BenchArgs;
use ij_bench::scenarios::{assert_same_output, engine, measure, rccis_paper_pairs};
use ij_core::cascade::TwoWayCascade;
use ij_core::rccis::Rccis;
use ij_core::{JoinInput, OutputMode};
use ij_datagen::profiles::TABLE2_PROFILES;
use ij_datagen::trains::{replicate_to, trains_relation};
use ij_interval::AllenPredicate::Overlaps;
use ij_query::{Condition, JoinQuery};
use std::sync::Arc;

fn main() {
    let args = BenchArgs::parse(
        0.01,
        "table2: star self-join R ov R ov R on packet trains, traces P03..P08 (paper: 3M trains each)",
    );
    let engine = engine(args.slots);
    // Star self-join: R overlaps R and R overlaps R — three logical copies.
    let q = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Overlaps, 1),
            Condition::whole(1, Overlaps, 2),
        ],
    )
    .unwrap();
    let target_trains = args.scale.apply(3_000_000);

    let mut report = Report::new(
        "table2",
        "Packet-train star self-join — 2-way Cd vs RCCIS",
        &[
            "trace",
            "pkts",
            "trains",
            "copies",
            "sim 2wCd",
            "sim RCCIS",
            "pairs 2wCd",
            "pairs RCCIS",
            "shuffled RCCIS",
            "repl RCCIS",
            "output",
        ],
    );
    report.note(format!(
        "cutoff=500ms, replicated to {target_trains} trains, slots={}, scale={}",
        args.slots, args.scale
    ));

    for profile in TABLE2_PROFILES {
        let base = profile.generate_trains(args.scale.0, args.seed);
        let copies = target_trains.div_ceil(base.len().max(1)) as u64;
        // Jitter copies by 1 ms so replication densifies the trace.
        let trains = replicate_to(&base, target_trains, 1000);
        let rel = Arc::new(trains_relation(profile.name, &trains));
        let input = JoinInput::bind_self_join(&q, rel).unwrap();

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
        assert_same_output(&[cd.clone(), rc.clone()]);

        let total_pkts: u64 = base.iter().map(|t| t.packets as u64).sum();
        report.row(vec![
            profile.name.into(),
            total_pkts.into(),
            base.len().into(),
            copies.into(),
            fmt_sim(cd.simulated).into(),
            fmt_sim(rc.simulated).into(),
            cd.pairs.into(),
            rccis_paper_pairs(&rc).into(),
            rc.pairs.into(),
            rc.replicated.unwrap_or(0).into(),
            rc.output.into(),
        ]);
        eprintln!(
            "  {}: {} base trains, wall 2wCd {:.2}s, RCCIS {:.2}s",
            profile.name,
            base.len(),
            cd.wall_secs,
            rc.wall_secs
        );
    }
    report.finish(args.json.as_deref());
}
