//! Table 3 — hybrid query Q4 = `R1 before R2 and R1 overlaps R3`, varying
//! the maximum interval length of R3 (Section 8.2).
//!
//! Paper setting: nI = (5M, 100K, 1K); dS, dI uniform; range (0, 200K);
//! R3's `i_max` swept 1000 → 200. Compared: FCTS, All-Seq-Matrix and
//! Pruned-All-Seq-Matrix, plus the fraction of R1 pruned by PASM. R3's
//! count is NOT scaled (the paper holds it at 1K; it controls the pruning
//! fraction) — only R1 and R2 shrink with `--scale`.
//!
//! PASM's prune cycle broadcasts R3 to its tasks when that ships fewer
//! pairs than the paper's shuffled prune; `prune PASM` is what the prune
//! cycle shipped and `paper prune` what the paper's route would have
//! (`pasm.shuffled_prune_pairs`). The two are equal on a row that took the
//! shuffled route.
//!
//! ASM and PASM join on a grid chosen per matrix dimension by an exact count
//! (DESIGN.md §5, "Shares"): `grid` is each one's partitions per dimension
//! `(k_d)`, `join` the pairs its join cycle shipped, and `paper join` the
//! pairs the paper's grid — `o = 6` in every dimension — would have
//! (`matrix.paper_grid_join_pairs`).
//!
//! Run: `cargo run --release -p ij-bench --bin table3 [--scale f]`.

use ij_bench::report::{fmt_sim, Report};
use ij_bench::scale::BenchArgs;
use ij_bench::scenarios::{assert_same_output, engine, measure};
use ij_core::hybrid::{AllSeqMatrix, Fcts, Pasm};
use ij_core::{JoinInput, JoinOutput, OutputMode};
use ij_datagen::{Distribution, SynthConfig};
use ij_interval::AllenPredicate::{Before, Overlaps};
use ij_mapreduce::metrics::names;
use ij_mapreduce::Counters;
use ij_query::{Condition, JoinQuery};

fn main() {
    let args = BenchArgs::parse(
        0.005,
        "table3: Q4 = R1 before R2 and R1 ov R3; vary i_max (paper: 1000..200)",
    );
    let engine = engine(args.slots);
    let q = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Before, 1),
            Condition::whole(0, Overlaps, 2),
        ],
    )
    .unwrap();
    // R3's count, the time range and the interval lengths are the paper's
    // exact values — together they set the quantities this table is about
    // (the pruning fraction and the per-R1 match fanout). Only the bulk
    // relations R1 and R2 shrink with --scale.
    let n1 = args.scale.apply(5_000_000);
    let n2 = args.scale.apply(100_000);
    let n3 = 1_000usize;
    let t_max: i64 = 200_000;

    let mut report = Report::new(
        "table3",
        "Q4 = R1 before R2 and R1 ov R3 — FCTS vs All-Seq-Matrix vs PASM",
        &[
            "i_max R3",
            "sim FCTS",
            "sim ASM",
            "sim PASM",
            "% R1 pruned",
            "pairs ASM",
            "pairs PASM",
            "prune PASM",
            "paper prune",
            "grid ASM",
            "join ASM",
            "paper join ASM",
            "grid PASM",
            "join PASM",
            "paper join PASM",
            "output",
        ],
    );
    report.note(format!(
        "nI=({n1}, {n2}, {n3}) dS,dI=Uniform range=(0,200K) slots={} scale={}",
        args.slots, args.scale
    ));

    for (i, &i_max) in [1000i64, 800, 600, 400, 200].iter().enumerate() {
        // The paper's "Maximum Interval Length" column applies to the
        // generated data as a whole; the text highlights its effect on R3
        // (shorter R3 intervals -> fewer R1 intervals overlap any R3).
        let mk = |n: usize, seed_off: u64| SynthConfig {
            n,
            ds: Distribution::Uniform,
            di: Distribution::Uniform,
            t_min: 0,
            t_max,
            i_min: 1,
            i_max,
            seed: args.seed + i as u64 * 10 + seed_off,
        };
        let rels = vec![
            mk(n1, 0).generate("R1"),
            mk(n2, 1).generate("R2"),
            mk(n3, 2).generate("R3"),
        ];
        let input = JoinInput::bind_owned(&q, rels).unwrap();

        let fcts = measure(
            &Fcts {
                partitions: 16,
                per_dim: 6,
                mode: OutputMode::Count,
            },
            &q,
            &input,
            &engine,
        );
        let asm = measure(
            &AllSeqMatrix {
                per_dim: 6,
                mode: OutputMode::Count,
            },
            &q,
            &input,
            &engine,
        );
        let pasm = measure(
            &Pasm {
                per_dim: 6,
                mode: OutputMode::Count,
            },
            &q,
            &input,
            &engine,
        );
        assert_same_output(&[fcts.clone(), asm.clone(), pasm.clone()]);

        let pruned_r1 = pasm
            .out
            .stats
            .pruned_fraction
            .iter()
            .find(|(n, _)| n == "R1")
            .map(|(_, f)| f * 100.0)
            .unwrap_or(0.0);
        let pairs_of = |out: &JoinOutput, stage: &str| {
            (out.chain.cycles.iter())
                .find(|c| c.name.ends_with(stage))
                .map_or(0, |c| c.intermediate_pairs)
        };
        let grid = |out: &JoinOutput| {
            let ks: Vec<String> = out.stats.grid.iter().map(usize::to_string).collect();
            ks.join("x")
        };
        let paper_join = |counters: &Counters| counters.get(names::MATRIX_PAPER_GRID_JOIN_PAIRS);
        report.row(vec![
            (i_max as u64).into(),
            fmt_sim(fcts.simulated).into(),
            fmt_sim(asm.simulated).into(),
            fmt_sim(pasm.simulated).into(),
            pruned_r1.into(),
            asm.pairs.into(),
            pasm.pairs.into(),
            pairs_of(&pasm.out, "-prune").into(),
            pasm.counters.get(names::PASM_SHUFFLED_PRUNE_PAIRS).into(),
            grid(&asm.out).into(),
            pairs_of(&asm.out, "-join").into(),
            paper_join(&asm.counters).into(),
            grid(&pasm.out).into(),
            pairs_of(&pasm.out, "-join").into(),
            paper_join(&pasm.counters).into(),
            asm.output.into(),
        ]);
        eprintln!(
            "  i_max={i_max}: wall FCTS {:.2}s, ASM {:.2}s, PASM {:.2}s",
            fcts.wall_secs, asm.wall_secs, pasm.wall_secs
        );
    }
    report.finish(args.json.as_deref());
}
