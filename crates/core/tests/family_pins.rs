//! RCCIS, All-Matrix, All-Seq-Matrix and PASM are four settings of one
//! mark → prune → join pipeline (`core::component_matrix`). This file
//! holds them to what the four separate implementations did at the parent
//! of PR 17: `results/pr17/family_pins_parent.txt` is the raw output of
//! [`render`] at that commit, recorded before any of them was touched,
//! and every run below that still runs the paper's plan must reproduce its
//! block — count, tuples in emission order, per-cycle pairs / bytes /
//! reducer loads, run statistics and counters. Exactly five things may
//! differ from the capture:
//!
//! 1. **stage names** — the capture's `name=` fields are ignored (stages
//!    are now `<family>-mark` / `-prune` / `-join`);
//! 2. **the cycle count of All-Seq-Matrix / PASM on an all-singleton
//!    query** (Q2) — at the parent they shuffled every interval through a
//!    marking cycle that could flag nothing (PASM also through a prune
//!    cycle that received nothing); they now run the join alone, so only
//!    the capture's last `cycle` line is compared;
//! 3. **the mark cycle's line** — the mark stage ships only the split
//!    copies near enough to a partition's boundaries to be in a crossing
//!    set and writes back only the flagged intervals. Its pairs must equal
//!    an independent count of those copies ([`near_copies`]) and be no more
//!    than the capture's; every other line, the join's and the prune's
//!    included, is compared as before;
//! 4. **the prune cycle's line where a marked group broadcasts** — PASM's
//!    prune ships a group's members but the largest to each of its `K`
//!    tasks when that is fewer pairs than the capture's shuffled prune.
//!    Its pairs must equal an independent count of `side × K`
//!    ([`broadcast_copies`]) and its bytes the same records' size; a prune
//!    in which no group broadcasts is compared as before;
//! 5. **shares** — a matrix setting of two or three dimensions marks on a
//!    grid `D`× finer than the paper's and joins on a grid chosen per
//!    dimension by an exact count (DESIGN.md §5, "Shares"). Every matrix
//!    block is pinned whole by `results/pr33/family_pins_matrix.txt`, the
//!    output of [`render`] for those families when shares landed (every
//!    change from the PR 17 capture is listed in CHANGES.md), and must have
//!    the PR 17 capture's output count on no more consistent join cells.
//!    A block that neither marks on a finer grid nor leaves the paper grid
//!    is also held to the PR 17 capture under differences 1–4, apart from
//!    its `grid` line.
//!
//! `TwoWayJoin` and `AllReplicate` became settings of the same pipeline
//! later; `results/pr26/family_pins_parent.txt` is the raw output of
//! [`render_routed`] recorded before either was touched — every Allen
//! predicate in both orientations plus two redundant-condition queries for
//! the 2-way join, the five cases above plus a query without a right-most
//! relation for All-Rep, both output modes, with the `allrep.*` counters.
//! Only stage names may differ from that capture (neither family marks).
//!
//! **Work.** Since the kernels compile a reducer's ownership windows into
//! their level program, a reducer no longer enumerates the bindings it
//! does not own: against the three captures above, every reducer's `work`
//! and every `candidates=` count may fall, never rise ([`same_but_work`]),
//! and everything else on their lines is compared as before.
//! `results/pr36/` holds [`render`] and [`render_routed`] whole from that
//! change on, and both must reproduce it byte for byte.
//!
//! `results/pr40/family_pins_composite.txt` is [`render_composite`]
//! recorded before the families whose records carry several intervals
//! moved onto the component-matrix join stage: the 2-way cascade, FSTC,
//! FCTS, Gen-Matrix and 1-Bucket-Theta on [`cases`], a two-relation case
//! and Q5, in both output modes, with the `cascade.*` and `onebucket.*`
//! counters. `results/pr42/family_pins_composite.txt` differs from it in
//! two lines only: Gen-Matrix skips its mark cycle when no component has
//! two vertices, so its two q2-sequence blocks lose the empty
//! `gen-matrix-mark` cycle. That capture must be reproduced byte for
//! byte.
//!
//! The cross-family identities the merge rests on are asserted directly.

use ij_core::algorithm::RunArtifacts;
use ij_core::all_matrix::AllMatrix;
use ij_core::all_matrix::CellSpace;
use ij_core::all_replicate::AllReplicate;
use ij_core::cascade::TwoWayCascade;
use ij_core::gen_matrix::GenMatrix;
use ij_core::hybrid::{AllSeqMatrix, Fcts, Fstc, Pasm};
use ij_core::one_bucket::OneBucketTheta;
use ij_core::rccis::marking::MarkOptions;
use ij_core::rccis::Rccis;
use ij_core::two_way::TwoWayJoin;
use ij_core::{Algorithm, JoinInput, JoinOutput, OutputMode, PartitionStrategy};
use ij_datagen::{Distribution, SynthConfig};
use ij_interval::AllenPredicate::{self, After, Before, Contains, Equals, Overlaps};
use ij_interval::{Interval, Partitioning, Relation};
use ij_mapreduce::{ClusterConfig, Engine, ReducerLoad};
use ij_query::query::RelationMeta;
use ij_query::{AttrRef, Condition, JoinQuery};
use std::fmt::Write as _;

const PARENT_CAPTURE: &str = include_str!("../../../results/pr17/family_pins_parent.txt");
const ROUTED_CAPTURE: &str = include_str!("../../../results/pr26/family_pins_parent.txt");
const MATRIX_CAPTURE: &str = include_str!("../../../results/pr33/family_pins_matrix.txt");
const CAPTURE: &str = include_str!("../../../results/pr36/family_pins.txt");
const ROUTED: &str = include_str!("../../../results/pr36/family_pins_routed.txt");
const COMPOSITE: &str = include_str!("../../../results/pr42/family_pins_composite.txt");

/// Partitions (RCCIS) and partitions per dimension (matrix families).
const K: usize = 6;

struct Case {
    name: String,
    query: JoinQuery,
    input: JoinInput,
}

/// `(n, t_max, i_max)` per relation; relation `r` is seeded `seed + r`.
fn case(name: impl Into<String>, query: JoinQuery, seed: u64, rels: &[(usize, i64, i64)]) -> Case {
    let relations = rels
        .iter()
        .enumerate()
        .map(|(r, &(n, t_max, i_max))| {
            SynthConfig {
                n,
                ds: Distribution::Uniform,
                di: Distribution::Uniform,
                t_min: 0,
                t_max,
                i_min: 1,
                i_max,
                seed: seed + r as u64,
            }
            .generate(format!("R{}", r + 1))
        })
        .collect();
    let input = JoinInput::bind_owned(&query, relations).unwrap();
    let name = name.into();
    Case { name, query, input }
}

fn cases() -> Vec<Case> {
    let q4 = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Before, 1),
            Condition::whole(0, Overlaps, 2),
        ],
    )
    .unwrap();
    let q3 = JoinQuery::new(
        5,
        vec![
            Condition::whole(0, Overlaps, 1),
            Condition::whole(1, Overlaps, 2),
            Condition::whole(1, Before, 3),
            Condition::whole(3, Overlaps, 4),
        ],
    )
    .unwrap();
    vec![
        case(
            "q1-colocation",
            JoinQuery::chain(&[Overlaps, Overlaps]).unwrap(),
            1701,
            &[(300, 3000, 60); 3],
        ),
        case(
            "q0-colocation",
            JoinQuery::chain(&[Overlaps, Contains, Overlaps]).unwrap(),
            1801,
            &[(200, 2000, 80); 4],
        ),
        case(
            "q2-sequence",
            JoinQuery::chain(&[Before, Before]).unwrap(),
            1901,
            &[(36, 600, 20); 3],
        ),
        case(
            "q4-hybrid",
            q4,
            2001,
            &[(250, 2500, 30), (20, 2500, 30), (15, 2500, 200)],
        ),
        case("q3-hybrid", q3, 2101, &[(50, 500, 40); 5]),
    ]
}

fn families() -> Vec<(&'static str, Box<dyn Algorithm>)> {
    vec![
        ("rccis", Box::new(Rccis::new(K))),
        (
            "rccis equi-depth",
            Box::new(Rccis {
                partition_strategy: PartitionStrategy::EquiDepth,
                ..Rccis::new(K)
            }),
        ),
        (
            "rccis no-crossing",
            Box::new(Rccis {
                mark_options: MarkOptions {
                    enforce_crossing: false,
                },
                ..Rccis::new(K)
            }),
        ),
        ("all-matrix", Box::new(AllMatrix::new(K))),
        (
            "all-matrix no-prune",
            Box::new(AllMatrix {
                prune_inconsistent: false,
                ..AllMatrix::new(K)
            }),
        ),
        ("asm", Box::new(AllSeqMatrix::new(K))),
        ("pasm", Box::new(Pasm::new(K))),
        (
            "pasm count",
            Box::new(Pasm {
                mode: OutputMode::Count,
                ..Pasm::new(K)
            }),
        ),
    ]
}

fn engine() -> Engine {
    Engine::new(ClusterConfig::with_slots(4))
}

/// Order-sensitive FNV-1a over the emitted tuples.
fn emission_hash(out: &JoinOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in &out.tuples {
        for id in t.iter().copied().chain([u32::MAX]) {
            for b in id.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn render_run(out: &JoinOutput) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "count={} tuples={} emission_hash={:016x} first={:?} last={:?}",
        out.count,
        out.tuples.len(),
        emission_hash(out),
        out.tuples.first(),
        out.tuples.last()
    )
    .unwrap();
    for c in &out.chain.cycles {
        let loads: Vec<String> = c
            .reducer_loads
            .iter()
            .map(|l| format!("{}:{}:{}:{}", l.key, l.pairs_received, l.work, l.output))
            .collect();
        writeln!(
            s,
            "cycle name={} pairs={} bytes={} loads(key:pairs:work:out)=[{}]",
            c.name,
            c.intermediate_pairs,
            c.shuffle_bytes,
            loads.join(" ")
        )
        .unwrap();
    }
    writeln!(
        s,
        "stats replicated={:?} cells={:?} pruned={:?}",
        out.stats.replicated_intervals, out.stats.consistent_cells, out.stats.pruned_fraction
    )
    .unwrap();
    let c = out.chain.total_counters();
    if out.stats.grid.len() > 1 {
        let paper = c.get("matrix.paper_grid_join_pairs");
        writeln!(
            s,
            "grid k={:?} paper_grid_join_pairs={paper}",
            out.stats.grid
        )
        .unwrap();
    }
    writeln!(
        s,
        "counters split={} crossing={} flagged={} replica={} projected={} candidates={} emitted={}",
        c.get("rccis.split_pairs"),
        c.get("rccis.crossing_intervals"),
        c.get("rccis.flagged_intervals"),
        c.get("rccis.replica_pairs"),
        c.get("rccis.projected_pairs"),
        c.get("join.candidates"),
        c.get("join.emitted"),
    )
    .unwrap();
    s
}

/// Appends the `== case / label` block of one run; for All-Rep, also the
/// run's `allrep.*` counters.
fn render_block(s: &mut String, engine: &Engine, case: &Case, label: &str, alg: &dyn Algorithm) {
    writeln!(s, "== {} / {}", case.name, label).unwrap();
    match alg.run(&case.query, &case.input, engine) {
        Ok(out) => {
            s.push_str(&render_run(&out));
            if label.starts_with("all-rep") {
                let c = out.chain.total_counters();
                let (replica, projected) = ("allrep.replica_pairs", "allrep.projected_pairs");
                let line = format!("replica={} projected={}", c.get(replica), c.get(projected));
                writeln!(s, "counters allrep {line}").unwrap();
            }
        }
        Err(e) => writeln!(s, "error: {e}").unwrap(),
    }
}

/// One `== case / family` block per run, in a fixed order.
fn render() -> String {
    let (engine, mut s) = (engine(), String::new());
    for case in cases() {
        for (label, alg) in families() {
            render_block(&mut s, &engine, &case, label, alg.as_ref());
        }
    }
    s
}

/// The 2-way cases: each Allen predicate written `R1 p R2` and `R2 p R1`,
/// then two queries whose second condition restates the first.
fn two_way_cases() -> Vec<Case> {
    let mut queries = Vec::new();
    for pred in AllenPredicate::ALL {
        queries.push((format!("2way R1 {pred} R2"), vec![(0, pred, 1)]));
        queries.push((format!("2way R2 {pred} R1"), vec![(1, pred, 0)]));
    }
    queries.push((
        "2way equals twice".into(),
        vec![(0, Equals, 1), (1, Equals, 0)],
    ));
    queries.push((
        "2way before-after".into(),
        vec![(0, Before, 1), (1, After, 0)],
    ));
    (queries.into_iter().enumerate())
        .map(|(i, (name, conds))| {
            let conds = conds.into_iter().map(|(l, p, r)| Condition::whole(l, p, r));
            let query = JoinQuery::new(2, conds.collect()).unwrap();
            case(name, query, 2301 + 2 * i as u64, &[(150, 300, 10); 2])
        })
        .collect()
}

/// The All-Rep cases: [`cases`] (Q0 has a projected relation) plus
/// `R1 before R2 ∧ R1 before R3`, which has no right-most relation.
fn all_replicate_cases() -> Vec<Case> {
    let no_rightmost = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Before, 1),
            Condition::whole(0, Before, 2),
        ],
    )
    .unwrap();
    let mut all = cases();
    all.push(case(
        "no-rightmost",
        no_rightmost,
        2201,
        &[(40, 800, 30); 3],
    ));
    all
}

/// The capture of the two families whose jobs were hand-rolled: every
/// case in both output modes.
fn render_routed() -> String {
    let (engine, mut s) = (engine(), String::new());
    let modes = [("", OutputMode::Materialize), (" count", OutputMode::Count)];
    for case in two_way_cases() {
        for (suffix, mode) in modes {
            let alg = TwoWayJoin {
                partitions: K,
                mode,
            };
            render_block(&mut s, &engine, &case, &format!("2-way{suffix}"), &alg);
        }
    }
    for case in all_replicate_cases() {
        for (suffix, mode) in modes {
            let alg = AllReplicate {
                partitions: K,
                mode,
            };
            render_block(&mut s, &engine, &case, &format!("all-rep{suffix}"), &alg);
        }
    }
    s
}

/// The composite cases: [`cases`], a two-relation case and Q5 (Section
/// 9.1) — an interval and one or two real-valued attributes per relation,
/// the values drawn from a small domain so the equalities match.
fn composite_cases() -> Vec<Case> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut all = cases();
    let two = JoinQuery::new(2, vec![Condition::whole(1, Overlaps, 0)]).unwrap();
    all.push(case("two-relation", two, 2401, &[(120, 1200, 40); 2]));
    let meta = |name: &str, attrs: &[&str]| RelationMeta {
        name: name.into(),
        attr_names: attrs.iter().map(|a| a.to_string()).collect(),
    };
    let q5 = JoinQuery::with_relations(
        vec![
            meta("R1", &["I", "A"]),
            meta("R2", &["I", "B"]),
            meta("R3", &["I", "A", "B"]),
        ],
        vec![
            Condition::new(AttrRef::new(0, 0), Before, AttrRef::new(1, 0)),
            Condition::new(AttrRef::new(0, 0), Overlaps, AttrRef::new(2, 0)),
            Condition::new(AttrRef::new(0, 1), Equals, AttrRef::new(2, 1)),
            Condition::new(AttrRef::new(1, 1), Equals, AttrRef::new(2, 2)),
        ],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2501);
    let relations = (q5.relations().iter())
        .map(|m| {
            let rows: Vec<Vec<Interval>> = (0..60)
                .map(|_| {
                    let s = rng.gen_range(0..600i64);
                    let mut row = vec![Interval::new(s, s + rng.gen_range(1..60)).unwrap()];
                    row.resize_with(m.attr_names.len(), || Interval::point(rng.gen_range(0..6)));
                    row
                })
                .collect();
            Relation::from_rows(m.name.clone(), rows)
        })
        .collect();
    let input = JoinInput::bind_owned(&q5, relations).unwrap();
    let name = "q5-multi-attribute".to_string();
    all.push(Case {
        name,
        query: q5,
        input,
    });
    all
}

/// The families whose records carry several intervals, and 1-Bucket-Theta,
/// in `mode`.
fn composite_families(mode: OutputMode) -> Vec<(&'static str, Box<dyn Algorithm>)> {
    vec![
        (
            "2-way-cd",
            Box::new(TwoWayCascade {
                mode,
                ..TwoWayCascade::new(K)
            }),
        ),
        (
            "fstc",
            Box::new(Fstc {
                mode,
                ..Fstc::new(K, K)
            }),
        ),
        (
            "fcts",
            Box::new(Fcts {
                mode,
                ..Fcts::new(K, K)
            }),
        ),
        (
            "gen-matrix",
            Box::new(GenMatrix {
                mode,
                ..GenMatrix::new(K)
            }),
        ),
        (
            "1-bucket-theta",
            Box::new(OneBucketTheta {
                mode,
                ..OneBucketTheta::new(3, 4)
            }),
        ),
    ]
}

/// The capture of the composite families: every composite case, every
/// family in both output modes, with the cascade's and 1-Bucket-Theta's
/// route counters.
fn render_composite() -> String {
    let (engine, mut s) = (engine(), String::new());
    let modes = [("", OutputMode::Materialize), (" count", OutputMode::Count)];
    for case in composite_cases() {
        for (suffix, mode) in modes {
            for (label, alg) in composite_families(mode) {
                writeln!(s, "== {} / {label}{suffix}", case.name).unwrap();
                match alg.run(&case.query, &case.input, &engine) {
                    Ok(out) => {
                        s.push_str(&render_run(&out));
                        let c = out.chain.total_counters();
                        writeln!(
                            s,
                            "counters cascade comp={} base={} onebucket row={} col={}",
                            c.get("cascade.comp_pairs"),
                            c.get("cascade.base_pairs"),
                            c.get("onebucket.row_copies"),
                            c.get("onebucket.col_copies"),
                        )
                        .unwrap();
                    }
                    Err(e) => writeln!(s, "error: {e}").unwrap(),
                }
            }
        }
    }
    s
}

fn blocks(text: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    for line in text.lines() {
        match line.strip_prefix("== ") {
            Some(header) => out.push((header.to_string(), Vec::new())),
            None => out
                .last_mut()
                .expect("capture starts with a header")
                .1
                .push(line.to_string()),
        }
    }
    out
}

/// A line with its work taken out: every reducer's `work` in a `cycle`
/// line's loads and the `candidates=` count of a `counters` line replaced
/// by `_`, and those values in order.
fn split_work(line: &str) -> (String, Vec<u64>) {
    let mut work = Vec::new();
    let mut take = |n: &str| {
        work.push(n.parse::<u64>().unwrap());
        "_".to_string()
    };
    let skeleton = match line.split_once("=[") {
        Some((head, loads)) if line.starts_with("cycle ") => {
            let loads = loads.trim_end_matches(']').split(' ').map(|load| {
                let f: Vec<&str> = load.split(':').collect();
                match f[..] {
                    [key, pairs, w, out] => format!("{key}:{pairs}:{}:{out}", take(w)),
                    _ => load.to_string(),
                }
            });
            format!("{head}=[{}]", loads.collect::<Vec<_>>().join(" "))
        }
        _ => (line.split(' '))
            .map(|t| match t.strip_prefix("candidates=") {
                Some(n) => format!("candidates={}", take(n)),
                None => t.to_string(),
            })
            .collect::<Vec<_>>()
            .join(" "),
    };
    (skeleton, work)
}

/// `got` is `expected` line for line but for work, which is no more than
/// `expected`'s wherever it stands ([`split_work`]).
fn same_but_work(got: &[String], expected: &[String], header: &str) {
    assert_eq!(got.len(), expected.len(), "{header}: {got:?}");
    for (g, e) in got.iter().zip(expected) {
        let ((g_line, g_work), (e_line, e_work)) = (split_work(g), split_work(e));
        assert_eq!(g_line, e_line, "{header}");
        assert_eq!(g_work.len(), e_work.len(), "{header}: {g}");
        let more = g_work.iter().zip(&e_work).any(|(g, e)| g > e);
        assert!(!more, "{header}: more work than captured\n{g}\n{e}");
    }
}

/// `got` is `capture` block for block.
fn same_blocks(got: &[(String, Vec<String>)], capture: &str) {
    let capture = blocks(capture);
    same_headers(got, &capture);
    for ((header, got), (_, captured)) in got.iter().zip(&capture) {
        assert_eq!(got, captured, "{header}");
    }
}

/// Difference 1: drops the `name=<stage>` field of a `cycle` line.
fn without_stage_name(line: &str) -> String {
    match line.find(" pairs=") {
        Some(at) if line.starts_with("cycle name=") => format!("cycle{}", &line[at..]),
        _ => line.to_string(),
    }
}

/// The same runs in the same order as the capture.
fn same_headers(got: &[(String, Vec<String>)], expected: &[(String, Vec<String>)]) {
    assert_eq!(
        got.iter().map(|b| &b.0).collect::<Vec<_>>(),
        expected.iter().map(|b| &b.0).collect::<Vec<_>>(),
        "same runs in the same order"
    );
}

/// The mark cycle's pairs, counted from the case's data without the
/// pipeline, or `None` if a family runs no mark stage. A marked group —
/// every relation for RCCIS, each colocation component of two or more
/// relations for All-Seq-Matrix / PASM — of `m` relations whose longest
/// interval is `L` sends the copy of an interval at partition `p` when
/// `end >= b[p+1] − R` or `start < b[p] + R`, with `R = (m − 2) · L`;
/// without the crossing condition, every copy. RCCIS marks on its `K`
/// partitions; the hybrid families, with two or three dimensions, on the
/// `K` equi-width partitions each cut into `D`. Every group of these cases is
/// connected over all of its relations.
fn near_copies(case: &Case, label: &str) -> Option<u64> {
    let (q, input) = (&case.query, &case.input);
    let m = q.num_relations() as usize;
    let comps = q.components();
    let components = comps.components.iter();
    let (part, groups): (Partitioning, Vec<Vec<usize>>) = match label {
        _ if label.starts_with("rccis") => {
            let strategy = match label {
                "rccis equi-depth" => PartitionStrategy::EquiDepth,
                _ => PartitionStrategy::EquiWidth,
            };
            let one_component =
                comps.components.len() == 1 && comps.components[0].vertices.len() == m;
            if !one_component {
                return None; // RCCIS refuses sequence predicates
            }
            let part = RunArtifacts::partition_input(input, K, strategy).unwrap();
            (part, vec![(0..m).collect()])
        }
        "asm" | "pasm" | "pasm count" => {
            let members = components.map(|c| c.vertices.iter().map(|v| v.rel.idx()).collect());
            let groups: Vec<Vec<usize>> = members.filter(|g: &Vec<usize>| g.len() > 1).collect();
            let part = RunArtifacts::partition_span(input.span(), K).unwrap();
            let dims = comps.components.len();
            let fine = (2..=3).contains(&dims).then(|| part.refine(dims));
            (fine.flatten().unwrap_or(part), groups)
        }
        _ => return None,
    };
    if groups.is_empty() {
        return None;
    }
    let b: Vec<i128> = part.boundaries().iter().map(|&t| t as i128).collect();
    let mut copies = 0;
    for group in groups {
        let intervals = || {
            group
                .iter()
                .flat_map(|&r| input.relations()[r].tuples())
                .map(|t| t.interval())
        };
        let longest = intervals()
            .map(|iv| iv.end() as i128 - iv.start() as i128)
            .max()
            .unwrap_or(0);
        let reach = (group.len() as i128 - 2) * longest;
        for iv in intervals() {
            let (start, end) = (iv.start() as i128, iv.end() as i128);
            for p in (0..part.len()).filter(|&p| part.intersects_partition(iv, p)) {
                let near = end >= b[p + 1] - reach || start < b[p] + reach;
                copies += (near || label == "rccis no-crossing") as u64;
            }
        }
    }
    Some(copies)
}

/// Difference 4, counted from the case's sizes and the capture's prune
/// line `captured` without the pipeline: the pairs PASM's prune ships, or
/// `None` if no marked group broadcasts. Group `g` is the `g`-th
/// colocation component, the dimension All-Seq-Matrix gives it, and the
/// captured loads of reducers `g * K .. (g + 1) * K` sum to its shuffled
/// count. A group of two or more members whose sizes are not all equal
/// broadcasts when `side × K`, `side` the size of all its members but the
/// largest, is below that count, and then ships `side × K`.
fn broadcast_copies(case: &Case, captured: &str) -> Option<u64> {
    let loads = captured.split_once("=[").expect("a loads field").1;
    let mut shuffled = vec![0u64; case.query.num_relations() as usize];
    for load in loads.trim_end_matches(']').split(' ') {
        let mut fields = load.split(':').map(|f| f.parse::<u64>().unwrap());
        let (key, pairs) = (fields.next().unwrap(), fields.next().unwrap());
        shuffled[key as usize / K] += pairs;
    }
    let size = |r: usize| case.input.relations()[r].len() as u64;
    let (mut broadcast, mut pairs, k) = (false, 0, K as u64);
    for (g, comp) in case.query.components().components.iter().enumerate() {
        let sizes: Vec<u64> = comp.vertices.iter().map(|v| size(v.rel.idx())).collect();
        let largest = sizes.iter().copied().max().unwrap_or(0);
        let side = sizes.iter().sum::<u64>() - largest;
        let equal = sizes.iter().all(|&n| n == largest);
        if sizes.len() > 1 && !equal && side * k < shuffled[g] {
            broadcast = true;
            pairs += side * k;
        } else {
            pairs += shuffled[g];
        }
    }
    broadcast.then_some(pairs)
}

/// Whether `label` is a matrix family, pinned by the PR 33 capture.
fn is_matrix(label: &str) -> bool {
    ["all-matrix", "asm", "pasm"]
        .iter()
        .any(|f| label.starts_with(f))
}

/// The `name=` field of a `cycle` line.
fn field_of(line: &str, name: &str) -> u64 {
    let field = line.split(' ').find_map(|f| f.strip_prefix(name));
    field.expect("a cycle line").parse().unwrap()
}

/// The `pairs=` field of a `cycle` line.
fn pairs_of(line: &str) -> u64 {
    field_of(line, "pairs=")
}

/// The `k_d` of a block's `grid` line; empty for one dimension.
fn grid_of(block: &[String]) -> Vec<usize> {
    let Some(line) = block.iter().find(|l| l.starts_with("grid k=[")) else {
        return Vec::new();
    };
    let ks = line["grid k=[".len()..].split_once(']').unwrap().0;
    ks.split(", ").map(|k| k.parse().unwrap()).collect()
}

/// The consistent cells of a block's `stats` line, if it reports them.
fn cells_of(block: &[String]) -> Option<u64> {
    let stats = block.iter().find(|l| l.starts_with("stats "))?;
    let cells = stats.split_once("cells=Some((")?.1.split_once(',')?.0;
    Some(cells.parse().unwrap())
}

#[test]
fn every_family_reproduces_the_parent_capture() {
    let expected = blocks(PARENT_CAPTURE);
    let got = blocks(&render());
    same_blocks(&got, CAPTURE);
    same_headers(&got, &expected);
    let mut pinned = blocks(MATRIX_CAPTURE).into_iter();
    let all = cases();
    let runs: Vec<(&Case, &str)> = (all.iter())
        .flat_map(|case| families().into_iter().map(move |(label, _)| (case, label)))
        .collect();
    assert_eq!(runs.len(), got.len());
    let (mut marks, mut broadcasts, mut shuffled_prunes, mut paper_plans) = (0, 0, 0, 0);
    for (((header, got), (_, expected)), (case, label)) in got.iter().zip(&expected).zip(runs) {
        let stage = |block: &[String], suffix: &str| {
            (block.iter()).position(|l| l.starts_with("cycle name=") && l.contains(suffix))
        };
        // Difference 3: the mark cycle ships exactly the near copies.
        let (near, mark) = (near_copies(case, label), stage(got, "-mark "));
        assert_eq!(mark.is_some(), near.is_some(), "{header}: a mark stage");
        if let (Some(at), Some(near)) = (mark, near) {
            assert_eq!(
                pairs_of(&got[at]),
                near,
                "{header}: mark pairs are the near copies"
            );
            marks += 1;
        }
        // Difference 4: a broadcasting prune ships side × K, whatever grid
        // the marking used.
        let prune = stage(got, "-prune ").zip(stage(expected, "-prune "));
        let broadcast = prune.and_then(|(at, was)| {
            let copies = broadcast_copies(case, &expected[was])?;
            let (pairs, captured) = (pairs_of(&got[at]), pairs_of(&expected[was]));
            assert_eq!(pairs, copies, "{header}: prune pairs are side × K");
            let record = field_of(&expected[was], "bytes=") / captured;
            assert_eq!(field_of(&got[at], "bytes="), pairs * record, "{header}");
            assert!(pairs < captured, "{header}: {pairs} >= {captured}");
            Some((at, was))
        });
        broadcasts += broadcast.is_some() as usize;
        shuffled_prunes += (prune.is_some() && broadcast.is_none()) as usize;
        // Difference 5: a matrix block is pinned whole; against the paper's
        // grid it has the same output on no more cells.
        let grid = grid_of(got);
        if is_matrix(label) {
            let (pinned_header, pinned) = pinned.next().expect("a pinned matrix block");
            assert_eq!(&pinned_header, header);
            same_but_work(got, &pinned, header);
            let count =
                |block: &[String]| block[0].split(' ').take(2).collect::<Vec<_>>().join(" ");
            assert_eq!(count(got), count(expected), "{header}");
            let (cells, paper) = (cells_of(got), cells_of(expected));
            assert!(cells.zip(paper).is_some_and(|(c, p)| c <= p), "{header}");
            let refined = mark.is_some() && (2..=3).contains(&grid.len());
            if refined || grid.iter().any(|&k| k != K) {
                continue;
            }
            paper_plans += 1;
        }
        let mut expected: Vec<String> = expected.iter().map(|l| without_stage_name(l)).collect();
        let mut got: Vec<String> = (got.iter())
            .filter(|l| !l.starts_with("grid "))
            .map(|l| without_stage_name(l))
            .collect();
        // Difference 2: on the all-singleton query the hybrid families'
        // pass-through cycles are gone; the join cycle is the last one.
        if header.starts_with("q2-sequence / asm") || header.starts_with("q2-sequence / pasm") {
            let cycles = expected.iter().filter(|l| l.starts_with("cycle")).count();
            let mut seen = 0;
            expected.retain(|l| {
                seen += l.starts_with("cycle") as usize;
                !l.starts_with("cycle") || seen == cycles
            });
            assert_eq!(
                got.iter().filter(|l| l.starts_with("cycle")).count(),
                1,
                "{header}: the join runs alone"
            );
        }
        // The prune line follows the mark line, so it goes first.
        if let Some((at, was)) = broadcast {
            got.remove(at);
            expected.remove(was);
        }
        if let Some(at) = mark {
            let (pairs, captured) = (pairs_of(&got[at]), pairs_of(&expected[at]));
            assert!(pairs <= captured, "{header}: {pairs} > {captured}");
            got.remove(at);
            expected.remove(at);
        }
        same_but_work(&got, &expected, header);
    }
    assert!(pinned.next().is_none(), "every pinned block is a run");
    // RCCIS on two colocation cases, three settings each; ASM and PASM
    // (twice) on Q1, Q0, Q4 and Q3.
    assert_eq!(marks, 2 * 3 + 4 * 3);
    // Both prune routes ran: Q4's PASM blocks broadcast, the rest shuffle.
    assert_eq!((broadcasts, shuffled_prunes), (2, 6));
    // The one-dimension ASM / PASM blocks (Q1, Q0), the all-singleton
    // ones (Q2) and every All-Matrix block that keeps the paper grid.
    assert_eq!(paper_plans, 2 * 3 + 3 + 2 * 4);
}

#[test]
fn two_way_and_all_replicate_reproduce_the_parent_capture() {
    let expected = blocks(ROUTED_CAPTURE);
    let got = blocks(&render_routed());
    same_blocks(&got, ROUTED);
    same_headers(&got, &expected);
    for ((header, got), (_, expected)) in got.iter().zip(&expected) {
        let strip = |lines: &[String]| lines.iter().map(|l| without_stage_name(l)).collect();
        let (got, expected): (Vec<String>, Vec<String>) = (strip(got), strip(expected));
        same_but_work(&got, &expected, header);
    }
}

/// The cascade, FSTC, FCTS, Gen-Matrix and 1-Bucket-Theta reproduce
/// `results/pr42/family_pins_composite.txt` byte for byte.
#[test]
fn composite_families_reproduce_the_capture() {
    same_blocks(&blocks(&render_composite()), COMPOSITE);
}

/// On an all-sequence query no component has two vertices, so the marking
/// could flag nothing: Gen-Matrix runs its join cycle alone.
#[test]
fn gen_matrix_skips_the_mark_cycle_when_nothing_can_be_marked() {
    let all = cases();
    let case = all.iter().find(|c| c.name == "q2-sequence").unwrap();
    let out = run(&GenMatrix::new(K), case);
    let names: Vec<&str> = out.chain.cycles.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["gen-matrix-join"]);
    assert_eq!(out.stats.replicated_intervals, Some(0));
}

fn run(alg: &dyn Algorithm, case: &Case) -> JoinOutput {
    alg.run(&case.query, &case.input, &engine()).unwrap()
}

/// Per-cycle `(pairs, bytes, loads)` — what a cycle shuffled and did,
/// whatever it is called.
fn traffic(out: &JoinOutput) -> Vec<(u64, u64, Vec<ReducerLoad>)> {
    out.chain
        .cycles
        .iter()
        .map(|c| {
            (
                c.intermediate_pairs,
                c.shuffle_bytes,
                c.reducer_loads.clone(),
            )
        })
        .collect()
}

/// Output is columnar: a materializing reducer writes its rows as one
/// record (a block), not one record per tuple — while the loads and bytes
/// the capture pins above keep counting rows.
#[test]
fn a_materialized_run_writes_at_most_one_record_per_reducer() {
    let all = cases();
    let case = all.iter().find(|c| c.name == "q1-colocation").unwrap();
    let out = run(&Rccis::new(K), case);
    let join = out.chain.cycles.last().unwrap();
    assert!(out.count > join.distinct_reducers, "pin is vacuous");
    assert!(join.output_records <= join.distinct_reducers);
    let rows: u64 = join.reducer_loads.iter().map(|l| l.output).sum();
    assert_eq!(rows, out.count);
    assert_eq!(join.output_bytes, out.count * (1 + 4 * 3));
}

#[test]
fn rccis_is_all_seq_matrix_with_one_dimension() {
    for case in cases().iter().filter(|c| c.name.ends_with("colocation")) {
        let rccis = run(&Rccis::new(K), case);
        let asm = run(&AllSeqMatrix::new(K), case);
        assert!(!rccis.tuples.is_empty());
        assert_eq!(rccis.tuples, asm.tuples, "{}: emission order", case.name);
        assert_eq!(traffic(&rccis), traffic(&asm), "{}", case.name);
        assert_eq!(
            rccis.stats.replicated_intervals,
            asm.stats.replicated_intervals
        );
        // Pruning shortens candidate lists, which may reorder the kernel's
        // bindings: PASM's output is the same set, not the same sequence.
        assert_eq!(
            run(&Pasm::new(K), case).sorted_tuples(),
            rccis.sorted_tuples()
        );
    }
}

#[test]
fn all_matrix_is_all_seq_matrix_with_singleton_dimensions() {
    let all = cases();
    let case = all.iter().find(|c| c.name == "q2-sequence").unwrap();
    let am = run(&AllMatrix::new(K), case);
    assert!(!am.tuples.is_empty());
    for hybrid in [run(&AllSeqMatrix::new(K), case), run(&Pasm::new(K), case)] {
        assert_eq!(hybrid.tuples, am.tuples, "emission order");
        assert_eq!(traffic(&hybrid), traffic(&am), "one cycle, the same cycle");
        assert_eq!(hybrid.stats.consistent_cells, am.stats.consistent_cells);
        assert_eq!(hybrid.stats.replicated_intervals, Some(0));
    }
}

#[test]
fn pasm_is_all_seq_matrix_with_a_prune_stage() {
    let paper_pairs = |out: &JoinOutput| out.chain.counter("matrix.paper_grid_join_pairs");
    for case in cases().iter().filter(|c| c.name.ends_with("hybrid")) {
        let asm = run(&AllSeqMatrix::new(K), case);
        let pasm = run(&Pasm::new(K), case);
        assert!(!asm.tuples.is_empty());
        assert_eq!(pasm.sorted_tuples(), asm.sorted_tuples(), "{}", case.name);
        // The marking cycle is the same cycle; the prune stage sits
        // between it and a join that ships no more than the paper grid
        // would, which ships no more than ASM's paper grid.
        assert_eq!(traffic(&pasm)[0], traffic(&asm)[0], "{}", case.name);
        assert_eq!(pasm.chain.num_cycles(), asm.chain.num_cycles() + 1);
        let (pasm_join, asm_join) = (
            pasm.chain.cycles[2].intermediate_pairs,
            asm.chain.cycles[1].intermediate_pairs,
        );
        assert!(pasm_join <= asm_join, "{}", case.name);
        assert!(pasm_join <= paper_pairs(&pasm));
        assert!(paper_pairs(&pasm) <= paper_pairs(&asm), "{}", case.name);
        assert!(asm_join <= paper_pairs(&asm));
        assert_eq!(
            pasm.stats.replicated_intervals,
            asm.stats.replicated_intervals
        );
        // Pruning can change the pick; each is on no more cells than the
        // paper grid's.
        let q = &case.query;
        let comps = q.components();
        let part = RunArtifacts::partition_span(case.input.span(), K).unwrap();
        let constraints = q.start_order().component_constraints(&comps);
        let paper = CellSpace::new(&vec![&part; comps.len()], constraints).unwrap();
        let paper = (paper.consistent_cells().len() as u64, paper.total_cells());
        for out in [&asm, &pasm] {
            let (cells, total) = out.stats.consistent_cells.unwrap();
            assert!(cells <= paper.0 && total <= paper.1, "{}", case.name);
        }
    }
}
