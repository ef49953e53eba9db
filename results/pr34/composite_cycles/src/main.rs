//! Per-cycle traffic and join work of the families whose reducer is the
//! composite join — the 2-way cascade, FCTS, FSTC and Gen-Matrix — on
//! Table-1-style chains and hybrids (seeds 42 and 1234, 300 and 800
//! intervals per relation) and on Q5: per cycle the shuffled pairs and
//! bytes, `join.candidates` and `join.emitted`, per run the output count
//! and a hash of the sorted output tuples.
//!
//! Run: `cargo run --release --offline -- [threads]` (default 2); every
//! count is exact, so one run per side suffices.
use ij_core::cascade::TwoWayCascade;
use ij_core::gen_matrix::GenMatrix;
use ij_core::hybrid::{Fcts, Fstc};
use ij_core::{Algorithm, JoinInput, OutputMode};
use ij_datagen::SynthConfig;
use ij_interval::AllenPredicate::*;
use ij_interval::{Interval, Relation};
use ij_mapreduce::{ClusterConfig, Engine};
use ij_query::query::RelationMeta;
use ij_query::{AttrRef, Condition, JoinQuery};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn q5() -> JoinQuery {
    let meta = |name: &str, attrs: &[&str]| RelationMeta {
        name: name.into(),
        attr_names: attrs.iter().map(|a| a.to_string()).collect(),
    };
    JoinQuery::with_relations(
        vec![meta("R1", &["I", "A"]), meta("R2", &["I", "B"]), meta("R3", &["I", "A", "B"])],
        vec![
            Condition::new(AttrRef::new(0, 0), Before, AttrRef::new(1, 0)),
            Condition::new(AttrRef::new(0, 0), Overlaps, AttrRef::new(2, 0)),
            Condition::new(AttrRef::new(0, 1), Equals, AttrRef::new(2, 1)),
            Condition::new(AttrRef::new(1, 1), Equals, AttrRef::new(2, 2)),
        ],
    )
    .unwrap()
}

fn main() {
    let threads: usize = std::env::args().nth(1).map_or(2, |s| s.parse().expect("a thread count"));
    let engine = Engine::new(ClusterConfig {
        reducer_slots: 16,
        worker_threads: threads,
        intra_reduce_threads: threads,
        heavy_bucket_threshold: 512,
        ..ClusterConfig::default()
    });
    let chains: Vec<(&str, JoinQuery)> = vec![
        ("q1", JoinQuery::chain(&[Overlaps, Overlaps]).unwrap()),
        ("ov-bf", JoinQuery::chain(&[Overlaps, Before]).unwrap()),
        ("bf-ov-ov", JoinQuery::chain(&[Before, Overlaps, Overlaps]).unwrap()),
        ("bf-bf", JoinQuery::chain(&[Before, Before]).unwrap()),
        ("q4", JoinQuery::new(3, vec![Condition::whole(0, Before, 1), Condition::whole(0, Overlaps, 2)]).unwrap()),
        ("ov-ct-bf-ov", JoinQuery::chain(&[Overlaps, Contains, Before, Overlaps]).unwrap()),
        ("extra", JoinQuery::new(4, vec![Condition::whole(0, Overlaps, 1), Condition::whole(1, Overlaps, 2), Condition::whole(0, Before, 2), Condition::whole(2, Overlaps, 3)]).unwrap()),
    ];
    for seed in [42u64, 1234] {
        for n in [300usize, 800] {
            for (qn, q) in &chains {
                // Pure sequence chains emit ~n^3/6 rows: keep them small.
                let n = if *qn == "bf-bf" { n / 4 } else { n };
                let rels: Vec<Relation> = (0..q.num_relations())
                    .map(|r| SynthConfig { t_max: 40 * n as i64, ..SynthConfig::table1(n, seed + r as u64) }.generate(format!("R{r}")))
                    .collect();
                let input = JoinInput::bind_owned(q, rels).unwrap();
                let algos: Vec<Box<dyn Algorithm>> = vec![
                    Box::new(TwoWayCascade { mode: OutputMode::Materialize, ..TwoWayCascade::new(16) }),
                    Box::new(Fcts::new(16, 4)),
                    Box::new(Fstc::new(16, 4)),
                    Box::new(GenMatrix::new(4)),
                ];
                for a in algos {
                    report(&format!("{qn} n={n} seed={seed}"), a.as_ref(), q, &input, &engine);
                }
            }
            // Q5 through Gen-Matrix.
            let q = q5();
            let mut rng = seed;
            let mut next = move |b: u64| { rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); (rng >> 33) % b };
            let rels: Vec<Relation> = q.relations().iter().map(|m| {
                Relation::from_rows(m.name.clone(), (0..n / 4).map(|_| {
                    let s = next(20 * n as u64) as i64;
                    let mut row = vec![Interval::new(s, s + next(300) as i64).unwrap()];
                    row.resize_with(m.attr_names.len(), || Interval::point(next(6) as i64));
                    row
                }).collect::<Vec<_>>())
            }).collect();
            let input = JoinInput::bind_owned(&q, rels).unwrap();
            for o in [3, 5] {
                report(&format!("q5 n={n} seed={seed} o={o}"), &GenMatrix::new(o), &q, &input, &engine);
            }
        }
    }
}

fn report(tag: &str, a: &dyn Algorithm, q: &JoinQuery, input: &JoinInput, engine: &Engine) {
    let out = match a.run(q, input, engine) {
        Ok(o) => o,
        Err(e) => { println!("{tag} {}: ERR {e}", a.name()); return; }
    };
    let mut rows: Vec<Vec<u32>> = out.tuples.iter().map(|r| r.to_vec()).collect();
    rows.sort();
    let mut h = DefaultHasher::new();
    rows.hash(&mut h);
    println!("{tag} {}: count={} hash={:x}", a.name(), out.count, h.finish());
    for c in &out.chain.cycles {
        println!("  {:<22} pairs={:>8} bytes={:>9} cand={:>9} emitted={:>8}", c.name, c.intermediate_pairs, c.shuffle_bytes, c.counters.get("join.candidates"), c.counters.get("join.emitted"));
    }
}
