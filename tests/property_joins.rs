//! Property-based tests (proptest) over the core invariants.
//!
//! * Allen's algebra: exactly one of the thirteen relations holds for any
//!   interval pair; converses and operand orders are consistent.
//! * Project/split/replicate containment invariants on arbitrary
//!   partitionings.
//! * Distributed-vs-oracle agreement for the flagship algorithms on
//!   arbitrary data and several query shapes.
//! * Metamorphic legs: a query and its mirror image, its time shift or its
//!   reversal return the same tuples, with no oracle, through six
//!   families, each of which counts as many tuples as it materializes.

use ij_core::algorithm::AlgoError;
use ij_core::all_matrix::AllMatrix;
use ij_core::all_replicate::AllReplicate;
use ij_core::cascade::TwoWayCascade;
use ij_core::gen_matrix::GenMatrix;
use ij_core::hybrid::{AllSeqMatrix, Fcts, Fstc, Pasm};
use ij_core::one_bucket::OneBucketTheta;
use ij_core::oracle::oracle_join;
use ij_core::rccis::Rccis;
use ij_core::two_way::TwoWayJoin;
use ij_core::{Algorithm, JoinInput, OutputMode, OutputTuple};
use ij_interval::AllenPredicate::{self, *};
use ij_interval::{ops, Interval, Partitioning, Relation};
use ij_mapreduce::{ClusterConfig, Engine};
use ij_query::{Condition, JoinQuery};
use proptest::prelude::*;

fn interval_strategy(span: i64, max_len: i64) -> impl Strategy<Value = Interval> {
    (0..span, 0..=max_len).prop_map(|(s, l)| Interval::new(s, s + l).unwrap())
}

fn relation_strategy(n: usize, span: i64, max_len: i64) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(interval_strategy(span, max_len), 1..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exactly_one_allen_relation(a in interval_strategy(60, 20), b in interval_strategy(60, 20)) {
        let holding: Vec<_> = AllenPredicate::ALL.iter().filter(|p| p.holds(a, b)).collect();
        prop_assert_eq!(holding.len(), 1);
        prop_assert_eq!(*holding[0], AllenPredicate::relate(a, b));
    }

    #[test]
    fn converse_consistency(a in interval_strategy(60, 20), b in interval_strategy(60, 20)) {
        for p in AllenPredicate::ALL {
            prop_assert_eq!(p.holds(a, b), p.inverse().holds(b, a));
        }
    }

    #[test]
    fn op_invariants(
        u in interval_strategy(200, 80),
        k in 1usize..12,
    ) {
        let part = Partitioning::equi_width(0, 280, k).unwrap();
        let proj = ops::project(u, &part);
        let split = ops::split(u, &part);
        let repl = ops::replicate(u, &part);
        prop_assert!(split.contains(&proj));
        prop_assert_eq!(split.start, repl.start);
        prop_assert!(split.end <= repl.end);
        prop_assert_eq!(repl.end, part.len());
        // Split covers exactly the partitions u intersects.
        for i in part.indices() {
            prop_assert_eq!(split.contains(&i), part.intersects_partition(u, i));
        }
    }

    #[test]
    fn rccis_agrees_with_oracle(
        r1 in relation_strategy(25, 150, 40),
        r2 in relation_strategy(25, 150, 40),
        r3 in relation_strategy(25, 150, 40),
        k in 2usize..9,
    ) {
        let q = JoinQuery::chain(&[Overlaps, Contains]).unwrap();
        let input = JoinInput::bind_owned(&q, vec![
            Relation::from_intervals("R1", r1),
            Relation::from_intervals("R2", r2),
            Relation::from_intervals("R3", r3),
        ]).unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let got = Rccis::new(k).run(&q, &input, &engine).unwrap().assert_no_duplicates();
        prop_assert_eq!(got, oracle_join(&q, &input));
    }

    #[test]
    fn all_matrix_agrees_with_oracle(
        r1 in relation_strategy(20, 120, 30),
        r2 in relation_strategy(20, 120, 30),
        o in 2usize..7,
    ) {
        let q = JoinQuery::chain(&[Before]).unwrap();
        let input = JoinInput::bind_owned(&q, vec![
            Relation::from_intervals("R1", r1),
            Relation::from_intervals("R2", r2),
        ]).unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let got = AllMatrix::new(o).run(&q, &input, &engine).unwrap().assert_no_duplicates();
        prop_assert_eq!(got, oracle_join(&q, &input));
    }

    #[test]
    fn all_seq_matrix_agrees_with_oracle(
        r1 in relation_strategy(18, 150, 50),
        r2 in relation_strategy(18, 150, 50),
        r3 in relation_strategy(18, 150, 50),
        o in 2usize..6,
    ) {
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let input = JoinInput::bind_owned(&q, vec![
            Relation::from_intervals("R1", r1),
            Relation::from_intervals("R2", r2),
            Relation::from_intervals("R3", r3),
        ]).unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let got = AllSeqMatrix::new(o).run(&q, &input, &engine).unwrap().assert_no_duplicates();
        prop_assert_eq!(got, oracle_join(&q, &input));
    }

    #[test]
    fn gen_matrix_agrees_on_two_attribute_queries(
        rows1 in proptest::collection::vec((0i64..100, 0i64..30, 0i64..6), 1..15),
        rows2 in proptest::collection::vec((0i64..100, 0i64..30, 0i64..6), 1..15),
        o in 2usize..6,
    ) {
        use ij_query::{AttrRef, Condition, query::RelationMeta};
        let q = JoinQuery::with_relations(
            vec![
                RelationMeta { name: "A".into(), attr_names: vec!["I".into(), "k".into()] },
                RelationMeta { name: "B".into(), attr_names: vec!["I".into(), "k".into()] },
            ],
            vec![
                Condition::new(AttrRef::new(0, 0), Overlaps, AttrRef::new(1, 0)),
                Condition::new(AttrRef::new(0, 1), Equals, AttrRef::new(1, 1)),
            ],
        ).unwrap();
        let mk = |rows: Vec<(i64, i64, i64)>, name: &str| Relation::from_rows(
            name,
            rows.into_iter().map(|(s, l, k)| vec![
                Interval::new(s, s + l).unwrap(),
                Interval::point(k),
            ]),
        );
        let input = JoinInput::bind_owned(&q, vec![mk(rows1, "A"), mk(rows2, "B")]).unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        let got = GenMatrix::new(o).run(&q, &input, &engine).unwrap().assert_no_duplicates();
        prop_assert_eq!(got, oracle_join(&q, &input));
    }

    #[test]
    fn random_predicate_chains_agree(
        p1 in 0usize..13,
        p2 in 0usize..13,
        r1 in relation_strategy(12, 80, 25),
        r2 in relation_strategy(12, 80, 25),
        r3 in relation_strategy(12, 80, 25),
    ) {
        let preds = [AllenPredicate::ALL[p1], AllenPredicate::ALL[p2]];
        let q = JoinQuery::chain(&preds).unwrap();
        let input = JoinInput::bind_owned(&q, vec![
            Relation::from_intervals("R1", r1),
            Relation::from_intervals("R2", r2),
            Relation::from_intervals("R3", r3),
        ]).unwrap();
        let engine = Engine::new(ClusterConfig::with_slots(4));
        // All-Seq-Matrix handles every single-attribute class uniformly.
        let got = AllSeqMatrix::new(4).run(&q, &input, &engine).unwrap().assert_no_duplicates();
        prop_assert_eq!(got, oracle_join(&q, &input));
    }
}

/// The families the metamorphic legs run: RCCIS, All-Rep and PASM, the
/// All-Matrix and All-Seq-Matrix settings of the component matrix, and
/// the two-way cascade, whose stages join composite buckets.
const FAMILIES: [&str; 11] = [
    "RCCIS",
    "All-Rep",
    "PASM",
    "All-Matrix",
    "All-Seq-Matrix",
    "2-way Cd",
    "FCTS",
    "FSTC",
    "Gen-Matrix",
    "2-way",
    "1-Bucket-Theta",
];

/// Family `f` of [`FAMILIES`] over `k` partitions (the matrices over
/// 2–4 per dimension), in `mode`.
fn family(f: usize, k: usize, mode: OutputMode) -> Box<dyn Algorithm> {
    let per_dim = 2 + k % 3;
    match f {
        0 => Box::new(Rccis {
            mode,
            ..Rccis::new(k)
        }),
        1 => Box::new(AllReplicate {
            mode,
            ..AllReplicate::new(k)
        }),
        2 => Box::new(Pasm {
            mode,
            ..Pasm::new(k)
        }),
        3 => Box::new(AllMatrix {
            mode,
            ..AllMatrix::new(per_dim)
        }),
        4 => Box::new(AllSeqMatrix {
            mode,
            ..AllSeqMatrix::new(per_dim)
        }),
        5 => Box::new(TwoWayCascade {
            mode,
            ..TwoWayCascade::new(k)
        }),
        6 => Box::new(Fcts {
            mode,
            ..Fcts::new(k, per_dim)
        }),
        7 => Box::new(Fstc {
            mode,
            ..Fstc::new(k, per_dim)
        }),
        8 => Box::new(GenMatrix {
            mode,
            ..GenMatrix::new(per_dim)
        }),
        9 => Box::new(TwoWayJoin {
            partitions: k,
            mode,
        }),
        _ => Box::new(OneBucketTheta {
            mode,
            ..OneBucketTheta::new(per_dim, k)
        }),
    }
}

/// Family `f`'s tuples for `q` over `input`, having asserted that the same
/// run in `OutputMode::Count` counts as many; `None` when `f` refuses `q`
/// as unsupported (RCCIS a sequence predicate, say).
fn joined(
    f: usize,
    k: usize,
    q: &JoinQuery,
    input: &JoinInput,
    engine: &Engine,
) -> Option<Vec<OutputTuple>> {
    let rows = match family(f, k, OutputMode::Materialize).run(q, input, engine) {
        Err(AlgoError::Unsupported { .. }) => return None,
        out => out.unwrap().assert_no_duplicates(),
    };
    let counted = family(f, k, OutputMode::Count)
        .run(q, input, engine)
        .unwrap();
    assert_eq!(
        counted.count,
        rows.len() as u64,
        "{} {q} counted",
        FAMILIES[f]
    );
    Some(rows)
}

/// Allen's algebra seen in a mirror (`t → −t`): `p` holds between two
/// intervals exactly when `mirrored(p)` holds between their mirror images.
fn mirrored(p: AllenPredicate) -> AllenPredicate {
    match p {
        Before => After,
        After => Before,
        Meets => MetBy,
        MetBy => Meets,
        Overlaps => OverlappedBy,
        OverlappedBy => Overlaps,
        Starts => Finishes,
        Finishes => Starts,
        StartedBy => FinishedBy,
        FinishedBy => StartedBy,
        Contains | ContainedBy | Equals => p,
    }
}

/// `[s, e] → [−e, −s]`.
fn mirror(iv: Interval) -> Interval {
    Interval::new(-iv.end(), -iv.start()).unwrap()
}

/// A chain and its mirror — every interval `[s, e]` becomes `[−e, −s]`
/// and every predicate its mirror image — return the same tid tuples
/// through every family of [`FAMILIES`] that takes the chain, on one and
/// two threads, materialized and counted, on random chains of one to
/// three conditions away from `i64::MIN` (one condition, so the 2-way
/// families join something). Mirroring moves the right-most start to
/// another relation, so each family's ownership windows bind their `≥ lo`
/// bound at another level.
#[test]
fn mirrored_queries_return_the_same_tuples() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut found = [0usize; FAMILIES.len()];
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let preds: Vec<AllenPredicate> = (0..rng.gen_range(1..4))
            .map(|_| AllenPredicate::ALL[rng.gen_range(0..13)])
            .collect();
        let q = JoinQuery::chain(&preds).unwrap();
        let conditions = (q.conditions().iter())
            .map(|c| Condition::new(c.left, mirrored(c.pred), c.right))
            .collect();
        let m = JoinQuery::new(q.num_relations(), conditions).unwrap();
        let rels: Vec<Vec<Interval>> = (0..q.num_relations())
            .map(|_| {
                let n = rng.gen_range(1..15);
                (0..n)
                    .map(|_| {
                        let s = rng.gen_range(0..120);
                        Interval::new(s, s + rng.gen_range(0..40)).unwrap()
                    })
                    .collect()
            })
            .collect();
        let bind = |q: &JoinQuery, flip: fn(Interval) -> Interval| {
            let relation = |(r, ivs): (usize, &Vec<Interval>)| {
                Relation::from_intervals(format!("R{r}"), ivs.iter().map(|&iv| flip(iv)))
            };
            JoinInput::bind_owned(q, rels.iter().enumerate().map(relation).collect()).unwrap()
        };
        let (input, mirror_input) = (bind(&q, |iv| iv), bind(&m, mirror));
        let k = rng.gen_range(2..7);
        for (f, found) in found.iter_mut().enumerate() {
            for threads in [1, 2] {
                let engine = Engine::new(ClusterConfig {
                    worker_threads: threads,
                    intra_reduce_threads: threads,
                    heavy_bucket_threshold: 8,
                    ..ClusterConfig::with_slots(4)
                });
                let Some(got) = joined(f, k, &q, &input, &engine) else {
                    continue;
                };
                let seen = joined(f, k, &m, &mirror_input, &engine).expect("the mirror runs");
                let at = format!("{} {q} threads {threads} seed {seed}", FAMILIES[f]);
                assert_eq!(seen, got, "{at}");
                *found += got.len();
            }
        }
    }
    for (alg, found) in FAMILIES.iter().zip(found) {
        assert!(found > 0, "{alg}: the chains join nothing");
    }
}

/// A time shift keeps every Allen relation: a chain over `[s, e]` and
/// over `[s + δ, e + δ]` return the same tid tuples through every family
/// of [`FAMILIES`] that takes the chain, on one and two threads,
/// materialized and counted, on chains of one to three conditions. `δ` is
/// random, or pushes the data
/// against `i64::MAX` or `i64::MIN`. Half the inputs are large, and
/// those of one or two conditions enough that a bucket's lists take the
/// radix sort; half of the large ones are
/// stretched so far that their starts span more than the radix passes
/// cover (the comparison sort's side of the limit).
#[test]
fn shifted_queries_return_the_same_tuples() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut found = [0usize; FAMILIES.len()];
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let preds: Vec<AllenPredicate> = (0..rng.gen_range(1..4))
            .map(|_| AllenPredicate::ALL[rng.gen_range(0..13)])
            .collect();
        let q = JoinQuery::chain(&preds).unwrap();
        // A large chain of four relations could join ~n⁴ tuples, and FSTC
        // first joins its sequence conditions alone — a cross product of
        // two pairs when they are not adjacent: its relations are a tenth
        // the size of a shorter chain's, over a tenth of the span, so they
        // are as dense.
        let (n, t_max) = match (seed % 2, preds.len()) {
            (0, _) => (1..15, 120),
            (_, 3) => (30..40, 900),
            _ => (300..400, 9_000),
        };
        // 2^38 · t_max ≥ 2^48 ticks: a span past the radix sort's 44 bits.
        let scale: i64 = if seed % 4 == 3 { 1 << 38 } else { 1 };
        let rels: Vec<Vec<Interval>> = (0..q.num_relations())
            .map(|_| {
                (0..rng.gen_range(n.clone()))
                    .map(|_| {
                        let s = rng.gen_range(0..t_max);
                        Interval::new(s * scale, (s + rng.gen_range(0..40)) * scale).unwrap()
                    })
                    .collect()
            })
            .collect();
        let (lo, hi) = (rels.iter().flatten()).fold((i64::MAX, i64::MIN), |(lo, hi), iv| {
            (lo.min(iv.start()), hi.max(iv.end()))
        });
        // `i64::MIN + r − lo` is below `i64::MIN` for `lo > r`: shifts
        // wrap, and the shifted endpoints themselves stay in range.
        let deltas = [
            rng.gen_range(-1_000_000_000..1_000_000_000),
            i64::MAX - hi - rng.gen_range(0..1_000),
            (i64::MIN + rng.gen_range(0..1_000)).wrapping_sub(lo),
        ];
        let bind = |delta: i64| {
            let relation = |(r, ivs): (usize, &Vec<Interval>)| {
                let at = |t: i64| t.wrapping_add(delta);
                let shift = |iv: &Interval| Interval::new(at(iv.start()), at(iv.end()));
                Relation::from_intervals(format!("R{r}"), ivs.iter().map(|iv| shift(iv).unwrap()))
            };
            JoinInput::bind_owned(&q, rels.iter().enumerate().map(relation).collect()).unwrap()
        };
        let input = bind(0);
        let k = rng.gen_range(2..7);
        for (f, found) in found.iter_mut().enumerate() {
            for threads in [1, 2] {
                let engine = Engine::new(ClusterConfig {
                    worker_threads: threads,
                    intra_reduce_threads: threads,
                    heavy_bucket_threshold: 64,
                    ..ClusterConfig::with_slots(4)
                });
                let Some(got) = joined(f, k, &q, &input, &engine) else {
                    continue;
                };
                for delta in deltas {
                    let seen = joined(f, k, &q, &bind(delta), &engine).expect("the shift runs");
                    let at = format!(
                        "{} {q} δ {delta} threads {threads} seed {seed}",
                        FAMILIES[f]
                    );
                    assert_eq!(seen, got, "{at}");
                }
                *found += got.len();
            }
        }
    }
    for (alg, found) in FAMILIES.iter().zip(found) {
        assert!(found > 0, "{alg}: the chains join nothing");
    }
}

/// A chain read backwards is the same query: relations in reverse order,
/// each predicate replaced by its converse ([`AllenPredicate::inverse`]).
/// Its tuples, reversed back, equal the chain's through every family of
/// [`FAMILIES`] that takes the chain, on one and two threads, materialized
/// and counted. Reversal reorders the relation-major map
/// input, so each map worker opens its keys in another order and the
/// buckets' segments interleave differently.
#[test]
fn permuted_queries_return_the_same_tuples() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut found = [0usize; FAMILIES.len()];
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let preds: Vec<AllenPredicate> = (0..rng.gen_range(1..4))
            .map(|_| AllenPredicate::ALL[rng.gen_range(0..13)])
            .collect();
        let q = JoinQuery::chain(&preds).unwrap();
        let back: Vec<AllenPredicate> = preds.iter().rev().map(|p| p.inverse()).collect();
        let r = JoinQuery::chain(&back).unwrap();
        let m = preds.len() + 1;
        let rels: Vec<Vec<Interval>> = (0..m)
            .map(|_| {
                (0..rng.gen_range(1..40))
                    .map(|_| {
                        let s = rng.gen_range(0..200);
                        Interval::new(s, s + rng.gen_range(0..50)).unwrap()
                    })
                    .collect()
            })
            .collect();
        let bind = |q: &JoinQuery, order: &mut dyn Iterator<Item = usize>| {
            let relation = |r: usize| Relation::from_intervals(format!("R{r}"), rels[r].clone());
            JoinInput::bind_owned(q, order.map(relation).collect()).unwrap()
        };
        let (input, reversed) = (bind(&q, &mut (0..m)), bind(&r, &mut (0..m).rev()));
        let k = rng.gen_range(2..7);
        for (f, found) in found.iter_mut().enumerate() {
            for threads in [1, 2] {
                let engine = Engine::new(ClusterConfig {
                    worker_threads: threads,
                    intra_reduce_threads: threads,
                    heavy_bucket_threshold: 8,
                    ..ClusterConfig::with_slots(4)
                });
                let Some(got) = joined(f, k, &q, &input, &engine) else {
                    continue;
                };
                let mut seen: Vec<_> = (joined(f, k, &r, &reversed, &engine))
                    .expect("the reversal runs")
                    .into_iter()
                    .map(|mut t| {
                        t.reverse();
                        t
                    })
                    .collect();
                seen.sort_unstable();
                let at = format!(
                    "{} {q} reversed {r} threads {threads} seed {seed}",
                    FAMILIES[f]
                );
                assert_eq!(seen, got, "{at}");
                *found += got.len();
            }
        }
    }
    for (alg, found) in FAMILIES.iter().zip(found) {
        assert!(found > 0, "{alg}: the chains join nothing");
    }
}
