//! Cross-algorithm agreement: every algorithm that supports a query class
//! must produce exactly the oracle's output — no missing tuples, no
//! duplicates — across randomized workloads.
//!
//! This is the repository's strongest end-to-end correctness statement:
//! the routing of each algorithm (project/split/replicate choices, RCCIS
//! marking, matrix cells, ownership rules) is validated against an
//! independent single-node join.

use ij_core::all_matrix::AllMatrix;
use ij_core::all_replicate::AllReplicate;
use ij_core::cascade::TwoWayCascade;
use ij_core::gen_matrix::GenMatrix;
use ij_core::hybrid::{AllSeqMatrix, Fcts, Fstc, Pasm};
use ij_core::one_bucket::OneBucketTheta;
use ij_core::oracle::oracle_join;
use ij_core::planner::{plan, PlanConfig};
use ij_core::rccis::Rccis;
use ij_core::two_way::TwoWayJoin;
use ij_core::{Algorithm, JoinInput, OutputTuple, PartitionStrategy};
use ij_interval::AllenPredicate::{self, *};
use ij_interval::{Interval, Relation};
use ij_mapreduce::{ClusterConfig, Engine};
use ij_query::query::RelationMeta;
use ij_query::{AttrRef, Condition, JoinQuery, QueryClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_input(q: &JoinQuery, seed: u64, n: usize, span: i64, max_len: i64) -> JoinInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let rels = (0..q.num_relations())
        .map(|r| {
            Relation::from_intervals(
                format!("R{}", r + 1),
                (0..n).map(|_| {
                    let s = rng.gen_range(0..span);
                    Interval::new(s, s + rng.gen_range(0..=max_len)).unwrap()
                }),
            )
        })
        .collect();
    JoinInput::bind_owned(q, rels).unwrap()
}

/// All algorithms applicable to a single-attribute query of the given class.
fn algorithms_for(q: &JoinQuery) -> Vec<Box<dyn Algorithm>> {
    algorithms_with(q, |k| k)
}

/// The same families, each run with `k(its usual partition count)`.
fn algorithms_with(q: &JoinQuery, k: impl Fn(usize) -> usize) -> Vec<Box<dyn Algorithm>> {
    let mut algs: Vec<Box<dyn Algorithm>> = vec![
        Box::new(AllReplicate::new(k(7))),
        Box::new(TwoWayCascade {
            per_dim_2d: k(4),
            ..TwoWayCascade::new(k(7))
        }),
        Box::new(AllMatrix::new(k(4))),
        Box::new(AllSeqMatrix::new(k(4))),
        Box::new(Pasm::new(k(4))),
        Box::new(Fcts::new(k(5), k(4))),
        Box::new(GenMatrix::new(k(4))),
    ];
    if q.num_relations() == 2 {
        algs.push(Box::new(TwoWayJoin::new(k(6))));
        algs.push(Box::new(OneBucketTheta::new(k(2), k(3))));
    }
    match q.class() {
        QueryClass::Colocation => algs.push(Box::new(Rccis::new(k(6)))),
        QueryClass::Hybrid => algs.push(Box::new(Fstc::new(k(5), k(4)))),
        _ => {}
    }
    algs
}

fn check_query(q: &JoinQuery, seed: u64, n: usize) {
    let input = random_input(q, seed, n, 300, 45);
    let engine = Engine::new(ClusterConfig::with_slots(4));
    let want: Vec<OutputTuple> = oracle_join(q, &input);
    for alg in algorithms_for(q) {
        let got = alg
            .run(q, &input, &engine)
            .unwrap_or_else(|e| panic!("{}: {e} on {q}", alg.name()))
            .assert_no_duplicates();
        assert_eq!(got, want, "{} disagrees on {q} (seed {seed})", alg.name());
    }
}

#[test]
fn colocation_chains() {
    for (i, preds) in [
        vec![Overlaps],
        vec![Overlaps, Overlaps],
        vec![Overlaps, Contains, Overlaps],
        vec![Contains, ContainedBy],
        vec![Meets, Overlaps],
        vec![FinishedBy, Starts],
    ]
    .iter()
    .enumerate()
    {
        check_query(&JoinQuery::chain(preds).unwrap(), 10 + i as u64, 40);
    }
}

#[test]
fn sequence_chains() {
    for (i, preds) in [vec![Before], vec![Before, Before], vec![After, Before]]
        .iter()
        .enumerate()
    {
        check_query(&JoinQuery::chain(preds).unwrap(), 20 + i as u64, 30);
    }
}

#[test]
fn hybrid_chains() {
    for (i, preds) in [
        vec![Overlaps, Before],
        vec![Before, Overlaps],
        vec![Overlaps, Before, Overlaps],
        vec![Contains, Before],
    ]
    .iter()
    .enumerate()
    {
        check_query(&JoinQuery::chain(preds).unwrap(), 30 + i as u64, 25);
    }
}

#[test]
fn star_and_triangle_shapes() {
    use ij_query::Condition;
    // Star: R1 overlaps R2, R1 contains R3.
    let star = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Overlaps, 1),
            Condition::whole(0, Contains, 2),
        ],
    )
    .unwrap();
    check_query(&star, 41, 35);
    // Triangle with a sequence edge: R1 ov R2, R2 ov R3, R1 before... a
    // triangle must stay satisfiable: R1 ov R2, R2 ov R3, R1 contains R3 is
    // impossible (contains needs e3 < e1 but the chain forces e1 < e2 < e3);
    // use R1 ov R3 is impossible too... R3 finishes-after relationships are
    // constrained; pick R1 ov R2, R1 ov R3, R2 starts... keep it simple:
    let triangle = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Overlaps, 1),
            Condition::whole(0, Overlaps, 2),
            Condition::whole(1, Before, 2),
        ],
    )
    .unwrap();
    check_query(&triangle, 42, 35);
}

#[test]
fn fully_random_queries_agree() {
    // Random connected chain queries over the full predicate alphabet.
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..12 {
        let len = rng.gen_range(1..=3);
        let preds: Vec<AllenPredicate> = (0..len)
            .map(|_| AllenPredicate::ALL[rng.gen_range(0..13)])
            .collect();
        let q = JoinQuery::chain(&preds).unwrap();
        check_query(&q, 500 + round, 20);
    }
}

#[test]
fn degenerate_inputs() {
    // Empty relations, single tuples, all-identical intervals.
    let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
    let engine = Engine::new(ClusterConfig::with_slots(4));

    let empty = JoinInput::bind_owned(
        &q,
        vec![
            Relation::from_intervals("A", vec![Interval::new(0, 5).unwrap()]),
            Relation::new("B", 1),
            Relation::from_intervals("C", vec![Interval::new(9, 12).unwrap()]),
        ],
    )
    .unwrap();
    for alg in algorithms_for(&q) {
        let out = alg.run(&q, &empty, &engine).unwrap();
        assert_eq!(out.count, 0, "{} on empty relation", alg.name());
    }

    let identical = JoinInput::bind_owned(
        &q,
        vec![
            Relation::from_intervals("A", vec![Interval::new(5, 10).unwrap(); 8]),
            Relation::from_intervals("B", vec![Interval::new(7, 20).unwrap(); 8]),
            Relation::from_intervals("C", vec![Interval::new(30, 31).unwrap(); 8]),
        ],
    )
    .unwrap();
    let want = oracle_join(&q, &identical);
    assert_eq!(want.len(), 512);
    for alg in algorithms_for(&q) {
        assert_eq!(
            alg.run(&q, &identical, &engine)
                .unwrap()
                .assert_no_duplicates(),
            want,
            "{} on identical intervals",
            alg.name()
        );
    }
}

#[test]
fn one_partition_inputs() {
    // `o = 1`: the join cycle's one reducer (one cell) receives everything
    // and owns every binding; nothing is split or crosses a boundary.
    let engine = Engine::new(ClusterConfig::with_slots(4));
    let mut families = std::collections::BTreeSet::new();
    for (i, preds) in [
        vec![Overlaps],
        vec![Before],
        vec![Overlaps, Contains],
        vec![Overlaps, Before],
        vec![Before, Before],
    ]
    .iter()
    .enumerate()
    {
        let q = JoinQuery::chain(preds).unwrap();
        let input = random_input(&q, 60 + i as u64, 30, 300, 45);
        let want = oracle_join(&q, &input);
        assert!(!want.is_empty(), "{q}: workload too sparse");
        for alg in algorithms_with(&q, |_| 1) {
            let out = alg
                .run(&q, &input, &engine)
                .unwrap_or_else(|e| panic!("{}: {e} on {q}", alg.name()));
            assert_eq!(out.assert_no_duplicates(), want, "{} on {q}", alg.name());
            let join = out.chain.cycles.last().expect("at least one cycle");
            assert_eq!(join.distinct_reducers, 1, "{} on {q}", alg.name());
            families.insert(alg.name());
        }
    }
    assert_eq!(families.len(), 11, "{families:?}");
}

#[test]
fn point_interval_inputs() {
    // Length-0 intervals reduce colocation to equality and sequence to
    // inequality — the Section 6.3/9 degenerate case.
    let q = JoinQuery::chain(&[Equals, Before]).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let rels = (0..3)
        .map(|r| {
            Relation::from_intervals(
                format!("R{r}"),
                (0..40).map(|_| Interval::point(rng.gen_range(0..30))),
            )
        })
        .collect();
    let input = JoinInput::bind_owned(&q, rels).unwrap();
    let engine = Engine::new(ClusterConfig::with_slots(4));
    let want = oracle_join(&q, &input);
    assert!(!want.is_empty());
    for alg in algorithms_for(&q) {
        assert_eq!(
            alg.run(&q, &input, &engine).unwrap().assert_no_duplicates(),
            want,
            "{}",
            alg.name()
        );
    }
}

/// Endpoints at both `i64` extremes and around zero.
const EXTREMES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

/// An interval between two [`EXTREMES`] (a point one time in seven).
fn extreme_interval(rng: &mut StdRng) -> Interval {
    let (a, b) = (rng.gen_range(0..7usize), rng.gen_range(0..7usize));
    Interval::new(EXTREMES[a.min(b)], EXTREMES[a.max(b)]).unwrap()
}

/// `n` tuples per relation of `q`, every attribute drawn by `value`.
fn input_with(
    q: &JoinQuery,
    rng: &mut StdRng,
    n: impl Fn(&mut StdRng) -> usize,
    value: impl Fn(&mut StdRng, u16) -> Interval,
) -> JoinInput {
    let rels = (q.relations().iter())
        .map(|meta| {
            let n = n(rng);
            let rows: Vec<Vec<Interval>> = (0..n)
                .map(|_| {
                    (0..meta.attr_names.len() as u16)
                        .map(|a| value(rng, a))
                        .collect()
                })
                .collect();
            Relation::from_rows(meta.name.clone(), rows)
        })
        .collect();
    JoinInput::bind_owned(q, rels).unwrap()
}

#[test]
fn extreme_endpoint_inputs() {
    // Endpoints at both `i64` extremes: the partitioned span is the whole
    // time domain, so `end + 1` and `tn - t0` do not fit in an `i64`.
    let engine = Engine::new(ClusterConfig::with_slots(4));
    for (i, preds) in [
        vec![Overlaps, Contains],
        vec![Before, Before],
        vec![Overlaps, Before],
    ]
    .iter()
    .enumerate()
    {
        let q = JoinQuery::chain(preds).unwrap();
        let mut rng = StdRng::seed_from_u64(900 + i as u64);
        let input = input_with(&q, &mut rng, |_| 12, |rng, _| extreme_interval(rng));
        let want = oracle_join(&q, &input);
        assert!(!want.is_empty(), "{q}: extreme workload joins nothing");
        let mut algs = algorithms_for(&q);
        algs.push(plan(&q, PlanConfig::default()));
        if q.class() == QueryClass::Colocation {
            algs.push(Box::new(Rccis {
                partition_strategy: PartitionStrategy::EquiDepth,
                ..Rccis::new(6)
            }));
        }
        for alg in algs {
            let got = alg
                .run(&q, &input, &engine)
                .unwrap_or_else(|e| panic!("{}: {e} on {q}", alg.name()))
                .assert_no_duplicates();
            assert_eq!(got, want, "{} disagrees on {q}", alg.name());
        }
    }
    // Random multi-attribute queries through Gen-Matrix at o = 1, 3, 4.
    let mut joined = 0;
    for seed in 0..60 {
        let mut rng = StdRng::seed_from_u64(9100 + seed);
        let q = random_multi_attribute_query(&mut rng);
        let input = input_with(
            &q,
            &mut rng,
            |rng| rng.gen_range(1..8),
            |rng, _| extreme_interval(rng),
        );
        let want = oracle_join(&q, &input);
        joined += want.len();
        for o in [1, 3, 4] {
            let got = (GenMatrix::new(o).run(&q, &input, &engine))
                .unwrap_or_else(|e| panic!("Gen-Matrix: {e} on {q}"))
                .assert_no_duplicates();
            assert_eq!(got, want, "Gen-Matrix at o = {o} on {q} (seed {seed})");
        }
    }
    assert!(joined > 0, "extreme multi-attribute workloads join nothing");
    // Random hybrid trees through the staged baselines.
    let mut joined = 0;
    for seed in 0..80 {
        let mut rng = StdRng::seed_from_u64(9300 + seed);
        let q = random_hybrid_tree(&mut rng);
        let input = input_with(&q, &mut rng, |_| 6, |rng, _| extreme_interval(rng));
        let want = oracle_join(&q, &input);
        joined += want.len();
        let staged: [Box<dyn Algorithm>; 3] = [
            Box::new(TwoWayCascade::new(5)),
            Box::new(Fcts::new(5, 3)),
            Box::new(Fstc::new(5, 3)),
        ];
        for alg in staged {
            let got = alg
                .run(&q, &input, &engine)
                .unwrap_or_else(|e| panic!("{}: {e} on {q}", alg.name()))
                .assert_no_duplicates();
            assert_eq!(got, want, "{} on {q} (seed {seed})", alg.name());
        }
    }
    assert!(joined > 0, "extreme hybrid workloads join nothing");
}

/// A random tree query over 3–5 relations with at least one colocation
/// and one sequence edge, each edge any Allen predicate in either
/// orientation.
fn random_hybrid_tree(rng: &mut StdRng) -> JoinQuery {
    loop {
        let m = rng.gen_range(3..=5u16);
        let conditions = (1..m)
            .map(|r| {
                let (parent, pred) = (
                    rng.gen_range(0..r),
                    AllenPredicate::ALL[rng.gen_range(0..13)],
                );
                match rng.gen_bool(0.5) {
                    true => Condition::whole(parent, pred, r),
                    false => Condition::whole(r, pred, parent),
                }
            })
            .collect();
        let q = JoinQuery::new(m, conditions).unwrap();
        if q.class() == QueryClass::Hybrid {
            return q;
        }
    }
}

/// A random multi-attribute query: 2–3 relations of 1–3 attributes each,
/// a spanning tree of conditions plus up to two more, each between random
/// attributes of two relations with any Allen predicate.
fn random_multi_attribute_query(rng: &mut StdRng) -> JoinQuery {
    let m = rng.gen_range(2..=3u16);
    let arity: Vec<u16> = (0..m).map(|_| rng.gen_range(1..=3)).collect();
    let relations = (0..m)
        .map(|r| RelationMeta {
            name: format!("R{}", r + 1),
            attr_names: (0..arity[r as usize]).map(|a| format!("a{a}")).collect(),
        })
        .collect();
    let condition = |rng: &mut StdRng, l: u16, r: u16| {
        let attr =
            |rng: &mut StdRng, rel: u16| AttrRef::new(rel, rng.gen_range(0..arity[rel as usize]));
        let (left, right) = (attr(rng, l), attr(rng, r));
        Condition::new(left, AllenPredicate::ALL[rng.gen_range(0..13)], right)
    };
    let mut conditions: Vec<Condition> = (1..m)
        .map(|r| {
            let parent = rng.gen_range(0..r);
            condition(rng, parent, r)
        })
        .collect();
    for _ in 0..rng.gen_range(0..=2) {
        let l = rng.gen_range(0..m);
        let r = (l + rng.gen_range(1..m)) % m;
        conditions.push(condition(rng, l, r));
    }
    JoinQuery::with_relations(relations, conditions).unwrap()
}

#[test]
fn random_multi_attribute_queries_agree() {
    // Attribute 0 is an interval; the others are points on a small domain
    // (real values, Section 9) or short intervals, so equalities match.
    let engine = Engine::new(ClusterConfig::with_slots(4));
    let (mut joined, mut shared_components) = (0, 0);
    for seed in 0..60 {
        let mut rng = StdRng::seed_from_u64(9500 + seed);
        let q = random_multi_attribute_query(&mut rng);
        // Two attributes of one relation in one colocation component.
        shared_components += (q.components().components.iter())
            .filter(|c| (c.vertices.windows(2)).any(|w| w[0].rel == w[1].rel))
            .count();
        let input = input_with(
            &q,
            &mut rng,
            |rng| rng.gen_range(1..10),
            |rng, attr| {
                let s = rng.gen_range(0..60i64);
                match attr == 0 || rng.gen_bool(0.5) {
                    true => Interval::new(s, s + rng.gen_range(0..25)).unwrap(),
                    false => Interval::point(s % 8),
                }
            },
        );
        let want = oracle_join(&q, &input);
        joined += want.len();
        let got = (GenMatrix::new(4).run(&q, &input, &engine))
            .unwrap_or_else(|e| panic!("Gen-Matrix: {e} on {q}"))
            .assert_no_duplicates();
        assert_eq!(got, want, "Gen-Matrix on {q} (seed {seed})");
    }
    assert!(joined > 0, "multi-attribute workloads join nothing");
    assert!(
        shared_components > 0,
        "no component holds two attributes of a relation"
    );
}

#[test]
fn relations_no_condition_mentions() {
    // `JoinQuery::new` accepts a relation that no condition names; it joins
    // as a cross product. A family returns exactly that or refuses the
    // query, naming the relation — never a short result.
    use ij_query::Condition;
    let engine = Engine::new(ClusterConfig::with_slots(4));
    for (q, missing) in [
        (
            JoinQuery::new(3, vec![Condition::whole(0, Overlaps, 1)]),
            "R3",
        ),
        (
            JoinQuery::new(
                4,
                vec![
                    Condition::whole(0, Overlaps, 1),
                    Condition::whole(1, Before, 2),
                ],
            ),
            "R4",
        ),
        (
            JoinQuery::new(3, vec![Condition::whole(0, Before, 1)]),
            "R3",
        ),
    ] {
        let q = q.unwrap();
        check_or_refused(&q, &random_input(&q, 7, 12, 100, 40), missing, &engine);
    }
    // Sparse: 20 intervals 8 long, 50 apart, in every relation, so no
    // interval is near a boundary of RCCIS's four partitions and every
    // R3 interval is flagged only because R3 alone is a crossing set.
    let q = JoinQuery::new(3, vec![Condition::whole(0, Overlaps, 1)]).unwrap();
    let rels = (0..3)
        .map(|r: i64| {
            let ivs = (0..20).map(|i| Interval::new(50 * i + 3 * r, 50 * i + 3 * r + 8).unwrap());
            Relation::from_intervals(format!("R{}", r + 1), ivs)
        })
        .collect();
    let input = JoinInput::bind_owned(&q, rels).unwrap();
    assert_eq!(oracle_join(&q, &input).len(), 400);
    check_or_refused(&q, &input, "R3", &engine);
    let rccis = Rccis::new(4).run(&q, &input, &engine).unwrap();
    assert_eq!(rccis.assert_no_duplicates(), oracle_join(&q, &input));
}

/// Every family (and the planner's pick) on `q` returns the oracle's
/// output or refuses the query naming the relation `missing`.
fn check_or_refused(q: &JoinQuery, input: &JoinInput, missing: &str, engine: &Engine) {
    use ij_core::algorithm::AlgoError;
    let want = oracle_join(q, input);
    assert!(!want.is_empty(), "{q}: workload too sparse");
    let mut algs = algorithms_for(q);
    algs.push(plan(q, PlanConfig::default()));
    for alg in algs {
        match alg.run(q, input, engine) {
            Ok(out) => assert_eq!(out.assert_no_duplicates(), want, "{} on {q}", alg.name()),
            Err(AlgoError::Unsupported { reason, .. }) => {
                assert!(reason.contains(missing), "{}: {reason}", alg.name())
            }
            Err(e) => panic!("{}: {e} on {q}", alg.name()),
        }
    }
}

#[test]
fn marked_groups_beyond_the_marking_limit() {
    // 17 relations in one colocation chain: the marking enumerates subsets
    // of at most 16. The marking families refuse before any job runs, and
    // the planner sends the query to All-Rep.
    use ij_core::algorithm::AlgoError;
    let q = JoinQuery::chain(&[Overlaps; 16]).unwrap();
    let mut rng = StdRng::seed_from_u64(1700);
    let rels = (0..17)
        .map(|r: i64| {
            // A staircase that chains, plus short noise.
            let mut ivs = vec![Interval::new(10 * r, 10 * r + 15).unwrap()];
            ivs.extend((0..3).map(|_| {
                let s = rng.gen_range(0..200);
                Interval::new(s, s + rng.gen_range(0..12)).unwrap()
            }));
            Relation::from_intervals(format!("R{}", r + 1), ivs)
        })
        .collect();
    let input = JoinInput::bind_owned(&q, rels).unwrap();
    let engine = Engine::new(ClusterConfig::with_slots(4));
    let marking: Vec<Box<dyn Algorithm>> = vec![
        Box::new(Rccis::new(6)),
        Box::new(AllSeqMatrix::new(4)),
        Box::new(Pasm::new(4)),
    ];
    for alg in marking {
        let err = alg.run(&q, &input, &engine).err();
        assert!(
            matches!(err, Some(AlgoError::Unsupported { .. })),
            "{}: {err:?}",
            alg.name()
        );
    }
    let want = oracle_join(&q, &input);
    assert!(!want.is_empty());
    let pick = plan(&q, PlanConfig::default());
    assert_eq!(pick.name(), "All-Rep");
    let got = pick.run(&q, &input, &engine).unwrap();
    assert_eq!(got.assert_no_duplicates(), want);
}

/// Every partition boundary of `[0, 600)` cut into six, and the point
/// before each: with the span pinned to `[0, 599]`, these are the first
/// and last points of the equi-width partitions at `k = 6`.
const EDGES: [i64; 12] = [0, 99, 100, 199, 200, 299, 300, 399, 400, 499, 500, 599];

/// Intervals whose start, end or both sit on an [`EDGES`] point, a
/// quarter of them points, plus `[0, 0]` and `[599, 599]` in `R1` so the
/// input spans exactly `[0, 599]`.
fn boundary_input(q: &JoinQuery, seed: u64, n: usize) -> JoinInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let rels = (0..q.num_relations())
        .map(|r| {
            let mut ivs: Vec<Interval> = (0..n)
                .map(|_| {
                    let edge = EDGES[rng.gen_range(0..EDGES.len())];
                    let len = rng.gen_range(0..150);
                    let (s, e) = match rng.gen_range(0..4) {
                        0 => (edge, (edge + len).min(599)),
                        1 => ((edge - len).max(0), edge),
                        2 => {
                            let other = EDGES[rng.gen_range(0..EDGES.len())];
                            (edge.min(other), edge.max(other))
                        }
                        _ => (edge, edge),
                    };
                    Interval::new(s, e).unwrap()
                })
                .collect();
            if r == 0 {
                ivs.extend([Interval::point(0), Interval::point(599)]);
            }
            Relation::from_intervals(format!("R{}", r + 1), ivs)
        })
        .collect();
    JoinInput::bind_owned(q, rels).unwrap()
}

/// The families that route single intervals to partitions or cells, at `k`
/// partitions (per dimension); RCCIS with both partitioning strategies.
fn routed_families(q: &JoinQuery, k: usize) -> Vec<Box<dyn Algorithm>> {
    let mut algs: Vec<Box<dyn Algorithm>> = vec![
        Box::new(AllReplicate::new(k)),
        Box::new(AllMatrix::new(k)),
        Box::new(AllSeqMatrix::new(k)),
        Box::new(Pasm::new(k)),
    ];
    if q.num_relations() == 2 {
        algs.push(Box::new(TwoWayJoin::new(k)));
    }
    if q.class() == QueryClass::Colocation {
        for partition_strategy in [PartitionStrategy::EquiWidth, PartitionStrategy::EquiDepth] {
            algs.push(Box::new(Rccis {
                partition_strategy,
                ..Rccis::new(k)
            }));
        }
    }
    algs
}

#[test]
fn endpoints_on_partition_boundaries() {
    // Project, split and replicate must each include a partition whose
    // first point an endpoint sits on and exclude the one it stops short
    // of (paper Fig. 2).
    let engine = Engine::new(ClusterConfig::with_slots(4));
    let mut queries: Vec<JoinQuery> = AllenPredicate::ALL
        .iter()
        .map(|&p| JoinQuery::chain(&[p]).unwrap())
        .collect();
    for preds in [[Overlaps, Overlaps], [Before, Before], [Overlaps, Before]] {
        queries.push(JoinQuery::chain(&preds).unwrap());
    }
    for (i, q) in queries.iter().enumerate() {
        let input = boundary_input(q, 1300 + i as u64, 20);
        let want = oracle_join(q, &input);
        for k in [1, 6] {
            for alg in routed_families(q, k) {
                let got = alg
                    .run(q, &input, &engine)
                    .unwrap_or_else(|e| panic!("{}: {e} on {q}", alg.name()))
                    .assert_no_duplicates();
                assert_eq!(got, want, "{} at k = {k} on {q}", alg.name());
            }
        }
    }
}
