//! Property tests for the kernel layer. The window scan is a *complete*
//! executor for any single-attribute query, so on random chains and
//! cliques over all 13 Allen predicates it must produce exactly the result
//! set of the `holds`-based reference and of `oracle_join` — as must
//! whatever kernel the dispatcher picks — on ordinary intervals and on
//! intervals drawn from the `i64` extremes alike. The event-list sweep is
//! complete only on its domain; it is checked on colocation cliques and
//! containment chains of arity 3–4, every generated case of which must
//! really run it, and forced on two-relation colocation queries. Two pinned buckets
//! hold the window scan to the emission sequence and work of the
//! `sort_merge` / backtracking kernels it replaced. Separately, the
//! parallel driver must emit byte-identical output (same tuples, same
//! order) and identical work units — and, for the event sweep, an
//! identical active peak — for every intra-bucket thread count and
//! chunking threshold — through the closure adapter and through the
//! folding count/tuple sinks alike; and every kernel hands a count sink,
//! a row sink and a sink that implements only `push` the same runs, on
//! every random chain and clique above. Composite buckets (records carrying
//! several intervals) take the same runner: a cascade stage, an FCTS
//! matrix, Gen-Matrix's Q5 join and FSTC's one-side filter must give the
//! same rows, row order and work for every thread count, and the rows a
//! brute-force cross product finds.

use ij_core::executor::Candidates;
use ij_core::kernel::composite::CompositeJoin;
use ij_core::kernel::{self, BindingSink, KernelConfig, KernelKind, OutputSink};
use ij_core::kernel::{Slot, SlotCondition, StartWindow};
use ij_core::oracle::{oracle_join, reference_join};
use ij_core::records::{CompRec, IvRec, OutRec};
use ij_core::{JoinInput, OutputMode, Tuples};
use ij_interval::{AllenPredicate, Interval, RelId, Relation, TupleId};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{ClusterConfig, Emitter, Engine, ReduceCtx, ValueStream};
use ij_query::{Condition, JoinQuery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One relation's worth of random intervals: `(start, len)` pairs over a
/// span small enough that every predicate (including the point-equality
/// ones: meets, starts, equals, …) fires regularly.
fn rel_strategy() -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(
        (0i64..30, 0i64..12).prop_map(|(s, l)| Interval::new(s, s + l).unwrap()),
        3..25usize,
    )
}

/// The same, with both endpoints drawn from the edges of the `i64`
/// domain: duplicates and point intervals are the norm, and windows like
/// `Excluded(i64::MAX)` / `Excluded(i64::MIN)` and the saturating
/// emptiness test of `RangePair::is_empty` are exercised.
fn extreme_rel_strategy() -> impl Strategy<Value = Vec<Interval>> {
    const EDGES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    proptest::collection::vec(
        (0usize..7, 0usize..7)
            .prop_map(|(a, b)| Interval::new(EDGES[a.min(b)], EDGES[a.max(b)]).unwrap()),
        3..25usize,
    )
}

fn pred_strategy() -> impl Strategy<Value = AllenPredicate> {
    (0usize..13).prop_map(|i| AllenPredicate::ALL[i])
}

/// Builds the two candidate representations the executors take: the
/// reducer-side `Candidates` and the oracle's `JoinInput`, with matching
/// sequential tuple ids.
fn build_inputs(q: &JoinQuery, rels: &[Vec<Interval>]) -> (Candidates, JoinInput) {
    let mut cands = Candidates::new(rels.len());
    for (r, ivs) in rels.iter().enumerate() {
        for (t, &iv) in ivs.iter().enumerate() {
            cands.push(r, iv, t as TupleId);
        }
    }
    cands.finish();
    let input = JoinInput::bind_owned(
        q,
        rels.iter()
            .map(|ivs| Relation::from_intervals("R", ivs.iter().copied()))
            .collect(),
    )
    .expect("single-attr input binds");
    (cands, input)
}

type Rows = Vec<Vec<TupleId>>;

/// The per-binding ownership test the kernels' owner windows replaced,
/// kept as their reference: in every `(lo, hi, members)` dimension the
/// right-most start among the members (`start` of a slot) lies in
/// `lo..=hi`.
fn owns(owner: &[StartWindow], start: impl Fn(Slot) -> i64) -> bool {
    (owner.iter()).all(|&(lo, hi, members)| {
        let latest = members.iter().map(|&m| start(m)).max();
        latest.is_some_and(|t| lo <= t && t <= hi)
    })
}

fn tids(a: &[(Interval, TupleId)]) -> Vec<TupleId> {
    a.iter().map(|(_, t)| *t).collect()
}

/// Sorted result set of `kind` forced on `q`, which must lie in its
/// domain — a refused query fails the test instead of silently running
/// something else.
fn forced(kind: KernelKind, q: &JoinQuery, cands: &Candidates) -> Rows {
    let mut got: Rows = Vec::new();
    let rep = kernel::execute_kind(kind, q, cands, &[], |a| got.push(tids(a)))
        .unwrap_or_else(|| panic!("{q} is outside {kind:?}'s domain"));
    assert_eq!(rep.kind, kind, "{q}");
    got.sort();
    got
}

/// Sorted result set of the `holds`-based reference.
fn reference(q: &JoinQuery, cands: &Candidates) -> Rows {
    let mut got: Rows = Vec::new();
    reference_join(q, cands, |a| got.push(tids(a)));
    got.sort();
    got
}

/// The window scan, the `holds` reference, `oracle_join` and the event
/// sweep wherever its domain holds `q` — two relations included, where the
/// dispatcher picks the window scan — agree on the exact result set of `q`
/// over `rels`, and those kernels hand the same runs to every sink
/// ([`assert_sinks_match_reference`]).
fn assert_window_reference_oracle_agree(q: &JoinQuery, rels: &[Vec<Interval>]) {
    let (cands, input) = build_inputs(q, rels);
    let window = forced(KernelKind::Window, q, &cands);
    let mut oracle = oracle_join(q, &input);
    oracle.sort();
    assert_eq!(window, reference(q, &cands), "window != reference for {q}");
    assert_eq!(window, oracle, "window != oracle for {q}");
    let mut kinds = vec![KernelKind::Window];
    let mut event: Rows = Vec::new();
    if kernel::execute_kind(KernelKind::EventSweep, q, &cands, &[], |a| {
        event.push(tids(a))
    })
    .is_some()
    {
        event.sort();
        assert_eq!(window, event, "window != event sweep for {q}");
        kinds.push(KernelKind::EventSweep);
    }
    assert!(kinds.contains(&kernel::planned_kernel(q)), "{q}");
    assert_sinks_match_reference(q, &cands, &kinds);
}

/// The third witness of the sink tests: a sink that implements only
/// `push`, so every run reaches it through the default `push_run`, one
/// bound row at a time.
struct PushOnly(Rows);

impl BindingSink for PushOnly {
    fn push(&mut self, binding: &[(Interval, TupleId)]) {
        self.0.push(tids(binding));
    }
}

impl OutputSink for PushOnly {
    type Chunk = PushOnly;
    fn fork(&self) -> PushOnly {
        PushOnly(Vec::new())
    }
    fn absorb(&mut self, mut chunk: PushOnly) {
        self.0.append(&mut chunk.0);
    }
}

/// Each of `kinds` on `q` through the count sink, the row sink and
/// [`PushOnly`], with no owner and under one owner window cut
/// from the data, at threads 1/2/8 × threshold 0/∞: every count is the
/// number of `reference_join`'s owned bindings, every table's rows are
/// the serial push-only run's in emission order, those rows are the
/// reference's as a set, and the work is the serial run's.
fn assert_sinks_match_reference(q: &JoinQuery, cands: &Candidates, kinds: &[KernelKind]) {
    let arity = q.num_relations() as usize;
    let members: Vec<Slot> = (0..arity).map(|r| (r, 0)).collect();
    // The owner keeps the bindings whose latest start lies between two
    // starts of relation 0: a share on ordinary data, the ends of the
    // `i64` domain on extreme data.
    let starts: Vec<i64> = cands.list(0).iter().map(|(iv, _)| iv.start()).collect();
    let (lo, hi) = (starts[starts.len() / 3], starts[2 * starts.len() / 3]);
    let windows = [(lo, hi, members.as_slice())];
    for owner in [&[][..], &windows[..]] {
        let mut want: Rows = Vec::new();
        reference_join(q, cands, |a| {
            if owns(owner, |(r, _)| a[r].0.start()) {
                want.push(tids(a));
            }
        });
        want.sort();
        for &kind in kinds {
            let mut base = PushOnly(Vec::new());
            let serial = KernelConfig::serial();
            let base_rep = kernel::execute_kind_into(kind, q, cands, &serial, owner, &mut base)
                .unwrap_or_else(|| panic!("{q} is outside {kind:?}'s domain"));
            let mut sorted = base.0.clone();
            sorted.sort();
            let at = format!("{kind:?} on {q}, owner {owner:?}");
            assert_eq!(sorted, want, "push-only sink != reference, {at}");
            for threads in [1usize, 2, 8] {
                for parallel_threshold in [0usize, usize::MAX] {
                    let cfg = KernelConfig {
                        threads,
                        parallel_threshold,
                    };
                    let at = format!("{at}, threads {threads} threshold {parallel_threshold}");
                    let mut count = 0u64;
                    let count_rep =
                        kernel::execute_kind_into(kind, q, cands, &cfg, owner, &mut count);
                    let mut rows = Tuples::new(arity);
                    let rows_rep =
                        kernel::execute_kind_into(kind, q, cands, &cfg, owner, &mut rows);
                    let mut one = PushOnly(Vec::new());
                    let one_rep = kernel::execute_kind_into(kind, q, cands, &cfg, owner, &mut one);
                    assert_eq!(count, want.len() as u64, "count sink, {at}");
                    let table: Rows = rows.iter().map(<[TupleId]>::to_vec).collect();
                    assert_eq!(table, base.0, "row sink, {at}");
                    assert_eq!(one.0, base.0, "push-only sink, {at}");
                    for rep in [count_rep, rows_rep, one_rep] {
                        let rep = rep.expect("the kernel ran");
                        assert_eq!(rep.work, base_rep.work, "work, {at}");
                        assert_eq!(rep.active_peak, base_rep.active_peak, "peak, {at}");
                    }
                }
            }
        }
    }
}

/// The 11 colocation predicates (everything but before/after) — the
/// domain where clique condition sets qualify for the event sweep.
const COLOCATION_PREDS: [AllenPredicate; 11] = {
    use AllenPredicate::*;
    [
        Overlaps,
        OverlappedBy,
        Contains,
        ContainedBy,
        Meets,
        MetBy,
        Starts,
        StartedBy,
        Finishes,
        FinishedBy,
        Equals,
    ]
};

fn colocation_pred_strategy() -> impl Strategy<Value = AllenPredicate> {
    (0usize..COLOCATION_PREDS.len()).prop_map(|i| COLOCATION_PREDS[i])
}

/// A clique: one condition between every pair of relations. Often
/// contradictory — those cases must simply produce empty sets everywhere.
fn clique(m: u16, preds: &[AllenPredicate]) -> JoinQuery {
    let mut conds = Vec::new();
    let mut pi = 0;
    for i in 0..m {
        for j in (i + 1)..m {
            conds.push(Condition::whole(i, preds[pi % preds.len()], j));
            pi += 1;
        }
    }
    JoinQuery::new(m, conds).expect("clique query builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Chains of 2–4 relations over random predicate mixes, on ordinary
    /// and on extreme intervals.
    #[test]
    fn window_matches_reference_and_oracle_on_chains(
        preds in proptest::collection::vec(pred_strategy(), 1..4usize),
        seed_rels in proptest::array::uniform4(rel_strategy()),
        extreme_rels in proptest::array::uniform4(extreme_rel_strategy()),
    ) {
        let q = JoinQuery::chain(&preds).unwrap();
        let m = q.num_relations() as usize;
        assert_window_reference_oracle_agree(&q, &seed_rels[..m]);
        assert_window_reference_oracle_agree(&q, &extreme_rels[..m]);
    }

    /// Cliques over 3–4 relations (including contradictory ones, which must
    /// yield empty sets from every path), on both interval generators.
    #[test]
    fn window_matches_reference_and_oracle_on_cliques(
        m in 3u16..5,
        preds in proptest::array::uniform3(pred_strategy()),
        seed_rels in proptest::array::uniform4(rel_strategy()),
        extreme_rels in proptest::array::uniform4(extreme_rel_strategy()),
    ) {
        let q = clique(m, &preds);
        assert_window_reference_oracle_agree(&q, &seed_rels[..m as usize]);
        assert_window_reference_oracle_agree(&q, &extreme_rels[..m as usize]);
    }

    /// The heavy-bucket parallel driver is invisible: for thread counts
    /// 1, 2 and 8 the dispatching kernel emits the same tuples in the same
    /// order (byte-identical output) and reports identical work units —
    /// and so does the composite join on its four bucket shapes.
    #[test]
    fn parallel_execution_is_byte_identical(
        preds in proptest::collection::vec(pred_strategy(), 1..3usize),
        seed_rels in proptest::array::uniform4(rel_strategy()),
        points in proptest::collection::vec(0i64..3, 25),
    ) {
        let q = JoinQuery::chain(&preds).unwrap();
        let m = q.num_relations() as usize;
        let rels = &seed_rels[..m];
        let (cands, _) = build_inputs(&q, rels);
        let run = |threads: usize| {
            let cfg = KernelConfig { threads, parallel_threshold: 0 };
            let mut flat: Vec<TupleId> = Vec::new();
            let rep = kernel::execute(
                &q,
                &cands,
                &cfg,
                |a| a.iter().map(|(_, t)| *t as u64).sum::<u64>() % 5 != 1,
                |a| flat.extend(a.iter().map(|(_, t)| *t)),
            );
            (rep.work, flat)
        };
        let (base_work, base) = run(1);
        for threads in [2usize, 8] {
            let (work, flat) = run(threads);
            prop_assert_eq!(
                &flat, &base,
                "thread count {} changed output for {}", threads, q
            );
            prop_assert_eq!(
                work, base_work,
                "thread count {} changed work units for {}", threads, q
            );
        }
        prop_assert!(
            composite_shapes_are_chunking_invariant(&seed_rels, &points),
            "no composite run was cut into chunks"
        );
    }

    /// Arity-3/4 colocation cliques always qualify for the event sweep
    /// (every pair directly conditioned), so it is the dispatched kernel of
    /// every case: its result set must match the window scan, the reference
    /// and the oracle exactly — including the contradictory cliques, which
    /// must be empty everywhere.
    #[test]
    fn event_sweep_matches_oracle_on_colocation_cliques(
        m in 3u16..5,
        preds in proptest::collection::vec(colocation_pred_strategy(), 6),
        seed_rels in proptest::array::uniform4(rel_strategy()),
        extreme_rels in proptest::array::uniform4(extreme_rel_strategy()),
    ) {
        let q = clique(m, &preds);
        prop_assert_eq!(kernel::planned_kernel(&q), KernelKind::EventSweep, "{}", q);
        assert_window_reference_oracle_agree(&q, &seed_rels[..m as usize]);
        assert_window_reference_oracle_agree(&q, &extreme_rels[..m as usize]);
    }

    /// Containment-family chains (arity 3–4) nested in one direction reach
    /// the event sweep via the subset closure on every case.
    #[test]
    fn event_sweep_matches_oracle_on_containment_chains(
        outward in 0usize..2,
        picks in proptest::collection::vec(0usize..4, 2..4usize),
        seed_rels in proptest::array::uniform4(rel_strategy()),
        extreme_rels in proptest::array::uniform4(extreme_rel_strategy()),
    ) {
        use AllenPredicate::*;
        // r_i ⊇ r_{i+1} along the chain, or r_i ⊆ r_{i+1}.
        let family = [
            [Contains, StartedBy, FinishedBy, Equals],
            [ContainedBy, Starts, Finishes, Equals],
        ][outward];
        let preds: Vec<AllenPredicate> = picks.iter().map(|&i| family[i]).collect();
        let q = JoinQuery::chain(&preds).unwrap();
        let m = q.num_relations() as usize;
        prop_assert_eq!(kernel::planned_kernel(&q), KernelKind::EventSweep, "{}", q);
        assert_window_reference_oracle_agree(&q, &seed_rels[..m]);
        assert_window_reference_oracle_agree(&q, &extreme_rels[..m]);
    }

    /// Chunked parallel event sweep is invisible: for worker thread counts
    /// 1/2/8 crossed with "always chunk" and "never chunk" thresholds, the
    /// dispatcher routes qualifying cliques to the event sweep and emits
    /// byte-identical output with chunk-invariant work and active peak.
    #[test]
    fn event_sweep_parallel_chunking_is_invariant(
        m in 3u16..5,
        preds in proptest::collection::vec(colocation_pred_strategy(), 6),
        seed_rels in proptest::array::uniform4(rel_strategy()),
    ) {
        let q = clique(m, &preds);
        let rels = &seed_rels[..m as usize];
        let (cands, _) = build_inputs(&q, rels);
        let run = |threads: usize, parallel_threshold: usize| {
            let cfg = KernelConfig { threads, parallel_threshold };
            let mut flat: Vec<TupleId> = Vec::new();
            let rep = kernel::execute(
                &q,
                &cands,
                &cfg,
                |a| a.iter().map(|(_, t)| *t as u64).sum::<u64>() % 5 != 1,
                |a| flat.extend(a.iter().map(|(_, t)| *t)),
            );
            assert_eq!(rep.kind, KernelKind::EventSweep, "{q}");
            (rep.work, rep.active_peak, flat)
        };
        let (base_work, base_peak, base) = run(1, 0);
        for threads in [1usize, 2, 8] {
            for threshold in [0usize, usize::MAX] {
                let (work, peak, flat) = run(threads, threshold);
                prop_assert_eq!(
                    &flat, &base,
                    "threads {} threshold {} changed output for {}", threads, threshold, q
                );
                prop_assert_eq!(
                    work, base_work,
                    "threads {} threshold {} changed work for {}", threads, threshold, q
                );
                prop_assert_eq!(
                    peak, base_peak,
                    "threads {} threshold {} changed active peak for {}", threads, threshold, q
                );
            }
        }
    }

    /// The folding sinks are invisible too: on every kernel kind (the
    /// window scan on a colocation, a sequence and a mixed set, and on the
    /// overlaps stars, which `qualifies` keeps off the event sweep: admitted
    /// there, it ran 1.4–3.5× slower, EXPERIMENTS.md), under an owner
    /// window that rejects a share of the bindings, for threads
    /// 1/2/3/8 × "always chunk"/"never chunk", the count sink equals the
    /// serial count, the tuple sink's rows are the serial closure run's
    /// owned rows in the same order, and work and active peak do not move
    /// from the serial owned run's.
    #[test]
    fn sinks_match_serial_closure_on_every_kernel(
        seed_rels in proptest::array::uniform4(rel_strategy()),
        (lo, len) in (0i64..30, 0i64..30),
    ) {
        use AllenPredicate::*;
        let star = |leaves: u16| {
            let conds = (1..=leaves).map(|r| Condition::whole(0, Overlaps, r)).collect();
            JoinQuery::new(leaves + 1, conds).unwrap()
        };
        for (q, kind) in [
            (JoinQuery::chain(&[Overlaps]).unwrap(), KernelKind::Window),
            (JoinQuery::chain(&[Overlaps, Overlaps]).unwrap(), KernelKind::Window),
            (clique(3, &[Overlaps, Overlaps, Contains]), KernelKind::EventSweep),
            (JoinQuery::chain(&[Before, Before]).unwrap(), KernelKind::Window),
            (JoinQuery::chain(&[Overlaps, Before]).unwrap(), KernelKind::Window),
            (star(2), KernelKind::Window),
            (star(3), KernelKind::Window),
        ] {
            prop_assert_eq!(kernel::planned_kernel(&q), kind);
            let (cands, _) = build_inputs(&q, &seed_rels[..q.num_relations() as usize]);
            let arity = q.num_relations() as usize;
            let members: Vec<Slot> = (0..arity).map(|r| (r, 0)).collect();
            let owner = [(lo, lo + len, members.as_slice())];
            let accept = |a: &[(Interval, TupleId)]| owns(&owner, |(r, _)| a[r].0.start());
            let mut base: Rows = Vec::new();
            kernel::execute(&q, &cands, &KernelConfig::serial(), accept, |a| {
                base.push(tids(a))
            });
            let base_rep = kernel::execute_into(&q, &cands, &KernelConfig::serial(), &owner, &mut 0u64);
            for threads in [1usize, 2, 3, 8] {
                for parallel_threshold in [0usize, usize::MAX] {
                    let cfg = KernelConfig { threads, parallel_threshold };
                    let mut count = 0u64;
                    let count_rep = kernel::execute_into(&q, &cands, &cfg, &owner, &mut count);
                    let mut rows = Tuples::new(arity);
                    let rows_rep = kernel::execute_into(&q, &cands, &cfg, &owner, &mut rows);
                    let at = format!("{q} threads {threads} threshold {parallel_threshold}");
                    prop_assert_eq!(count, base.len() as u64, "count sink, {}", at);
                    prop_assert_eq!(rows.iter().collect::<Vec<_>>(), base.clone(), "tuple sink, {}", at);
                    // Every relation has >= 3 tuples, so "always chunk"
                    // with spare threads really takes the parallel path.
                    let chunked = threads > 1 && parallel_threshold == 0;
                    for rep in [count_rep, rows_rep] {
                        prop_assert_eq!(rep.parallel_chunks > 1, chunked, "chunks, {}", at);
                        prop_assert_eq!(rep.work, base_rep.work, "work, {}", at);
                        prop_assert_eq!(rep.active_peak, base_rep.active_peak, "peak, {}", at);
                    }
                }
            }
        }
    }
}

/// Composite records of `side`: record `i` holds `slots[k][i]` in slot
/// `k` (as many records as the shortest slot column) and tuple id `i` in
/// every id slot.
fn side_records(side: u16, ids: usize, slots: &[&[Interval]]) -> Vec<CompRec> {
    let n = slots.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| CompRec {
            side,
            tids: vec![i as TupleId; ids],
            ivs: slots.iter().map(|s| s[i]).collect(),
        })
        .collect()
}

/// The sorted rows of `join` over `records` by brute force: every record
/// combination, one per side, checked condition by condition with `holds`.
fn composite_brute_force(join: &CompositeJoin, records: &[CompRec], owner: &[StartWindow]) -> Rows {
    let mut lists: Vec<Vec<&CompRec>> = vec![Vec::new(); join.sides];
    for rec in records {
        lists[rec.side as usize].push(rec);
    }
    let mut rows = Vec::new();
    if lists.iter().any(Vec::is_empty) {
        return rows;
    }
    let mut idx = vec![0usize; join.sides];
    loop {
        let b: Vec<&CompRec> = (0..join.sides).map(|s| lists[s][idx[s]]).collect();
        let holds = (join.conditions.iter())
            .all(|&((ls, la), p, (rs, ra))| p.holds(b[ls].ivs[la], b[rs].ivs[ra]));
        if holds && owns(owner, |(s, k)| b[s].ivs[k].start()) {
            rows.push(join.gather.iter().map(|&(s, k)| b[s].tids[k]).collect());
        }
        // Odometer.
        let mut k = 0;
        loop {
            idx[k] += 1;
            if idx[k] < lists[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
            if k == join.sides {
                rows.sort();
                return rows;
            }
        }
    }
}

/// For threads 1, 2 and 8 at threshold 0, `join` writes the same rows in
/// the same order with the same work, counts as many rows, and finds the
/// brute force's rows that `owner` owns. Returns whether any run was cut
/// into chunks.
fn assert_composite_chunking_invariant(
    join: &CompositeJoin,
    records: &[CompRec],
    owner: &[StartWindow],
) -> bool {
    let run = |threads: usize, mode: OutputMode| {
        let cfg = KernelConfig {
            threads,
            parallel_threshold: 0,
        };
        let mut out = OutRec::new(mode, join.gather.len());
        let rep = join.join_into(records, &cfg, owner, &mut out);
        assert_eq!(rep.kind, KernelKind::Window);
        (out, rep)
    };
    let (base, base_rep) = run(1, OutputMode::Materialize);
    let OutRec::Rows(base) = base else {
        unreachable!("materializing")
    };
    let base: Rows = base.iter().map(<[TupleId]>::to_vec).collect();
    let mut sorted = base.clone();
    sorted.sort();
    assert_eq!(
        sorted,
        composite_brute_force(join, records, owner),
        "{join:?}"
    );
    let mut chunked = false;
    for threads in [1usize, 2, 8] {
        let (rows, rep) = run(threads, OutputMode::Materialize);
        let OutRec::Rows(rows) = rows else {
            unreachable!("materializing")
        };
        assert_eq!(
            rows.iter().collect::<Vec<_>>(),
            base,
            "threads {threads}: {join:?}"
        );
        assert_eq!(rep.work, base_rep.work, "threads {threads}: {join:?}");
        chunked |= rep.parallel_chunks > 1;
        let (count, rep) = run(threads, OutputMode::Count);
        assert_eq!(count, OutRec::Count(base.len() as u64), "threads {threads}");
        assert_eq!(rep.work, base_rep.work, "threads {threads}: {join:?}");
    }
    chunked
}

/// Q5 (Section 9.1): `R1.I before R2.I and R1.I overlaps R3.I and
/// R1.A = R3.A and R2.B = R3.B`.
fn q5() -> JoinQuery {
    use ij_query::query::RelationMeta;
    use ij_query::AttrRef;
    use AllenPredicate::*;
    let meta = |name: &str, attrs: &[&str]| RelationMeta {
        name: name.into(),
        attr_names: attrs.iter().map(|a| a.to_string()).collect(),
    };
    JoinQuery::with_relations(
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
    .expect("Q5")
}

/// The composite join's four bucket shapes over `rels` (and `points` for
/// Q5's real-valued attributes), each through
/// [`assert_composite_chunking_invariant`]: a cascade stage (2-slot
/// composites × base records), an FCTS matrix with a side no condition
/// mentions, Q5 through Gen-Matrix's join with a condition within one
/// side and an owner, and FSTC's one-side filter (a one-level program).
/// Returns whether any run was cut into chunks.
fn composite_shapes_are_chunking_invariant(rels: &[Vec<Interval>; 4], points: &[i64]) -> bool {
    use AllenPredicate::*;
    let point: Vec<Interval> = points.iter().map(|&p| Interval::point(p)).collect();
    let (a, b, c, d) = (&rels[0][..], &rels[1][..], &rels[2][..], &rels[3][..]);
    let any = &[];
    let mut chunked = false;

    // Cascade stage: composites over (A, B) meet the new relation C on
    // the primary `B overlaps C` and the extra `A before C`.
    let stage = CompositeJoin {
        sides: 2,
        conditions: vec![((0, 1), Overlaps, (1, 0)), ((0, 0), Before, (1, 0))],
        gather: vec![(0, 0), (0, 1), (1, 0)],
        mode: OutputMode::Materialize,
        order_by: None,
    };
    let mut records = side_records(0, 2, &[a, b]);
    records.extend(side_records(1, 1, &[c]));
    chunked |= assert_composite_chunking_invariant(&stage, &records, any);

    // FCTS matrix: component 0 is (A, B), component 1 is C, and
    // component 2 (D) is in no sequence condition.
    let matrix = CompositeJoin {
        sides: 3,
        conditions: vec![((0, 0), Before, (1, 0))],
        gather: vec![(0, 0), (0, 1), (1, 0), (2, 0)],
        mode: OutputMode::Materialize,
        order_by: None,
    };
    let mut records = side_records(0, 2, &[a, b]);
    records.extend(side_records(1, 1, &[c]));
    records.extend(side_records(2, 1, &[&d[..d.len().min(4)]]));
    chunked |= assert_composite_chunking_invariant(&matrix, &records, any);

    // Q5, plus `R3.A before R3.B` within one side; a binding is owned
    // where the latest start of its intervals falls in 8..=23, and the
    // latest of `R3`'s two points is 1 or 2.
    let q = q5();
    let mut gen = CompositeJoin::of_query(&q, OutputMode::Materialize);
    gen.conditions.push(((2, 1), Before, (2, 2)));
    let owned: [StartWindow; 2] = [
        (8, 23, &[(0, 0), (1, 0), (2, 0)]),
        (1, 2, &[(2, 1), (2, 2)]),
    ];
    let mut records = side_records(0, 1, &[a, &point]);
    records.extend(side_records(1, 1, &[b, &point[5..]]));
    records.extend(side_records(2, 1, &[c, &point[3..], &point[7..]]));
    chunked |= assert_composite_chunking_invariant(&gen, &records, &owned);

    // FSTC's filter: one side of (A, B, C) composites.
    let filter = CompositeJoin {
        sides: 1,
        conditions: vec![((0, 0), Overlaps, (0, 1)), ((0, 1), Before, (0, 2))],
        gather: vec![(0, 0), (0, 1), (0, 2)],
        mode: OutputMode::Materialize,
        order_by: None,
    };
    let records = side_records(0, 3, &[a, b, c]);
    chunked |= assert_composite_chunking_invariant(&filter, &records, any);
    chunked
}

/// `sink` after `fork`ing one chunk per run of `groups` consecutive
/// bindings, `push`ing each run into its chunk and `absorb`ing the chunks
/// in order — what `execute_into` does with a bucket's outer ranges.
fn chunked<S: OutputSink>(
    mut sink: S,
    bindings: &[Vec<(Interval, TupleId)>],
    groups: &[usize],
) -> S {
    let mut rest = bindings;
    for &n in groups.iter().chain([&usize::MAX]) {
        let (head, tail) = rest.split_at(n.min(rest.len()));
        let mut chunk = sink.fork();
        head.iter().for_each(|b| chunk.push(b));
        sink.absorb(chunk);
        rest = tail;
    }
    sink
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sink contract behind byte-identity across threads: for any
    /// arity, rows and consecutive chunk grouping (empty chunks included),
    /// `fork`/`push`/`absorb` ends where one serial run of `push` does —
    /// and the flat table reads as the `Vec<Vec<TupleId>>` it replaced.
    #[test]
    fn sinks_are_chunking_invariant_and_tuples_read_as_rows(
        arity in 1usize..6,
        ids in proptest::collection::vec(0u32..50, 0..120usize),
        groups in proptest::collection::vec(0usize..9, 0..8usize),
        other_arity in 1usize..6,
    ) {
        let point = Interval::new(0, 0).unwrap();
        let bindings: Vec<Vec<(Interval, TupleId)>> = ids
            .chunks_exact(arity)
            .map(|row| row.iter().map(|&t| (point, t)).collect())
            .collect();
        let by_row: Rows = bindings.iter().map(|b| tids(b)).collect();

        let mut serial = Tuples::new(arity);
        bindings.iter().for_each(|b| serial.push(b));
        let table = chunked(Tuples::new(arity), &bindings, &groups);
        prop_assert_eq!(&table, &serial);
        prop_assert_eq!(chunked(0u64, &bindings, &groups), by_row.len() as u64);

        prop_assert_eq!(serial.len(), by_row.len());
        prop_assert_eq!(serial.is_empty(), by_row.is_empty());
        prop_assert_eq!(serial.first(), by_row.first().map(Vec::as_slice));
        prop_assert_eq!(serial.last(), by_row.last().map(Vec::as_slice));
        prop_assert_eq!(serial.iter().collect::<Vec<_>>(), by_row.clone());
        prop_assert_eq!((&serial).into_iter().count(), by_row.len());
        prop_assert_eq!(format!("{serial:?}"), format!("{by_row:?}"));
        // Equality is over rows: an empty table has no arity to differ in.
        prop_assert_eq!(
            chunked(Tuples::new(other_arity), &[], &groups) == serial,
            by_row.is_empty()
        );
    }
}

/// `n` intervals per relation, dense enough that every chunk of a
/// 4-way split joins.
fn dense_records(m: u16, n: u32) -> Vec<IvRec> {
    let mut recs = Vec::new();
    for rel in 0..m {
        for tid in 0..n {
            let s = ((tid * 7 + rel as u32 * 3) % 90) as i64;
            let iv = Interval::new(s, s + 5 + (tid % 11) as i64).unwrap();
            recs.push(IvRec {
                rel: RelId(rel),
                tid,
                iv,
            });
        }
    }
    recs
}

/// A Count-mode reducer on the parallel path hands back one
/// `OutRec::Count` and nothing else: no rows were ever staged in `out`
/// (its capacity stays at the single push), and the count and the join
/// counters equal the materializing run's.
#[test]
fn parallel_count_reduce_join_never_buffers_rows() {
    let q = JoinQuery::chain(&[AllenPredicate::Overlaps, AllenPredicate::Overlaps]).unwrap();
    let recs = dense_records(3, 120);
    let run = |mode: OutputMode, threads: usize| {
        let engine = Engine::new(ClusterConfig {
            reducer_slots: 1,
            worker_threads: threads,
            intra_reduce_threads: threads,
            heavy_bucket_threshold: 8,
            ..ClusterConfig::default()
        });
        let q = q.clone();
        engine
            .run_job(
                "sink-test",
                &recs[..],
                |r: &IvRec, em: &mut Emitter<IvRec>| em.emit(0, *r),
                move |ctx: &mut ReduceCtx, vs: &mut ValueStream<IvRec>, out: &mut Vec<OutRec>| {
                    let mut cands = Candidates::new(3);
                    for v in vs.by_ref() {
                        cands.push(v.rel.idx(), v.iv, v.tid);
                    }
                    cands.finish();
                    let members = [(0, 0), (1, 0), (2, 0)];
                    kernel::reduce_join(ctx, &q, &cands, mode, &[(30, 69, &members)], out);
                    if mode == OutputMode::Count {
                        assert!(matches!(out.as_slice(), [OutRec::Count(_)]), "{out:?}");
                        assert!(out.capacity() <= 4, "row buffer grew: {}", out.capacity());
                    }
                },
            )
            .expect("job runs")
    };
    let rows = run(OutputMode::Materialize, 1);
    let [OutRec::Rows(table)] = rows.outputs.as_slice() else {
        panic!("one block of rows, got {:?}", rows.outputs);
    };
    assert!(table.len() > 100, "workload too sparse");
    for threads in [1, 4] {
        let counted = run(OutputMode::Count, threads);
        assert_eq!(counted.outputs, vec![OutRec::Count(table.len() as u64)]);
        let counters = &counted.metrics.counters;
        assert_eq!(
            counters.get(names::KERNEL_PARALLEL_BUCKETS),
            (threads > 1) as u64
        );
        for name in [names::JOIN_EMITTED, names::JOIN_CANDIDATES] {
            assert_eq!(
                counters.get(name),
                rows.metrics.counters.get(name),
                "{name}"
            );
        }
        assert_eq!(counters.get(names::JOIN_EMITTED), table.len() as u64);
    }
}

/// A count sink whose chunks panic on a binding of outer tuple 35.
struct Bomb(u64);

impl BindingSink for Bomb {
    fn push(&mut self, binding: &[(Interval, TupleId)]) {
        assert_ne!(binding[0].1, 35, "sink exploded");
        self.0 += 1;
    }
}

impl OutputSink for Bomb {
    type Chunk = Bomb;
    fn fork(&self) -> Bomb {
        Bomb(0)
    }
    fn absorb(&mut self, chunk: Bomb) {
        self.0 += chunk.0;
    }
}

/// A panic inside a worker's sink is not swallowed with the worker: the
/// driver re-raises the original payload on the caller's thread.
#[test]
fn worker_sink_panic_is_reraised_on_the_caller() {
    let q = JoinQuery::chain(&[AllenPredicate::Overlaps]).unwrap();
    let rels: Vec<Vec<Interval>> = (0..2)
        .map(|_| (0..40).map(|s| Interval::new(s, s + 10).unwrap()).collect())
        .collect();
    let (cands, _) = build_inputs(&q, &rels);
    let cfg = KernelConfig {
        threads: 4,
        parallel_threshold: 0,
    };
    let caught = std::panic::catch_unwind(|| {
        // Tuple 35 sits in one of the last outer blocks.
        kernel::execute_into(&q, &cands, &cfg, &[], &mut Bomb(0))
    });
    let payload = caught.expect_err("worker panic must reach the caller");
    let message = payload
        .downcast_ref::<String>()
        .expect("an assertion message");
    assert!(message.contains("sink exploded"), "{message}");
}

/// An interval endpoint for the owner tests: a window edge, one off an
/// edge, or anywhere in `0..40`.
fn edge_point(rng: &mut StdRng, edges: &[i64]) -> i64 {
    match rng.gen_range(0..2) {
        0 => edges[rng.gen_range(0..edges.len())] + rng.gen_range(-1i64..=1),
        _ => rng.gen_range(0..40),
    }
}

/// `n` intervals with endpoints on and around `edges`: points, short
/// intervals, intervals ending on an edge, and duplicates of earlier ones.
fn edge_intervals(rng: &mut StdRng, edges: &[i64], n: usize) -> Vec<Interval> {
    let mut ivs: Vec<Interval> = Vec::with_capacity(n);
    while ivs.len() < n {
        let s = edge_point(rng, edges);
        let iv = match rng.gen_range(0..5) {
            0 => Interval::point(s),
            1 if !ivs.is_empty() => ivs[rng.gen_range(0..ivs.len())],
            2 => {
                let e = edge_point(rng, edges);
                Interval::new(s.min(e), s.max(e)).unwrap()
            }
            _ => Interval::new(s, s + rng.gen_range(0..12)).unwrap(),
        };
        ivs.push(iv);
    }
    ivs
}

/// One to three owner dimensions over random non-empty sets of `slots`,
/// each end a window edge, one off an edge, or the end of the `Time`
/// domain.
fn random_owner(rng: &mut StdRng, edges: &[i64], slots: &[Slot]) -> Vec<(i64, i64, Vec<Slot>)> {
    let end = |rng: &mut StdRng, open: i64| match rng.gen_range(0..4) {
        0 => open,
        k => edges[rng.gen_range(0..edges.len())] + k - 2,
    };
    (0..rng.gen_range(1..=3))
        .map(|_| {
            let (a, b) = (end(rng, i64::MIN), end(rng, i64::MAX));
            let mut members: Vec<Slot> = slots
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            if members.is_empty() {
                members.push(slots[rng.gen_range(0..slots.len())]);
            }
            (a.min(b), a.max(b), members)
        })
        .collect()
}

/// The windows of `dims` as an owner.
fn owner_of(dims: &[(i64, i64, Vec<Slot>)]) -> Vec<StartWindow<'_>> {
    dims.iter()
        .map(|(lo, hi, m)| (*lo, *hi, m.as_slice()))
        .collect()
}

/// Window edges for one owner test case.
fn random_edges(rng: &mut StdRng) -> Vec<i64> {
    (0..rng.gen_range(1..=3))
        .map(|_| rng.gen_range(0..40))
        .collect()
}

/// What the owner tests saw, per kernel: bindings kept and rejected.
#[derive(Default)]
struct Seen {
    kept: usize,
    rejected: usize,
}

/// Owner windows are the ownership rule. On random buckets with endpoints
/// on and around the window edges, point and duplicate intervals, and an
/// owner of one to three dimensions over random member slots with window
/// ends that include `Time::MIN` and `Time::MAX`, the event sweep and the
/// window scan each emit exactly the bindings of its
/// unowned run that `owns` keeps, in the same order, examining no more
/// candidates; the dispatched kernel does the same on threads 1/2/3/8
/// through the count and the tuple sink, with the serial run's work.
#[test]
fn owner_windows_are_the_ownership_rule() {
    use AllenPredicate::*;
    let mut seen: [Seen; 2] = Default::default();
    for seed in 0..1500u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pred = |rng: &mut StdRng, from: &[AllenPredicate]| from[rng.gen_range(0..from.len())];
        let q = match seed % 3 {
            0 => JoinQuery::chain(&[pred(
                &mut rng,
                &[Overlaps, OverlappedBy, Contains, ContainedBy],
            )]),
            1 => Ok(clique(
                3,
                &[0, 1, 2].map(|_| pred(&mut rng, &COLOCATION_PREDS)),
            )),
            _ => {
                let n = rng.gen_range(1..=3);
                JoinQuery::chain(
                    &(0..n)
                        .map(|_| pred(&mut rng, &AllenPredicate::ALL))
                        .collect::<Vec<_>>(),
                )
            }
        }
        .unwrap();
        let m = q.num_relations() as usize;
        let edges = random_edges(&mut rng);
        let rels: Vec<Vec<Interval>> = (0..m)
            .map(|_| {
                let n = rng.gen_range(3..20);
                edge_intervals(&mut rng, &edges, n)
            })
            .collect();
        let (cands, _) = build_inputs(&q, &rels);
        let slots: Vec<Slot> = (0..m).map(|r| (r, 0)).collect();
        let dims = random_owner(&mut rng, &edges, &slots);
        let owner = owner_of(&dims);
        for (k, kind) in [KernelKind::EventSweep, KernelKind::Window]
            .into_iter()
            .enumerate()
        {
            let mut all: Vec<(Vec<TupleId>, bool)> = Vec::new();
            let keep = |a: &[(Interval, TupleId)]| owns(&owner, |(r, _)| a[r].0.start());
            let Some(unowned) =
                kernel::execute_kind(kind, &q, &cands, &[], |a| all.push((tids(a), keep(a))))
            else {
                continue;
            };
            let want: Rows = all.iter().filter(|b| b.1).map(|b| b.0.clone()).collect();
            seen[k].kept += want.len();
            seen[k].rejected += all.len() - want.len();
            let mut got: Rows = Vec::new();
            let rep =
                kernel::execute_kind(kind, &q, &cands, &owner, |a| got.push(tids(a))).unwrap();
            let at = format!("{kind:?} {q} seed {seed} owner {dims:?}");
            assert_eq!(got, want, "{at}");
            assert!(
                rep.work <= unowned.work,
                "{at}: {} > {}",
                rep.work,
                unowned.work
            );
            if kind != kernel::planned_kernel(&q) {
                continue;
            }
            for threads in [1usize, 2, 3, 8] {
                let cfg = KernelConfig {
                    threads,
                    parallel_threshold: 0,
                };
                let mut count = 0u64;
                let count_rep = kernel::execute_into(&q, &cands, &cfg, &owner, &mut count);
                let mut rows = Tuples::new(m);
                let rows_rep = kernel::execute_into(&q, &cands, &cfg, &owner, &mut rows);
                assert_eq!(count, want.len() as u64, "{at} threads {threads}");
                assert_eq!(
                    rows.iter().collect::<Vec<_>>(),
                    want,
                    "{at} threads {threads}"
                );
                for r in [count_rep, rows_rep] {
                    assert_eq!(r.work, rep.work, "{at} threads {threads}");
                }
            }
        }
    }
    for (kind, seen) in ["event sweep", "window scan"].iter().zip(&seen) {
        assert!(
            seen.kept > 0 && seen.rejected > 0,
            "{kind}: {} kept, {} rejected",
            seen.kept,
            seen.rejected
        );
    }
}

/// The same on composite rows: sides of two-slot records under random
/// conditions between them, with an owner whose dimensions may hold both
/// slots of one side — a `≥ lo` disjunction that stays a row test —
/// through the count and the tuple sink on threads 1/2/3/8.
#[test]
fn owner_windows_are_the_ownership_rule_on_composite_rows() {
    let mut seen = Seen::default();
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = random_edges(&mut rng);
        let sides = rng.gen_range(1..=3usize);
        // cols[side][slot]: the intervals of one slot of a side's records.
        let cols: Vec<[Vec<Interval>; 2]> = (0..sides)
            .map(|_| {
                let n = rng.gen_range(3..14);
                [0, 1].map(|_| edge_intervals(&mut rng, &edges, n))
            })
            .collect();
        let pred = |rng: &mut StdRng| AllenPredicate::ALL[rng.gen_range(0..13)];
        let mut conditions: Vec<SlotCondition> = (1..sides)
            .map(|s| {
                (
                    (s - 1, rng.gen_range(0..2)),
                    pred(&mut rng),
                    (s, rng.gen_range(0..2)),
                )
            })
            .collect();
        if rng.gen_bool(0.3) {
            conditions.push(((0, 0), pred(&mut rng), (0, 1)));
        }
        let join = CompositeJoin {
            sides,
            conditions,
            gather: (0..sides).map(|s| (s, 0)).collect(),
            mode: OutputMode::Materialize,
            order_by: None,
        };
        let records: Vec<CompRec> = (cols.iter().enumerate())
            .flat_map(|(s, [a, b])| side_records(s as u16, 2, &[a, b]))
            .collect();
        let slots: Vec<Slot> = (0..sides).flat_map(|s| [(s, 0), (s, 1)]).collect();
        let dims = random_owner(&mut rng, &edges, &slots);
        let owner = owner_of(&dims);
        let run = |owner: &[StartWindow], threads: usize, mode: OutputMode| {
            let cfg = KernelConfig {
                threads,
                parallel_threshold: 0,
            };
            let mut out = OutRec::new(mode, sides);
            let rep = join.join_into(&records, &cfg, owner, &mut out);
            (out, rep.work)
        };
        let rows = |out: OutRec| match out {
            OutRec::Rows(t) => t.iter().map(<[TupleId]>::to_vec).collect::<Rows>(),
            OutRec::Count(_) => unreachable!("materializing"),
        };
        // A row's ids are its records' positions, so its intervals are known.
        let keep = |row: &[TupleId]| owns(&owner, |(s, k)| cols[s][k][row[s] as usize].start());
        let (all, unowned_work) = run(&[], 1, OutputMode::Materialize);
        let all = rows(all);
        let want: Rows = all.iter().filter(|r| keep(r)).cloned().collect();
        seen.kept += want.len();
        seen.rejected += all.len() - want.len();
        let (got, work) = run(&owner, 1, OutputMode::Materialize);
        let at = format!("{join:?} seed {seed} owner {dims:?}");
        assert_eq!(rows(got), want, "{at}");
        assert!(work <= unowned_work, "{at}: {work} > {unowned_work}");
        for threads in [1usize, 2, 3, 8] {
            let (got, rows_work) = run(&owner, threads, OutputMode::Materialize);
            assert_eq!(rows(got), want, "{at} threads {threads}");
            let (count, count_work) = run(&owner, threads, OutputMode::Count);
            assert_eq!(
                count,
                OutRec::Count(want.len() as u64),
                "{at} threads {threads}"
            );
            assert_eq!(
                (rows_work, count_work),
                (work, work),
                "{at} threads {threads}"
            );
        }
    }
    assert!(
        seen.kept > 0 && seen.rejected > 0,
        "{} kept, {} rejected",
        seen.kept,
        seen.rejected
    );
}

/// A fixed bucket from an inline LCG (independent of the `rand` stub):
/// `n` intervals per relation, starts in `0..span`, lengths in
/// `0..max_len`.
fn pinned_bucket(m: usize, n: u32, span: u64, max_len: u64) -> Candidates {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move |bound: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % bound
    };
    let mut c = Candidates::new(m);
    for r in 0..m {
        for t in 0..n {
            let s = next(span) as i64;
            c.push(r, Interval::new(s, s + next(max_len) as i64).unwrap(), t);
        }
    }
    c.finish();
    c
}

/// On a sequence bucket the window scan *is* the merge join it replaced:
/// the work and the unsorted emission sequence below were recorded from
/// `kernel::merge_join` (the `sort_merge` kernel) at the parent of the PR
/// that deleted it.
#[test]
fn sequence_bucket_keeps_the_sort_merge_scan() {
    const PARENT_WORK: u64 = 104;
    #[rustfmt::skip]
    const PARENT_EMISSIONS: [[TupleId; 3]; 40] = [
        [6, 1, 6], [6, 1, 2], [6, 1, 3], [6, 8, 6], [6, 8, 2], [6, 8, 3], [6, 0, 2], [6, 0, 3],
        [0, 1, 6], [0, 1, 2], [0, 1, 3], [0, 8, 6], [0, 8, 2], [0, 8, 3], [0, 0, 2], [0, 0, 3],
        [5, 1, 6], [5, 1, 2], [5, 1, 3], [5, 8, 6], [5, 8, 2], [5, 8, 3], [5, 0, 2], [5, 0, 3],
        [7, 1, 6], [7, 1, 2], [7, 1, 3], [7, 8, 6], [7, 8, 2], [7, 8, 3], [7, 0, 2], [7, 0, 3],
        [8, 1, 6], [8, 1, 2], [8, 1, 3], [8, 8, 6], [8, 8, 2], [8, 8, 3], [8, 0, 2], [8, 0, 3],
    ];
    let q = JoinQuery::chain(&[AllenPredicate::Before, AllenPredicate::Before]).unwrap();
    let cands = pinned_bucket(3, 10, 60, 15);
    let mut emissions: Vec<Vec<TupleId>> = Vec::new();
    let rep = kernel::execute(
        &q,
        &cands,
        &KernelConfig::serial(),
        |_| true,
        |a| emissions.push(tids(a)),
    );
    assert_eq!(rep.kind, KernelKind::Window);
    assert_eq!(rep.work, PARENT_WORK);
    assert_eq!(emissions, PARENT_EMISSIONS);
}

/// On a mixed bucket the window scan emits what the dispatched
/// backtracking kernel emitted, examining no more candidates: work and
/// sorted output below were recorded from `kernel::backtrack_join` at the
/// same parent.
#[test]
fn mixed_bucket_matches_the_backtracking_kernel_with_no_more_work() {
    const PARENT_WORK: u64 = 85;
    #[rustfmt::skip]
    const PARENT_OUTPUT: [[TupleId; 3]; 36] = [
        [3, 7, 2], [3, 7, 7], [3, 8, 7], [4, 9, 2], [4, 9, 7], [4, 11, 2], [4, 11, 4], [4, 11, 7],
        [6, 1, 2], [6, 1, 4], [6, 1, 6], [6, 1, 7], [6, 1, 10], [6, 5, 1], [6, 5, 2], [6, 5, 4],
        [6, 5, 6], [6, 5, 7], [6, 5, 10], [8, 7, 2], [8, 7, 7], [8, 8, 7], [8, 9, 2], [8, 9, 7],
        [9, 8, 7], [11, 1, 2], [11, 1, 4], [11, 1, 6], [11, 1, 7], [11, 1, 10], [11, 5, 1],
        [11, 5, 2], [11, 5, 4], [11, 5, 6], [11, 5, 7], [11, 5, 10],
    ];
    let q = JoinQuery::chain(&[AllenPredicate::Overlaps, AllenPredicate::Before]).unwrap();
    let cands = pinned_bucket(3, 12, 40, 30);
    let mut output: Vec<Vec<TupleId>> = Vec::new();
    let rep = kernel::execute(
        &q,
        &cands,
        &KernelConfig::serial(),
        |_| true,
        |a| output.push(tids(a)),
    );
    output.sort();
    assert_eq!(rep.kind, KernelKind::Window);
    assert!(rep.work <= PARENT_WORK, "work {} > {PARENT_WORK}", rep.work);
    assert_eq!(output, PARENT_OUTPUT);
    // The reference still does the parent's work, candidate for candidate.
    assert_eq!(reference_join(&q, &cands, |_| {}), PARENT_WORK);
}
