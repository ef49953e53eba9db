//! Predicate-specialized reduce-side join kernels.
//!
//! Every join reducer funnels into one chunk runner: single-attribute
//! buckets through [`execute_into`] (via [`reduce_join`] /
//! [`reduce_into`]), buckets of records that carry several intervals —
//! the cascade's stages, FCTS's sequence matrix, Gen-Matrix's join —
//! through [`composite::CompositeJoin`]. [`planned_kernel`] reads the
//! query's condition set — never the bucket — and routes to one of three
//! kernels; a composite bucket is always a window bucket —
//!
//! | Condition set | Kernel | Counter |
//! |---|---|---|
//! | two relations, one overlaps/contains-shaped condition | `sweep` (pair sweep: active set with a retirement array) | `kernel.sweep_buckets` |
//! | colocation, all pairs provably intersecting | `event_sweep` (merged event list, gapless active arrays) | `kernel.event_sweep_buckets` |
//! | everything else: other colocation sets, sequence sets, mixed sets, composite buckets | `window` (windowed descent: narrower of start/end window) | `kernel.sweep_buckets` |
//!
//! The event-list sweep emits each binding at its latest-starting
//! tuple's event, which is complete only when every relation pair of a
//! satisfying assignment intersects (1-D Helly) — `event_sweep::qualifies`
//! proves that statically for colocation cliques and containment-shaped
//! chains, while e.g. pure *overlaps* chains take the window scan. The
//! window scan is complete for any Allen condition set between the slots
//! of its rows (a single-attribute candidate is a one-slot row); the two
//! sweeps only on their domains, and [`execute_kind`] refuses a query
//! outside the forced kernel's domain instead of substituting another.
//! Within a domain the choice is purely a performance decision —
//! property-tested to produce identical result sets, against each other
//! and against `backtrack`, the `holds`-based windowed-backtracking
//! reference that is the oracle's engine and is never dispatched. All of
//! them read one level program (`Compiled`).
//!
//! **Heavy-bucket intra-reducer parallelism.** When a bucket's candidate
//! count reaches the configured threshold, the runner splits the level-0
//! outer iteration into contiguous chunks across a bounded worker pool.
//! Output goes through an [`OutputSink`]: the runner `fork`s one empty
//! push-only [`BindingSink`] per chunk, each worker runs the
//! owner-`accept` filter and `push`es accepted bindings into its own —
//! folding them into the count, rows or id set the reducer wants, not
//! buffering them — and the caller `absorb`s the chunks in chunk order.
//! Every kernel emits along a fixed outer order (the pair sweep's
//! retirement state is a function of the current outer interval only),
//! so chunk `i` holds exactly the bindings the serial run emits for outer
//! range `i`, in the same order: the sink ends in the serial state and
//! work units are chunk-invariant for any thread count. The closure form
//! [`execute`] is one such sink: its chunks buffer rows replayed into
//! `on_output` on the caller's thread.
//!
//! **Streaming reducers.** A reducer drains its pull-based
//! [`ij_mapreduce::ValueStream`] once, in emission order, into
//! [`Candidates`] or a composite record list; the kernels never see
//! whether the stream came from the in-memory merge or spilled Dfs runs.

pub(crate) mod backtrack;
pub mod composite;
mod event_sweep;
mod ranges;
mod scratch;
mod sink;
mod sweep;
mod window;

pub use ranges::{range_pair, RangePair};
pub use sink::{BindingSink, OutputSink};

use crate::executor::Candidates;
use crate::output::OutputMode;
use crate::records::OutRec;
use ij_interval::{AllenPredicate, Interval, TupleId};
use ij_mapreduce::metrics::names::{self, Counter};
use ij_mapreduce::ReduceCtx;
use ij_query::{AttrRef, JoinQuery};
use std::any::Any;
use std::cmp::{Ordering, Reverse};
use std::ops::Range;
use std::panic::resume_unwind;

/// Sink for complete bindings: one row per side, in side order (for a
/// single-attribute bucket an `(interval, tuple)` per relation).
pub(crate) type Emit<'a, R = (Interval, TupleId)> = dyn FnMut(&[R]) + 'a;

/// A `(side, slot)` position: a relation and its attribute, or a
/// composite side and one of the intervals its records carry.
pub type Slot = (usize, usize);

/// `left pred right` between two slots.
pub type SlotCondition = (Slot, AllenPredicate, Slot);

/// The scan strategy of one bucket. Query-static: [`planned_kernel`]
/// reads the condition set only, so every bucket of a join cycle runs
/// the same kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Two-relation active-set sweep with a retirement array (one
    /// overlaps/contains-shaped condition).
    PairSweep,
    /// Merged-event-list sweep over gapless active arrays (colocation
    /// sets whose relation pairs all provably intersect).
    EventSweep,
    /// Windowed descent scanning the narrower of each level's start and
    /// end window (any Allen condition set, composite buckets included).
    Window,
}

impl KernelKind {
    /// The per-bucket user counter this kernel increments. Valid for
    /// every kernel kind regardless of predicate class. The pair sweep
    /// and the window scan share `kernel.sweep_buckets`.
    pub fn counter(self) -> &'static Counter {
        match self {
            KernelKind::PairSweep | KernelKind::Window => names::KERNEL_SWEEP_BUCKETS,
            KernelKind::EventSweep => names::KERNEL_EVENT_SWEEP_BUCKETS,
        }
    }

    /// Whether this kernel is a complete executor for `q`'s condition set.
    fn applies_to(self, q: &JoinQuery) -> bool {
        match self {
            KernelKind::PairSweep => sweep::eligible(q),
            KernelKind::EventSweep => event_sweep::qualifies(q),
            KernelKind::Window => true,
        }
    }
}

/// The kernel [`execute_into`] routes `q`'s buckets to: the strongest
/// specialization whose domain holds `q`. Valid for any single-attribute
/// query of any predicate class — the choice depends only on the
/// condition set.
pub fn planned_kernel(q: &JoinQuery) -> KernelKind {
    [KernelKind::PairSweep, KernelKind::EventSweep]
        .into_iter()
        .find(|kind| kind.applies_to(q))
        .unwrap_or(KernelKind::Window)
}

/// What one [`execute`] call did.
#[derive(Debug, Clone, Copy)]
pub struct KernelReport {
    /// The kernel the dispatcher chose.
    pub kind: KernelKind,
    /// Work units spent (candidates examined), chunk-invariant.
    pub work: u64,
    /// Outer chunks executed (1 = serial).
    pub parallel_chunks: usize,
    /// Maximum total active-array occupancy the event sweep observed
    /// (0 for the other kernels), chunk-invariant — the direct input for
    /// skew-driven intra-reduce budgeting.
    pub active_peak: u64,
}

impl KernelReport {
    /// The report of a bucket with an empty relation: nothing ran.
    fn idle(kind: KernelKind) -> KernelReport {
        KernelReport {
            kind,
            work: 0,
            parallel_chunks: 1,
            active_peak: 0,
        }
    }
}

/// Execution knobs for [`execute`]; reducers derive theirs from the
/// engine via [`reduce_join`].
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Maximum worker threads for one bucket (1 disables parallelism).
    pub threads: usize,
    /// Total candidate count at which a bucket becomes "heavy" and may be
    /// split across the worker pool.
    pub parallel_threshold: usize,
}

impl KernelConfig {
    /// Strictly serial execution. Predicate-class independent: every
    /// kernel accepts a serial config.
    pub fn serial() -> KernelConfig {
        KernelConfig {
            threads: 1,
            parallel_threshold: usize::MAX,
        }
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig::serial()
    }
}

/// Computes a binding order for backtracking.
///
/// Relations are bound left-to-right in the provable start order: when the
/// bound neighbor starts *before* the candidate, the candidate's start
/// window from [`ij_interval::AllenPredicate::right_start_bounds`] is
/// bounded on both sides for every colocation predicate, so each level
/// binary-searches a small window. (Binding right-to-left instead would
/// give half-open windows — "everything that starts before me" — and
/// degrade to quadratic scans.) Connectivity still matters: among
/// equal-rank candidates we grow BFS-style from the already-bound set and
/// prefer the smallest candidate list.
pub(crate) fn binding_order(q: &JoinQuery, list_len: impl Fn(usize) -> usize) -> Vec<usize> {
    let m = q.num_relations() as usize;
    let mut adj = vec![Vec::new(); m];
    for c in q.conditions() {
        adj[c.left.rel.idx()].push(c.right.rel.idx());
        adj[c.right.rel.idx()].push(c.left.rel.idx());
    }
    // rank[r] = number of relations provably starting strictly before r —
    // left-most relations get bound first.
    let order_info = q.start_order();
    let le = |a: usize, b: usize| {
        order_info.le_start(AttrRef::whole(a as u16), AttrRef::whole(b as u16))
    };
    let rank: Vec<usize> = (0..m)
        .map(|r| (0..m).filter(|&o| o != r && le(o, r) && !le(r, o)).count())
        .collect();
    let mut order = Vec::with_capacity(m);
    let mut placed = vec![false; m];
    while order.len() < m {
        // Prefer: connected to the bound set, then lowest rank, then the
        // smallest list.
        let next = (0..m)
            .filter(|&r| !placed[r])
            .min_by_key(|&r| {
                let disconnected = !order.is_empty() && !adj[r].iter().any(|&n| placed[n]);
                (disconnected, rank[r], list_len(r))
            })
            .expect("some relation unplaced");
        placed[next] = true;
        order.push(next);
    }
    order
}

/// `q`'s conditions between `(relation, attribute)` slots.
fn slot_conditions(q: &JoinQuery) -> Vec<SlotCondition> {
    let slot = |at: AttrRef| (at.rel.idx(), at.attr as usize);
    (q.conditions().iter())
        .map(|c| (slot(c.left), c.pred, slot(c.right)))
        .collect()
}

/// The level program every descent (window kernel, reference, event-sweep
/// probe) runs: a binding order of the sides plus per-level checks.
///
/// `checks[level]` lists `((bound side, slot), pred, this side's slot)`
/// for every condition whose later-bound side binds at `level`, oriented
/// so *this side's slot is the right operand*: the check is
/// `pred.holds(bound, cand)`, with the candidate's endpoint ranges from
/// [`ranges::range_pair`]`(pred, bound)`. A level windows on its `key`
/// slot — the one most of its checks constrain, the lowest on a tie, 0
/// without checks — and filters its `others`. A single-attribute query
/// is the one-slot case.
#[derive(Debug)]
pub(crate) struct Compiled {
    pub(crate) order: Vec<usize>,
    pub(crate) checks: Vec<Vec<(Slot, AllenPredicate, usize)>>,
    pub(crate) key: Vec<usize>,
    pub(crate) others: Vec<Vec<usize>>,
}

impl Compiled {
    /// `conditions` binding sides in `order`, a permutation of the sides.
    /// A condition within one side is the caller's filter, not a check.
    pub(crate) fn new(order: Vec<usize>, conditions: &[SlotCondition]) -> Compiled {
        let n = order.len();
        let mut level_of = vec![0; n];
        for (level, &side) in order.iter().enumerate() {
            level_of[side] = level;
        }
        let mut checks: Vec<Vec<(Slot, AllenPredicate, usize)>> = vec![Vec::new(); n];
        for &(l, pred, r) in conditions {
            match level_of[l.0].cmp(&level_of[r.0]) {
                Ordering::Less => checks[level_of[r.0]].push((l, pred, r.1)),
                // `l` binds later: flip to the right-operand form.
                Ordering::Greater => checks[level_of[l.0]].push((r, pred.inverse(), l.1)),
                Ordering::Equal => {}
            }
        }
        let (mut key, mut others) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for level in &checks {
            // Most checks first, the lowest slot on a tie.
            let count = |s: usize| level.iter().filter(|c| c.2 == s).count();
            let mut slots: Vec<usize> = level.iter().map(|c| c.2).collect();
            slots.sort_unstable_by_key(|&s| (Reverse(count(s)), s));
            slots.dedup();
            key.push(slots.first().copied().unwrap_or(0));
            others.push(slots.into_iter().skip(1).collect());
        }
        Compiled {
            order,
            checks,
            key,
            others,
        }
    }
}

/// The precomputed, immutable structures of one bucket's kernel.
enum Plan {
    Pair(sweep::PairSweep),
    Event(event_sweep::EventSweepPlan),
    Window(window::WindowPlan),
}

/// One prepared single-attribute bucket: everything a chunk needs,
/// immutable.
struct Prepared<'c, A> {
    kind: KernelKind,
    plan: Plan,
    outer_len: usize,
    cands: &'c Candidates,
    accept: A,
}

/// `None` for a bucket with an empty relation. Precondition:
/// `kind.applies_to(q)`.
fn prepare<'c, A>(
    kind: KernelKind,
    q: &JoinQuery,
    cands: &'c Candidates,
    accept: A,
) -> Option<Prepared<'c, A>> {
    assert!(
        cands.is_sorted(),
        "Candidates::finish must be called before joining"
    );
    if cands.any_empty() {
        return None;
    }
    let plan = match kind {
        KernelKind::PairSweep => Plan::Pair(sweep::PairSweep::new(q, cands)),
        KernelKind::EventSweep => Plan::Event(event_sweep::EventSweepPlan::new(q, cands)),
        KernelKind::Window => Plan::Window(window::WindowPlan::of_query(q, cands)),
    };
    let outer_len = match &plan {
        Plan::Pair(p) => p.outer_len(),
        Plan::Event(p) => p.outer_len(),
        Plan::Window(p) => p.outer_len,
    };
    Some(Prepared {
        kind,
        plan,
        outer_len,
        cands,
        accept,
    })
}

/// A prepared bucket the chunk runner cuts: `run` covers the level-0
/// positions `outer` on the calling thread, pushing every accepted
/// binding into `sink`.
trait Chunks {
    fn run<K: BindingSink>(&self, outer: Range<usize>, sink: &mut K) -> KernelReport;
}

impl<A: Fn(&[(Interval, TupleId)]) -> bool> Chunks for Prepared<'_, A> {
    fn run<K: BindingSink>(&self, outer: Range<usize>, sink: &mut K) -> KernelReport {
        let mut rep = KernelReport::idle(self.kind);
        let emit: &mut Emit<'_> = &mut |a| {
            if (self.accept)(a) {
                sink.push(a)
            }
        };
        let (cands, work) = (self.cands, &mut rep.work);
        match &self.plan {
            Plan::Pair(p) => p.run(cands, outer, emit, work),
            Plan::Event(p) => p.run(cands, outer, emit, work, &mut rep.active_peak),
            Plan::Window(p) => p.run(&cands.lists, outer, emit, work),
        }
        rep
    }
}

/// Runs `q` over `cands` on one thread with the `kind` kernel forced — the
/// entry point for equivalence tests and benches. Returns `None`, having
/// run nothing, when `q` lies outside `kind`'s domain: the pair sweep
/// takes two relations joined by one overlaps/contains-shaped condition,
/// the event sweep colocation sets whose relation pairs all provably
/// intersect, the window scan any single-attribute condition set.
pub fn execute_kind(
    kind: KernelKind,
    q: &JoinQuery,
    cands: &Candidates,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool,
    on_output: impl FnMut(&[(Interval, TupleId)]),
) -> Option<KernelReport> {
    let arity = q.num_relations() as usize;
    kind.applies_to(q)
        .then(|| match prepare(kind, q, cands, accept) {
            Some(prep) => prep.run(0..prep.outer_len, &mut sink::Replay { arity, on_output }),
            None => KernelReport::idle(kind),
        })
}

/// The chunk runner every bucket runs through (see [`execute_into`]):
/// serial below the heavy threshold, else contiguous outer chunks on
/// scoped workers, absorbed in outer order; a worker's panic re-raised.
fn drive(
    kind: KernelKind,
    (outer_len, total): (usize, usize),
    cfg: &KernelConfig,
    bucket: &(impl Chunks + Sync),
    sink: &mut impl OutputSink,
) -> KernelReport {
    let threads = if total >= cfg.parallel_threshold {
        cfg.threads.min(outer_len).max(1)
    } else {
        1
    };
    if threads <= 1 {
        return bucket.run(0..outer_len, sink);
    }

    let chunk = outer_len.div_ceil(threads);
    let ranges = (0..threads)
        .map(|t| (t * chunk)..((t + 1) * chunk).min(outer_len))
        .filter(|r| !r.is_empty());
    let mut rep = KernelReport {
        parallel_chunks: 0,
        ..KernelReport::idle(kind)
    };
    let mut panic_payload: Option<Box<dyn Any + Send>> = None;
    crossbeam::scope(|scope| {
        let handles: Vec<_> = ranges
            .map(|r| {
                let mut chunk_sink = sink.fork();
                scope.spawn(move |_| (bucket.run(r, &mut chunk_sink), chunk_sink))
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok((chunk_rep, chunk_sink)) => {
                    rep.parallel_chunks += 1;
                    rep.work += chunk_rep.work;
                    // Per-chunk peaks are maxima of the same per-event
                    // occupancy series the serial run observes, so their
                    // maximum is chunk-invariant.
                    rep.active_peak = rep.active_peak.max(chunk_rep.active_peak);
                    sink.absorb(chunk_sink);
                }
                Err(p) => {
                    panic_payload.get_or_insert(p);
                }
            }
        }
    })
    .unwrap_or_else(|p| resume_unwind(p));
    if let Some(p) = panic_payload {
        resume_unwind(p);
    }
    rep
}

/// Dispatching kernel execution with heavy-bucket parallelism, feeding an
/// [`OutputSink`]. Precondition: any single-attribute query; the kernel
/// is [`planned_kernel`]`(q)`.
///
/// When the bucket's total candidate count reaches
/// `cfg.parallel_threshold` and `cfg.threads > 1`, the outer iteration is
/// chunked across a scoped worker pool, each worker running `accept`
/// (hence the `Sync` bound); the sink ends in the serial run's state for
/// every thread count, as do `work` and `active_peak`.
pub fn execute_into(
    q: &JoinQuery,
    cands: &Candidates,
    cfg: &KernelConfig,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool + Sync,
    sink: &mut impl OutputSink,
) -> KernelReport {
    let kind = planned_kernel(q);
    let total = cands.lists.iter().map(Vec::len).sum();
    match prepare(kind, q, cands, accept) {
        Some(prep) => drive(kind, (prep.outer_len, total), cfg, &prep, sink),
        None => KernelReport::idle(kind),
    }
}

/// The closure form of [`execute_into`]: `on_output` observes every
/// accepted binding on the calling thread, in serial emission order.
/// Precondition: any single-attribute query (same predicate-class
/// routing as [`execute_into`]).
///
/// On the parallel path each chunk buffers its rows and the caller
/// replays them in chunk order — reducers that only count, collect rows
/// or build a set should pass a folding sink to [`execute_into`] instead.
pub fn execute<A, F>(
    q: &JoinQuery,
    cands: &Candidates,
    cfg: &KernelConfig,
    accept: A,
    on_output: F,
) -> KernelReport
where
    A: Fn(&[(Interval, TupleId)]) -> bool + Sync,
    F: FnMut(&[(Interval, TupleId)]),
{
    let mut sink = sink::Replay {
        arity: q.num_relations() as usize,
        on_output,
    };
    execute_into(q, cands, cfg, accept, &mut sink)
}

/// Runs a bucket inside a reducer: `run` joins it under the engine's
/// per-bucket thread budget and heavy threshold; the report's work units
/// go to the cost model and the `kernel.*` counters.
fn reduce_with(
    ctx: &mut ReduceCtx,
    run: impl FnOnce(&KernelConfig) -> KernelReport,
) -> KernelReport {
    let rep = run(&KernelConfig {
        threads: ctx.thread_budget(),
        parallel_threshold: ctx.heavy_bucket_threshold(),
    });
    ctx.add_work(rep.work);
    ctx.inc(rep.kind.counter(), 1);
    if rep.parallel_chunks > 1 {
        ctx.inc(names::KERNEL_PARALLEL_BUCKETS, 1);
    }
    if rep.active_peak > 0 {
        // Execution-shape counter (see `ij_mapreduce::is_execution_shape`):
        // the event sweep's peak concurrent-interval count, the signal the
        // skew-driven thread budget consumes. The engine also records the
        // per-bucket values into the `kernel.active_peak` histogram.
        ctx.inc(names::KERNEL_ACTIVE_PEAK, rep.active_peak);
    }
    rep
}

/// Runs a bucket inside a reducer into `sink`: derives the
/// [`KernelConfig`] from the engine's per-bucket thread budget, reports
/// the work units to the cost model and maintains the `kernel.*`
/// counters. Precondition: any single-attribute query; the dispatcher
/// picks the kernel by predicate class.
pub fn reduce_into(
    ctx: &mut ReduceCtx,
    q: &JoinQuery,
    cands: &Candidates,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool + Sync,
    sink: &mut impl OutputSink,
) -> KernelReport {
    reduce_with(ctx, |cfg| execute_into(q, cands, cfg, accept, sink))
}

/// The tail of every join reducer, single-attribute or composite:
/// [`reduce_with`] joining the bucket into `rec`, then `join.candidates`
/// (the work) and `join.emitted` (`rec`'s tuples), and `rec` to `out`
/// unless it stands for no tuple.
pub(crate) fn reduce_rec(
    ctx: &mut ReduceCtx,
    mut rec: OutRec,
    out: &mut Vec<OutRec>,
    run: impl FnOnce(&KernelConfig, &mut OutRec) -> KernelReport,
) -> KernelReport {
    let rep = reduce_with(ctx, |cfg| run(cfg, &mut rec));
    ctx.inc(names::JOIN_CANDIDATES, rep.work);
    ctx.inc(names::JOIN_EMITTED, rec.tuples());
    rec.emit_into(out);
    rep
}

/// The reducer of a join cycle: [`reduce_into`] with the sink `mode`
/// calls for, leaving in `out` the reducer's one record — its
/// `OutRec::Rows` table when materializing, its `OutRec::Count` when
/// counting, nothing if it found no tuple — plus the `join.candidates` /
/// `join.emitted` counters. Precondition: any single-attribute query.
pub fn reduce_join(
    ctx: &mut ReduceCtx,
    q: &JoinQuery,
    cands: &Candidates,
    mode: OutputMode,
    accept: impl Fn(&[(Interval, TupleId)]) -> bool + Sync,
    out: &mut Vec<OutRec>,
) -> KernelReport {
    let rec = OutRec::new(mode, q.num_relations() as usize);
    reduce_rec(ctx, rec, out, |cfg, rec| match rec {
        OutRec::Count(n) => execute_into(q, cands, cfg, accept, n),
        OutRec::Rows(rows) => execute_into(q, cands, cfg, accept, rows),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::AllenPredicate::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    fn random_cands(m: usize, n: u32, seed: u64) -> Candidates {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Candidates::new(m);
        for r in 0..m {
            for t in 0..n {
                let s = rng.gen_range(0..60);
                let e = s + rng.gen_range(0..20);
                c.push(r, iv(s, e), t);
            }
        }
        c.finish();
        c
    }

    fn collect(
        run: impl FnOnce(&mut dyn FnMut(&[(Interval, TupleId)])) -> u64,
    ) -> (u64, Vec<Vec<TupleId>>) {
        let mut got = Vec::new();
        let work = run(&mut |a: &[(Interval, TupleId)]| {
            got.push(a.iter().map(|(_, t)| *t).collect::<Vec<_>>())
        });
        (work, got)
    }

    /// Sorted tuple ids from `kind` forced on `q` (which must lie in its
    /// domain).
    fn forced(kind: KernelKind, q: &JoinQuery, c: &Candidates) -> Vec<Vec<TupleId>> {
        let (_, mut got) = collect(|e| {
            execute_kind(kind, q, c, |_| true, |a| e(a))
                .expect("query in the kernel's domain")
                .work
        });
        got.sort();
        got
    }

    fn reference(q: &JoinQuery, c: &Candidates) -> Vec<Vec<TupleId>> {
        let (_, mut got) = collect(|e| backtrack::reference_join(q, c, |a| e(a)));
        got.sort();
        got
    }

    #[test]
    fn binding_order_covers_disconnected_queries() {
        let q = JoinQuery::new(
            4,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(2, Overlaps, 3),
            ],
        )
        .unwrap();
        let order = binding_order(&q, |_| 1);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dispatch_follows_the_condition_set() {
        // Overlaps∘Contains chains don't guarantee pairwise intersection,
        // so they take the window scan — like sequence and mixed sets.
        let coloc = JoinQuery::chain(&[Overlaps, Contains]).unwrap();
        let seq = JoinQuery::chain(&[Before, Before]).unwrap();
        let mixed = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        for q in [&coloc, &seq, &mixed] {
            assert_eq!(planned_kernel(q), KernelKind::Window, "{q}");
        }
        // Qualifying multi-way colocation sets route to the event sweep:
        // cliques (every pair conditioned) and containment chains.
        assert_eq!(planned_kernel(&clique3()), KernelKind::EventSweep);
        let containment = JoinQuery::chain(&[Contains, Contains]).unwrap();
        assert_eq!(planned_kernel(&containment), KernelKind::EventSweep);
        // Pair-shaped queries keep the pair sweep, the strongest
        // specialization, although they qualify for the event sweep too.
        for p in [Overlaps, OverlappedBy, Contains, ContainedBy] {
            let pair = JoinQuery::chain(&[p]).unwrap();
            assert_eq!(planned_kernel(&pair), KernelKind::PairSweep, "{p}");
            assert!(KernelKind::EventSweep.applies_to(&pair), "{p}");
        }
        // Other two-relation colocation predicates are event-sweep buckets.
        assert_eq!(
            planned_kernel(&JoinQuery::chain(&[Meets]).unwrap()),
            KernelKind::EventSweep
        );
    }

    #[test]
    fn forced_kernels_refuse_queries_outside_their_domain() {
        let c3 = random_cands(3, 10, 1);
        let c2 = random_cands(2, 10, 1);
        let refused = |kind, q: &JoinQuery, c: &Candidates| {
            execute_kind(kind, q, c, |_| true, |_| panic!("nothing may run")).is_none()
        };
        let chain = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        assert!(refused(KernelKind::PairSweep, &chain, &c3));
        assert!(refused(KernelKind::EventSweep, &chain, &c3));
        assert!(refused(
            KernelKind::PairSweep,
            &JoinQuery::chain(&[Meets]).unwrap(),
            &c2
        ));
        assert!(refused(
            KernelKind::EventSweep,
            &JoinQuery::chain(&[Before]).unwrap(),
            &c2
        ));
        let rep = execute_kind(KernelKind::Window, &chain, &c3, |_| true, |_| {}).unwrap();
        assert_eq!(rep.kind, KernelKind::Window);
    }

    /// A satisfiable 3-clique: r0 ov r1, r1 ⊇ r2, r0 ov r2 — e.g.
    /// r0=[0,10], r1=[5,20], r2=[8,12].
    fn clique3() -> JoinQuery {
        JoinQuery::new(
            3,
            vec![
                ij_query::Condition::whole(0, Overlaps, 1),
                ij_query::Condition::whole(1, Contains, 2),
                ij_query::Condition::whole(0, Overlaps, 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn event_sweep_matches_other_kernels_on_cliques() {
        let q = clique3();
        for seed in 0..6 {
            let c = random_cands(3, 40, 100 + seed);
            let es = forced(KernelKind::EventSweep, &q, &c);
            assert!(!es.is_empty(), "workload too sparse");
            assert_eq!(es, reference(&q, &c), "event sweep != reference");
            assert_eq!(
                es,
                forced(KernelKind::Window, &q, &c),
                "event sweep != window scan"
            );
        }
    }

    #[test]
    fn event_sweep_parallel_is_byte_identical_with_invariant_peak() {
        let q = clique3();
        let c = random_cands(3, 60, 17);
        let run = |threads: usize| {
            let cfg = KernelConfig {
                threads,
                parallel_threshold: 0,
            };
            let mut got: Vec<TupleId> = Vec::new();
            let rep = execute(
                &q,
                &c,
                &cfg,
                |_| true,
                |a| got.extend(a.iter().map(|(_, t)| *t)),
            );
            assert_eq!(rep.kind, KernelKind::EventSweep);
            (rep.work, rep.active_peak, got)
        };
        let (base_work, base_peak, base) = run(1);
        assert!(!base.is_empty());
        assert!(base_peak > 0, "active_peak must be tracked");
        for t in [2, 3, 8] {
            let (work, peak, got) = run(t);
            assert_eq!(got, base, "threads = {t}: output order must not change");
            assert_eq!(
                work, base_work,
                "threads = {t}: work must be chunk-invariant"
            );
            assert_eq!(
                peak, base_peak,
                "threads = {t}: active_peak must be chunk-invariant"
            );
        }
    }

    #[test]
    fn event_sweep_reduce_join_reports_counters() {
        let q = clique3();
        let c = random_cands(3, 30, 5);
        let mut ctx = ReduceCtx::new(0);
        let rep = reduce_into(&mut ctx, &q, &c, |_| true, &mut 0u64);
        assert_eq!(rep.kind, KernelKind::EventSweep);
        assert_eq!(ctx.counters().get("kernel.event_sweep_buckets"), 1);
        assert_eq!(ctx.counters().get("kernel.active_peak"), rep.active_peak);
        assert!(rep.active_peak > 0);
    }

    #[test]
    fn all_kernels_agree_on_every_chain_predicate() {
        for p in AllenPredicate::ALL {
            let q = JoinQuery::chain(&[p]).unwrap();
            let c = random_cands(2, 40, 7 + p as u64);
            let reference = reference(&q, &c);
            assert_eq!(
                reference,
                forced(KernelKind::Window, &q, &c),
                "{p}: window scan != reference"
            );
            // The dispatched kernel (pair or event sweep where they apply).
            assert_eq!(
                reference,
                forced(planned_kernel(&q), &q, &c),
                "{p}: dispatched kernel != reference"
            );
        }
    }

    #[test]
    fn parallel_output_is_byte_identical_and_work_invariant() {
        let q = JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
        let c = random_cands(3, 60, 42);
        let run = |threads: usize| {
            let cfg = KernelConfig {
                threads,
                parallel_threshold: 0,
            };
            let mut got: Vec<TupleId> = Vec::new();
            let rep = execute(
                &q,
                &c,
                &cfg,
                |_| true,
                |a| got.extend(a.iter().map(|(_, t)| *t)),
            );
            (rep.work, got)
        };
        let (base_work, base) = run(1);
        assert!(!base.is_empty());
        for t in [2, 3, 8] {
            let (work, got) = run(t);
            assert_eq!(got, base, "threads = {t}: output order must not change");
            assert_eq!(
                work, base_work,
                "threads = {t}: work must be chunk-invariant"
            );
        }
    }

    #[test]
    fn accept_filter_runs_in_parallel_path() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let c = random_cands(2, 50, 9);
        let cfg = KernelConfig {
            threads: 4,
            parallel_threshold: 0,
        };
        let mut par = Vec::new();
        let rep = execute(&q, &c, &cfg, |a| a[1].1 % 2 == 0, |a| par.push(a[1].1));
        assert!(rep.parallel_chunks > 1);
        let mut ser = Vec::new();
        let serial = KernelConfig::serial();
        execute(&q, &c, &serial, |a| a[1].1 % 2 == 0, |a| ser.push(a[1].1));
        assert_eq!(par, ser);
        assert!(par.iter().all(|t| t % 2 == 0));
    }

    #[test]
    fn empty_bucket_reports_zero() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let mut c = Candidates::new(2);
        c.push(0, iv(0, 5), 0);
        c.finish();
        let serial = KernelConfig::serial();
        let rep = execute(&q, &c, &serial, |_| true, |_| panic!("no outputs"));
        assert_eq!(rep.work, 0);
        assert_eq!(rep.kind, KernelKind::PairSweep);
    }

    #[test]
    fn reduce_join_reports_work_and_counters() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let c = random_cands(2, 30, 3);
        let mut ctx = ReduceCtx::new(0);
        let mut out = Vec::new();
        let rep = reduce_join(
            &mut ctx,
            &q,
            &c,
            OutputMode::Materialize,
            |_| true,
            &mut out,
        );
        assert_eq!(ctx.work(), rep.work);
        assert_eq!(ctx.counters().get("kernel.sweep_buckets"), 1);
        assert_eq!(ctx.counters().get("kernel.parallel_buckets"), 0);
        assert_eq!(ctx.counters().get(names::JOIN_CANDIDATES), rep.work);
        let [OutRec::Rows(rows)] = out.as_slice() else {
            panic!("one block of rows, got {out:?}");
        };
        assert!(!rows.is_empty());
        assert_eq!(ctx.counters().get(names::JOIN_EMITTED), rows.len() as u64);
    }
}
