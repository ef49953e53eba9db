//! Predicate-specialized reduce-side join kernels.
//!
//! Every join reducer funnels into one chunk runner: single-attribute
//! buckets through [`execute_into`] (via [`reduce_join`] /
//! [`reduce_into`]), buckets of records that carry several intervals —
//! the cascade's stages, FCTS's sequence matrix, Gen-Matrix's join —
//! through [`composite::CompositeJoin`]. A join cycle runs one of the
//! two as its reducer program (`BucketJoin`: `OneSlot` or the composite
//! join), whatever family routed the bucket. [`planned_kernel`] reads the
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
//! **Heavy-bucket intra-reducer parallelism.** On a bucket granted several
//! threads (by the engine's schedule, or by `parallel_threshold` for a
//! direct caller), the runner cuts the level-0
//! outer range into many small contiguous blocks — a fixed number per
//! granted thread — and the granted workers pull block indices from one
//! shared cursor until none is left. A thread that finishes a cheap block
//! pulls the next, so a front-loaded bucket (Zipf starts put most of a
//! sweep's work in its first events) still spreads over every thread,
//! where one contiguous chunk per thread left the second idle. The cursor
//! only grows, so each thread receives its blocks in increasing order and
//! carries its sweep state from one to the next: the event sweep applies
//! the events between two of its blocks without probing, the pair sweep
//! continues its retirement pointer, the window scan keeps where each
//! level's searches ended and starts the next ones there (any start finds
//! the same window, so its state only saves search steps). Output goes
//! through an [`OutputSink`]: a worker `fork`s one empty push-only
//! [`BindingSink`] per block, and the kernel's last level hands it each
//! filtered window as one run ([`BindingSink::push_run`]) — a static call
//! the scan loop inlines, folding the run into the count, rows or id set
//! the reducer wants, not buffering it — and the caller `absorb`s the
//! blocks in block order. Every kernel emits along a fixed outer order and its
//! state at an outer position does not depend on which thread got there,
//! so block `i` holds exactly the bindings the serial run emits for outer
//! range `i`, in the same order: the sink ends in the serial state and
//! work units and the active peak are the serial run's for any thread
//! count. The closure form [`execute`] is one such sink: its blocks buffer
//! rows that are replayed through its `accept` into `on_output` on the
//! caller's thread.
//!
//! **Ownership as window bounds.** A reducer keeps only the bindings its
//! cell owns: per dimension of the reducer matrix, the right-most start
//! among the dimension's members lies in the cell's start window. The
//! kernels take that rule as a value, the *owner* (a [`StartWindow`] per
//! dimension, empty to keep everything), and compile it into each bucket's
//! level program (`Compiled`) by `lo ≤ max(p, s) ≤ hi ⟺ p ≤ hi ∧ s ≤ hi ∧
//! (p ≥ lo ∨ s ≥ lo)`: every member's start is capped at `hi` at its own
//! level, and the level binding a dimension's last member floors its start
//! at `lo` unless a member bound earlier already starts there. The window
//! scan intersects the bounds into a level's start ranges (its binary
//! searches skip unowned candidates), the pair sweep into its inner scan,
//! the event sweep into each probe level's range pair — its trigger holds
//! a binding's latest start, so a dimension the trigger belongs to is a
//! bound on the trigger alone and a miss skips the probe. An unowned
//! binding is never enumerated, so no per-binding filter is left. A level
//! picks its scanned view on its checks alone, so the owned run emits the
//! unowned run's owned bindings in the same order, with no more work.
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
use crate::records::{IvRec, OutRec};
use ij_interval::{AllenPredicate, Interval, Time, TupleId};
use ij_mapreduce::metrics::names::{self, Counter};
use ij_mapreduce::{ReduceCtx, ValueStream};
use ij_query::{AttrRef, JoinQuery};
use std::any::Any;
use std::cmp::{Ordering, Reverse};
use std::ops::{Bound, Range};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use window::Row;

/// A `(side, slot)` position: a relation and its attribute, or a
/// composite side and one of the intervals its records carry.
pub type Slot = (usize, usize);

/// One dimension of a bucket's *owner*: the bucket keeps a binding only
/// when the right-most start among the binding's `members` slots lies in
/// `lo..=hi` (DESIGN.md §5). An owner is a list of them, every one of
/// which must hold; the empty owner keeps every binding. Members are never
/// empty; a slot listed twice counts once.
pub type StartWindow<'a> = (Time, Time, &'a [Slot]);

/// Bounds on a slot's start point.
type StartRange = (Bound<Time>, Bound<Time>);

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
    /// Outer blocks the granted threads pulled (1 = serial): a fixed
    /// number per thread, at most one per outer position.
    pub parallel_chunks: usize,
    /// Maximum total active-array occupancy the event sweep observed
    /// (0 for the other kernels), chunk-invariant — a diagnostic, recorded
    /// as `kernel.active_peak`; no schedule reads it.
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
/// engine's grant via [`reduce_join`].
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Maximum worker threads for one bucket (1 disables parallelism).
    pub threads: usize,
    /// Total candidate count at which a bucket may be split across
    /// `threads` (0 in a reducer: its grant already decided).
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
///
/// `owned[level]` is the bucket's owner compiled into start bounds on the
/// level's slots ([`Owned`]); a slot it bounds that no check constrains
/// joins the level's `others`, after the checked ones.
#[derive(Debug)]
pub(crate) struct Compiled {
    pub(crate) order: Vec<usize>,
    pub(crate) checks: Vec<Vec<(Slot, AllenPredicate, usize)>>,
    pub(crate) key: Vec<usize>,
    pub(crate) others: Vec<Vec<usize>>,
    pub(crate) owned: Vec<Owned>,
}

/// The owner's start bounds at one level of a [`Compiled`] program. A
/// dimension `(lo, hi, members)` holds iff every member starts at most
/// `hi` and some member starts at `lo` or later — for members bound
/// earlier with right-most start `p` and a member `s` bound now,
/// `lo ≤ max(p, s) ≤ hi ⟺ p ≤ hi ∧ s ≤ hi ∧ (p ≥ lo ∨ s ≥ lo)`. So every
/// member slot is capped at `hi` at its own level, which prunes an
/// unowned prefix before its subtree, and the level that binds the
/// dimension's last members floors them at `lo` unless an earlier member
/// already starts there. An end of the `Time` domain bounds nothing and
/// compiles to nothing.
#[derive(Debug, Default)]
pub(crate) struct Owned {
    /// `(slot, hi)`: the slot starts at most `hi`.
    caps: Vec<(usize, Time)>,
    /// The dimensions whose last members bind at this level.
    floors: Vec<Floor>,
}

/// One dimension's `≥ lo` disjunction, at the level of its last members.
#[derive(Debug)]
struct Floor {
    lo: Time,
    /// The members bound at earlier levels.
    earlier: Vec<Slot>,
    /// The member slots this level binds: one for a single-attribute
    /// bucket, where the floor is a start bound; several when one
    /// composite side holds them, where it stays a row test.
    here: Vec<usize>,
}

impl Floor {
    /// Whether a member in `bound` (the sides bound before this level)
    /// already starts at `lo` or later.
    fn met<R: Row>(&self, bound: &[R]) -> bool {
        (self.earlier.iter()).any(|&(side, slot)| bound[side].at(slot).start() >= self.lo)
    }
}

impl Owned {
    /// The slots [`Owned::bounds`] may bound.
    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        let floors = self.floors.iter().filter(|f| f.here.len() == 1);
        (self.caps.iter().map(|c| c.0)).chain(floors.flat_map(|f| f.here.iter().copied()))
    }

    /// The start range of a slot per bound on it, given the sides `bound`
    /// before this level; the floors over several slots are
    /// [`Owned::reaches`]'s.
    pub(crate) fn bounds<'s, R: Row>(
        &'s self,
        bound: &'s [R],
    ) -> impl Iterator<Item = (usize, StartRange)> + 's {
        let caps =
            (self.caps.iter()).map(|&(slot, hi)| (slot, (Bound::Unbounded, Bound::Included(hi))));
        let floors = (self.floors.iter()).filter_map(move |f| match f.here[..] {
            [slot] if !f.met(bound) => Some((slot, (Bound::Included(f.lo), Bound::Unbounded))),
            _ => None,
        });
        caps.chain(floors)
    }

    /// `range` narrowed by every bound on a slot of a one-slot row.
    pub(crate) fn narrow<R: Row>(&self, bound: &[R], range: StartRange) -> StartRange {
        (self.bounds(bound)).fold(range, |r, (_, b)| ranges::intersect_range(r, b))
    }

    /// The floors over several slots that no member in `bound` meets, as
    /// indices into `unmet` — what is left of them for a row to meet.
    pub(crate) fn unmet<R: Row>(&self, bound: &[R], unmet: &mut Vec<usize>) {
        unmet.clear();
        let open = |(_, f): &(usize, &Floor)| f.here.len() > 1 && !f.met(bound);
        unmet.extend(self.floors.iter().enumerate().filter(open).map(|(i, _)| i));
    }

    /// Whether `row` meets every floor of `unmet` ([`Owned::unmet`]).
    pub(crate) fn reaches<R: Row>(&self, unmet: &[usize], row: R) -> bool {
        (unmet.iter().map(|&i| &self.floors[i]))
            .all(|f| f.here.iter().any(|&s| row.at(s).start() >= f.lo))
    }
}

impl Compiled {
    /// `conditions` binding sides in `order`, a permutation of the sides,
    /// with `owner` compiled in. A condition within one side is the
    /// caller's filter, not a check.
    pub(crate) fn new(
        order: Vec<usize>,
        conditions: &[SlotCondition],
        owner: &[StartWindow],
    ) -> Compiled {
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
        let (mut key, mut others): (Vec<usize>, Vec<Vec<usize>>) =
            (Vec::with_capacity(n), Vec::with_capacity(n));
        for level in &checks {
            // Most checks first, the lowest slot on a tie.
            let count = |s: usize| level.iter().filter(|c| c.2 == s).count();
            let mut slots: Vec<usize> = level.iter().map(|c| c.2).collect();
            slots.sort_unstable_by_key(|&s| (Reverse(count(s)), s));
            slots.dedup();
            key.push(slots.first().copied().unwrap_or(0));
            others.push(slots.into_iter().skip(1).collect());
        }
        let mut owned: Vec<Owned> = (0..n).map(|_| Owned::default()).collect();
        for &(lo, hi, members) in owner {
            // Distinct, so a floor over one slot stays a start bound.
            let mut members = members.to_vec();
            members.sort_unstable();
            members.dedup();
            let level = |&(side, _): &Slot| level_of[side];
            let last = members
                .iter()
                .map(level)
                .max()
                .expect("a dimension has members");
            if hi < Time::MAX {
                for m in &members {
                    owned[level(m)].caps.push((m.1, hi));
                }
            }
            if lo > Time::MIN {
                let (here, earlier): (Vec<Slot>, Vec<Slot>) =
                    members.iter().partition(|m| level(m) == last);
                let here = here.into_iter().map(|m| m.1).collect();
                owned[last].floors.push(Floor { lo, earlier, here });
            }
        }
        for ((own, &key), others) in owned.iter().zip(&key).zip(&mut others) {
            for slot in own.slots() {
                if slot != key && !others.contains(&slot) {
                    others.push(slot);
                }
            }
        }
        Compiled {
            order,
            checks,
            key,
            others,
            owned,
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
struct Prepared<'c> {
    kind: KernelKind,
    plan: Plan,
    outer_len: usize,
    cands: &'c Candidates,
}

/// `None` for a bucket with an empty relation. Precondition:
/// `kind.applies_to(q)`.
fn prepare<'c>(
    kind: KernelKind,
    q: &JoinQuery,
    cands: &'c Candidates,
    owner: &[StartWindow],
) -> Option<Prepared<'c>> {
    assert!(
        cands.is_sorted(),
        "Candidates::finish must be called before joining"
    );
    if cands.any_empty() {
        return None;
    }
    let plan = match kind {
        KernelKind::PairSweep => Plan::Pair(sweep::PairSweep::new(q, cands, owner)),
        KernelKind::EventSweep => Plan::Event(event_sweep::EventSweepPlan::new(q, cands, owner)),
        KernelKind::Window => Plan::Window(window::WindowPlan::of_query(q, cands, owner)),
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
    })
}

/// A prepared bucket the chunk runner cuts into outer blocks.
trait Chunks {
    /// What one thread carries from one of its blocks to its next.
    type Carry<'a>
    where
        Self: 'a;
    /// The carry of a thread that has run no block yet.
    fn start(&self) -> Self::Carry<'_>;
    /// Covers the level-0 positions `outer` on the calling thread, pushing
    /// every owned binding into `sink`. `outer` starts at or after the end
    /// of every range `carry` ran before.
    fn run<K: BindingSink>(
        &self,
        carry: &mut Self::Carry<'_>,
        outer: Range<usize>,
        sink: &mut K,
    ) -> KernelReport;
}

/// One thread's state between its blocks of a single-attribute bucket.
enum Carry<'a> {
    Pair(sweep::Alive<'a>),
    Event(event_sweep::Active<'a>),
    /// The window scan carries where each level's searches ended.
    Window(&'a window::WindowPlan, window::Scan<(Interval, TupleId)>),
}

impl Chunks for Prepared<'_> {
    type Carry<'a>
        = Carry<'a>
    where
        Self: 'a;

    fn start(&self) -> Carry<'_> {
        match &self.plan {
            Plan::Pair(p) => Carry::Pair(p.start(self.cands)),
            Plan::Event(p) => Carry::Event(p.start(self.cands)),
            Plan::Window(p) => Carry::Window(p, p.start(&self.cands.lists)),
        }
    }

    fn run<K: BindingSink>(
        &self,
        carry: &mut Carry<'_>,
        outer: Range<usize>,
        sink: &mut K,
    ) -> KernelReport {
        let mut rep = KernelReport::idle(self.kind);
        match carry {
            Carry::Pair(c) => c.run(outer, sink, &mut rep.work),
            Carry::Event(c) => c.run(outer, sink, &mut rep.work, &mut rep.active_peak),
            Carry::Window(p, scan) => p.run(&self.cands.lists, scan, outer, sink, &mut rep.work),
        }
        rep
    }
}

/// [`execute_into`] with the `kind` kernel forced — the entry point for
/// equivalence tests and benches. Returns `None`, having run nothing, when
/// `q` lies outside `kind`'s domain: the pair sweep takes two relations
/// joined by one overlaps/contains-shaped condition, the event sweep
/// colocation sets whose relation pairs all provably intersect, the window
/// scan any single-attribute condition set.
pub fn execute_kind_into(
    kind: KernelKind,
    q: &JoinQuery,
    cands: &Candidates,
    cfg: &KernelConfig,
    owner: &[StartWindow],
    sink: &mut impl OutputSink,
) -> Option<KernelReport> {
    let total = cands.lists.iter().map(Vec::len).sum();
    kind.applies_to(q)
        .then(|| match prepare(kind, q, cands, owner) {
            Some(prep) => drive(kind, (prep.outer_len, total), cfg, &prep, sink),
            None => KernelReport::idle(kind),
        })
}

/// [`execute_kind_into`] on one thread, handing each binding to
/// `on_output`.
pub fn execute_kind(
    kind: KernelKind,
    q: &JoinQuery,
    cands: &Candidates,
    owner: &[StartWindow],
    on_output: impl FnMut(&[(Interval, TupleId)]),
) -> Option<KernelReport> {
    let mut sink = sink::Replay {
        arity: q.num_relations() as usize,
        on_output,
    };
    execute_kind_into(kind, q, cands, &KernelConfig::serial(), owner, &mut sink)
}

/// Outer blocks per granted thread on a heavy bucket. Many small blocks
/// pulled in order let the threads even out a front-loaded bucket, where
/// most of the sweep's work sits in its first events (Zipf starts). In a
/// 4 / 16 / 64 sweep on `clique_zipf_count`, 16 and 64 read alike and
/// well below 4; 16 cuts fewer blocks (EXPERIMENTS.md).
const BLOCKS_PER_THREAD: usize = 16;

/// `0..outer_len` cut into `min(outer_len, threads × BLOCKS_PER_THREAD)`
/// contiguous, non-empty blocks of near-equal length, in order.
fn blocks(outer_len: usize, threads: usize) -> Vec<Range<usize>> {
    let count = outer_len.min(threads.saturating_mul(BLOCKS_PER_THREAD));
    let cut = |i: usize| (i as u128 * outer_len as u128 / count as u128) as usize;
    (0..count).map(|i| cut(i)..cut(i + 1)).collect()
}

/// The chunk runner every bucket runs through (see [`execute_into`]):
/// serial below the heavy threshold, else [`blocks`] pulled from one
/// cursor by scoped workers, absorbed in block order; a worker's panic
/// re-raised.
fn drive<S: OutputSink>(
    kind: KernelKind,
    (outer_len, total): (usize, usize),
    cfg: &KernelConfig,
    bucket: &(impl Chunks + Sync),
    sink: &mut S,
) -> KernelReport {
    let threads = if total >= cfg.parallel_threshold {
        cfg.threads.min(outer_len).max(1)
    } else {
        1
    };
    if threads <= 1 {
        return bucket.run(&mut bucket.start(), 0..outer_len, sink);
    }

    let blocks = blocks(outer_len, threads);
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, KernelReport, S::Chunk)> = Vec::with_capacity(blocks.len());
    let mut panic_payload: Option<Box<dyn Any + Send>> = None;
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (proto, blocks, cursor) = (sink.fork(), &blocks, &cursor);
                scope.spawn(move |_| {
                    // The cursor only grows, so this thread's blocks come
                    // in increasing order, as its carry requires. It hands
                    // out indices only and publishes no data (the blocks
                    // return through `join`), so `Relaxed` suffices.
                    let mut carry = bucket.start();
                    let mut ran = Vec::new();
                    while let Some(r) = blocks.get(cursor.fetch_add(1, Relaxed)) {
                        let mut block_sink = proto.fork();
                        let rep = bucket.run(&mut carry, r.clone(), &mut block_sink);
                        ran.push((r.start, rep, block_sink));
                    }
                    ran
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(ran) => done.extend(ran),
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
    done.sort_unstable_by_key(|&(start, ..)| start);
    let mut rep = KernelReport {
        parallel_chunks: done.len(),
        ..KernelReport::idle(kind)
    };
    for (_, block_rep, block_sink) in done {
        rep.work += block_rep.work;
        // Per-block peaks are maxima of the same per-event occupancy
        // series the serial run observes, so their maximum is the
        // serial peak.
        rep.active_peak = rep.active_peak.max(block_rep.active_peak);
        sink.absorb(block_sink);
    }
    rep
}

/// Dispatching kernel execution with heavy-bucket parallelism, feeding an
/// [`OutputSink`] the bindings `owner` owns. Precondition: any
/// single-attribute query; the kernel is [`planned_kernel`]`(q)`.
///
/// When the bucket's total candidate count reaches
/// `cfg.parallel_threshold` and `cfg.threads > 1`, the outer iteration is
/// cut into blocks that `cfg.threads` scoped workers pull in order; the
/// sink ends in the serial run's state for every thread count, as do
/// `work` and `active_peak`.
pub fn execute_into(
    q: &JoinQuery,
    cands: &Candidates,
    cfg: &KernelConfig,
    owner: &[StartWindow],
    sink: &mut impl OutputSink,
) -> KernelReport {
    execute_kind_into(planned_kernel(q), q, cands, cfg, owner, sink)
        .expect("every query lies in its planned kernel's domain")
}

/// The closure form of [`execute_into`] with no owner: `on_output`
/// observes every binding `accept` admits on the calling thread, in serial
/// emission order. Precondition: any single-attribute query (same
/// predicate-class routing as [`execute_into`]).
///
/// On the parallel path each outer block buffers its rows (intervals and
/// ids) and the caller filters and replays them in block order once every
/// worker has finished — reducers that only count, collect rows or build a
/// set should pass a folding sink to [`execute_into`] instead.
pub fn execute<A, F>(
    q: &JoinQuery,
    cands: &Candidates,
    cfg: &KernelConfig,
    accept: A,
    mut on_output: F,
) -> KernelReport
where
    A: Fn(&[(Interval, TupleId)]) -> bool + Sync,
    F: FnMut(&[(Interval, TupleId)]),
{
    let mut sink = sink::Replay {
        arity: q.num_relations() as usize,
        on_output: move |a: &[(Interval, TupleId)]| {
            if accept(a) {
                on_output(a)
            }
        },
    };
    execute_into(q, cands, cfg, &[], &mut sink)
}

/// Runs a bucket inside a reducer: `run` joins it on exactly the threads
/// the engine granted (the one parallelism decision: only a heavy bucket
/// gets several); the report's work units go to the cost model and the
/// `kernel.*` counters.
fn reduce_with(
    ctx: &mut ReduceCtx,
    run: impl FnOnce(&KernelConfig) -> KernelReport,
) -> KernelReport {
    let rep = run(&KernelConfig {
        threads: ctx.thread_budget(),
        parallel_threshold: 0,
    });
    ctx.add_work(rep.work);
    ctx.inc(rep.kind.counter(), 1);
    if rep.parallel_chunks > 1 {
        ctx.inc(names::KERNEL_PARALLEL_BUCKETS, 1);
    }
    if rep.active_peak > 0 {
        // Execution-shape counter (see `ij_mapreduce::is_execution_shape`):
        // the event sweep's peak concurrent-interval count, a diagnostic.
        // The engine also records the per-bucket values into the
        // `kernel.active_peak` histogram.
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
    owner: &[StartWindow],
    sink: &mut impl OutputSink,
) -> KernelReport {
    reduce_with(ctx, |cfg| execute_into(q, cands, cfg, owner, sink))
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
/// calls for, keeping the bindings `owner` owns, leaving in `out` the
/// reducer's one record — its
/// `OutRec::Rows` table when materializing, its `OutRec::Count` when
/// counting, nothing if it found no tuple — plus the `join.candidates` /
/// `join.emitted` counters. Precondition: any single-attribute query.
pub fn reduce_join(
    ctx: &mut ReduceCtx,
    q: &JoinQuery,
    cands: &Candidates,
    mode: OutputMode,
    owner: &[StartWindow],
    out: &mut Vec<OutRec>,
) -> KernelReport {
    let rec = OutRec::new(mode, q.num_relations() as usize);
    reduce_rec(ctx, rec, out, |cfg, rec| match rec {
        OutRec::Count(n) => execute_into(q, cands, cfg, owner, n),
        OutRec::Rows(rows) => execute_into(q, cands, cfg, owner, rows),
    })
}

/// The reducer program of a join cycle over records `R`: joins one bucket,
/// keeps the bindings `owner` owns and writes the reducer's one
/// [`OutRec`], with the counters [`reduce_rec`] records.
pub(crate) trait BucketJoin<R>: Sync {
    /// Drains `values` and joins them.
    fn reduce(
        &self,
        ctx: &mut ReduceCtx,
        values: &mut ValueStream<R>,
        owner: &[StartWindow],
        out: &mut Vec<OutRec>,
    );
}

/// The single-attribute program: a bucket of [`IvRec`]s, one relation per
/// query relation, joined by [`reduce_join`].
pub(crate) struct OneSlot<'q> {
    pub query: &'q JoinQuery,
    pub mode: OutputMode,
}

impl BucketJoin<IvRec> for OneSlot<'_> {
    fn reduce(
        &self,
        ctx: &mut ReduceCtx,
        values: &mut ValueStream<IvRec>,
        owner: &[StartWindow],
        out: &mut Vec<OutRec>,
    ) {
        let mut cands = Candidates::new(self.query.num_relations() as usize);
        for v in values.by_ref() {
            cands.push(v.rel.idx(), v.iv, v.tid);
        }
        cands.finish();
        reduce_join(ctx, self.query, &cands, self.mode, owner, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::Tuples;
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

    /// Like [`random_cands`], but with Zipf(2) starts — `60 · u²` — so a
    /// sweep's work piles up in its first events, as on
    /// `clique_zipf_count`'s hot bucket.
    fn zipf_cands(m: usize, n: u32, seed: u64) -> Candidates {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Candidates::new(m);
        for r in 0..m {
            for t in 0..n {
                let u: f64 = rng.gen_range(0.0..1.0);
                let s = (60.0 * u * u) as i64;
                let e = s + rng.gen_range(0..20);
                c.push(r, iv(s, e), t);
            }
        }
        c.finish();
        c
    }

    /// `q` on `c` at `threads` with every bucket heavy, through the
    /// closure, the count sink and the row sink: the closure's ids, having
    /// asserted that the sinks agree with it and the three reports with
    /// each other; and the report.
    fn every_sink(q: &JoinQuery, c: &Candidates, threads: usize) -> (Vec<TupleId>, KernelReport) {
        let cfg = KernelConfig {
            threads,
            parallel_threshold: 0,
        };
        let mut got: Vec<TupleId> = Vec::new();
        let rep = execute(
            q,
            c,
            &cfg,
            |_| true,
            |a| got.extend(a.iter().map(|(_, t)| *t)),
        );
        let mut count = 0u64;
        let count_rep = execute_into(q, c, &cfg, &[], &mut count);
        let mut rows = Tuples::new(q.num_relations() as usize);
        let rows_rep = execute_into(q, c, &cfg, &[], &mut rows);
        let arity = q.num_relations() as usize;
        assert_eq!(count as usize * arity, got.len(), "threads = {threads}");
        assert_eq!(rows.iter().flatten().copied().collect::<Vec<_>>(), got);
        for other in [count_rep, rows_rep] {
            assert_eq!(
                (other.work, other.active_peak, other.parallel_chunks),
                (rep.work, rep.active_peak, rep.parallel_chunks),
                "threads = {threads}"
            );
        }
        (got, rep)
    }

    /// The buckets the parallel tests cut: uniform starts, Zipf starts (a
    /// front-loaded bucket), and one so small that eight threads would
    /// cut more blocks than it has outer positions (at most 120 < 8 × 16).
    fn parallel_buckets(m: usize, seed: u64) -> [Candidates; 3] {
        [
            random_cands(m, 60, seed),
            zipf_cands(m, 120, seed),
            random_cands(m, 20, seed),
        ]
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
            execute_kind(kind, q, c, &[], |a| e(a))
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
            execute_kind(kind, q, c, &[], |_| panic!("nothing may run")).is_none()
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
        let rep = execute_kind(KernelKind::Window, &chain, &c3, &[], |_| {}).unwrap();
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
        let mut finer = false;
        for c in parallel_buckets(3, 17) {
            let events = 2 * (0..3).map(|r| c.len(r)).sum::<usize>();
            let (base, base_rep) = every_sink(&q, &c, 1);
            assert_eq!(base_rep.kind, KernelKind::EventSweep);
            assert!(!base.is_empty());
            assert!(base_rep.active_peak > 0, "active_peak must be tracked");
            for t in [2, 3, 8] {
                let (got, rep) = every_sink(&q, &c, t);
                assert_eq!(got, base, "threads = {t}: output order must not change");
                assert_eq!(
                    rep.work, base_rep.work,
                    "threads = {t}: work must be chunk-invariant"
                );
                assert_eq!(
                    rep.active_peak, base_rep.active_peak,
                    "threads = {t}: active_peak must be chunk-invariant"
                );
                assert_eq!(rep.parallel_chunks, events.min(t * BLOCKS_PER_THREAD));
                finer |= t * BLOCKS_PER_THREAD > events;
            }
        }
        assert!(finer, "no bucket has fewer events than blocks");
    }

    #[test]
    fn event_sweep_reduce_join_reports_counters() {
        let q = clique3();
        let c = random_cands(3, 30, 5);
        let mut ctx = ReduceCtx::new(0);
        let rep = reduce_into(&mut ctx, &q, &c, &[], &mut 0u64);
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
        // The window scan on a chain, the pair sweep on a pair.
        for q in [
            JoinQuery::chain(&[Overlaps, Overlaps]).unwrap(),
            JoinQuery::chain(&[Overlaps]).unwrap(),
        ] {
            let m = q.num_relations() as usize;
            for c in parallel_buckets(m, 42) {
                let (base, base_rep) = every_sink(&q, &c, 1);
                assert!(!base.is_empty(), "{q}");
                for t in [2, 3, 8] {
                    let (got, rep) = every_sink(&q, &c, t);
                    assert_eq!(got, base, "{q} threads = {t}: output order must not change");
                    assert_eq!(
                        rep.work, base_rep.work,
                        "{q} threads = {t}: work must be chunk-invariant"
                    );
                    assert!(rep.parallel_chunks > 1, "{q} threads = {t}");
                }
            }
        }
    }

    #[test]
    fn blocks_cut_the_outer_range_in_order() {
        for outer_len in [1, 2, 3, 15, 16, 17, 31, 32, 33, 100, 39_064] {
            for threads in [1, 2, 3, 8] {
                let b = blocks(outer_len, threads);
                assert_eq!(b.len(), outer_len.min(threads * BLOCKS_PER_THREAD));
                assert_eq!(b.first().map(|r| r.start), Some(0));
                assert_eq!(b.last().map(|r| r.end), Some(outer_len));
                assert!(b.iter().all(|r| !r.is_empty()), "{outer_len} {threads}");
                assert!(b.windows(2).all(|w| w[0].end == w[1].start));
            }
        }
    }

    /// Each bucket's level-0 keys in outer order, from the candidates
    /// alone: every endpoint time for the event sweep, relation 0's ends
    /// for the pair sweep (ascending or descending, as the shape wants).
    fn outer_keys(kind: KernelKind, c: &Candidates) -> Vec<i64> {
        let mut keys: Vec<(i64, bool)> = match kind {
            KernelKind::EventSweep => (c.lists.iter().flatten())
                .flat_map(|(iv, _)| [(iv.start(), false), (iv.end(), true)])
                .collect(),
            _ => c.list(0).iter().map(|(iv, _)| (iv.end(), true)).collect(),
        };
        keys.sort_unstable();
        keys.into_iter().map(|(t, _)| t).collect()
    }

    /// The rows, work and active peak of `bucket`'s positions `r` on
    /// `carry`.
    fn run_range<'a, C: Chunks>(
        bucket: &'a C,
        carry: &mut C::Carry<'a>,
        r: Range<usize>,
        arity: usize,
    ) -> (Vec<Vec<TupleId>>, u64, u64) {
        let mut rows = Tuples::new(arity);
        let rep = bucket.run(carry, r, &mut rows);
        let rows = rows.iter().map(<[TupleId]>::to_vec).collect();
        (rows, rep.work, rep.active_peak)
    }

    #[test]
    fn carried_state_runs_every_range_like_a_fresh_state() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cases = [
            (KernelKind::EventSweep, clique3()),
            (KernelKind::EventSweep, JoinQuery::chain(&[Starts]).unwrap()),
            (
                KernelKind::PairSweep,
                JoinQuery::chain(&[Overlaps]).unwrap(),
            ),
            (
                KernelKind::PairSweep,
                JoinQuery::chain(&[Contains]).unwrap(),
            ),
        ];
        for (kind, q) in cases {
            let (mut inside_a_group, mut gaps) = (false, false);
            for seed in 0..12 {
                // Coarse times: most endpoints share their time with
                // another, so most cuts fall inside a group of equal keys.
                let mut rng = StdRng::seed_from_u64(seed);
                let mut c = Candidates::new(q.num_relations() as usize);
                for r in 0..q.num_relations() as usize {
                    for t in 0..40 {
                        let s = rng.gen_range(0..12);
                        c.push(r, iv(s, s + rng.gen_range(0..4)), t);
                    }
                }
                c.finish();
                let keys = outer_keys(kind, &c);
                let prep = prepare(kind, &q, &c, &[]).unwrap();
                let n = prep.outer_len;
                assert_eq!(n, keys.len());
                let mut cuts: Vec<usize> = (0..rng.gen_range(2..14))
                    .map(|_| rng.gen_range(0..=n))
                    .collect();
                cuts.sort_unstable();
                cuts.dedup();
                // Even seeds run every other piece between the cuts.
                let step = if seed % 2 == 0 { 2 } else { 1 };
                let ranges: Vec<Range<usize>> =
                    cuts.windows(2).step_by(step).map(|w| w[0]..w[1]).collect();
                gaps |= ranges.windows(2).any(|w| w[0].end < w[1].start);
                inside_a_group |= (ranges.iter())
                    .flat_map(|r| [r.start, r.end])
                    .any(|b| 0 < b && b < n && keys[b - 1] == keys[b]);
                let arity = q.num_relations() as usize;
                let mut carried = prep.start();
                for r in ranges {
                    let fresh = run_range(&prep, &mut prep.start(), r.clone(), arity);
                    let got = run_range(&prep, &mut carried, r.clone(), arity);
                    assert_eq!(got, fresh, "{q} seed {seed} {r:?}");
                }
            }
            assert!(inside_a_group && gaps, "{q}: the ranges miss a case");
        }
    }

    #[test]
    fn owner_windows_run_in_parallel_path() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let c = random_cands(2, 50, 9);
        let cfg = KernelConfig {
            threads: 4,
            parallel_threshold: 0,
        };
        // The bindings whose right-most start lies in 20..=39.
        let members = [(0, 0), (1, 0)];
        let owned =
            |a: &[(Interval, TupleId)]| (20..=39).contains(&a[0].0.start().max(a[1].0.start()));
        let run = |cfg: &KernelConfig, owner: &[StartWindow]| {
            let mut got = Vec::new();
            let mut sink = sink::Replay {
                arity: 2,
                on_output: |a: &[(Interval, TupleId)]| got.push((a[0].1, a[1].1, owned(a))),
            };
            let rep = execute_into(&q, &c, cfg, owner, &mut sink);
            (got, rep)
        };
        let owner = [(20, 39, &members[..])];
        let (par, rep) = run(&cfg, &owner);
        assert!(rep.parallel_chunks > 1);
        let (ser, _) = run(&KernelConfig::serial(), &owner);
        assert_eq!(par, ser);
        assert!(par.iter().all(|&(.., owned)| owned));
        let (all, _) = run(&KernelConfig::serial(), &[]);
        let kept: Vec<_> = all.iter().copied().filter(|&(.., owned)| owned).collect();
        assert!(kept.len() < all.len(), "the owner rejects a share");
        assert_eq!(par, kept);
    }

    #[test]
    fn a_member_listed_twice_counts_once() {
        // Two relations that overlap pairwise: every kernel applies.
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let c = random_cands(2, 40, 11);
        let run = |kind: KernelKind, owner: &[StartWindow]| {
            let mut got = Vec::new();
            execute_kind(kind, &q, &c, owner, |a| got.push((a[0].1, a[1].1)));
            got
        };
        let (once, twice) = ([(1, 0)], [(1, 0), (1, 0)]);
        for kind in [
            KernelKind::PairSweep,
            KernelKind::EventSweep,
            KernelKind::Window,
        ] {
            let want = run(kind, &[(20, 39, &once[..])]);
            assert!(!want.is_empty() && want.len() < run(kind, &[]).len());
            assert_eq!(run(kind, &[(20, 39, &twice[..])]), want, "{kind:?}");
        }
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
        let rep = reduce_join(&mut ctx, &q, &c, OutputMode::Materialize, &[], &mut out);
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
