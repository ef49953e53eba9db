//! The component-matrix pipeline: **mark → prune → join**, written once.
//!
//! A setting ([`ComponentMatrix`]) groups the relations into the dimensions
//! of a reducer matrix and gives each relation a [`Route`]: one of Fig. 1's
//! project / split / replicate, fixed or — §8.1's E1/E2 — replicate if the
//! marking flagged the interval, project otherwise. The operation's
//! partition range, lifted to the consistent cells, is where an interval
//! goes. Six families are settings (DESIGN.md §5 tabulates them): each
//! builds a plan (`crate::plan`) whose one step is its checked setting
//! ([`ComponentMatrix::plan`], [`Stages`]). Gen-Matrix's plan runs the
//! mark stage alone ([`Stages::mark_alone`]) on a setting whose relations
//! are its ⟨relation, attribute⟩ vertices.
//!
//! The join stage is data of its own ([`JoinStage`]): a route table of
//! [`Lane`]s per side, an owner rule and a reducer program. The settings
//! build it with one lane per relation; the cascade's stages, FCTS's
//! sequence matrix and Gen-Matrix's join are plan steps that build it too,
//! over composite records, so every matrix family's join cycle is this
//! one.
//!
//! * **mark** — only multi-member marked groups take part. Their intervals
//!   are *split*, but a copy goes to partition `p` only when it is
//!   [`near`] enough to `p`'s boundaries to belong to a crossing set (the
//!   reach lemma, [`reach`]). Each `(group, partition)` bucket runs the
//!   RCCIS marking on the group's colocation sub-query and outputs the
//!   [`participant_key`] of every interval it flags; with no marked group
//!   the stage does not run. The flags reach the later stages as one
//!   bitmap per relation, indexed by tuple id.
//! * **prune** (on request) — the intervals in some binding of a marked
//!   group's own join are its *participants*; the join stage ships nobody
//!   else from such a group. The set does not depend on partitioning, so
//!   each group takes the cheaper of two routes ([`prune_route`]): the
//!   paper's, which joins per partition and keeps the owned bindings, or a
//!   broadcast of every member but the largest to `p` tasks that each join
//!   one slice of the largest member in place.
//! * **join** — each cell joins what it was routed and keeps what it owns.
//!
//! **Grids.** A setting of one dimension, or of four or more, runs every
//! stage on `part`. With two or three dimensions the mark runs on `F`,
//! `part` with every partition cut into `D` (the *coarsening lemma*: flags
//! from `F` are sound on every grid whose boundaries are a subset of
//! `F`'s), the prune on `part`, and each join dimension on its own
//! coarsening of `F`, picked once flags and participants are final by an
//! exact count of every candidate's pairs, cells and largest cell
//! ([`Stages::shares`], the rule in [`pick`]). The paper's grid — `o`
//! partitions in every dimension — is a candidate, so the join never ships
//! more than the paper grid would *under `F`'s flags*. Those flags can
//! replicate more than `part`'s, so a setting that keeps the paper grid
//! can ship more than a mark on `part` would (q3-hybrid in
//! `tests/family_pins.rs`: ASM's join 1 225 → 1 541 pairs). DESIGN.md §5
//! has the proof.
//!
//! Prune and join both map the input records themselves and read an
//! interval's flag, and the join its participation, from a bitmap.
//!
//! **Ownership** is one rule, used by the prune and join stages: a binding
//! belongs to coordinate `c` of a dimension when the right-most start among
//! the dimension's members lies in partition `c`'s [`start_window`]; a cell
//! owns it when that holds in every dimension. A reducer hands the kernel
//! its *owner* — one `(lo, hi, member slots)` window per tested dimension —
//! and the kernel compiles it into start bounds of its level program
//! (`kernel::Compiled`), so an unowned binding is never enumerated: no
//! per-binding test is left. Testing is always sound; the join skips a
//! dimension where a member with a fixed project provably starts last
//! ([`starts_last`]): only its start coordinate gets a binding.

use crate::algorithm::AlgoError;
use crate::all_matrix::cells::{every, for_each_consistent, windows_of};
use crate::all_matrix::CellSpace;
use crate::executor::Candidates;
use crate::input::{induced, JoinInput};
use crate::kernel::{self, BucketJoin, OneSlot, Planned, Slot, StartWindow};
use crate::output::{OutputMode, RunStats};
use crate::plan::{Plan, Report, Step};
use crate::rccis::marking::{self, MarkOptions, Marker};
use crate::records::{Columns, CompRec, IvRec, OutRec};
use ij_interval::{ops, Interval, MapOp, Partitioning, RelId, Time, TupleId};
use ij_mapreduce::metrics::names::{self, Counter};
use ij_mapreduce::{
    Emitter, Engine, EngineError, JobChain, JobMetrics, JobOutput, MapInput, Record, ReduceCtx,
    ValueStream,
};
use ij_query::{AttrRef, JoinQuery, StartOrder};
use std::collections::BTreeSet;
use std::ops::Range;

/// How the join stage routes a relation's intervals: `route[flag as usize]`
/// is the operation for an interval with that mark-stage flag. A fixed
/// route is `[op; 2]`; a split only in one dimension (cells = partitions).
pub(crate) type Route = [MapOp; 2];

/// §8.1's E1/E2: replicate what the marking flagged, project the rest.
pub(crate) const MARKED: Route = [MapOp::Project, MapOp::Replicate];

/// One setting of the pipeline (DESIGN.md §5 tabulates the six in use).
pub(crate) struct ComponentMatrix<'a> {
    /// Stage-name prefix: stages are `<family>-mark` / `-prune` / `-join`.
    pub family: &'static str,
    /// The full query — what the join stage evaluates.
    pub query: &'a JoinQuery,
    /// The paper's grid: the 1-D partitioning every dimension of the
    /// paper's matrix shares, `o` partitions. The prune stage runs on it;
    /// with two or three dimensions the mark stage runs on its `D`-fold
    /// refinement and each join dimension on a coarsening of that
    /// ([`Stages::shares`]).
    pub part: Partitioning,
    /// Cell constraints: `(j, k)` keeps the cells whose dimension-`j`
    /// window starts no later than their dimension-`k` window ends, in the
    /// matrix of one dimension per group.
    pub constraints: Vec<(usize, usize)>,
    /// `groups[d]`: the relations of dimension `d`, ascending — together a
    /// partition of the relations.
    pub groups: Vec<Vec<usize>>,
    /// `routes[r]`: relation `r`'s route; a group is marked when its routes
    /// are [`MARKED`], and then all of them must be.
    pub routes: Vec<Route>,
    /// Options of the marking stage.
    pub mark_options: MarkOptions,
    /// Whether to run the prune stage.
    pub prune: bool,
    /// RCCIS's or All-Rep's `[projected, replicated]` join-pair counters;
    /// a marking setting with them also counts the `rccis.*` splits and
    /// flags.
    pub route_counters: Option<[&'static Counter; 2]>,
    /// Materialize or count.
    pub mode: OutputMode,
}

/// The start points partition `coord` owns, as an inclusive window: its
/// boundaries from `part`, with the first partition open below and the
/// last open above — exactly the clamp of [`Partitioning::index_of`], so
/// `lo <= t && t <= hi` iff `part.index_of(t) == coord`.
pub(crate) fn start_window(part: &Partitioning, coord: usize) -> (Time, Time) {
    let b = part.boundaries();
    let lo = if coord == 0 { Time::MIN } else { b[coord] };
    let hi = if coord + 1 == part.len() {
        Time::MAX
    } else {
        b[coord + 1] - 1
    };
    (lo, hi)
}

/// The slots of a single-attribute bucket's `relations`.
fn slots(relations: impl IntoIterator<Item = usize>) -> Vec<Slot> {
    relations.into_iter().map(|r| (r, 0)).collect()
}

/// Whether relation `r` provably starts no earlier than every other relation
/// of `members`.
pub(crate) fn starts_last(order: &StartOrder, members: &[usize], r: usize) -> bool {
    let whole = |r: usize| AttrRef::whole(r as u16);
    (members.iter()).all(|&o| o == r || order.le_start(whole(o), whole(r)))
}

/// **The reach lemma.** Every colocation predicate makes its operands share
/// a point. A crossing set at partition `p` is a connected proper subset of
/// the `m` relations of `sub`, so a member `c` crosses (B1:
/// `c.end >= b[p+1]`, or B2: `c.start < b[p]`) and every other member
/// reaches `c` in at most `m − 2` hops of at most `longest` each. Every
/// member therefore lies within `R = (m − 2) · longest` of a boundary of
/// `p` ([`near`]). Returns `R`, or `None` — no filter — when crossing is not
/// enforced, `R` overflows, or `sub` is not connected over all of its
/// relations (then a subset without a boundary edge is a crossing set with
/// no member crossing anything).
fn reach(sub: &JoinQuery, longest: Option<Time>, options: MarkOptions) -> Option<Time> {
    if !options.enforce_crossing || !marking::is_connected(sub) {
        return None;
    }
    longest?.checked_mul(sub.num_relations() as Time - 2)
}

/// Whether `iv`'s split copy at partition `p` can be a member of a crossing
/// set, given the [`reach`] `R` of its group:
/// `iv.end >= b[p+1] − R || iv.start < b[p] + R`, where a bound beyond the
/// time domain admits everything.
fn near(part: &Partitioning, reach: Option<Time>, iv: Interval, p: usize) -> bool {
    let Some(r) = reach else { return true };
    let b = part.boundaries();
    (b[p + 1].checked_sub(r)).is_none_or(|t| iv.end() >= t)
        || (b[p].checked_add(r)).is_none_or(|t| iv.start() < t)
}

/// The longest interval of each group, from each relation's `longest`
/// (`end − start`); `None` where it overflows [`Time`].
fn longest_per_group(longest: &[u64], places: &[Place], groups: usize) -> Vec<Option<Time>> {
    let mut per_group = vec![0u64; groups];
    for (&l, place) in longest.iter().zip(places) {
        per_group[place.dim] = per_group[place.dim].max(l);
    }
    (per_group.into_iter())
        .map(|l| Time::try_from(l).ok())
        .collect()
}

fn participant_key(rel: u64, tid: TupleId) -> u64 {
    rel << 32 | tid as u64
}

/// One bit per interval, `flags[r][tid]` for logical relation `r` (tuple
/// ids are dense, `Relation` keeps `tuples[i].id == i`): the mark stage's
/// verdicts, and the prune stage's participants.
pub(crate) type Flags = Vec<Vec<bool>>;

/// The bitmap of relations of `sizes[r]` intervals each with exactly the
/// [`participant_key`]s `keys` set.
fn flags_of(sizes: &[usize], keys: impl IntoIterator<Item = u64>) -> Flags {
    let mut flags: Flags = sizes.iter().map(|&n| vec![false; n]).collect();
    for key in keys {
        flags[(key >> 32) as usize][key as u32 as usize] = true;
    }
    flags
}

/// How the prune stage moves one marked group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PruneRoute {
    /// The paper's: every member's records go where their route sends
    /// them, and partition `p` keeps the bindings it owns.
    Shuffled,
    /// Every member but relation `large` goes to each of the `p` tasks;
    /// task `t` joins it against the `t`-th contiguous slice of `large`'s
    /// records, read where they lie, and keeps every binding.
    Broadcast { large: usize },
}

/// **The prune route rule.** `members` are a marked group's relations in
/// ascending order and `sizes` their record counts. Its largest member `L`
/// is the first of the largest, and `side` the record count of the others.
/// The group broadcasts when `side × p` is strictly less than `shuffled`,
/// the pairs the paper's route would ship for it. A group whose members
/// are all the same size — a self-join — has no small side and stays
/// shuffled.
fn prune_route(members: &[usize], sizes: &[u64], p: u64, shuffled: u64) -> PruneRoute {
    let largest = (members.iter().zip(sizes)).min_by_key(|&(_, &n)| std::cmp::Reverse(n));
    let Some((&large, &n)) = largest else {
        return PruneRoute::Shuffled;
    };
    let side = sizes.iter().sum::<u64>() - n;
    let equal = sizes.iter().all(|&s| s == n);
    match side.checked_mul(p) {
        Some(copies) if copies < shuffled && !equal => PruneRoute::Broadcast { large },
        _ => PruneRoute::Shuffled,
    }
}

/// The prune stage's reducer output: the [`participant_key`] of every
/// interval in an owned group binding, with its start. A set, so absorbing
/// chunks in any grouping yields the serial result.
struct ParticipantSink<'a> {
    /// Global relation of each local slot of the group's sub-query.
    rels: &'a [usize],
    ids: BTreeSet<(u64, Time)>,
}

impl kernel::BindingSink for ParticipantSink<'_> {
    fn push(&mut self, binding: &[(Interval, TupleId)]) {
        for (&rel, (iv, tid)) in self.rels.iter().zip(binding) {
            self.ids
                .insert((participant_key(rel as u64, *tid), iv.start()));
        }
    }
}

impl kernel::OutputSink for ParticipantSink<'_> {
    type Chunk = Self;
    fn fork(&self) -> Self {
        ParticipantSink {
            rels: self.rels,
            ids: BTreeSet::new(),
        }
    }
    fn absorb(&mut self, mut chunk: Self) {
        self.ids.append(&mut chunk.ids);
    }
}

/// A relation's dimension, slot in its group and route: one read per record.
#[derive(Clone, Copy)]
struct Place {
    dim: usize,
    slot: usize,
    route: Route,
}

/// A record the [`JoinStage`] routes: its side and the tuple id its lanes'
/// bit rows are indexed by, and the interval in each of its slots.
pub(crate) trait StageRec: Record {
    fn id(&self) -> (usize, TupleId);
    fn at(&self, slot: usize) -> Interval;
}

/// An interval record is a one-slot row of its relation's side.
impl StageRec for IvRec {
    fn id(&self) -> (usize, TupleId) {
        (self.rel.idx(), self.tid)
    }
    fn at(&self, _: usize) -> Interval {
        self.iv
    }
}

/// A composite record's bit rows are indexed by its first id (a
/// Gen-Matrix tuple's one id).
impl StageRec for CompRec {
    fn id(&self) -> (usize, TupleId) {
        (self.side as usize, self.tids[0])
    }
    fn at(&self, slot: usize) -> Interval {
        self.ivs[slot]
    }
}

/// One route of a join-stage side. A record's range in dimension `dim` is
/// `ops::apply(route[flag], key, grid)`: the key is the interval of its
/// right-most-starting slot of `slots`, `flag` its bit in row `row` of the
/// flags the stage runs with (unset without a row). On a `pruned` lane a
/// record whose bit in that row of the participants is unset is not
/// shipped. A one-lane side counts the cells it ships to under
/// `counters[flag]`.
pub(crate) struct Lane {
    pub dim: usize,
    pub slots: Vec<usize>,
    pub route: Route,
    pub row: Option<usize>,
    pub pruned: bool,
    pub counters: Option<[&'static Counter; 2]>,
}

impl Lane {
    /// A lane that always takes `op`, counted under `counter`.
    pub(crate) fn fixed(
        dim: usize,
        slots: Vec<usize>,
        op: MapOp,
        counter: Option<&'static Counter>,
    ) -> Self {
        let (route, counters) = ([op; 2], counter.map(|c| [c; 2]));
        Lane {
            dim,
            slots,
            route,
            row: None,
            pruned: false,
            counters,
        }
    }

    /// The partitions of its dimension's grid among `grids` that `rec`
    /// goes to, with its flag; `None` if `rec` is not shipped.
    fn range<R: StageRec>(
        &self,
        rec: &R,
        grids: &[Partitioning],
        bits: Bits,
    ) -> Option<(Range<usize>, bool)> {
        let tid = rec.id().1 as usize;
        let bit = |rows: &Flags| self.row.is_some_and(|row| rows[row][tid]);
        if self.pruned && bits.1.is_some_and(|alive| !bit(alive)) {
            return None;
        }
        let flag = bit(bits.0);
        let key = (self.slots.iter().map(|&s| rec.at(s)))
            .reduce(|a, b| if b.start() > a.start() { b } else { a })
            .expect("a lane has slots");
        let op = self.route[flag as usize];
        Some((ops::apply(op, key, &grids[self.dim]), flag))
    }
}

/// The bitmaps a [`JoinStage`]'s lanes read by row: the mark stage's
/// flags, and the prune stage's participants if it ran.
pub(crate) type Bits<'a> = (&'a Flags, Option<&'a Flags>);

/// **The join cycle** of every matrix family, as data (DESIGN.md §5): a
/// route table over the matrix `space` of `grids` — per side, its
/// [`Lane`]s — an owner rule and a reducer program. A record goes to the
/// consistent cells of its lanes' ranges, intersected per dimension; a
/// side of no lane to every consistent cell. Reducer `c` keeps a binding
/// when, in each `owner` dimension `d`, the right-most start among the
/// member slots lies in coordinate `c[d]`'s [`start_window`].
pub(crate) struct JoinStage<J> {
    pub name: String,
    pub grids: Vec<Partitioning>,
    pub space: CellSpace,
    pub sides: Vec<Vec<Lane>>,
    pub owner: Vec<(usize, Vec<Slot>)>,
    pub join: J,
}

impl<J> JoinStage<J> {
    /// Runs the cycle over `records`, its lanes reading `bits`.
    pub(crate) fn run<R: StageRec>(
        &self,
        engine: &Engine,
        records: &(impl MapInput<Item = R> + ?Sized),
        bits: Bits,
    ) -> Result<JobOutput<OutRec>, EngineError>
    where
        J: BucketJoin<R>,
    {
        engine.run_job(
            &self.name,
            records,
            |rec: &R, em: &mut Emitter<R>| self.route(rec, em, bits),
            |ctx: &mut ReduceCtx, values: &mut ValueStream<R>, out: &mut Vec<OutRec>| {
                let coords = self.space.decode(ctx.key);
                let owner: Vec<StartWindow> = (self.owner.iter())
                    .map(|(d, members)| {
                        let (lo, hi) = start_window(&self.grids[*d], coords[*d]);
                        (lo, hi, members.as_slice())
                    })
                    .collect();
                self.join.reduce(ctx, values, &owner, out);
            },
        )
    }

    /// Ships `rec`: a one-lane side with one operation and one slice of
    /// cells, any other side by a walk over its box of coordinates.
    fn route<R: StageRec>(&self, rec: &R, em: &mut Emitter<R>, bits: Bits) {
        match self.sides[rec.id().0].as_slice() {
            [lane] => {
                let Some((range, flag)) = lane.range(rec, &self.grids, bits) else {
                    return;
                };
                let cells = self.space.cells_in(lane.dim, range);
                em.emit_to_all(cells.iter().copied(), rec);
                if let Some(counters) = lane.counters {
                    em.inc(counters[flag as usize], cells.len() as u64);
                }
            }
            lanes => {
                let mut within: Vec<Range<usize>> = self.grids.iter().map(|g| 0..g.len()).collect();
                for lane in lanes {
                    let Some((range, _)) = lane.range(rec, &self.grids, bits) else {
                        return;
                    };
                    let at = &mut within[lane.dim];
                    *at = at.start.max(range.start)..at.end.min(range.end);
                }
                self.space
                    .for_each_in(&within, |cell| em.emit(cell, rec.clone()));
            }
        }
    }
}

/// Per join dimension `d`, how many records the join ships to each range
/// of `F` that lifts to cells: `hist[d][f]` to exactly partition `f`, and
/// `hist[d][n + f]` to `f` and every partition after it — with two or more
/// dimensions the only ranges a route yields ([`CellSpace::cells_in`]).
struct Routed {
    hist: Vec<Vec<u64>>,
}

impl Routed {
    fn new(dims: usize, fine: &Partitioning) -> Self {
        let hist = vec![vec![0; 2 * fine.len()]; dims];
        Routed { hist }
    }

    /// The slot of `hist[d]` counting the partitions `range` of the `n`
    /// of `F`.
    fn slot(n: usize, range: std::ops::Range<usize>) -> usize {
        range.start + n * (range.end == n) as usize
    }
}

/// The join stage on one grid, counted: consistent cells, pairs shipped
/// and the most pairs one cell receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GridCount {
    cells: u64,
    pairs: u64,
    max_load: u64,
}

/// Counts the join stage on the grids of `windows`, where `cover[d][c]`
/// records of dimension `d` are routed to coordinate `c`: a consistent
/// cell receives every record routed to its coordinate in each dimension.
fn count_grid(
    windows: &[&[(Time, Time)]],
    constraints: &[(usize, usize)],
    cover: &[&[u64]],
) -> GridCount {
    let mut count = GridCount {
        cells: 0,
        pairs: 0,
        max_load: 0,
    };
    for_each_consistent(windows, constraints, &every(windows), |coords| {
        let load: u64 = coords.iter().zip(cover).map(|(&c, cover)| cover[c]).sum();
        count.cells += 1;
        count.pairs += load;
        count.max_load = count.max_load.max(load);
    });
    count
}

/// **The shares rule.** Among the counted `(k_d)` with no more consistent
/// cells and no larger cell load than the `paper` grid's, the fewest
/// pairs; ties go to fewer cells, then to the lexicographically smallest
/// `(k_d)`. The paper grid qualifies, so a counted paper grid is always
/// picked over nothing.
fn pick(counted: &[(Vec<usize>, GridCount)], paper: GridCount) -> (&[usize], GridCount) {
    let fits = |c: &GridCount| c.cells <= paper.cells && c.max_load <= paper.max_load;
    let best = (counted.iter().filter(|(_, c)| fits(c)))
        .min_by(|(a, x), (b, y)| (x.pairs, x.cells, a).cmp(&(y.pairs, y.cells, b)));
    let (ks, count) = best.expect("the paper grid is counted");
    (ks, *count)
}

/// The grids the join stage runs on.
struct Shares {
    /// `grids[d]`: the partitioning of join dimension `d`.
    grids: Vec<Partitioning>,
    space: CellSpace,
    /// With two or more dimensions, the chosen grid's count and the paper
    /// grid's.
    counts: Option<(GridCount, GridCount)>,
}

/// A checked setting — a plan's [`Step::Matrix`] — and what the stages
/// derive from its grouping.
pub(crate) struct Stages<'a> {
    cm: ComponentMatrix<'a>,
    /// The paper grid's matrix: it validates the setting, and a
    /// one-dimension join runs on it.
    space: CellSpace,
    /// The mark grid `F` ([`ComponentMatrix::fine_grid`]).
    fine: Partitioning,
    /// Relation → its place.
    places: Vec<Place>,
    /// Per group: its colocation sub-query over local slots if it is marked
    /// and has two or more members, with the kernel its prune join runs,
    /// else `None` — nothing to mark or prune.
    subs: Vec<Option<Planned>>,
    /// Per group: the marking of its `subs` entry, compiled once.
    markers: Vec<Option<Marker>>,
}

impl<'a> ComponentMatrix<'a> {
    /// The plan of this setting over `input`: its one step, reporting the
    /// statistics `report` names.
    pub(crate) fn plan(self, input: &JoinInput, report: Report) -> Result<Plan<'a>, AlgoError> {
        let (query, mode) = (self.query, self.mode);
        Ok(Plan::new(
            query,
            input,
            mode,
            report,
            vec![Step::Matrix(self.stages()?)],
        ))
    }

    /// The mark grid `F`: with two or three dimensions, `part` with every
    /// partition cut into `D` ([`Partitioning::refine`]). `part` itself for
    /// one dimension; for four or more, where no setting in use leaves the
    /// paper grid; and where some partition is narrower than `D` ticks.
    fn fine_grid(&self) -> Partitioning {
        let dims = self.groups.len();
        let fine = (2..=3).contains(&dims).then(|| self.part.refine(dims));
        fine.flatten().unwrap_or_else(|| self.part.clone())
    }

    /// Checks that the groups partition the relations and that the marking
    /// can enumerate every marked group, and derives the matrix, each
    /// relation's place and each marked group's sub-query.
    pub(crate) fn stages(self) -> Result<Stages<'a>, AlgoError> {
        let m = self.query.num_relations() as usize;
        let bad = || AlgoError::BadConfig(format!("{}: groups are not a partition", self.family));
        let mut places = vec![None; m];
        for (dim, members) in self.groups.iter().enumerate() {
            for (slot, &r) in members.iter().enumerate() {
                match (places.get_mut(r), self.routes.get(r)) {
                    (Some(place @ None), Some(&route)) => *place = Some(Place { dim, slot, route }),
                    _ => return Err(bad()),
                }
            }
        }
        let places: Vec<Place> = places.into_iter().collect::<Option<_>>().ok_or_else(bad)?;
        let marked = |g: &[usize]| g.len() > 1 && self.routes[g[0]] == MARKED;
        if let Some(g) =
            (self.groups.iter()).find(|g| marked(g) && g.len() > marking::MAX_RELATIONS)
        {
            let reason = format!(
                "the marking enumerates subsets of at most {} relations; a marked group has {}",
                marking::MAX_RELATIONS,
                g.len()
            );
            let algorithm = self.family;
            return Err(AlgoError::Unsupported { algorithm, reason });
        }
        let sub = |g| kernel::with_kernel(induced(self.query, g, |c| c.is_colocation()));
        let subs: Vec<Option<Planned>> = (self.groups.iter())
            .map(|g| marked(g).then(|| sub(g)))
            .collect();
        let markers = (subs.iter())
            .map(|sub| Some(Marker::new(&sub.as_ref()?.0, self.mark_options)))
            .collect();
        let space = CellSpace::new(
            &vec![&self.part; self.groups.len()],
            self.constraints.clone(),
        )?;
        let fine = self.fine_grid();
        Ok(Stages {
            cm: self,
            space,
            fine,
            places,
            subs,
            markers,
        })
    }
}

/// Splits a mark / prune reducer key `group * partitions + p`.
fn group_partition(key: u64, partitions: u64) -> (usize, usize) {
    ((key / partitions) as usize, (key % partitions) as usize)
}

impl<'a> Stages<'a> {
    /// Runs the stages the setting calls for, each cycle's metrics onto
    /// `chain`: the join's output records, and every [`RunStats`] field
    /// the stages produce.
    pub(crate) fn run(
        &self,
        input: &JoinInput,
        engine: &Engine,
        chain: &mut JobChain,
    ) -> Result<(Vec<OutRec>, RunStats), AlgoError> {
        let cm = &self.cm;
        let columns = Columns::of(input);
        let sizes: Vec<usize> = input.relations().iter().map(|rel| rel.len()).collect();
        // The shares count, with two or more dimensions.
        let mut routed = (cm.groups.len() > 1).then(|| Routed::new(cm.groups.len(), &self.fine));

        let (flags, marked) = self.mark(&columns, &self.fine, &sizes, engine)?;
        chain.cycles.extend(marked);
        let mut participants = None;
        if cm.prune && self.subs.iter().any(Option::is_some) {
            let (routes, shuffled) = self.prune_routes(&columns, &flags);
            let mut pruned = self.prune(&columns, &flags, &routes, engine)?;
            // The paper's prune volume, whichever route each group took.
            (pruned.metrics.counters).inc(names::PASM_SHUFFLED_PRUNE_PAIRS, shuffled);
            chain.push(pruned.metrics);
            participants = Some(self.participants(&sizes, pruned.outputs, routed.as_mut()));
        }
        let shares = self.shares(&columns, &flags, participants.is_some(), routed)?;
        let (counts, stage) = (shares.counts, self.join(shares, participants.is_some()));
        let mut joined = stage.run(engine, &columns, (&flags, participants.as_ref()))?;
        if let Some((chosen, paper)) = counts {
            let loads = joined
                .metrics
                .reducer_loads
                .iter()
                .map(|l| l.pairs_received);
            debug_assert_eq!(chosen.pairs, joined.metrics.intermediate_pairs);
            debug_assert_eq!(chosen.max_load, loads.max().unwrap_or(0));
            (joined.metrics.counters).inc(names::MATRIX_PAPER_GRID_JOIN_PAIRS, paper.pairs);
        }
        chain.push(joined.metrics);

        let cells = stage.space.consistent_cells().len() as u64;
        let mut stats = RunStats {
            replicated_intervals: Some(self.replicated(&flags)),
            consistent_cells: Some((cells, stage.space.total_cells())),
            grid: stage.grids.iter().map(Partitioning::len).collect(),
            pruned_fraction: Vec::new(),
        };
        for (r, alive) in participants.iter().flatten().enumerate() {
            // Only relations of marked groups are ever pruned.
            if self.subs[self.places[r].dim].is_some() {
                let kept = alive.iter().filter(|&&a| a).count();
                let name = cm.query.relations()[r].name.clone();
                let pruned = 1.0 - kept as f64 / alive.len() as f64;
                stats.pruned_fraction.push((name, pruned));
            }
        }
        Ok((joined.outputs, stats))
    }

    /// Runs the mark stage alone on the paper grid: relation `v` of the
    /// setting is attribute `attrs[v]` of `input`. Returns the flags, and
    /// the cycle's metrics unless no group is marked.
    pub(crate) fn mark_alone(
        &self,
        input: &JoinInput,
        attrs: &[AttrRef],
        engine: &Engine,
    ) -> Result<(Flags, Option<JobMetrics>), EngineError> {
        let vertices = attrs.iter().enumerate();
        let columns = Columns::new(
            vertices.map(|(v, at)| (RelId(v as u16), input.relation(at.rel), at.attr)),
        );
        let sizes: Vec<usize> = (0..attrs.len()).map(|v| columns.rows(v).len()).collect();
        self.mark(&columns, &self.cm.part, &sizes, engine)
    }

    /// The operation `rec` is routed with, given the mark stage's `flags`.
    fn op(&self, flags: &Flags, rec: &IvRec) -> MapOp {
        let flagged = flags[rec.rel.idx()][rec.tid as usize];
        self.places[rec.rel.idx()].route[flagged as usize]
    }

    /// How many intervals the join replicates: per relation, those of the
    /// flag values its route sends to [`MapOp::Replicate`].
    fn replicated(&self, flags: &Flags) -> u64 {
        let replicated = |op: MapOp| op == MapOp::Replicate;
        let flagged = |flags: &[bool]| flags.iter().filter(|&&f| f).count() as u64;
        (self.places.iter().zip(flags))
            .map(|(place, flags)| match place.route.map(replicated) {
                [false, false] => 0,
                [false, true] => flagged(flags),
                [true, false] => flags.len() as u64 - flagged(flags),
                [true, true] => flags.len() as u64,
            })
            .sum()
    }

    /// **Mark**: the [`participant_key`] of every flagged interval, once
    /// (by its start partition), marked on `grid` — as flags over `sizes`
    /// intervals per relation, with the cycle's metrics. No cycle runs
    /// when no group is marked, as none could flag anything.
    fn mark(
        &self,
        columns: &Columns,
        grid: &Partitioning,
        sizes: &[usize],
        engine: &Engine,
    ) -> Result<(Flags, Option<JobMetrics>), EngineError> {
        if self.subs.iter().all(Option::is_none) {
            return Ok((flags_of(sizes, []), None));
        }
        let (cm, p_count) = (&self.cm, grid.len() as u64);
        let counters = cm.route_counters.is_some();
        let longest: Vec<u64> = (0..self.places.len()).map(|r| columns.longest(r)).collect();
        let longest = longest_per_group(&longest, &self.places, cm.groups.len());
        let reaches: Vec<Option<Time>> = (self.subs.iter().zip(longest))
            .map(|(sub, longest)| reach(&sub.as_ref()?.0, longest, cm.mark_options))
            .collect();
        let marked = engine.run_job(
            &format!("{}-mark", cm.family),
            columns,
            |rec: &IvRec, em: &mut Emitter<IvRec>| {
                let g = self.places[rec.rel.idx()].dim;
                if self.subs[g].is_none() {
                    return; // unmarked groups are never flagged
                }
                let split = ops::split(rec.iv, grid);
                if counters {
                    // The paper's cycle-1 volume: every split copy.
                    em.inc(names::RCCIS_SPLIT_PAIRS, split.len() as u64);
                    if split.len() > 1 {
                        // The interval crosses at least one boundary.
                        em.inc(names::RCCIS_CROSSING_INTERVALS, 1);
                    }
                }
                for p in split.filter(|&p| near(grid, reaches[g], rec.iv, p)) {
                    em.emit(g as u64 * p_count + p as u64, *rec);
                }
            },
            |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<u64>| {
                let (g, p) = group_partition(ctx.key, p_count);
                let Some(marker) = &self.markers[g] else {
                    return; // only marked groups are keyed
                };
                let members = &cm.groups[g];
                let mut per_slot = vec![Vec::new(); members.len()];
                for v in values.by_ref() {
                    per_slot[self.places[v.rel.idx()].slot].push((v.iv, v.tid));
                }
                let marking = marker.run(grid, p, per_slot);
                ctx.add_work(marking.work);
                // The marking flags only intervals that start in `p`.
                for (&rel, tids) in members.iter().zip(&marking.flagged) {
                    for &tid in tids {
                        if counters {
                            ctx.inc(names::RCCIS_FLAGGED_INTERVALS, 1);
                        }
                        out.push(participant_key(rel as u64, tid));
                    }
                }
            },
        )?;
        Ok((flags_of(sizes, marked.outputs), Some(marked.metrics)))
    }

    /// Each group's [`PruneRoute`] by [`prune_route`], and the pairs the
    /// paper's route would ship over all marked groups: every record's
    /// operation range, summed in one pass.
    fn prune_routes(&self, columns: &Columns, flags: &Flags) -> (Vec<PruneRoute>, u64) {
        let cm = &self.cm;
        let mut shuffled = vec![0u64; cm.groups.len()];
        columns.for_each_in(0..columns.len(), |rec| {
            let dim = self.places[rec.rel.idx()].dim;
            if self.subs[dim].is_some() {
                shuffled[dim] += ops::apply(self.op(flags, rec), rec.iv, &cm.part).len() as u64;
            }
        });
        let routes = (cm.groups.iter().zip(&shuffled))
            .map(|(members, &shuffled)| {
                let sizes: Vec<u64> = (members.iter())
                    .map(|&r| columns.rows(r).len() as u64)
                    .collect();
                prune_route(members, &sizes, cm.part.len() as u64, shuffled)
            })
            .collect();
        (routes, shuffled.iter().sum())
    }

    /// **Prune**: the [`participant_key`] of every interval that appears in
    /// some binding of its marked group's own join, with the [`Routed`]
    /// slot of its join route on `F`, each group moved by its entry of
    /// `routes`. Reducer key `group * partitions + p` is partition `p` of
    /// a shuffled group, task `p` of a broadcast one.
    fn prune(
        &self,
        columns: &Columns,
        flags: &Flags,
        routes: &[PruneRoute],
        engine: &Engine,
    ) -> Result<JobOutput<(u64, u32)>, EngineError> {
        let (cm, p_count) = (&self.cm, self.cm.part.len() as u64);
        engine.run_job(
            &format!("{}-prune", cm.family),
            columns,
            |rec: &IvRec, em: &mut Emitter<IvRec>| {
                let dim = self.places[rec.rel.idx()].dim;
                if self.subs[dim].is_none() {
                    return; // unmarked groups always participate
                }
                let key = |p: usize| dim as u64 * p_count + p as u64;
                match routes[dim] {
                    PruneRoute::Shuffled => {
                        for p in ops::apply(self.op(flags, rec), rec.iv, &cm.part) {
                            em.emit(key(p), *rec);
                        }
                    }
                    // Every task reads its slice of the largest member.
                    PruneRoute::Broadcast { large } if large == rec.rel.idx() => {}
                    PruneRoute::Broadcast { .. } => {
                        em.emit_to_all((0..cm.part.len()).map(key), rec)
                    }
                }
            },
            |ctx: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<(u64, u32)>| {
                let (g, p) = group_partition(ctx.key, p_count);
                let Some((sub, program)) = &self.subs[g] else {
                    return; // only marked groups are keyed
                };
                let rels = cm.groups[g].as_slice();
                let mut cands = Candidates::new(rels.len());
                for v in values.by_ref() {
                    cands.push(self.places[v.rel.idx()].slot, v.iv, v.tid);
                }
                let members = slots(0..rels.len());
                // The tested dimension: none for a broadcast task, which
                // finds each binding only in the slice holding its L tuple.
                let owner: Vec<StartWindow> = match routes[g] {
                    PruneRoute::Shuffled => {
                        let (lo, hi) = start_window(&cm.part, p);
                        vec![(lo, hi, members.as_slice())]
                    }
                    PruneRoute::Broadcast { large } => {
                        let (rows, slot) = (columns.rows(large), self.places[large].slot);
                        let cut = |p: usize| rows.start + rows.len() * p / p_count as usize;
                        columns.for_each_in(cut(p)..cut(p + 1), |v| cands.push(slot, v.iv, v.tid));
                        Vec::new()
                    }
                };
                cands.finish();
                let ids = BTreeSet::new();
                let mut participants = ParticipantSink { rels, ids };
                kernel::reduce_with(ctx, |cfg| {
                    kernel::run_into(program, sub, &cands, cfg, &owner, &mut participants)
                });
                // A marked group's route projects to the start partition or
                // replicates from it.
                let n = self.fine.len();
                let slot = |(key, start): (u64, Time)| {
                    let (f, rel, tid) = (self.fine.index_of(start), key >> 32, key as u32);
                    let last = if flags[rel as usize][tid as usize] {
                        n
                    } else {
                        f + 1
                    };
                    (key, Routed::slot(n, f..last) as u32)
                };
                out.extend(participants.ids.into_iter().map(slot));
            },
        )
    }

    /// The participant bitmap from the prune stage's `(key, slot)`
    /// outputs, where several reducers may report one participant. With
    /// `routed`, each participant is counted there once.
    fn participants(
        &self,
        sizes: &[usize],
        outputs: Vec<(u64, u32)>,
        routed: Option<&mut Routed>,
    ) -> Flags {
        let Some(routed) = routed else {
            return flags_of(sizes, outputs.into_iter().map(|(key, _)| key));
        };
        let mut alive = flags_of(sizes, []);
        for (key, slot) in outputs {
            let (rel, tid) = ((key >> 32) as usize, key as u32 as usize);
            let seen = std::mem::replace(&mut alive[rel][tid], true);
            routed.hist[self.places[rel].dim][slot as usize] += !seen as u64;
        }
        alive
    }

    /// **Shares**: the grid of every join dimension. One dimension runs on
    /// `part`. With `D >= 2`, dimension `d` runs on the coarsening of `F`
    /// to `k_d` partitions, `k_d` a divisor of `n = F.len()`, with `Π k_d`
    /// at most `part.len()^D` — the paper grid is `k_d = o`. The flags and
    /// participants are final: `routed` holds the pruned groups' shipped
    /// records ([`Stages::participants`]), and one pass adds every other
    /// group's. Every candidate is then counted exactly from those counts
    /// ([`count_grid`]) and [`pick`] chooses. Where `F` is `part` the paper
    /// grid is the only candidate.
    fn shares(
        &self,
        columns: &Columns,
        flags: &Flags,
        pruned: bool,
        routed: Option<Routed>,
    ) -> Result<Shares, AlgoError> {
        let cm = &self.cm;
        let Some(mut routed) = routed else {
            let (grids, space) = (vec![cm.part.clone()], self.space.clone());
            return Ok(Shares {
                grids,
                space,
                counts: None,
            });
        };
        let (dims, o, n) = (cm.groups.len(), cm.part.len(), self.fine.len());
        for (r, place) in self.places.iter().enumerate() {
            if pruned && self.subs[place.dim].is_some() {
                continue; // counted from its participants
            }
            let (hist, flags) = (&mut routed.hist[place.dim], &flags[r]);
            columns.for_each_in(columns.rows(r), |rec| {
                let op = place.route[flags[rec.tid as usize] as usize];
                hist[Routed::slot(n, ops::apply(op, rec.iv, &self.fine))] += 1;
            });
        }
        let divisors: Vec<usize> = match n == o {
            true => vec![o],
            false => (1..=n).filter(|&k| n.is_multiple_of(k)).collect(),
        };
        let grids: Vec<Partitioning> = (divisors.iter())
            .map(|&k| self.fine.coarsen(n / k).expect("a divisor coarsens"))
            .collect();
        let windows = windows_of(&grids.iter().collect::<Vec<_>>());
        // `cover[d][j][c]`: dimension `d`'s records at coordinate `c` of
        // `grids[j]`, whose partition `c` is `F`'s `c * step ..`.
        let cover: Vec<Vec<Vec<u64>>> = (routed.hist.iter())
            .map(|hist| {
                let (point, suffix) = hist.split_at(n);
                let cover_on = |k: usize| {
                    let (step, mut replicated) = (n / k, 0);
                    let blocks = point.chunks(step).zip(suffix.chunks(step));
                    let cover = blocks.map(|(point, suffix)| {
                        replicated += suffix.iter().sum::<u64>();
                        point.iter().sum::<u64>() + replicated
                    });
                    cover.collect()
                };
                divisors.iter().map(|&k| cover_on(k)).collect()
            })
            .collect();
        let count = |js: &[usize]| {
            let windows: Vec<&[(Time, Time)]> = js.iter().map(|&j| windows[j].as_slice()).collect();
            let cover: Vec<&[u64]> = (js.iter().enumerate())
                .map(|(d, &j)| cover[d][j].as_slice())
                .collect();
            count_grid(&windows, &cm.constraints, &cover)
        };
        // Every tuple of divisor indices, odometer order. `F` refines only
        // two or three dimensions, so `o^D` is small; with `n = o` the one
        // tuple is the paper grid.
        let ks = |js: &[usize]| js.iter().map(|&j| divisors[j]).collect::<Vec<_>>();
        let fits = |ks: &[usize]| n == o || ks.iter().product::<usize>() <= o.pow(dims as u32);
        let (mut counted, mut js) = (Vec::new(), vec![0; dims]);
        loop {
            if fits(&ks(&js)) {
                counted.push((ks(&js), count(&js)));
            }
            let Some(d) = (0..dims).find(|&d| js[d] + 1 < divisors.len()) else {
                break;
            };
            js[..d].fill(0);
            js[d] += 1;
        }
        let paper = (counted.iter())
            .find(|(ks, _)| ks.iter().all(|&k| k == o))
            .expect("o divides n")
            .1;
        let (ks, chosen) = pick(&counted, paper);
        let grids: Vec<Partitioning> = (ks.iter())
            .map(|&k| grids[divisors.iter().position(|&d| d == k).expect("a divisor")].clone())
            .collect();
        let space = match ks.iter().all(|&k| k == o) {
            true => self.space.clone(),
            false => CellSpace::new(&grids.iter().collect::<Vec<_>>(), cm.constraints.clone())?,
        };
        let counts = Some((chosen, paper));
        Ok(Shares {
            grids,
            space,
            counts,
        })
    }

    /// **Join**: route every interval, join per cell, emit the owned
    /// bindings — one lane per relation, reading its row of the flags and,
    /// where `pruned` and its group is marked, of the participants: an
    /// interval outside the set is never shuffled.
    fn join(&self, shares: Shares, pruned: bool) -> JoinStage<OneSlot<'a>> {
        let cm = &self.cm;
        let order = cm.query.start_order();
        // Every dimension but those a fixed project provably settles.
        let projected = |r: usize| cm.routes[r] == [MapOp::Project; 2];
        let settled = |g: &[usize]| g.iter().any(|&r| projected(r) && starts_last(order, g, r));
        let owner = (cm.groups.iter().enumerate())
            .filter(|(_, g)| !settled(g))
            .map(|(d, g)| (d, slots(g.iter().copied())))
            .collect();
        let sides = (self.places.iter().enumerate())
            .map(|(r, place)| {
                let counter =
                    |c: [_; 2]| place.route.map(|op| c[(op == MapOp::Replicate) as usize]);
                vec![Lane {
                    dim: place.dim,
                    slots: vec![0],
                    route: place.route,
                    row: Some(r),
                    pruned: pruned && self.subs[place.dim].is_some(),
                    counters: cm.route_counters.map(counter),
                }]
            })
            .collect();
        JoinStage {
            name: format!("{}-join", cm.family),
            grids: shares.grids,
            space: shares.space,
            sides,
            owner,
            join: OneSlot::new(cm.query, cm.mode),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_interval::RelId;
    use ij_query::Condition;
    use proptest::prelude::*;

    /// The ownership rule as a predicate: in every `(lo, hi, members)`
    /// dimension the right-most start among `binding[members]` lies in
    /// `[lo, hi]`.
    fn owns(dims: &[(Time, Time, &[usize])], binding: &[(Interval, TupleId)]) -> bool {
        dims.iter().all(|&(lo, hi, members)| {
            let start = members
                .iter()
                .fold(Time::MIN, |s, &r| s.max(binding[r].0.start()));
            lo <= start && start <= hi
        })
    }

    /// Every boundary and its two neighbours — so also the points just
    /// below the first boundary and at and above the last — plus the ends
    /// of the `i64` domain.
    fn probes(part: &Partitioning) -> Vec<Time> {
        let mut probes = vec![Time::MIN, Time::MIN + 1, Time::MAX - 1, Time::MAX];
        for &b in part.boundaries() {
            probes.extend([b.saturating_sub(1), b, b.saturating_add(1)]);
        }
        probes
    }

    /// For every coordinate, the window test on a one- and a two-member
    /// dimension is `index_of(right-most start) == coord`.
    fn assert_ownership_is_index_of_max_start(part: &Partitioning) {
        let probes = probes(part);
        let at = |start: Time| (Interval::new(start, start).unwrap(), 0);
        for coord in 0..part.len() {
            let (lo, hi) = start_window(part, coord);
            for &a in &probes {
                let alone = owns(&[(lo, hi, &[0])], &[at(a)]);
                assert_eq!(alone, part.index_of(a) == coord, "{part} {coord} {a}");
                for &b in &probes {
                    let pair = owns(&[(lo, hi, &[0, 1])], &[at(a), at(b)]);
                    let expected = part.index_of(a.max(b)) == coord;
                    assert_eq!(pair, expected, "{part} {coord} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn ownership_on_equi_width_and_equi_depth_boundaries() {
        assert_ownership_is_index_of_max_start(&Partitioning::equi_width(0, 100, 7).unwrap());
        assert_ownership_is_index_of_max_start(&Partitioning::equi_width(-5, 5, 1).unwrap());
        let skewed: Vec<Time> = (0..200).map(|i| (i * i) % 1000).collect();
        let depth = Partitioning::equi_depth(0, 1000, 8, &skewed).unwrap();
        assert!(depth.len() > 1);
        assert_ownership_is_index_of_max_start(&depth);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Explicit boundaries anywhere in the domain, its two ends
        /// included.
        #[test]
        fn ownership_on_explicit_boundaries(
            raw in proptest::collection::vec((0usize..8, -1000i64..1000), 2..9usize),
        ) {
            let mut boundaries: Vec<Time> = raw
                .iter()
                .map(|&(edge, t)| match edge {
                    0 => Time::MIN,
                    1 => Time::MAX,
                    _ => t,
                })
                .collect();
            boundaries.sort_unstable();
            boundaries.dedup();
            if let Ok(part) = Partitioning::from_boundaries(boundaries) {
                assert_ownership_is_index_of_max_start(&part);
            }
        }
    }

    #[test]
    fn groups_must_partition_the_relations() {
        use crate::output::OutputMode;
        use ij_interval::{AllenPredicate::*, Relation};
        let q = JoinQuery::chain(&[Overlaps, Before]).unwrap();
        let rel = |r: usize| Relation::from_intervals(format!("R{r}"), [Interval::point(r as i64)]);
        let input = JoinInput::bind_owned(&q, (0..3).map(rel).collect()).unwrap();
        let part = Partitioning::equi_width(0, 10, 2).unwrap();
        let missing = vec![vec![0, 1]];
        let twice = vec![vec![0, 1], vec![1, 2]];
        let unknown = vec![vec![0, 1, 2, 3]];
        for groups in [missing, twice, unknown] {
            let setting = ComponentMatrix {
                family: "test",
                query: &q,
                part: part.clone(),
                constraints: Vec::new(),
                groups,
                routes: vec![[MapOp::Project; 2]; 3],
                mark_options: MarkOptions::default(),
                prune: false,
                route_counters: None,
                mode: OutputMode::Count,
            };
            let err = setting.plan(&input, Report::Both).err().unwrap();
            assert!(matches!(err, AlgoError::BadConfig(_)), "{err}");
        }
    }

    /// `(slot, tid)` of every interval the marking at `p` flags.
    fn flagged(
        q: &JoinQuery,
        part: &Partitioning,
        p: usize,
        per_slot: Vec<Vec<(Interval, TupleId)>>,
        options: MarkOptions,
    ) -> BTreeSet<(usize, TupleId)> {
        let marking = Marker::new(q, options).run(part, p, per_slot);
        let slots = marking.flagged.iter().enumerate();
        slots
            .flat_map(|(slot, tids)| tids.iter().map(move |&tid| (slot, tid)))
            .collect()
    }

    /// What the reach lemma rests on, run per partition: the marking of the
    /// filtered split input flags exactly what the marking of the full
    /// split input flags. Returns how many copies the filter dropped and
    /// how many intervals were flagged.
    fn assert_reach_keeps_every_flag(
        q: &JoinQuery,
        part: &Partitioning,
        rels: &[Vec<Interval>],
        options: MarkOptions,
    ) -> (usize, usize) {
        let (mut dropped, mut hits) = (0, 0);
        let records = (rels.iter().enumerate()).flat_map(|(r, ivs)| {
            let rel = RelId(r as u16);
            (ivs.iter().enumerate()).map(move |(tid, &iv)| IvRec {
                rel,
                tid: tid as TupleId,
                iv,
            })
        });
        let records: Vec<IvRec> = records.collect();
        let places: Vec<Place> = (0..rels.len())
            .map(|slot| Place {
                dim: 0,
                slot,
                route: MARKED,
            })
            .collect();
        let len = |iv: &Interval| iv.end().abs_diff(iv.start());
        let longest: Vec<u64> = (rels.iter())
            .map(|ivs| ivs.iter().map(len).fold(0, u64::max))
            .collect();
        let r = reach(q, longest_per_group(&longest, &places, 1)[0], options);
        for p in 0..part.len() {
            let mut full = vec![Vec::new(); rels.len()];
            let mut near_only = vec![Vec::new(); rels.len()];
            for rec in records
                .iter()
                .filter(|rec| ops::split(rec.iv, part).contains(&p))
            {
                full[rec.rel.idx()].push((rec.iv, rec.tid));
                if near(part, r, rec.iv, p) {
                    near_only[rec.rel.idx()].push((rec.iv, rec.tid));
                } else {
                    dropped += 1;
                }
            }
            let want = flagged(q, part, p, full, options);
            let got = flagged(q, part, p, near_only, options);
            assert_eq!(
                got, want,
                "{q} {part} p={p} reach {r:?} {options:?} {rels:?}"
            );
            hits += want.len();
        }
        (dropped, hits)
    }

    /// Chains, stars and cliques of two to five relations over all eleven
    /// colocation predicates, and disconnected queries — some relation no
    /// condition mentions, or two pieces; on sparse, dense, long, point and
    /// `i64`-extreme data, six rounds of growing relations; over equi-width
    /// and equi-depth boundaries; with and without the crossing condition.
    #[test]
    fn reach_filter_keeps_every_flag() {
        use crate::algorithm::{PartitionStrategy, RunArtifacts};
        use ij_interval::{AllenPredicate, Relation};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let colocation: Vec<AllenPredicate> = (AllenPredicate::ALL.into_iter())
            .filter(|p| p.is_colocation())
            .collect();
        assert_eq!(colocation.len(), 11);
        const EXTREMES: [Time; 7] = [Time::MIN, Time::MIN + 1, -1, 0, 1, Time::MAX - 1, Time::MAX];
        let interval = |rng: &mut StdRng, data: usize| {
            let (span, max_len) = match data {
                0 => (3000, 30), // sparse
                1 => (200, 40),  // dense
                2 => (600, 400), // long
                3 => (120, 0),   // points
                _ => {
                    let (a, b) = (EXTREMES[rng.gen_range(0..7)], EXTREMES[rng.gen_range(0..7)]);
                    return Interval::new(a.min(b), a.max(b)).unwrap();
                }
            };
            let s = rng.gen_range(0..span);
            Interval::new(s, s + rng.gen_range(0..=max_len)).unwrap()
        };
        let (mut dropped, mut hits, mut next_pred) = (0, 0, 0);
        let mut rng = StdRng::seed_from_u64(27);
        for m in 2..=5usize {
            let chain: Vec<(usize, usize)> = (1..m).map(|r| (r - 1, r)).collect();
            let star: Vec<(usize, usize)> = (1..m).map(|r| (0, r)).collect();
            let clique: Vec<(usize, usize)> = (0..m)
                .flat_map(|a| (a + 1..m).map(move |b| (a, b)))
                .collect();
            let mut shapes = vec![chain.clone(), star, clique];
            if m >= 3 {
                shapes.push(chain[..m - 2].to_vec()); // the last relation unmentioned
            }
            if m >= 4 {
                shapes.push(vec![(0, 1), (2, 3)]); // two pieces
            }
            for edges in shapes {
                let conditions = (edges.iter())
                    .map(|&(a, b)| {
                        next_pred += 1;
                        let pred = colocation[next_pred % colocation.len()];
                        Condition::whole(a as u16, pred, b as u16)
                    })
                    .collect();
                let q = JoinQuery::new(m as u16, conditions).unwrap();
                for (round, data) in (0..6).flat_map(|round| (0..5).map(move |d| (round, d))) {
                    let rels: Vec<Vec<Interval>> = (0..m)
                        .map(|_| {
                            let n = rng.gen_range(round..24);
                            (0..n).map(|_| interval(&mut rng, data)).collect()
                        })
                        .collect();
                    let relations = (rels.iter())
                        .map(|ivs| Relation::from_intervals("R", ivs.iter().copied()))
                        .collect();
                    let input = JoinInput::bind_owned(&q, relations).unwrap();
                    for strategy in [PartitionStrategy::EquiWidth, PartitionStrategy::EquiDepth] {
                        let k = rng.gen_range(1..=8);
                        let part = RunArtifacts::partition_input(&input, k, strategy).unwrap();
                        for enforce_crossing in [true, false] {
                            let options = MarkOptions { enforce_crossing };
                            let (d, h) = assert_reach_keeps_every_flag(&q, &part, &rels, options);
                            (dropped, hits) = (dropped + d, hits + h);
                        }
                    }
                }
            }
        }
        assert!(
            dropped > 0 && hits > 0,
            "vacuous: {dropped} dropped, {hits} flagged"
        );
    }

    /// The bound is tight: with `R1 meets R2, R2 overlaps R3` and R2's
    /// interval crossing `p`'s right boundary with the longest length `L`,
    /// the R1 interval that meets it ends exactly at `b[p+1] − L`, and
    /// both are flagged. A reach of `R − 1` would drop the R1 interval.
    #[test]
    fn reach_is_tight() {
        use ij_interval::AllenPredicate::{Meets, Overlaps};
        let q = JoinQuery::chain(&[Meets, Overlaps]).unwrap();
        let part = Partitioning::equi_width(0, 300, 3).unwrap();
        let iv = |s: Time, e: Time| Interval::new(s, e).unwrap();
        let (x, c) = (iv(185, 190), iv(190, 200));
        let (b, longest) = (part.boundaries()[2], c.end() - c.start());
        assert_eq!(x.end(), b - longest);
        let options = MarkOptions::default();
        let r = reach(&q, Some(longest), options);
        assert_eq!(r, Some(longest));
        assert!(near(&part, r, x, 1));
        assert!(!near(&part, Some(longest - 1), x, 1));
        let per_slot = vec![vec![(x, 0)], vec![(c, 0)], Vec::new()];
        let want = BTreeSet::from([(0, 0), (1, 0)]);
        assert_eq!(flagged(&q, &part, 1, per_slot, options), want);
        let (dropped, hits) =
            assert_reach_keeps_every_flag(&q, &part, &[vec![x], vec![c], vec![]], options);
        assert_eq!((dropped, hits), (0, 2));
    }

    /// The dimensions a cell tests are conjunctive: one outside its
    /// window disowns the binding.
    #[test]
    fn every_dimension_must_own() {
        let part = Partitioning::equi_width(0, 40, 4).unwrap();
        let at = |start: Time| (Interval::new(start, start + 3).unwrap(), 0);
        let binding = [at(5), at(12), at(31)];
        let owned_at = |c0: usize, c1: usize| {
            let ((lo0, hi0), (lo1, hi1)) = (start_window(&part, c0), start_window(&part, c1));
            owns(&[(lo0, hi0, &[0, 1]), (lo1, hi1, &[2])], &binding)
        };
        assert!(owned_at(1, 3));
        assert!(!owned_at(0, 3));
        assert!(!owned_at(1, 2));
    }

    /// Both sides of the strict `<`, the largest member's tie-break, the
    /// equal-size fallback, an empty side and an overflowing count.
    #[test]
    fn prune_route_broadcasts_only_below_the_shuffled_count() {
        let broadcast = |large| PruneRoute::Broadcast { large };
        // side 10 × p 6 = 60 copies.
        assert_eq!(prune_route(&[0, 2], &[80, 10], 6, 61), broadcast(0));
        assert_eq!(prune_route(&[0, 2], &[80, 10], 6, 60), PruneRoute::Shuffled);
        assert_eq!(prune_route(&[0, 2], &[80, 10], 6, 59), PruneRoute::Shuffled);
        assert_eq!(prune_route(&[1, 4], &[10, 80], 6, 61), broadcast(4));
        // Two largest members: the lower relation index stays in place.
        assert_eq!(prune_route(&[1, 3, 4], &[50, 50, 5], 1, 106), broadcast(1));
        assert_eq!(
            prune_route(&[1, 3, 4], &[50, 50, 5], 1, 55),
            PruneRoute::Shuffled
        );
        // Members of one size, as in a self-join, stay shuffled even
        // where the count alone would broadcast.
        assert_eq!(prune_route(&[0, 1], &[10, 10], 1, 20), PruneRoute::Shuffled);
        assert_eq!(prune_route(&[0, 1], &[10, 11], 1, 21), broadcast(1));
        // An empty side ships nothing; an overflowing one never wins.
        assert_eq!(prune_route(&[0, 1], &[10, 0], 6, 10), broadcast(0));
        assert_eq!(prune_route(&[0, 1], &[0, 0], 6, 0), PruneRoute::Shuffled);
        let huge = u64::MAX / 2;
        assert_eq!(
            prune_route(&[0, 1], &[huge + 1, huge], 3, u64::MAX),
            PruneRoute::Shuffled
        );
    }

    /// The partition-free participant lemma, run: on random hybrid queries
    /// of one or two marked groups (two or three members each, chained by
    /// `before`), a broadcast prune — with every member in turn as the one
    /// read in place — finds exactly the shuffled prune's participants, and
    /// so does the route the rule picks. Data includes self-join groups,
    /// empty members and `i64`-extreme endpoints; `k` is 1 and 6; threads
    /// 1, 2 and 8, each with and without a 256-byte reduce budget.
    #[test]
    fn broadcast_and_shuffled_prune_find_the_same_participants() {
        use crate::algorithm::RunArtifacts;
        use ij_interval::{AllenPredicate, Relation};
        use ij_mapreduce::ClusterConfig;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let colocation: Vec<AllenPredicate> = (AllenPredicate::ALL.into_iter())
            .filter(|p| p.is_colocation())
            .collect();
        const EXTREMES: [Time; 7] = [Time::MIN, Time::MIN + 1, -1, 0, 1, Time::MAX - 1, Time::MAX];
        let interval = |rng: &mut StdRng, data: usize| {
            let (span, max_len) = match data {
                0 => (3000, 60), // sparse
                1 => (300, 40),  // dense
                _ => {
                    let (a, b) = (EXTREMES[rng.gen_range(0..7)], EXTREMES[rng.gen_range(0..7)]);
                    return Interval::new(a.min(b), a.max(b)).unwrap();
                }
            };
            let s = rng.gen_range(0..span);
            Interval::new(s, s + rng.gen_range(0..=max_len)).unwrap()
        };
        let mut rng = StdRng::seed_from_u64(28);
        let (mut found, mut picked) = (0, [0; 2]);
        for case in 0..36 {
            let sizes = [[2, 0], [3, 0], [2, 2], [2, 3], [3, 2], [3, 3]][case % 6];
            let groups: Vec<Vec<usize>> = (sizes.iter().filter(|&&s| s > 0))
                .scan(0, |next, &s| {
                    *next += s;
                    Some((*next - s..*next).collect())
                })
                .collect();
            let m = groups.concat().len();
            let mut conditions = Vec::new();
            for g in &groups {
                let mut edges: Vec<(usize, usize)> = g.windows(2).map(|w| (w[0], w[1])).collect();
                if g.len() == 3 && rng.gen_bool(0.5) {
                    edges.push((g[0], g[2]));
                }
                for (a, b) in edges {
                    let pred = colocation[rng.gen_range(0..colocation.len())];
                    conditions.push(Condition::whole(a as u16, pred, b as u16));
                }
            }
            if let [a, b] = &groups[..] {
                let (x, y) = (a[rng.gen_range(0..a.len())], b[rng.gen_range(0..b.len())]);
                let pred = [AllenPredicate::Before, AllenPredicate::After][rng.gen_range(0..2)];
                conditions.push(Condition::whole(x as u16, pred, y as u16));
            }
            let q = JoinQuery::new(m as u16, conditions).unwrap();
            let data = case / 6 % 3;
            let mut rels: Vec<Vec<Interval>> = (0..m)
                .map(|_| {
                    let n = [rng.gen_range(0..6), rng.gen_range(10..40)][rng.gen_range(0..2)];
                    (0..n).map(|_| interval(&mut rng, data)).collect()
                })
                .collect();
            match case / 18 {
                0 => rels[1] = rels[0].clone(), // a self-join group
                _ => rels[1].clear(),           // an empty side member
            }
            let relations = (rels.iter())
                .map(|ivs| Relation::from_intervals("R", ivs.iter().copied()))
                .collect();
            let input = JoinInput::bind_owned(&q, relations).unwrap();
            let columns = Columns::of(&input);
            let sizes: Vec<usize> = rels.iter().map(Vec::len).collect();
            for k in [1, 6] {
                let part = RunArtifacts::partition_span(input.span(), k).unwrap();
                let stages = ComponentMatrix {
                    family: "test",
                    query: &q,
                    part,
                    constraints: Vec::new(),
                    groups: groups.clone(),
                    routes: vec![MARKED; m],
                    mark_options: MarkOptions::default(),
                    prune: true,
                    route_counters: None,
                    mode: crate::output::OutputMode::Count,
                }
                .stages()
                .unwrap();
                for (threads, budget) in [1, 2, 8]
                    .into_iter()
                    .flat_map(|t| [(t, None), (t, Some(256))])
                {
                    let engine = Engine::new(ClusterConfig {
                        reducer_slots: 4,
                        worker_threads: threads,
                        intra_reduce_threads: threads,
                        heavy_bucket_threshold: 8,
                        reduce_memory_budget: budget,
                    });
                    let whole: Vec<AttrRef> = (0..m as u16).map(AttrRef::whole).collect();
                    let (flags, _) = stages.mark_alone(&input, &whole, &engine).unwrap();
                    let run = |routes: &[PruneRoute]| {
                        let pruned = stages.prune(&columns, &flags, routes, &engine).unwrap();
                        flags_of(&sizes, pruned.outputs.into_iter().map(|(key, _)| key))
                    };
                    let shuffled = run(&vec![PruneRoute::Shuffled; groups.len()]);
                    let at = format!("{q} k={k} threads={threads} budget={budget:?} {rels:?}");
                    for choice in 0..3 {
                        let large = |g: &Vec<usize>| g[choice % g.len()];
                        let routes: Vec<PruneRoute> = (groups.iter())
                            .map(|g| PruneRoute::Broadcast { large: large(g) })
                            .collect();
                        assert_eq!(run(&routes), shuffled, "broadcast {choice}: {at}");
                    }
                    let (routes, _) = stages.prune_routes(&columns, &flags);
                    assert_eq!(run(&routes), shuffled, "{routes:?}: {at}");
                    for route in routes {
                        picked[matches!(route, PruneRoute::Broadcast { .. }) as usize] += 1;
                    }
                    found += shuffled.concat().iter().filter(|&&a| a).count();
                }
            }
        }
        assert!(
            found > 0 && picked[0] > 0 && picked[1] > 0,
            "vacuous: {found} participants, routes picked {picked:?}"
        );
    }

    /// A random hybrid query and its input: one marked group of two or
    /// three relations chained by colocation predicates (sometimes closed
    /// into a triangle) and a singleton related to one member by `before`
    /// or `after`. Data is sparse, dense or `i64`-extreme; a relation may
    /// be empty.
    fn hybrid_case(seed: u64) -> (JoinQuery, JoinInput) {
        use ij_interval::{AllenPredicate, Relation};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const EXTREMES: [Time; 7] = [Time::MIN, Time::MIN + 1, -1, 0, 1, Time::MAX - 1, Time::MAX];
        let colocation: Vec<AllenPredicate> = (AllenPredicate::ALL.into_iter())
            .filter(|p| p.is_colocation())
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = rng.gen_range(2..=3usize);
        let mut conditions: Vec<Condition> = (1..g)
            .map(|r| {
                let pred = colocation[rng.gen_range(0..colocation.len())];
                Condition::whole(r as u16 - 1, pred, r as u16)
            })
            .collect();
        if g == 3 && rng.gen_bool(0.5) {
            let pred = colocation[rng.gen_range(0..colocation.len())];
            conditions.push(Condition::whole(0, pred, 2));
        }
        let pred = [AllenPredicate::Before, AllenPredicate::After][rng.gen_range(0..2)];
        conditions.push(Condition::whole(rng.gen_range(0..g) as u16, pred, g as u16));
        let q = JoinQuery::new(g as u16 + 1, conditions).unwrap();
        let data = rng.gen_range(0..3);
        let relations = (0..=g)
            .map(|_| {
                let n = match rng.gen_range(0..8) {
                    0 => 0,
                    1..=3 => rng.gen_range(1..6),
                    _ => rng.gen_range(6..20),
                };
                let ivs: Vec<Interval> = (0..n)
                    .map(|_| {
                        let (span, max_len) = match data {
                            0 => (2000, 80), // sparse
                            1 => (200, 40),  // dense
                            _ => {
                                let a = EXTREMES[rng.gen_range(0..7)];
                                let b = EXTREMES[rng.gen_range(0..7)];
                                return Interval::new(a.min(b), a.max(b)).unwrap();
                            }
                        };
                        let s = rng.gen_range(0..span);
                        Interval::new(s, s + rng.gen_range(0..=max_len)).unwrap()
                    })
                    .collect();
                Relation::from_intervals("R", ivs)
            })
            .collect();
        (q.clone(), JoinInput::bind_owned(&q, relations).unwrap())
    }

    /// All-Seq-Matrix's setting of `q` on `part` — or, with `prune`,
    /// PASM's.
    fn hybrid_setting<'a>(
        q: &'a JoinQuery,
        part: &Partitioning,
        prune: bool,
    ) -> ComponentMatrix<'a> {
        let comps = q.components();
        let groups: Vec<Vec<usize>> = (comps.components.iter())
            .map(|c| c.vertices.iter().map(|v| v.rel.idx()).collect())
            .collect();
        let mut routes = vec![[MapOp::Project; 2]; q.num_relations() as usize];
        (groups.iter().filter(|g| g.len() > 1).flatten()).for_each(|&r| routes[r] = MARKED);
        ComponentMatrix {
            family: "test",
            query: q,
            part: part.clone(),
            constraints: q.start_order().component_constraints(&comps),
            groups,
            routes,
            mark_options: MarkOptions::default(),
            prune,
            route_counters: None,
            mode: crate::output::OutputMode::Materialize,
        }
    }

    /// **The coarsening lemma, run.** `flags` — marked on `F` — and every
    /// grid whose boundaries are a subset of `F`'s: for each `(k_d)`, each
    /// dimension `d` on `F` coarsened to `k_d`, every member of every
    /// output binding must be routed to the binding's owner cell, and the
    /// cell must be consistent. Returns `(members checked, members that
    /// missed their owner)`.
    fn lemma_misses(
        setting: &ComponentMatrix,
        input: &JoinInput,
        fine: &Partitioning,
        flags: &Flags,
    ) -> (usize, usize) {
        let q = setting.query;
        let bindings = crate::oracle::oracle_join(q, input);
        let n = fine.len();
        let divisors: Vec<usize> = (1..=n).filter(|&k| n.is_multiple_of(k)).collect();
        let dims = setting.groups.len();
        let (mut checked, mut misses) = (0, 0);
        let mut ks = vec![0usize; dims];
        loop {
            let grids: Vec<Partitioning> = (ks.iter())
                .map(|&j| fine.coarsen(n / divisors[j]).unwrap())
                .collect();
            let space = CellSpace::new(
                &grids.iter().collect::<Vec<_>>(),
                setting.constraints.clone(),
            )
            .unwrap();
            for binding in &bindings {
                let iv = |r: usize| input.relations()[r].tuple(binding[r]).interval();
                let owner: Vec<usize> = (setting.groups.iter().zip(&grids))
                    .map(|(members, grid)| {
                        let start = members.iter().map(|&r| iv(r).start()).max().unwrap();
                        grid.index_of(start)
                    })
                    .collect();
                let consistent = space.is_consistent(&owner);
                for (d, members) in setting.groups.iter().enumerate() {
                    for &r in members {
                        let flagged = flags[r][binding[r] as usize];
                        let op = setting.routes[r][flagged as usize];
                        let range = ops::apply(op, iv(r), &grids[d]);
                        checked += 1;
                        misses += (!consistent || !range.contains(&owner[d])) as usize;
                    }
                }
            }
            // Odometer over the divisor indices.
            let mut d = 0;
            loop {
                if d == dims {
                    return (checked, misses);
                }
                ks[d] += 1;
                if ks[d] < divisors.len() {
                    break;
                }
                ks[d] = 0;
                d += 1;
            }
        }
    }

    /// The flags `setting`'s mark stage computes on `fine`.
    fn flags_on(setting: ComponentMatrix, input: &JoinInput, fine: &Partitioning) -> Flags {
        use ij_mapreduce::ClusterConfig;
        let engine = Engine::new(ClusterConfig::with_slots(2));
        let sizes: Vec<usize> = input.relations().iter().map(|rel| rel.len()).collect();
        let stages = setting.stages().unwrap();
        (stages
            .mark(&Columns::of(input), fine, &sizes, &engine)
            .unwrap())
        .0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Flags marked on `F` are sound on every coarsening of `F` in
        /// every dimension, and ASM and PASM — on the grids the count
        /// picks — equal the oracle at threads 1, 2 and 8, each without a
        /// reduce budget and with a 256-byte one.
        #[test]
        fn fine_flags_reach_the_owner_on_every_coarsening(seed in 0u64..1 << 40, k in 1usize..=6) {
            use crate::algorithm::RunArtifacts;
            use ij_mapreduce::ClusterConfig;
            let (q, input) = hybrid_case(seed);
            let part = RunArtifacts::partition_span(input.span(), k).unwrap();
            let setting = hybrid_setting(&q, &part, false);
            let fine = setting.fine_grid();
            let flags = flags_on(hybrid_setting(&q, &part, false), &input, &fine);
            let (_, misses) = lemma_misses(&setting, &input, &fine, &flags);
            prop_assert_eq!(misses, 0, "{} {} {:?}", q, fine, input.relations());
            let want = crate::oracle::oracle_join(&q, &input);
            for (threads, budget) in [1, 2, 8].into_iter().flat_map(|t| [(t, None), (t, Some(256))]) {
                let engine = Engine::new(ClusterConfig {
                    reducer_slots: 4,
                    worker_threads: threads,
                    intra_reduce_threads: threads,
                    heavy_bucket_threshold: 8,
                    reduce_memory_budget: budget,
                });
                for prune in [false, true] {
                    let out = hybrid_setting(&q, &part, prune).plan(&input, Report::Both).unwrap().run(&input, &engine).unwrap();
                    prop_assert_eq!(out.assert_no_duplicates(), want.clone(), "{} prune={}", q, prune);
                }
            }
        }
    }

    /// The lemma check is not vacuous: with every flag cleared — the
    /// marking ignored — members miss their owner on some coarsening.
    #[test]
    fn the_no_flag_mutant_misses_owners() {
        use crate::algorithm::RunArtifacts;
        let (mut checked, mut caught) = (0, 0);
        for seed in 0..40 {
            let (q, input) = hybrid_case(seed);
            let part = RunArtifacts::partition_span(input.span(), 6).unwrap();
            let setting = hybrid_setting(&q, &part, false);
            let fine = setting.fine_grid();
            let flags = flags_on(hybrid_setting(&q, &part, false), &input, &fine);
            let cleared: Flags = flags.iter().map(|f| vec![false; f.len()]).collect();
            let (n, misses) = lemma_misses(&setting, &input, &fine, &flags);
            assert_eq!(misses, 0, "{q}");
            checked += n;
            caught += lemma_misses(&setting, &input, &fine, &cleared).1;
        }
        assert!(
            checked > 0 && caught > 0,
            "vacuous: {checked} checked, {caught} caught"
        );
    }

    /// Partitions too narrow to cut: every paper partition of a one-point
    /// span is one tick wide, so `F` is the paper grid, the paper grid is
    /// the only candidate, and the join ships exactly its count.
    #[test]
    fn partitions_too_narrow_to_refine_keep_the_paper_grid() {
        use crate::algorithm::RunArtifacts;
        use ij_interval::AllenPredicate::{Before, Equals};
        use ij_interval::Relation;
        use ij_mapreduce::ClusterConfig;
        let q = JoinQuery::new(
            3,
            vec![
                Condition::whole(0, Equals, 1),
                Condition::whole(0, Before, 2),
            ],
        )
        .unwrap();
        let point = |t: Time| Interval::point(t);
        let relations = vec![
            Relation::from_intervals("R1", [point(0), point(1)]),
            Relation::from_intervals("R2", [point(0), point(1)]),
            Relation::from_intervals("R3", [point(2), point(5)]),
        ];
        let input = JoinInput::bind_owned(&q, relations).unwrap();
        let part = RunArtifacts::partition_span(input.span(), 6).unwrap();
        assert!(
            part.boundaries().windows(2).all(|w| w[1] - w[0] == 1),
            "{part}"
        );
        let engine = Engine::new(ClusterConfig::with_slots(2));
        for prune in [false, true] {
            let setting = hybrid_setting(&q, &part, prune);
            assert_eq!(setting.fine_grid(), part);
            let out = setting.plan(&input, Report::Both).unwrap();
            let out = out.run(&input, &engine).unwrap();
            assert_eq!(
                out.assert_no_duplicates(),
                crate::oracle::oracle_join(&q, &input)
            );
            assert_eq!(out.stats.grid, vec![6, 6]);
            let join = out.chain.cycles.last().unwrap();
            let paper = join.counters.get(names::MATRIX_PAPER_GRID_JOIN_PAIRS);
            assert_eq!(paper, join.intermediate_pairs);
            assert!(paper > 0);
        }
    }

    /// One dimension never refines, two and three do where every
    /// partition is wide enough, and four or more keep the paper grid.
    #[test]
    fn only_settings_of_two_or_three_dimensions_mark_on_a_finer_grid() {
        use ij_interval::AllenPredicate::Overlaps;
        let q = JoinQuery::chain(&[Overlaps; 3]).unwrap();
        let part = Partitioning::equi_width(0, 60, 6).unwrap();
        let mut setting = hybrid_setting(&q, &part, false);
        assert_eq!(setting.groups.len(), 1);
        assert_eq!(setting.fine_grid(), part);
        setting.groups = vec![vec![0, 1], vec![2, 3]];
        assert_eq!(setting.fine_grid(), part.refine(2).unwrap());
        assert_eq!(setting.fine_grid().len(), 12);
        setting.groups = vec![vec![0, 1], vec![2], vec![3]];
        assert_eq!(setting.fine_grid().len(), 18);
        setting.groups = vec![vec![0], vec![1], vec![2], vec![3]];
        assert_eq!(setting.fine_grid(), part);
    }

    /// Both filters of the rule, and each tie-break in turn.
    #[test]
    fn the_shares_rule_keeps_paper_bounds_then_fewest_pairs() {
        let count = |cells, pairs, max_load| GridCount {
            cells,
            pairs,
            max_load,
        };
        let paper = count(21, 100, 10);
        let pick_of = |counted: &[(Vec<usize>, GridCount)]| pick(counted, paper).0.to_vec();
        let mut counted = vec![(vec![6, 6], paper)];
        // More cells, or a larger cell, is never picked however few pairs.
        counted.push((vec![12, 4], count(22, 10, 5)));
        counted.push((vec![12, 3], count(18, 10, 11)));
        assert_eq!(pick_of(&counted), vec![6, 6]);
        counted.push((vec![12, 2], count(18, 70, 9)));
        assert_eq!(pick_of(&counted), vec![12, 2]);
        // Fewer pairs first, then fewer cells, then the smaller (k_d).
        counted.push((vec![4, 4], count(10, 70, 10)));
        assert_eq!(pick_of(&counted), vec![4, 4]);
        counted.push((vec![3, 4], count(10, 70, 10)));
        assert_eq!(pick_of(&counted), vec![3, 4]);
        counted.push((vec![6, 1], count(21, 69, 10)));
        assert_eq!(pick_of(&counted), vec![6, 1]);
    }
}
