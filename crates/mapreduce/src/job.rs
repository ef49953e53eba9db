//! Mapper and reducer abstractions.
//!
//! A mapper turns one input record into intermediate `(ReducerId, value)`
//! pairs via an [`Emitter`]; the engine routes all pairs with the same key to
//! the same reducer invocation. Reducers receive their key, the values in
//! deterministic (mapper-emission) order, and a [`ReduceCtx`] through which
//! they report *work units* — the quantity the simulated cost model charges
//! for reducer compute (e.g. candidate pairs examined by a join).

use crate::dfs::DfsError;
use crate::metrics::names::Counter;
use crate::metrics::Counters;
use crate::observe::{EventKind, Observer};
use crate::record::Record;
use crate::spill::{RunCursor, SpilledBucket};
use std::sync::Arc;

/// Identifies a logical reducer. Join algorithms encode either a 1-D
/// partition index or the coordinates of a cell in an m-dimensional reducer
/// matrix into this id (see `ij-core`'s `CellSpace`).
pub type ReducerId = u64;

/// One map worker's output, grouped by reducer key: one `(key, values)`
/// segment per distinct key, keys strictly ascending, values in emission
/// order — the in-process analogue of a Hadoop map task's partitioned
/// spill file. Runs from different workers are combined by
/// [`crate::engine::merge_keyed_runs`].
pub type KeyedRun<M> = Vec<(ReducerId, Vec<M>)>;

/// The map-side context: partitions the intermediate pairs a mapper emits
/// by reducer key *as they are emitted* and carries the worker's
/// user-defined [`Counters`].
///
/// One `Emitter` lives per map worker (not per record), so counters
/// incremented here accumulate across the worker's whole chunk and are
/// merged across workers by the engine — the map half of Hadoop's
/// user-counter facility. [`MapCtx`] is an alias making the context role
/// explicit at algorithm call sites.
#[derive(Debug)]
pub struct Emitter<M> {
    /// The distinct keys emitted so far, ascending. Keys are reducer ids —
    /// a handful to a few thousand per job — so a first emission shifting
    /// the tail of this table is cheap, and it is the only per-key cost.
    keys: Vec<ReducerId>,
    /// `segments[i]` holds the values emitted to `keys[i]`, in order.
    segments: Vec<Vec<M>>,
    /// Position of the key the previous emit went to.
    last: usize,
    emitted: usize,
    counters: Counters,
}

/// The map-side context handed to [`Mapper`]s — an alias for [`Emitter`]
/// (the emitter *is* the per-worker map context; see its docs).
pub type MapCtx<M> = Emitter<M>;

impl<M> Default for Emitter<M> {
    /// An empty map-side context (the engine makes one per map worker;
    /// tests and benches build runs through it directly).
    fn default() -> Self {
        Emitter {
            keys: Vec::new(),
            segments: Vec::new(),
            last: 0,
            emitted: 0,
            counters: Counters::new(),
        }
    }
}

impl<M> Emitter<M> {
    /// Emits one intermediate pair `(key, value)` — i.e. communicates
    /// `value` to reducer `key`.
    #[inline]
    pub fn emit(&mut self, key: ReducerId, value: M) {
        self.emitted += 1;
        // Mappers tend to emit runs of one key; skip the search for those.
        if self.keys.get(self.last) != Some(&key) {
            self.last = self.keys.binary_search(&key).unwrap_or_else(|at| {
                self.keys.insert(at, key);
                self.segments.insert(at, Vec::new());
                at
            });
        }
        if let Some(values) = self.segments.get_mut(self.last) {
            values.push(value);
        }
    }

    /// Emits the same value to every key in `keys`, cloning as needed.
    pub fn emit_to_all(&mut self, keys: impl IntoIterator<Item = ReducerId>, value: &M)
    where
        M: Clone,
    {
        for k in keys {
            self.emit(k, value.clone());
        }
    }

    /// Number of pairs emitted so far by this worker.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Adds `delta` to the user counter `name` (Hadoop-style; merged
    /// across workers into [`crate::JobMetrics::counters`]).
    #[inline]
    pub fn inc(&mut self, name: &Counter, delta: u64) {
        self.counters.inc(name, delta);
    }

    /// The counters this worker accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Finishes the worker: its map output as a key-grouped run, plus its
    /// accumulated counters. Nothing is sorted: the key table is already
    /// ascending, and each segment holds its values in emission order —
    /// the engine's determinism contract.
    pub fn finish(self) -> (KeyedRun<M>, Counters) {
        let run = self.keys.into_iter().zip(self.segments).collect();
        (run, self.counters)
    }
}

/// Map side of a job: one input record in, intermediate pairs out.
///
/// Implemented for any `Fn(&I, &mut Emitter<M>) + Sync`, so jobs are usually
/// written as closures.
pub trait Mapper<I, M>: Sync {
    /// Processes one input record.
    fn map(&self, record: &I, out: &mut Emitter<M>);
}

impl<I, M, F> Mapper<I, M> for F
where
    F: Fn(&I, &mut Emitter<M>) + Sync,
{
    #[inline]
    fn map(&self, record: &I, out: &mut Emitter<M>) {
        self(record, out)
    }
}

/// Per-invocation context handed to a reducer.
#[derive(Debug)]
pub struct ReduceCtx {
    /// The key this invocation owns.
    pub key: ReducerId,
    pub(crate) work: u64,
    pub(crate) counters: Counters,
    thread_budget: usize,
    heavy_bucket_threshold: usize,
}

impl ReduceCtx {
    /// A standalone context with a serial compute budget — what the engine
    /// hands out by default, and what tests and the oracle construct
    /// directly.
    pub fn new(key: ReducerId) -> Self {
        ReduceCtx::with_parallelism(key, 1, crate::engine::DEFAULT_HEAVY_BUCKET_THRESHOLD)
    }

    /// A context carrying the engine's intra-reducer parallelism grant:
    /// heavy-bucket kernels may use up to `thread_budget` worker threads
    /// once a bucket reaches `heavy_bucket_threshold` candidates. The
    /// engine computes `thread_budget` per bucket via
    /// [`crate::schedule::SchedulePlan::acquire`] — under the default
    /// skew-driven policy a predicted-heavy bucket gets up to
    /// `intra_reduce_threads` from the shared pool, a light one gets 1.
    pub(crate) fn with_parallelism(
        key: ReducerId,
        thread_budget: usize,
        heavy_bucket_threshold: usize,
    ) -> Self {
        ReduceCtx {
            key,
            work: 0,
            counters: Counters::new(),
            thread_budget: thread_budget.max(1),
            heavy_bucket_threshold,
        }
    }

    /// Worker threads this invocation may use for heavy-bucket compute
    /// (≥ 1; 1 means strictly serial).
    pub fn thread_budget(&self) -> usize {
        self.thread_budget
    }

    /// Candidate count at which a bucket counts as "heavy" and may be
    /// split across the thread budget.
    pub fn heavy_bucket_threshold(&self) -> usize {
        self.heavy_bucket_threshold
    }

    /// Reports `units` of compute done by this reducer (candidate pairs
    /// examined, comparisons, …). Feeds the simulated cost model; a reducer
    /// that never calls this is charged only for the pairs it received.
    #[inline]
    pub fn add_work(&mut self, units: u64) {
        self.work += units;
    }

    /// Work units reported so far.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Adds `delta` to the user counter `name` (Hadoop-style; merged
    /// across reducers into [`crate::JobMetrics::counters`]).
    #[inline]
    pub fn inc(&mut self, name: &Counter, delta: u64) {
        self.counters.inc(name, delta);
    }

    /// The counters this invocation accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

/// Where a reduce bucket's values physically live: resident in memory (the
/// fast path — zero behavior change from the pre-streaming engine) or
/// spilled to DFS runs when the bucket overflowed
/// [`crate::ClusterConfig::reduce_memory_budget`]. Either way,
/// [`BucketSource::into_stream`] yields the values in the engine's
/// deterministic bucket order.
#[derive(Debug)]
pub enum BucketSource<M> {
    /// The bucket fit its budget and stayed resident.
    InMemory(Vec<M>),
    /// The bucket overflowed and lives as DFS runs (see [`crate::spill`]).
    Spilled(SpilledBucket<M>),
}

impl<M: Clone> Clone for BucketSource<M> {
    fn clone(&self) -> Self {
        match self {
            BucketSource::InMemory(v) => BucketSource::InMemory(v.clone()),
            BucketSource::Spilled(b) => BucketSource::Spilled(b.clone()),
        }
    }
}

impl<M: Record> BucketSource<M> {
    /// Number of values in the bucket.
    pub fn len(&self) -> usize {
        match self {
            BucketSource::InMemory(v) => v.len(),
            BucketSource::Spilled(b) => b.len(),
        }
    }

    /// Whether the bucket holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bucket was spilled to DFS.
    pub fn is_spilled(&self) -> bool {
        matches!(self, BucketSource::Spilled(_))
    }

    /// What the intra-reduce scheduler needs to score this bucket before
    /// it runs. For a spilled bucket `pairs` is the *full logical length*
    /// — [`crate::spill::SpilledBucket::len`] counts every value the
    /// budgeted merge routed here, not the in-memory tail — so scores are
    /// independent of `reduce_memory_budget`.
    pub fn load(&self) -> crate::schedule::BucketLoad {
        crate::schedule::BucketLoad {
            pairs: self.len() as u64,
            spilled: self.is_spilled(),
        }
    }

    /// The pull-based value stream a reducer consumes.
    pub fn into_stream(self) -> ValueStream<M> {
        match self {
            BucketSource::InMemory(v) => ValueStream::from_vec(v),
            BucketSource::Spilled(b) => {
                let total = b.len();
                ValueStream {
                    remaining: total,
                    inner: StreamInner::Spilled(b.cursor()),
                    hb: None,
                }
            }
        }
    }
}

#[derive(Debug)]
enum StreamInner<M> {
    Mem(std::vec::IntoIter<M>),
    Spilled(RunCursor<M>),
}

/// The pull-based view of one reduce bucket's values, in deterministic
/// (mapper-emission) order — what [`Reducer::reduce`] consumes instead of
/// a resident `&mut Vec<M>`.
///
/// It is an [`Iterator`] (and [`ExactSizeIterator`]), so reducer bodies
/// use `values.by_ref()` where they previously drained a vector, or any
/// adapter (`sum`, `map`, `collect`, …) directly. For spilled buckets each
/// `next` may fetch a chunk from the DFS; a read failure ends the stream
/// early and is latched in [`ValueStream::io_error`], which the engine
/// checks after the reducer returns (surfaced as
/// [`crate::EngineError::Spill`]).
#[derive(Debug)]
pub struct ValueStream<M> {
    inner: StreamInner<M>,
    remaining: usize,
    hb: Option<Heartbeats>,
}

/// Reduce-side liveness for an observed stream: the pull count, and where
/// to report it once per heartbeat quantum.
#[derive(Debug)]
struct Heartbeats {
    observer: Arc<Observer>,
    lane: u64,
    key: ReducerId,
    pulled: u64,
}

impl Heartbeats {
    /// One value pulled; appends a heartbeat at each quantum boundary.
    /// Kept out of [`ValueStream::next`] so the unobserved pull stays small
    /// enough to inline into reducer loops.
    fn tick(&mut self) {
        self.pulled += 1;
        if self.pulled.is_multiple_of(self.observer.heartbeat_every()) {
            let args = [("key", self.key), ("processed", self.pulled)];
            self.observer
                .instant(EventKind::Heartbeat, "reduce", self.lane, &args);
        }
    }
}

impl<M: Record> ValueStream<M> {
    /// A stream over an in-memory value vector (what tests and standalone
    /// reducer invocations construct directly).
    pub fn from_vec(values: Vec<M>) -> Self {
        ValueStream {
            remaining: values.len(),
            inner: StreamInner::Mem(values.into_iter()),
            hb: None,
        }
    }

    /// Makes every [`Observer::heartbeat_every`]-th pull append a `reduce`
    /// heartbeat for reducer `key`, running on worker `lane`.
    pub(crate) fn enable_heartbeats(&mut self, observer: Arc<Observer>, lane: u64, key: ReducerId) {
        self.hb = Some(Heartbeats {
            observer,
            lane,
            key,
            pulled: 0,
        });
    }

    /// Values not yet pulled.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the stream is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// Whether the stream reads back spilled DFS runs.
    pub fn is_spilled(&self) -> bool {
        matches!(self.inner, StreamInner::Spilled(_))
    }

    /// Drains the rest of the stream into a vector (the materializing
    /// escape hatch for reducers that genuinely need random access).
    pub fn take_vec(&mut self) -> Vec<M> {
        self.by_ref().collect()
    }

    /// The latched DFS read error, if streaming a spilled bucket failed.
    pub fn io_error(&self) -> Option<&DfsError> {
        match &self.inner {
            StreamInner::Mem(_) => None,
            StreamInner::Spilled(c) => c.error(),
        }
    }

    /// Cumulative wall time this stream spent reading spilled runs.
    pub(crate) fn io_nanos(&self) -> u64 {
        match &self.inner {
            StreamInner::Mem(_) => 0,
            StreamInner::Spilled(c) => c.io_nanos(),
        }
    }
}

impl<M: Record> Iterator for ValueStream<M> {
    type Item = M;

    fn next(&mut self) -> Option<M> {
        let v = match &mut self.inner {
            StreamInner::Mem(it) => it.next(),
            StreamInner::Spilled(c) => c.next_value(),
        };
        match &v {
            // An early end (spilled-read error) zeroes the count so
            // `len`/`size_hint` stay consistent with what `next` returns.
            None => self.remaining = 0,
            Some(_) => {
                self.remaining -= 1;
                if let Some(hb) = &mut self.hb {
                    hb.tick();
                }
            }
        }
        v
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<M: Record> ExactSizeIterator for ValueStream<M> {}

/// Reduce side of a job: all values routed to one key in, output records out.
///
/// Implemented for any `Fn(&mut ReduceCtx, &mut ValueStream<M>, &mut Vec<O>) + Sync`.
/// Values arrive as a pull-based [`ValueStream`] in deterministic
/// (mapper-emission) order; small buckets stream straight out of memory,
/// budget-overflow buckets stream back from DFS spill runs — the reducer
/// body is identical either way.
pub trait Reducer<M, O>: Sync {
    /// Processes the group for `ctx.key`.
    fn reduce(&self, ctx: &mut ReduceCtx, values: &mut ValueStream<M>, out: &mut Vec<O>);
}

impl<M, O, F> Reducer<M, O> for F
where
    F: Fn(&mut ReduceCtx, &mut ValueStream<M>, &mut Vec<O>) + Sync,
{
    #[inline]
    fn reduce(&self, ctx: &mut ReduceCtx, values: &mut ValueStream<M>, out: &mut Vec<O>) {
        self(ctx, values, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::names;

    #[test]
    fn emitter_collects_pairs() {
        let mut e: Emitter<u32> = Emitter::default();
        e.emit(3, 10);
        e.emit(3, 11);
        e.emit(7, 12);
        assert_eq!(e.emitted(), 3);
        assert_eq!(e.finish().0, vec![(3, vec![10, 11]), (7, vec![12])]);
    }

    #[test]
    fn emit_to_all_clones() {
        let mut e: Emitter<String> = Emitter::default();
        e.emit_to_all(0..3, &"x".to_string());
        assert_eq!(e.emitted(), 3);
        let run = e.finish().0;
        assert_eq!(run.len(), 3);
        assert!(run.iter().all(|(_, vs)| vs == &["x"]));
    }

    #[test]
    fn keyed_run_is_key_ordered_and_stable() {
        // Interleaved and descending keys: every emit misses the last-key
        // fast path, and the run still comes out key-ascending with each
        // key's values in emission order.
        let mut e: Emitter<char> = Emitter::default();
        for (k, v) in [
            (5, 'a'),
            (1, 'b'),
            (5, 'c'),
            (1, 'd'),
            (u64::MAX, 'e'),
            (0, 'f'),
        ] {
            e.emit(k, v);
        }
        assert_eq!(e.emitted(), 6);
        assert_eq!(
            e.finish().0,
            vec![
                (0, vec!['f']),
                (1, vec!['b', 'd']),
                (5, vec!['a', 'c']),
                (u64::MAX, vec!['e'])
            ]
        );
        assert!(Emitter::<u8>::default().finish().0.is_empty());
    }

    #[test]
    fn reduce_ctx_accumulates_work() {
        let mut ctx = ReduceCtx::new(5);
        ctx.add_work(10);
        ctx.add_work(7);
        assert_eq!(ctx.work(), 17);
        assert_eq!(ctx.key, 5);
    }

    #[test]
    fn contexts_accumulate_counters() {
        let mut e: Emitter<u32> = Emitter::default();
        e.inc(names::RCCIS_REPLICA_PAIRS, 3);
        e.inc(names::RCCIS_REPLICA_PAIRS, 2);
        e.inc(names::RCCIS_CROSSING_INTERVALS, 1);
        assert_eq!(e.counters().get(names::RCCIS_REPLICA_PAIRS), 5);
        let (_, counters) = e.finish();
        assert_eq!(counters.get(names::RCCIS_CROSSING_INTERVALS), 1);

        let mut ctx = ReduceCtx::new(0);
        ctx.inc(names::JOIN_CANDIDATES, 10);
        ctx.inc(names::JOIN_EMITTED, 4);
        assert_eq!(ctx.counters().get(names::JOIN_CANDIDATES), 10);
        assert_eq!(ctx.counters().get(names::JOIN_EMITTED), 4);
    }

    #[test]
    fn closures_implement_traits() {
        fn assert_mapper<M: Mapper<u32, u32>>(_m: &M) {}
        fn assert_reducer<R: Reducer<u32, u32>>(_r: &R) {}
        let m = |r: &u32, out: &mut Emitter<u32>| out.emit(0, *r);
        let r =
            |_ctx: &mut ReduceCtx, vs: &mut ValueStream<u32>, out: &mut Vec<u32>| out.extend(vs);
        assert_mapper(&m);
        assert_reducer(&r);
    }

    #[test]
    fn value_stream_over_vec_preserves_order_and_len() {
        let mut s = ValueStream::from_vec(vec![3u64, 1, 4, 1, 5]);
        assert_eq!(s.len(), 5);
        assert!(!s.is_spilled());
        assert_eq!(s.next(), Some(3));
        assert_eq!(s.len(), 4);
        assert_eq!(s.by_ref().collect::<Vec<_>>(), vec![1, 4, 1, 5]);
        assert!(s.is_empty());
        assert!(s.io_error().is_none());
        assert_eq!(s.io_nanos(), 0);
    }

    #[test]
    fn value_stream_take_vec_drains_remainder() {
        let mut s = ValueStream::from_vec(vec![1u64, 2, 3]);
        assert_eq!(s.next(), Some(1));
        assert_eq!(s.take_vec(), vec![2, 3]);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn bucket_source_reports_shape() {
        let b = BucketSource::InMemory(vec![1u64, 2]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_spilled());
        assert!(!b.is_empty());
        let mut s = b.into_stream();
        assert_eq!(s.by_ref().collect::<Vec<_>>(), vec![1, 2]);
    }
}
