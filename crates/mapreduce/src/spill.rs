//! Spill-to-DFS path for oversized reduce buckets.
//!
//! The engine's default reduce path materializes every bucket as a `Vec<M>`
//! — fine while buckets fit in RAM, but it ignores the reducer-size bound
//! the paper's analysis is built on (a reducer may only receive as much
//! input as it can hold). With [`crate::ClusterConfig::reduce_memory_budget`]
//! set, the shuffle merge stops buffering a bucket once its accumulated
//! [`Record::approx_bytes`] exceed the budget: the buffered prefix is
//! written to an engine-internal [`Dfs`] as a *run*, and the reducer later
//! pulls the bucket back as a stream of fixed-size chunks instead of a
//! resident vector.
//!
//! # Spill format and the determinism argument
//!
//! Runs are cut from one bucket's value sequence as the shuffle splices
//! it: the key's segments in map-run index order, each in mapper-emission
//! order (see [`crate::merge_keyed_runs`]). Run *i* of a bucket therefore
//! holds a contiguous slice that entirely precedes run *i + 1*, so reading
//! a bucket back is chaining its runs in write order — nothing to merge.
//! Because that sequence is independent of `worker_threads`, the flush
//! points (and hence `spill.runs` / `spill.bytes`) depend only on the
//! budget, and the value sequence a reducer observes is byte-identical to
//! in-memory execution for every budget and thread count.

use crate::dfs::{Dfs, DfsError};
use crate::job::ReducerId;
use crate::observe::{Clock, Event, EventKind, Observer};
use crate::record::Record;
use std::marker::PhantomData;
use std::sync::Arc;

/// Records per chunk the spilled-bucket cursor pulls through
/// [`Dfs::read_range`] — a reducer holds one chunk of one run resident at
/// a time, never a whole run.
pub(crate) const SPILL_READ_CHUNK: usize = 1024;

/// Spill-volume statistics for one job, surfaced as the `spill.buckets` /
/// `spill.runs` / `spill.bytes` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Buckets that overflowed the budget and were spilled.
    pub buckets: u64,
    /// Runs written across all spilled buckets.
    pub runs: u64,
    /// Approximate bytes written to the spill store.
    pub bytes: u64,
}

/// One spilled run: a DFS path plus the record count stored there.
#[derive(Debug, Clone)]
pub struct SpillRun {
    pub(crate) path: String,
    pub(crate) len: usize,
}

/// Shuffle-side writer for budget-overflow runs. One store lives per
/// budgeted `run_job`, wrapping a fresh engine-internal [`Dfs`] so spill
/// files can never collide with (or leak into) algorithm-visible storage.
pub(crate) struct SpillStore<'o> {
    dfs: Arc<Dfs>,
    budget: u64,
    seq: u64,
    stats: SpillStats,
    write_nanos: u64,
    clock: Arc<dyn Clock>,
    observer: Option<&'o Observer>,
}

impl<'o> SpillStore<'o> {
    /// A store enforcing `budget` approx-bytes per bucket buffer, timing
    /// its I/O on `clock` and reporting each run to `observer`.
    pub(crate) fn new(budget: u64, clock: Arc<dyn Clock>, observer: Option<&'o Observer>) -> Self {
        SpillStore {
            dfs: Arc::new(Dfs::new()),
            budget,
            seq: 0,
            stats: SpillStats::default(),
            write_nanos: 0,
            clock,
            observer,
        }
    }

    /// The per-bucket buffer budget in approx-bytes.
    pub(crate) fn budget(&self) -> u64 {
        self.budget
    }

    /// The store's backing DFS (shared with the cursors reading it back).
    #[cfg(test)]
    pub(crate) fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    /// A bucket over `runs` (in bucket order) of this store, read back
    /// through the store's DFS and timed on its clock.
    pub(crate) fn bucket<M: Record>(&self, runs: Vec<SpillRun>) -> SpilledBucket<M> {
        SpilledBucket {
            dfs: Arc::clone(&self.dfs),
            clock: Arc::clone(&self.clock),
            total: runs.iter().map(|r| r.len).sum(),
            runs,
            _values: PhantomData,
        }
    }

    /// Writes `values` as the next run for bucket `key`, returning its
    /// handle. The sequence number makes paths unique without consulting
    /// any ambient state, so spill layout is deterministic. The shuffle
    /// runs on the caller thread, so the run's span sits on lane 0 and the
    /// bucket key is an arg.
    pub(crate) fn spill_run<M: Record>(
        &mut self,
        key: ReducerId,
        values: Vec<M>,
    ) -> Result<SpillRun, DfsError> {
        let t0 = self.clock.now_nanos();
        let len = values.len();
        let bytes: u64 = values.iter().map(Record::approx_bytes).sum();
        let path = format!("spill/{key}/{seq}", seq = self.seq);
        self.seq += 1;
        self.dfs.write(&path, values)?;
        self.stats.runs += 1;
        self.stats.bytes += bytes;
        let t1 = self.clock.now_nanos();
        self.write_nanos += t1.saturating_sub(t0);
        if let Some(observer) = self.observer {
            observer.record(
                Event::span(EventKind::Spill, "spill-run", 0, t0, t1)
                    .arg("key", key)
                    .arg("records", len as u64)
                    .arg("bytes", bytes),
            );
        }
        Ok(SpillRun { path, len })
    }

    /// Records that one more bucket ended up spilled.
    pub(crate) fn note_bucket(&mut self) {
        self.stats.buckets += 1;
    }

    /// Consumes the store: spill statistics plus cumulative write time.
    pub(crate) fn finish(self) -> (SpillStats, u64) {
        (self.stats, self.write_nanos)
    }
}

/// A reduce bucket whose values live in DFS run files rather than memory.
///
/// Cloning is cheap (paths plus an `Arc<Dfs>`): a fault-plan retry simply
/// re-reads the runs, the in-process analogue of a re-executed Hadoop
/// reduce task re-reading its shuffled segment from disk.
#[derive(Debug)]
pub struct SpilledBucket<M> {
    dfs: Arc<Dfs>,
    clock: Arc<dyn Clock>,
    runs: Vec<SpillRun>,
    total: usize,
    _values: PhantomData<fn() -> M>,
}

impl<M> Clone for SpilledBucket<M> {
    fn clone(&self) -> Self {
        SpilledBucket {
            dfs: Arc::clone(&self.dfs),
            clock: Arc::clone(&self.clock),
            runs: self.runs.clone(),
            total: self.total,
            _values: PhantomData,
        }
    }
}

impl<M: Record> SpilledBucket<M> {
    /// Total records across all runs.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the bucket holds no records.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of runs the bucket was cut into.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// A cursor streaming the bucket's values back in bucket order.
    pub(crate) fn cursor(self) -> RunCursor<M> {
        RunCursor {
            dfs: self.dfs,
            clock: self.clock,
            runs: self.runs,
            run_idx: 0,
            offset: 0,
            chunk: Vec::new().into_iter(),
            io_nanos: 0,
            error: None,
            _values: PhantomData,
        }
    }
}

/// Pull-based reader over a spilled bucket's runs: chains the runs in
/// write order (see the module docs for why that *is* bucket order) and
/// fetches [`SPILL_READ_CHUNK`]-record chunks through [`Dfs::read_range`],
/// so at most one chunk is resident per reducer.
#[derive(Debug)]
pub(crate) struct RunCursor<M> {
    dfs: Arc<Dfs>,
    clock: Arc<dyn Clock>,
    runs: Vec<SpillRun>,
    run_idx: usize,
    offset: usize,
    chunk: std::vec::IntoIter<M>,
    io_nanos: u64,
    error: Option<DfsError>,
    _values: PhantomData<fn() -> M>,
}

impl<M: Record> RunCursor<M> {
    /// The next value, or `None` at end-of-bucket *or* on a read error —
    /// streaming can't surface a `Result` per value, so the error is
    /// latched in [`RunCursor::error`] for the engine to check after the
    /// reducer returns.
    pub(crate) fn next_value(&mut self) -> Option<M> {
        loop {
            if let Some(v) = self.chunk.next() {
                return Some(v);
            }
            if self.error.is_some() {
                return None;
            }
            let run = self.runs.get(self.run_idx)?;
            if self.offset >= run.len {
                self.run_idx += 1;
                self.offset = 0;
                continue;
            }
            let t0 = self.clock.now_nanos();
            let read = self
                .dfs
                .read_range::<M>(&run.path, self.offset, SPILL_READ_CHUNK);
            self.io_nanos += self.clock.now_nanos().saturating_sub(t0);
            match read {
                Ok(chunk) if chunk.is_empty() => {
                    // A run shorter than its recorded length would be an
                    // engine bug; treat it as corruption, not end-of-data.
                    self.error = Some(DfsError::NotFound(run.path.clone()));
                    return None;
                }
                Ok(chunk) => {
                    self.offset += chunk.len();
                    self.chunk = chunk.into_iter();
                }
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
    }

    /// Cumulative clock time spent inside `read_range`.
    pub(crate) fn io_nanos(&self) -> u64 {
        self.io_nanos
    }

    /// The latched read error, if any chunk fetch failed.
    pub(crate) fn error(&self) -> Option<&DfsError> {
        self.error.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{MonotonicClock, VirtualClock};

    fn store() -> SpillStore<'static> {
        SpillStore::new(64, Arc::new(MonotonicClock::new()), None)
    }

    #[test]
    fn runs_round_trip_in_order() {
        let mut st = store();
        let r1 = st.spill_run(3, vec![1u64, 2, 3]).unwrap();
        let r2 = st.spill_run(3, vec![4u64, 5]).unwrap();
        let bucket = st.bucket::<u64>(vec![r1, r2]);
        assert_eq!(bucket.len(), 5);
        assert_eq!(bucket.run_count(), 2);
        let mut cur = bucket.cursor();
        let mut got = Vec::new();
        while let Some(v) = cur.next_value() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        assert!(cur.error().is_none());
    }

    #[test]
    fn stats_accumulate_runs_and_bytes() {
        let mut st = store();
        st.spill_run(0, vec![1u64, 2]).unwrap();
        st.spill_run(7, vec![3u64]).unwrap();
        st.note_bucket();
        let (stats, _nanos) = st.finish();
        assert_eq!(stats.buckets, 1);
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.bytes, 3 * 8);
    }

    #[test]
    fn run_spans_sit_on_lane_zero_and_share_the_io_clock_readings() {
        /// Every reading moves time on by 10 ns, so the write costs 10.
        #[derive(Debug, Default)]
        struct Ticking(VirtualClock);
        impl Clock for Ticking {
            fn now_nanos(&self) -> u64 {
                self.0.advance(10);
                self.0.now_nanos()
            }
        }
        let clock: Arc<dyn Clock> = Arc::new(Ticking::default());
        let observer = Observer::with_clock(Arc::clone(&clock), 8);
        let mut st = SpillStore::new(64, clock, Some(&observer));
        st.spill_run(7, vec![1u64, 2]).unwrap();
        st.spill_run(9, vec![3u64]).unwrap();
        let (_, write_nanos) = st.finish();
        let spans = observer.events();
        assert_eq!(spans.len(), 2);
        for (span, key, bytes) in [(&spans[0], 7, 16), (&spans[1], 9, 8)] {
            assert_eq!(
                (span.kind, span.name.as_str()),
                (EventKind::Spill, "spill-run")
            );
            assert_eq!(span.lane, 0, "the shuffle runs on the caller thread");
            assert_eq!(span.get("key"), Some(key));
            assert_eq!(span.get("bytes"), Some(bytes));
        }
        assert_eq!(write_nanos, spans.iter().map(|e| e.dur_ns).sum::<u64>());
        assert_eq!(write_nanos, 20);
    }

    #[test]
    fn paths_are_unique_per_run() {
        let mut st = store();
        st.spill_run(1, vec![1u64]).unwrap();
        st.spill_run(1, vec![2u64]).unwrap();
        assert_eq!(st.dfs().list().len(), 2);
    }

    #[test]
    fn chunked_reads_cross_run_boundaries() {
        // A run longer than one chunk plus a short tail run.
        let big: Vec<u64> = (0..(SPILL_READ_CHUNK as u64 * 2 + 10)).collect();
        let mut st = store();
        let r1 = st.spill_run(0, big.clone()).unwrap();
        let r2 = st.spill_run(0, vec![999u64]).unwrap();
        let total = big.len() + 1;
        let bucket = st.bucket::<u64>(vec![r1, r2]);
        let mut cur = bucket.cursor();
        let mut got = Vec::with_capacity(total);
        while let Some(v) = cur.next_value() {
            got.push(v);
        }
        assert_eq!(got.len(), total);
        assert_eq!(got[..big.len()], big[..]);
        assert_eq!(got[big.len()], 999);
        // More than one range read must have happened.
        assert!(st.dfs().stats().range_reads >= 3);
    }

    #[test]
    fn missing_run_latches_error_instead_of_panicking() {
        let st = store();
        let bucket = st.bucket::<u64>(vec![SpillRun {
            path: "spill/0/404".to_string(),
            len: 3,
        }]);
        let mut cur = bucket.cursor();
        assert!(cur.next_value().is_none());
        assert!(matches!(cur.error(), Some(DfsError::NotFound(_))));
        // The error is sticky.
        assert!(cur.next_value().is_none());
    }

    #[test]
    fn cloned_bucket_rereads_independently() {
        let mut st = store();
        let r = st.spill_run(0, vec![7u64, 8]).unwrap();
        let bucket = st.bucket::<u64>(vec![r]);
        let twin = bucket.clone();
        let drain = |b: SpilledBucket<u64>| {
            let mut cur = b.cursor();
            let mut got = Vec::new();
            while let Some(v) = cur.next_value() {
                got.push(v);
            }
            got
        };
        assert_eq!(drain(bucket), vec![7, 8]);
        assert_eq!(drain(twin), vec![7, 8]);
    }
}
