//! The shuffle: groups the map workers' key-grouped runs into reducer
//! buckets — each key's segments handed over as they are, or cut into
//! spill runs under a memory budget.

use super::Engine;
use crate::error::EngineError;
use crate::job::{BucketSource, KeyedRun, ReducerId};
use crate::observe::Clock;
use crate::record::Record;
use crate::spill::{SpillRun, SpillStats, SpillStore};
use std::iter::Peekable;
use std::sync::Arc;

/// The shuffle phase's result: bucket sources in key order, the shuffle
/// volume, the spill volume and the clock time spent writing spill runs.
pub(super) type Shuffled<M> = (
    Vec<(ReducerId, BucketSource<M>)>,
    ShuffleStats,
    SpillStats,
    u64,
);

impl Engine {
    /// Splices the map runs into reducer buckets, under the configured
    /// reduce-memory budget if there is one.
    pub(super) fn run_shuffle_phase<M: Record>(
        &self,
        job: &str,
        runs: Vec<KeyedRun<M>>,
        clock: &Arc<dyn Clock>,
    ) -> Result<Shuffled<M>, EngineError> {
        match self.cfg.reduce_memory_budget {
            // Unlimited budget: the in-memory fast path. No spill store
            // (hence no Dfs) is ever constructed.
            None => {
                let (buckets, stats) = merge_keyed_runs(runs);
                let sources = buckets
                    .into_iter()
                    .map(|(k, segments)| (k, BucketSource::InMemory(segments)))
                    .collect();
                Ok((sources, stats, SpillStats::default(), 0))
            }
            Some(budget) => {
                let mut store =
                    SpillStore::new(budget, Arc::clone(clock), self.observer.as_deref());
                let (sources, stats) = merge_keyed_runs_budgeted(job, runs, &mut store)?;
                let (spill_stats, write_nanos) = store.finish();
                Ok((sources, stats, spill_stats, write_nanos))
            }
        }
    }
}

/// Shuffle-volume counters accumulated by [`merge_keyed_runs`] — summed
/// per segment, in the merge itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShuffleStats {
    /// Intermediate pairs merged (the paper's communication cost).
    pub pairs: u64,
    /// Approximate bytes moved mapper → reducer (value bytes + 8-byte key).
    pub bytes: u64,
}

impl ShuffleStats {
    /// Counts one segment; returns its values' bytes (keys not included).
    fn add_segment<M: Record>(&mut self, values: &[M]) -> u64 {
        let bytes = values.iter().map(Record::approx_bytes).sum::<u64>();
        self.pairs += values.len() as u64;
        self.bytes += bytes + 8 * values.len() as u64;
        bytes
    }
}

/// The key-major walk shared by the in-memory and budgeted shuffle paths:
/// [`KeyMajor::next_key`] yields every distinct key in ascending order
/// together with that key's segments in run-index order. Runs are
/// key-ascending, so the next key is the smallest head — a scan over the
/// (few) runs per *key*, never a comparison per pair.
struct KeyMajor<M> {
    heads: Vec<Peekable<<KeyedRun<M> as IntoIterator>::IntoIter>>,
    segments: Vec<Vec<M>>,
}

impl<M> KeyMajor<M> {
    fn new(runs: Vec<KeyedRun<M>>) -> Self {
        KeyMajor {
            segments: Vec::with_capacity(runs.len()),
            heads: runs.into_iter().map(|r| r.into_iter().peekable()).collect(),
        }
    }

    fn next_key(&mut self) -> Option<(ReducerId, std::vec::Drain<'_, Vec<M>>)> {
        let key = self
            .heads
            .iter_mut()
            .filter_map(|h| h.peek().map(|(k, _)| *k))
            .min()?;
        for head in &mut self.heads {
            if let Some((_, segment)) = head.next_if(|(k, _)| *k == key) {
                self.segments.push(segment);
            }
        }
        Some((key, self.segments.drain(..)))
    }
}

/// Groups per-worker key-grouped runs into reducer buckets.
///
/// Keys ascend, and a bucket is its key's segments in run index order, so
/// the segments concatenated are exactly a *stable* sort of the
/// concatenated map outputs grouped by key: values within a key keep
/// mapper-emission order. Every segment is moved, none copied: the reducer
/// reads them one after the other ([`crate::ValueStream`]), so no pair is
/// ever gathered, sorted or compared. The buckets come back as a keyed run
/// whose values are segments.
pub fn merge_keyed_runs<M: Record>(runs: Vec<KeyedRun<M>>) -> (KeyedRun<Vec<M>>, ShuffleStats) {
    let mut buckets = Vec::new();
    let mut stats = ShuffleStats::default();
    let mut walk = KeyMajor::new(runs);
    while let Some((key, segments)) = walk.next_key() {
        let segments: Vec<Vec<M>> = segments.collect();
        for segment in &segments {
            stats.add_segment(segment);
        }
        buckets.push((key, segments));
    }
    (buckets, stats)
}

/// The budgeted merge's result: per-reducer bucket sources (in-memory or
/// spilled) plus the shuffle volume stats.
type BudgetedShuffle<M> = (Vec<(ReducerId, BucketSource<M>)>, ShuffleStats);

/// The budgeted shuffle: the same key-major walk as [`merge_keyed_runs`],
/// but a bucket buffers at most `store.budget()` approx-bytes before the
/// buffered prefix is flushed to the spill store as a run. A bucket whose
/// values total at most the budget never overflows and comes out as
/// [`BucketSource::InMemory`] over its segments — byte-for-byte the fast
/// path — while any other bucket becomes [`BucketSource::Spilled`] over
/// its runs (plus the in-memory tail, also flushed). A bucket's value
/// sequence is thread-count-independent, so the flush points — and
/// therefore the whole spill layout — depend only on the budget. A failed
/// spill write names the bucket being flushed.
fn merge_keyed_runs_budgeted<M: Record>(
    job: &str,
    runs: Vec<KeyedRun<M>>,
    store: &mut SpillStore<'_>,
) -> Result<BudgetedShuffle<M>, EngineError> {
    let budget = store.budget();
    let mut buckets: Vec<(ReducerId, BucketSource<M>)> = Vec::new();
    let mut stats = ShuffleStats::default();
    let mut walk = KeyMajor::new(runs);
    while let Some((key, segments)) = walk.next_key() {
        let spill = |store: &mut SpillStore<'_>, values: Vec<M>| {
            store
                .spill_run(key, values)
                .map_err(|e| EngineError::Spill {
                    job: job.to_string(),
                    reducer: key,
                    detail: e.to_string(),
                })
        };
        let segments: Vec<Vec<M>> = segments.collect();
        let total: u64 = segments.iter().map(|s| stats.add_segment(s)).sum();
        // No prefix of the bucket exceeds a budget its total fits.
        if total <= budget {
            buckets.push((key, BucketSource::InMemory(segments)));
            continue;
        }
        let mut values: Vec<M> = Vec::new();
        let mut buffered = 0u64;
        let mut spilled: Vec<SpillRun> = Vec::new();
        for value in segments.into_iter().flatten() {
            buffered += value.approx_bytes();
            values.push(value);
            if buffered > budget {
                spilled.push(spill(store, std::mem::take(&mut values))?);
                buffered = 0;
            }
        }
        if !values.is_empty() {
            spilled.push(spill(store, values)?);
        }
        store.note_bucket();
        buckets.push((key, BucketSource::Spilled(store.bucket(spilled))));
    }
    Ok((buckets, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Emitter;
    use crate::observe::MonotonicClock;

    fn store(budget: u64) -> SpillStore<'static> {
        SpillStore::new(budget, Arc::new(MonotonicClock::new()), None)
    }

    /// One map worker's run, built the way the map phase builds it.
    fn run_of<M>(pairs: impl IntoIterator<Item = (ReducerId, M)>) -> KeyedRun<M> {
        let mut e = Emitter::default();
        for (k, v) in pairs {
            e.emit(k, v);
        }
        e.finish().0
    }

    /// Buckets with their segments concatenated.
    fn flat<M: Clone>(buckets: &[(ReducerId, Vec<Vec<M>>)]) -> Vec<(ReducerId, Vec<M>)> {
        (buckets.iter())
            .map(|(key, segments)| (*key, segments.concat()))
            .collect()
    }

    #[test]
    fn merge_orders_keys_and_preserves_value_order() {
        // Two runs as two map workers would produce them.
        let (buckets, stats) = merge_keyed_runs(vec![
            run_of([(5u64, 'a'), (1, 'b'), (5, 'c')]),
            run_of([(1, 'd'), (3, 'e')]),
        ]);
        assert_eq!(
            buckets,
            vec![
                (1, vec![vec!['b'], vec!['d']]),
                (3, vec![vec!['e']]),
                (5, vec![vec!['a', 'c']])
            ]
        );
        assert_eq!(stats.pairs, 5);
        assert_eq!(stats.bytes, 5 * (4 + 8)); // char is 4 bytes + 8-byte key
    }

    #[test]
    fn merge_breaks_key_ties_by_run_index() {
        // Every run holds key 0; values must come out in run order.
        let (buckets, _) = merge_keyed_runs(vec![
            run_of([(0u64, 1u64), (0, 2)]),
            run_of([(0, 3)]),
            run_of([(0, 4), (0, 5)]),
        ]);
        assert_eq!(flat(&buckets), vec![(0, vec![1, 2, 3, 4, 5])]);
        assert_eq!(buckets[0].1.len(), 3, "one segment per run, none appended");
    }

    #[test]
    fn merge_handles_empty_runs() {
        let (buckets, stats) =
            merge_keyed_runs(vec![Vec::new(), run_of([(2u64, 9u64)]), Vec::new()]);
        assert_eq!(flat(&buckets), vec![(2, vec![9])]);
        assert_eq!(stats.pairs, 1);
        let (empty, stats) = merge_keyed_runs(Vec::<KeyedRun<u64>>::new());
        assert!(empty.is_empty());
        assert_eq!(stats, ShuffleStats::default());
    }

    #[test]
    fn budgeted_merge_splits_buckets_at_flush_points() {
        // One key, 8-byte values, budget 32: a run flushes after every 5th
        // value (40 > 32), so 12 values make 2 full runs + a 2-value tail —
        // wherever the boundary between the two map runs falls.
        let runs = vec![
            run_of((0..7u64).map(|v| (0, v))),
            run_of((7..12u64).map(|v| (0, v))),
        ];
        let mut store = store(32);
        let (buckets, stats) = merge_keyed_runs_budgeted("flush", runs, &mut store).unwrap();
        assert_eq!(stats.pairs, 12);
        assert_eq!(buckets.len(), 1);
        let (key, source) = &buckets[0];
        assert_eq!(*key, 0);
        assert!(source.is_spilled());
        assert_eq!(source.len(), 12);
        let (spill_stats, _) = store.finish();
        assert_eq!(spill_stats.buckets, 1);
        assert_eq!(spill_stats.runs, 3);
        assert_eq!(spill_stats.bytes, 12 * 8);
    }

    #[test]
    fn budgeted_merge_keeps_a_bucket_at_the_budget_resident() {
        // Budget 32: key 3's four 8-byte values fill it exactly and stay
        // resident, as the two map runs' segments; key 5's fifth value
        // overflows it.
        let runs = vec![
            run_of([(3u64, 1u64), (3, 2), (5, 10), (5, 11)]),
            run_of([(3, 3), (3, 4), (5, 12), (5, 13), (5, 14)]),
        ];
        let mut store = store(32);
        let (buckets, stats) = merge_keyed_runs_budgeted("edge", runs, &mut store).unwrap();
        assert_eq!(stats.pairs, 9);
        match &buckets[..] {
            [(3, BucketSource::InMemory(segments)), (5, spilled)] => {
                assert_eq!(segments, &vec![vec![1, 2], vec![3, 4]]);
                assert!(spilled.is_spilled());
                assert_eq!(spilled.len(), 5);
            }
            other => panic!("unexpected buckets {other:?}"),
        }
        assert_eq!(store.finish().0.buckets, 1);
    }

    #[test]
    fn spill_layout_equals_flush_points_of_the_reference_stream() {
        // Variable-size values over a hot key, four warm keys and a key too
        // small to spill, mapped by three workers.
        let pairs: Vec<(ReducerId, String)> = (0..3000u64)
            .map(|n| match n {
                n if n % 100 == 1 => (9, "lonely".to_string()),
                n if n % 3 == 0 => (0, "x".repeat(n as usize % 7)),
                n => (n % 5, "y".repeat(n as usize % 11)),
            })
            .collect();
        // The stream by definition: emissions in chunk order, stably sorted.
        let mut stream = pairs.clone();
        stream.sort_by_key(|(k, _)| *k);
        for budget in [64u64, 256, 4096] {
            let mut want: Vec<(String, usize)> = Vec::new();
            let mut want_stats = SpillStats::default();
            for bucket in stream.chunk_by(|a, b| a.0 == b.0) {
                let (mut cuts, mut buffered, mut len) = (Vec::new(), 0u64, 0usize);
                for (_, v) in bucket {
                    (buffered, len) = (buffered + v.approx_bytes(), len + 1);
                    if buffered > budget {
                        cuts.push(std::mem::take(&mut len));
                        buffered = 0;
                    }
                }
                if cuts.is_empty() {
                    continue; // stayed resident
                }
                cuts.extend((len > 0).then_some(len));
                want_stats.buckets += 1;
                want_stats.bytes += bucket.iter().map(|(_, v)| v.approx_bytes()).sum::<u64>();
                for len in cuts {
                    want.push((format!("spill/{}/{}", bucket[0].0, want_stats.runs), len));
                    want_stats.runs += 1;
                }
            }
            want.sort();

            let runs = pairs.chunks(1000).map(|c| run_of(c.to_vec())).collect();
            let mut store = store(budget);
            let (buckets, _) = merge_keyed_runs_budgeted("layout", runs, &mut store).unwrap();
            let dfs = Arc::clone(store.dfs());
            let got: Vec<(String, usize)> = dfs
                .list()
                .into_iter()
                .map(|path| {
                    let len = dfs.read::<String>(&path).unwrap().len();
                    (path, len)
                })
                .collect();
            assert_eq!(got, want, "budget {budget}");
            assert_eq!(store.finish().0, want_stats, "budget {budget}");
            for (key, source) in &buckets {
                let prefix = format!("spill/{key}/");
                let spilled = want.iter().any(|(path, _)| path.starts_with(&prefix));
                assert_eq!(source.is_spilled(), spilled, "budget {budget} key {key}");
            }
            // Key 9 (30 values, 420 bytes) only stays resident at 4096.
            assert_eq!(want_stats.buckets, if budget == 4096 { 5 } else { 6 });
        }
    }

    #[test]
    fn shuffle_spill_failure_names_the_bucket_being_flushed() {
        // Key 2 stays under the 32-byte budget; key 5 is the first bucket
        // to flush, and the path of that first run is already taken.
        let runs = vec![
            run_of([(5u64, 1u64), (2, 2), (5, 3)]),
            run_of((4..10u64).map(|v| (5, v))),
        ];
        let mut store = store(32);
        store.dfs().write("spill/5/0", vec![0u64]).unwrap();
        let err = merge_keyed_runs_budgeted("occupied", runs, &mut store).unwrap_err();
        match err {
            EngineError::Spill {
                job,
                reducer,
                detail,
            } => {
                assert_eq!(job, "occupied");
                assert_eq!(reducer, 5);
                assert!(detail.contains("spill/5/0"), "{detail}");
            }
            other => panic!("expected Spill, got {other:?}"),
        }
    }
}
