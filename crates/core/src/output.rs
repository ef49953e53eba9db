//! Join outputs and run statistics.

use crate::records::OutRec;
use ij_interval::TupleId;
use ij_mapreduce::JobChain;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One output tuple: the contributing tuple id of every logical relation,
/// indexed by relation (`tuple[r]` comes from relation `r`).
pub type OutputTuple = Vec<TupleId>;

/// Output tuples as a list of blocks, each a flat arity-strided table: a
/// block's row `i` is `block[i * arity..][..arity]` and `row[r]` the tuple
/// id relation `r` contributes. The same type is the materializing kernel
/// sink, a reducer's [`OutRec::Rows`] block and [`JoinOutput::tuples`], so
/// an output tuple is `arity` ids appended to a buffer and never a heap row
/// of its own; [`append`](Tuples::append) moves the other table's blocks
/// behind this one's and never copies an id.
///
/// Whoever knows the query passes `arity` to [`Tuples::new`]; the default
/// table has none (0) and can only [`append`](Tuples::append) blocks,
/// adopting the first one's. Tables compare by rows, so tables without
/// rows are equal whatever arity they were built with.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Tuples {
    arity: usize,
    /// Never holds an empty block.
    blocks: Vec<Vec<TupleId>>,
}

impl Tuples {
    /// An empty table whose rows will hold `arity` ids.
    pub fn new(arity: usize) -> Tuples {
        assert!(arity > 0, "a row holds one id per relation");
        Tuples {
            arity,
            blocks: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        let ids: usize = self.blocks.iter().map(Vec::len).sum();
        ids.checked_div(self.arity).unwrap_or(0)
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Ids per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The rows, in insertion order.
    pub fn iter(&self) -> Rows<'_> {
        let stride = self.arity.max(1);
        Rows {
            blocks: self.blocks.iter(),
            stride,
            front: [].chunks_exact(stride),
            back: [].chunks_exact(stride),
        }
    }

    /// The first row.
    pub fn first(&self) -> Option<&[TupleId]> {
        self.iter().next()
    }

    /// The last row.
    pub fn last(&self) -> Option<&[TupleId]> {
        self.iter().next_back()
    }

    /// Appends one row to the last block; panics unless it yields exactly
    /// `arity` ids.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = TupleId>) {
        if self.blocks.is_empty() {
            self.blocks.push(Vec::new());
        }
        let block = self.blocks.last_mut().expect("a block");
        let before = block.len();
        block.extend(row);
        assert_eq!(block.len() - before, self.arity, "row length");
    }

    /// Moves `other`'s rows behind this table's: its blocks join the list.
    pub fn append(&mut self, mut other: Tuples) {
        if other.is_empty() {
            return;
        }
        assert!(
            self.arity == 0 || self.arity == other.arity,
            "appending rows of {} ids to rows of {}",
            other.arity,
            self.arity
        );
        self.arity = other.arity;
        self.blocks.append(&mut other.blocks);
    }
}

/// The rows of a [`Tuples`], front to back or back to front.
#[derive(Clone)]
pub struct Rows<'a> {
    blocks: std::slice::Iter<'a, Vec<TupleId>>,
    stride: usize,
    /// The rest of the block being read from the front / from the back.
    front: std::slice::ChunksExact<'a, TupleId>,
    back: std::slice::ChunksExact<'a, TupleId>,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [TupleId];
    fn next(&mut self) -> Option<&'a [TupleId]> {
        loop {
            if let Some(row) = self.front.next() {
                return Some(row);
            }
            match self.blocks.next() {
                Some(block) => self.front = block.chunks_exact(self.stride),
                None => return self.back.next(),
            }
        }
    }
}

impl<'a> DoubleEndedIterator for Rows<'a> {
    fn next_back(&mut self) -> Option<&'a [TupleId]> {
        loop {
            if let Some(row) = self.back.next_back() {
                return Some(row);
            }
            match self.blocks.next_back() {
                Some(block) => self.back = block.chunks_exact(self.stride),
                None => return self.front.next_back(),
            }
        }
    }
}

impl<'a> IntoIterator for &'a Tuples {
    type Item = &'a [TupleId];
    type IntoIter = Rows<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Tuples {
    fn eq(&self, other: &Tuples) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Tuples {}

impl fmt::Debug for Tuples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

/// Whether reducers materialize output tuples or only count them.
///
/// A three-way interval join's output can be orders of magnitude larger
/// than its input (Table 1's workloads produce hundreds of millions of
/// tuples at paper scale); the benchmark harness runs in `Count` mode while
/// tests run in `Materialize` mode and compare against the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputMode {
    /// Emit every output tuple.
    Materialize,
    /// Emit only per-reducer counts.
    Count,
}

/// Extra per-run statistics that the paper's tables report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Intervals selected for replication (Table 1, "# Intervals
    /// Replicated"). For All-Rep this counts every interval of every
    /// replicated relation; for RCCIS only the flagged ones.
    pub replicated_intervals: Option<u64>,
    /// Consistent reducers used vs the full matrix size (Sections 7–9,
    /// e.g. 55-ish of 216 for Q2 with o=6).
    pub consistent_cells: Option<(u64, u64)>,
    /// Partitions per dimension `(k_d)` of the grid a component-matrix
    /// setting joined on (empty for other families).
    pub grid: Vec<usize>,
    /// Fraction of intervals pruned by PASM, per relation (Table 3's
    /// "% intervals pruned in R1").
    pub pruned_fraction: Vec<(String, f64)>,
}

/// The result of running a join algorithm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinOutput {
    /// The mode the run used.
    pub mode: OutputMode,
    /// Materialized tuples (empty in `Count` mode), in no particular order.
    pub tuples: Tuples,
    /// Total output tuples (equals `tuples.len()` when materializing).
    pub count: u64,
    /// Per-cycle MapReduce metrics.
    pub chain: JobChain,
    /// Table-level statistics.
    pub stats: RunStats,
}

impl JoinOutput {
    /// Creates an output from reducer [`OutRec`]s.
    pub fn from_records(mode: OutputMode, records: Vec<OutRec>, chain: JobChain) -> Self {
        let mut tuples = Tuples::default();
        let mut count = 0u64;
        for r in records {
            count += r.tuples();
            if let OutRec::Rows(block) = r {
                tuples.append(block);
            }
        }
        JoinOutput {
            mode,
            tuples,
            count,
            chain,
            stats: RunStats::default(),
        }
    }

    /// The tuples in canonical (sorted) order — for comparisons in tests.
    pub fn sorted_tuples(&self) -> Vec<OutputTuple> {
        let mut t: Vec<OutputTuple> = self.tuples.iter().map(<[TupleId]>::to_vec).collect();
        t.sort_unstable();
        t
    }

    /// Asserts there are no duplicate output tuples and returns the sorted
    /// list. Panics with a descriptive message otherwise (used by tests —
    /// every algorithm must compute each output tuple exactly once).
    pub fn assert_no_duplicates(&self) -> Vec<OutputTuple> {
        let t = self.sorted_tuples();
        for w in t.windows(2) {
            assert_ne!(w[0], w[1], "duplicate output tuple {:?}", w[0]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(arity: usize, rows: &[&[TupleId]]) -> Tuples {
        let mut t = Tuples::new(arity);
        for r in rows {
            t.push_row(r.iter().copied());
        }
        t
    }

    fn rows(arity: usize, rows: &[&[TupleId]]) -> OutRec {
        OutRec::Rows(table(arity, rows))
    }

    #[test]
    fn from_records_mixes_counts_and_tuples() {
        let out = JoinOutput::from_records(
            OutputMode::Materialize,
            vec![
                rows(2, &[&[1, 2]]),
                OutRec::Count(5),
                rows(2, &[]),
                rows(2, &[&[0, 0], &[7, 1]]),
            ],
            JobChain::new(),
        );
        assert_eq!(out.count, 8);
        assert_eq!(out.tuples.len(), 3);
        assert_eq!(out.tuples.first(), Some(&[1, 2][..]));
        assert_eq!(out.tuples.last(), Some(&[7, 1][..]));
        assert_eq!(format!("{:?}", out.tuples), "[[1, 2], [0, 0], [7, 1]]");
        assert_eq!(
            out.sorted_tuples(),
            vec![vec![0, 0], vec![1, 2], vec![7, 1]]
        );
    }

    #[test]
    fn no_records_make_an_empty_table() {
        let out = JoinOutput::from_records(OutputMode::Count, Vec::new(), JobChain::new());
        assert_eq!((out.count, out.tuples.len()), (0, 0));
        assert!(out.tuples.is_empty());
        assert_eq!(out.tuples.iter().next(), None);
        assert_eq!(out.tuples, Tuples::new(3));
    }

    #[test]
    fn equality_reads_rows_not_buffers() {
        assert_eq!(table(2, &[&[9, 9], &[9, 9]]), table(2, &[&[9, 9], &[9, 9]]));
        assert_ne!(table(2, &[&[9, 9], &[9, 9]]), table(2, &[&[9, 9], &[9, 8]]));
        // Same ids, different stride.
        assert_ne!(table(2, &[&[9, 9], &[9, 9]]), table(4, &[&[9, 9, 9, 9]]));
        // Same rows, different blocks.
        let mut split = table(2, &[&[1, 2]]);
        split.append(table(2, &[&[3, 4]]));
        assert_eq!(split, table(2, &[&[1, 2], &[3, 4]]));
        assert_ne!(split, table(2, &[&[1, 2]]));
    }

    #[test]
    fn rows_run_across_blocks_from_both_ends() {
        let mut t = Tuples::default();
        let blocks: [&[&[TupleId]]; 4] =
            [&[&[1, 2], &[3, 4]], &[], &[&[5, 6]], &[&[7, 8], &[9, 10]]];
        for block in blocks {
            t.append(table(2, block));
        }
        t.push_row([11, 12]);
        assert_eq!((t.len(), t.arity()), (6, 2));
        let forward: Vec<&[TupleId]> = t.iter().collect();
        let mut backward: Vec<&[TupleId]> = t.iter().rev().collect();
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(forward.concat(), (1..=12).collect::<Vec<TupleId>>());
        // Both ends meet in the middle of a block.
        let mut rows = t.iter();
        assert_eq!(rows.next(), Some(&[1, 2][..]));
        assert_eq!(rows.next_back(), Some(&[11, 12][..]));
        assert_eq!(rows.next_back(), Some(&[9, 10][..]));
        assert_eq!(rows.collect::<Vec<_>>(), [&[3, 4][..], &[5, 6], &[7, 8]]);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn short_row_is_refused() {
        Tuples::new(3).push_row([1, 2]);
    }

    #[test]
    #[should_panic(expected = "appending rows of 2 ids to rows of 3")]
    fn blocks_of_different_arity_do_not_mix() {
        Tuples::new(3).append(table(2, &[&[1, 2]]));
    }

    #[test]
    fn no_duplicates_passes_on_unique() {
        let out = JoinOutput::from_records(
            OutputMode::Materialize,
            vec![rows(1, &[&[1], &[2]])],
            JobChain::new(),
        );
        assert_eq!(out.assert_no_duplicates().len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate output tuple")]
    fn no_duplicates_panics_on_dupe() {
        let out = JoinOutput::from_records(
            OutputMode::Materialize,
            vec![rows(1, &[&[1]]), rows(1, &[&[1]])],
            JobChain::new(),
        );
        out.assert_no_duplicates();
    }
}
