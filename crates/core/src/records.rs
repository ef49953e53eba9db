//! Record types flowing through the MapReduce jobs.

use crate::output::{OutputMode, Tuples};
use ij_interval::{Interval, RelId, TupleId};
use ij_mapreduce::Record;
use serde::{Deserialize, Serialize};

/// A single-attribute interval record: one tuple of one (logical) relation.
/// The workhorse of the Colocation / Sequence / Hybrid algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IvRec {
    /// Logical relation the tuple belongs to.
    pub rel: RelId,
    /// The tuple's id within its relation.
    pub tid: TupleId,
    /// The tuple's interval (attribute 0).
    pub iv: Interval,
}

impl Record for IvRec {}

/// An [`IvRec`] plus the RCCIS replication flag — the record format the
/// paper's first RCCIS cycle writes to the DFS (Section 6.1: "writes out all
/// the intervals on the disk along-with a flag"). The pipeline hands the
/// join a set of flagged keys instead; this 32-byte record stays public as
/// the one `ij-perf`'s Dfs layer writes and reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlagRec {
    /// The interval record.
    pub rec: IvRec,
    /// Whether RCCIS selected the interval for replication.
    pub replicate: bool,
}

impl Record for FlagRec {}

/// A record of a composite join ([`crate::kernel::composite`]), a row of
/// the window kernel's multi-slot case: one side's tuple ids and the
/// intervals of its slots — a cascade composite's joined relations, an
/// FCTS component result's members, or a Gen-Matrix tuple's attributes
/// (one id, an interval per attribute). What the slots stand for is the
/// caller's plan, not the record's.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompRec {
    /// The join side the record belongs to.
    pub side: u16,
    /// Tuple ids.
    pub tids: Vec<TupleId>,
    /// One interval per slot.
    pub ivs: Vec<Interval>,
}

impl Record for CompRec {
    /// A four-byte side tag, four bytes per id and sixteen per interval.
    fn approx_bytes(&self) -> u64 {
        4 + self.tids.len() as u64 * 4 + self.ivs.len() as u64 * 16
    }
}

/// Reducer output: the reducer's block of materialized output tuples or
/// its count of them — at most one record per reducer either way.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutRec {
    /// The output tuples this reducer found, in emission order.
    Rows(Tuples),
    /// This reducer found `n` output tuples (count-only mode).
    Count(u64),
}

impl OutRec {
    /// A reducer's empty accumulator for `mode`; rows hold `arity` ids.
    pub fn new(mode: OutputMode, arity: usize) -> OutRec {
        match mode {
            OutputMode::Materialize => OutRec::Rows(Tuples::new(arity)),
            OutputMode::Count => OutRec::Count(0),
        }
    }

    /// Output tuples the record stands for.
    pub fn tuples(&self) -> u64 {
        match self {
            OutRec::Rows(rows) => rows.len() as u64,
            OutRec::Count(n) => *n,
        }
    }

    /// Hands the record to the engine unless it stands for no tuple.
    pub fn emit_into(self, out: &mut Vec<OutRec>) {
        if self.tuples() > 0 {
            out.push(self);
        }
    }
}

impl Record for OutRec {
    /// A row is charged its ids plus a tag byte, as when each was a record.
    fn approx_bytes(&self) -> u64 {
        match self {
            OutRec::Rows(rows) => rows.len() as u64 * (1 + rows.arity() as u64 * 4),
            OutRec::Count(_) => 9,
        }
    }

    fn rows(&self) -> u64 {
        match self {
            OutRec::Rows(rows) => rows.len() as u64,
            OutRec::Count(_) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    #[test]
    fn record_sizes_reasonable() {
        let r = IvRec {
            rel: RelId(0),
            tid: 1,
            iv: iv(0, 5),
        };
        assert!(r.approx_bytes() >= 20);
        let t = CompRec {
            side: 0,
            tids: vec![1],
            ivs: vec![iv(0, 5), iv(1, 1)],
        };
        assert_eq!(t.approx_bytes(), 8 + 32);
        let mut table = Tuples::new(3);
        table.push_row([1, 2, 3]);
        table.push_row([4, 5, 6]);
        let rows = OutRec::Rows(table);
        assert_eq!(
            (rows.approx_bytes(), rows.rows(), rows.tuples()),
            (26, 2, 2)
        );
        let count = OutRec::Count(9);
        assert_eq!(
            (count.approx_bytes(), count.rows(), count.tuples()),
            (9, 1, 9)
        );
    }
}
