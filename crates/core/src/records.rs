//! Record types flowing through the MapReduce jobs.

use ij_interval::{AttrId, Interval, RelId, TupleId};
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
/// first RCCIS cycle writes to the DFS (Section 6.1: "writes out all the
/// intervals on the disk along-with a flag").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlagRec {
    /// The interval record.
    pub rec: IvRec,
    /// Whether RCCIS selected the interval for replication.
    pub replicate: bool,
}

impl Record for FlagRec {}

/// A full multi-attribute tuple record, used by Gen-Matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TupleRec {
    /// Logical relation.
    pub rel: RelId,
    /// Tuple id.
    pub tid: TupleId,
    /// All attribute values.
    pub attrs: Vec<Interval>,
}

impl Record for TupleRec {
    fn approx_bytes(&self) -> u64 {
        8 + self.attrs.len() as u64 * 16
    }
}

/// One attribute value of one tuple, tagged with its join-graph vertex —
/// the record Gen-Matrix's marking cycle shuffles (a tuple contributes one
/// `VtxRec` per join attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VtxRec {
    /// The relation.
    pub rel: RelId,
    /// The attribute within the relation.
    pub attr: AttrId,
    /// The tuple's id.
    pub tid: TupleId,
    /// The attribute's interval value.
    pub iv: Interval,
}

impl Record for VtxRec {}

/// A partial join result produced by cascade stages: tuple ids and the
/// intervals of the relations joined so far. Which relations those are is
/// carried by the cascade's stage plan, not the record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompRec {
    /// Tuple ids, parallel to the stage plan's joined-relation list.
    pub tids: Vec<TupleId>,
    /// Intervals, parallel to `tids`.
    pub ivs: Vec<Interval>,
}

impl Record for CompRec {
    fn approx_bytes(&self) -> u64 {
        self.tids.len() as u64 * 20 + 8
    }
}

/// Reducer output: either one materialized output tuple (ids indexed by
/// relation) or a partial count of output tuples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutRec {
    /// One output tuple: `ids[r]` is the tuple id contributed by relation r.
    Tuple(Vec<TupleId>),
    /// This reducer found `n` output tuples (count-only mode).
    Count(u64),
}

impl Record for OutRec {
    fn approx_bytes(&self) -> u64 {
        match self {
            OutRec::Tuple(ids) => 1 + ids.len() as u64 * 4,
            OutRec::Count(_) => 9,
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
        let t = TupleRec {
            rel: RelId(0),
            tid: 1,
            attrs: vec![iv(0, 5), iv(1, 1)],
        };
        assert_eq!(t.approx_bytes(), 8 + 32);
        assert_eq!(OutRec::Tuple(vec![1, 2, 3]).approx_bytes(), 13);
        assert_eq!(OutRec::Count(9).approx_bytes(), 9);
    }
}
