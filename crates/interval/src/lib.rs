//! Interval data model and Allen's interval algebra.
//!
//! This crate is the foundation of the interval-join reproduction: it defines
//! the [`Interval`] type, the thirteen relations of Allen's interval algebra
//! ([`AllenPredicate`], paper Figure 1), the 1-D [`Partitioning`] of the time
//! range, and the three building-block map-side operations of the paper's
//! Section 3 — [`ops::project`], [`ops::split`] and [`ops::replicate`] — that
//! every join algorithm is assembled from.
//!
//! # Quick tour
//!
//! ```
//! use ij_interval::{Interval, AllenPredicate, Partitioning, ops};
//!
//! let u = Interval::new(3, 18).unwrap();
//! let v = Interval::new(10, 25).unwrap();
//! assert_eq!(AllenPredicate::relate(u, v), AllenPredicate::Overlaps);
//! assert!(AllenPredicate::Overlaps.holds(u, v));
//!
//! // Four partitions of [0, 40): [0,10) [10,20) [20,30) [30,40)
//! let p = Partitioning::equi_width(0, 40, 4).unwrap();
//! assert_eq!(ops::project(u, &p), 0);           // u starts in p0
//! assert_eq!(ops::split(u, &p), 0..2);          // u touches p0 and p1
//! assert_eq!(ops::replicate(u, &p), 0..4);      // p0 and everything after
//! ```

pub mod allen;
pub mod interval;
pub mod ops;
pub mod partition;
pub mod relation;
pub mod set;
pub mod tuple;

pub use allen::{bounds_contain, AllenPredicate, MapOp, OperandOrder, PredicateClass};
pub use interval::{Interval, IntervalError, Time};
pub use partition::{PartitionIndex, Partitioning, PartitioningError};
pub use relation::{RelId, Relation};
pub use tuple::{AttrId, Tuple, TupleId};
