//! Facade crate: re-exports the whole interval-joins-on-MapReduce stack —
//! a Rust reproduction of *Processing Interval Joins On Map-Reduce*
//! (Chawda et al., EDBT 2014).
//!
//! This is the crate downstream users depend on; the workspace's examples
//! and cross-crate integration tests are built against it.
//!
//! * [`interval`] — interval model, Allen's algebra, partitioning, ops.
//! * [`mapreduce`] — the deterministic MapReduce engine.
//! * [`query`] — join query model, components, less-than-order.
//! * [`join`] — the join algorithms (RCCIS, All-Matrix, …).
//! * [`datagen`] — synthetic and packet-train workload generators.
//!
//! # Example
//!
//! ```
//! use interval_joins_mr::prelude::*;
//!
//! // The paper's Q0-style colocation query, in its own notation.
//! let query = parse_query("R1 overlaps R2 and R2 contains R3")?;
//!
//! let iv = |s, e| Interval::new(s, e).unwrap();
//! let input = JoinInput::bind_owned(
//!     &query,
//!     vec![
//!         Relation::from_intervals("R1", vec![iv(0, 40), iv(70, 90)]),
//!         Relation::from_intervals("R2", vec![iv(15, 60), iv(75, 95)]),
//!         Relation::from_intervals("R3", vec![iv(20, 50), iv(80, 85)]),
//!     ],
//! )?;
//!
//! // A simulated 16-slot cluster, like the paper's; the planner picks
//! // RCCIS (Section 6.1) for this query class.
//! let engine = Engine::new(ClusterConfig::with_slots(16));
//! let algorithm = interval_joins_mr::join::plan(&query, Default::default());
//! assert_eq!(algorithm.name(), "RCCIS");
//!
//! let out = algorithm.run(&query, &input, &engine)?;
//! assert_eq!(out.count, 2);
//! assert_eq!(out.chain.num_cycles(), 2); // RCCIS = marking + join
//! // One flat id table; a row is a `&[TupleId]`, `row[r]` from relation r.
//! for row in &out.tuples {
//!     assert!(row == [0, 0, 0] || row == [1, 1, 1]);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use ij_core as join;
pub use ij_datagen as datagen;
pub use ij_interval as interval;
pub use ij_mapreduce as mapreduce;
pub use ij_query as query;

pub mod prelude {
    //! One-stop imports for typical use.
    pub use ij_core::{Algorithm, JoinInput, JoinOutput, OutputMode, OutputTuple, Tuples};
    pub use ij_interval::{AllenPredicate, Interval, Partitioning, RelId, Relation};
    pub use ij_mapreduce::{ClusterConfig, Engine};
    pub use ij_query::{parse_query, JoinQuery};
}
