//! A deterministic, in-process MapReduce engine.
//!
//! This crate is the substrate the paper's join algorithms run on. The paper
//! evaluated on Hadoop 0.20.2 over a 16-core cluster; the algorithms,
//! however, are defined purely in terms of the MapReduce *contract*:
//!
//! 1. map functions turn each input record into intermediate
//!    `(reducer-id, value)` pairs;
//! 2. the framework routes all pairs with the same key to the same reducer;
//! 3. reducers process their group and emit output records;
//! 4. multi-cycle algorithms chain jobs through a distributed file system.
//!
//! The engine implements that contract faithfully on an in-process thread
//! pool and — crucially for reproducing the paper's evaluation — records the
//! quantities the paper's analysis is about:
//!
//! * the number of intermediate key-value pairs (communication volume),
//! * per-reducer load (the load-balancing story of Sections 6–7),
//! * a simulated cluster elapsed time in which reducers are packed onto a
//!   fixed number of *slots* (16 in the paper), so a straggler reducer
//!   dominates a cycle exactly as it would on the real cluster.
//!
//! Execution is deterministic: shuffle groups are keyed and value order is
//! the mappers' emission order, independent of thread count. The shuffle is
//! *partitioned* like Hadoop's, and partitioned at emit: each map worker's
//! [`Emitter`] files every pair under its reducer key, so the worker ends
//! with a key-grouped run, and [`merge_keyed_runs`] hands each reducer
//! bucket over as the runs' segments for its key, in chunk order — no code
//! path sorts, or compares, individual intermediate pairs, and none copies
//! a pair after the emit.
//! Reducers take ownership of their bucket (cloned per attempt only when a
//! [`FaultPlan`] is attached), and each phase's wall time and byte volume is
//! reported separately in [`JobMetrics`].
//!
//! Reducers consume their bucket as a pull-based [`ValueStream`]. With
//! [`ClusterConfig::reduce_memory_budget`] set, a bucket whose values
//! exceed the budget is spilled to an engine-internal [`Dfs`] as
//! consecutive runs and streamed back on demand (see [`spill`]) — the reducer body is
//! identical, and outputs stay byte-identical, either way.
//!
//! ```
//! use ij_mapreduce::{Engine, ClusterConfig, Emitter, ReduceCtx, ValueStream};
//!
//! let engine = Engine::new(ClusterConfig::default());
//! // Word-count style: route each number to key (n % 3) and sum per key.
//! let out = engine.run_job(
//!     "sum-mod-3",
//!     &[1u64, 2, 3, 4, 5, 6],
//!     |&n: &u64, out: &mut Emitter<u64>| out.emit(n % 3, n),
//!     |ctx: &mut ReduceCtx, values: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
//!         out.push((ctx.key, values.sum()));
//!     },
//! ).unwrap();
//! assert_eq!(out.outputs, vec![(0, 9), (1, 5), (2, 7)]);
//! assert_eq!(out.metrics.intermediate_pairs, 6);
//! ```

// A panic in a worker tears the job down at a schedule-dependent point, so
// no engine code may panic: failures are typed `EngineError`s (DESIGN.md
// §11). The lints cover the whole crate — every function the engine can
// reach lives here — and an exception is written at its site as
// `#[allow(clippy::…, reason = "why it cannot fire")]`; a bare `#[allow]`
// is itself a diagnostic. Test code may unwrap freely.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

pub mod chain;
pub mod cost;
pub mod dfs;
pub mod engine;
pub mod error;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod observe;
pub mod record;
pub mod spill;
mod sync;

pub use chain::JobChain;
pub use cost::{CostModel, PhaseCost};
pub use dfs::{Dfs, DfsError, DfsStats};
pub use engine::{merge_keyed_runs, ClusterConfig, Engine, JobOutput, ShuffleStats};
pub use error::EngineError;
pub use fault::FaultPlan;
pub use job::{
    BucketSource, Emitter, KeyedRun, MapCtx, Mapper, ReduceCtx, Reducer, ReducerId, ValueStream,
};
pub use metrics::{is_execution_shape, Counters, JobMetrics, ReducerLoad, SkewReport};
pub use observe::{
    Clock, Event, EventKind, Histogram, MonotonicClock, Observer, Straggler, TelemetrySnapshot,
    VirtualClock,
};
pub use record::Record;
pub use spill::{SpillStats, SpilledBucket};
