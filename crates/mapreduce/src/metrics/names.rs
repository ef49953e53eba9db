//! The single registry of every counter, histogram and telemetry-series
//! name the production engine and algorithms record.
//!
//! A name is a [`Counter`], and only this module can construct one, so
//! every recording call — `Emitter::inc`, `ReduceCtx::inc`,
//! `Counters::inc`, the telemetry fold — takes a name declared here: an
//! unregistered name, literal or computed, does not build. Readers
//! (`Counters::get`, `JobChain::counter`, the classifiers) take `&str`,
//! which a `&Counter` derefs to.
//!
//! Two determinism classifiers used to live apart —
//! `metrics::is_execution_shape` for counters and
//! a series classifier next to the telemetry snapshot — and
//! could silently drift, corrupting the byte-diffs the determinism audit
//! (`tests/audit_determinism.rs`) builds on. Both now live *here*, driven
//! by the same shared prefix constants, so renames and classification
//! changes have exactly one home.

use std::fmt;
use std::ops::Deref;

/// A registered metric name: the only key a recording call accepts.
///
/// The field is private, so the constants below are the only values; a
/// string passed where a name is recorded is a type error:
///
/// ```compile_fail
/// use ij_mapreduce::ReduceCtx;
///
/// fn count(ctx: &mut ReduceCtx) {
///     ctx.inc("join.candidates", 1); // expected `&Counter`, found `&str`
/// }
/// ```
///
/// ```
/// use ij_mapreduce::metrics::names;
/// use ij_mapreduce::ReduceCtx;
///
/// fn count(ctx: &mut ReduceCtx) {
///     ctx.inc(names::JOIN_CANDIDATES, 1);
/// }
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Counter(&'static str);

impl Counter {
    /// The name with its static lifetime — what an emitter's counter slot
    /// holds, and whose address identifies the name on its hit path.
    pub(crate) const fn as_static(&self) -> &'static str {
        self.0
    }
}

impl Deref for Counter {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

// ---------------------------------------------------------------------------
// Counters (recorded via `Emitter::inc` / `ReduceCtx::inc` /
// `Counters::inc`, merged per-name by the engine).

/// Buckets joined by the pair sweep or the window scan.
pub const KERNEL_SWEEP_BUCKETS: &Counter = &Counter("kernel.sweep_buckets");
/// Buckets joined by the merged-event-list sweep kernel.
pub const KERNEL_EVENT_SWEEP_BUCKETS: &Counter = &Counter("kernel.event_sweep_buckets");
/// Never recorded (sequence buckets are window-scan buckets); declared
/// because `perf/` compiles against it.
pub const KERNEL_MERGE_BUCKETS: &Counter = &Counter("kernel.merge_buckets");
/// Never recorded (mixed buckets are window-scan buckets); declared
/// because `perf/` compiles against it.
pub const KERNEL_FALLBACK_BUCKETS: &Counter = &Counter("kernel.fallback_buckets");
/// Heavy buckets split across intra-reducer worker chunks
/// (execution-shape: depends on the thread grant).
pub const KERNEL_PARALLEL_BUCKETS: &Counter = &Counter("kernel.parallel_buckets");
/// Summed per-bucket peak active-interval count of the event sweep
/// (execution-shape: the skew-driven thread budget's load signal). Also
/// recorded as a per-bucket histogram under the same name.
pub const KERNEL_ACTIVE_PEAK: &Counter = &Counter("kernel.active_peak");

/// Candidate pairs examined by a join kernel.
pub const JOIN_CANDIDATES: &Counter = &Counter("join.candidates");
/// Result pairs emitted by a join kernel.
pub const JOIN_EMITTED: &Counter = &Counter("join.emitted");

/// All-Rep: replicated key-value pairs shuffled.
pub const ALLREP_REPLICA_PAIRS: &Counter = &Counter("allrep.replica_pairs");
/// All-Rep: pairs surviving bucket projection.
pub const ALLREP_PROJECTED_PAIRS: &Counter = &Counter("allrep.projected_pairs");
/// RCCIS: split copies of the marking round — every one, the paper's
/// cycle-1 volume, including those too far from a boundary to be shipped.
pub const RCCIS_SPLIT_PAIRS: &Counter = &Counter("rccis.split_pairs");
/// PASM: pairs the paper's shuffled prune would move — every marked
/// group's records routed to their partitions — whether or not a group's
/// prune broadcast its small side instead.
pub const PASM_SHUFFLED_PRUNE_PAIRS: &Counter = &Counter("pasm.shuffled_prune_pairs");
/// Matrix settings of two or more dimensions: pairs the join stage would
/// ship on the paper's grid — `o` partitions in every dimension — whichever
/// grid it ran on.
pub const MATRIX_PAPER_GRID_JOIN_PAIRS: &Counter = &Counter("matrix.paper_grid_join_pairs");
/// RCCIS: intervals crossing a partition boundary.
pub const RCCIS_CROSSING_INTERVALS: &Counter = &Counter("rccis.crossing_intervals");
/// RCCIS: crossing intervals flagged for the merge round.
pub const RCCIS_FLAGGED_INTERVALS: &Counter = &Counter("rccis.flagged_intervals");
/// RCCIS: replicated pairs shuffled by the join round.
pub const RCCIS_REPLICA_PAIRS: &Counter = &Counter("rccis.replica_pairs");
/// RCCIS: pairs surviving bucket projection.
pub const RCCIS_PROJECTED_PAIRS: &Counter = &Counter("rccis.projected_pairs");
/// 2-way cascade: composite pairs carried between cycles.
pub const CASCADE_COMP_PAIRS: &Counter = &Counter("cascade.comp_pairs");
/// 2-way cascade: base-relation pairs read per cycle.
pub const CASCADE_BASE_PAIRS: &Counter = &Counter("cascade.base_pairs");
/// One-Bucket: row-replica copies shuffled.
pub const ONEBUCKET_ROW_COPIES: &Counter = &Counter("onebucket.row_copies");
/// One-Bucket: column-replica copies shuffled.
pub const ONEBUCKET_COL_COPIES: &Counter = &Counter("onebucket.col_copies");

/// Reduce buckets that overflowed the memory budget (execution-shape:
/// depends on `reduce_memory_budget`).
pub const SPILL_BUCKETS: &Counter = &Counter("spill.buckets");
/// Sorted runs written to the Dfs by the budgeted shuffle
/// (execution-shape).
pub const SPILL_RUNS: &Counter = &Counter("spill.runs");
/// Approximate bytes spilled (execution-shape).
pub const SPILL_BYTES: &Counter = &Counter("spill.bytes");
/// Reducers flagged below the straggler rate threshold (execution-shape:
/// rates depend on wall time). Also a telemetry series.
pub const TELEMETRY_STRAGGLERS: &Counter = &Counter("telemetry.stragglers");

/// Total intra-reduce threads granted across all buckets — the sum of
/// per-bucket grants, so a value above the bucket count means some bucket
/// ran multi-threaded (execution-shape: depends on `worker_threads`,
/// `intra_reduce_threads` and the pool's state).
pub const SCHED_GRANTS: &Counter = &Counter("sched.grants");
/// Buckets the schedule classified heavy, those whose pairs reach
/// `heavy_bucket_threshold` (execution-shape: it moves with that setting,
/// not with the data plane).
pub const SCHED_HEAVY_BUCKETS: &Counter = &Counter("sched.heavy_buckets");

// ---------------------------------------------------------------------------
// Histograms (folded from event args and durations by
// `TelemetrySnapshot::record_hist`).

/// Per-bucket pair counts in key order (data-plane).
pub const REDUCE_BUCKET_PAIRS: &Counter = &Counter("reduce.bucket_pairs");
/// One shuffle-volume sample per job (data-plane).
pub const SHUFFLE_JOB_BYTES: &Counter = &Counter("shuffle.job_bytes");
/// Per-map-task record counts (execution-shape: chunking).
pub const MAP_TASK_RECORDS: &Counter = &Counter("map.task_records");
/// Per-reducer service times (execution-shape: wall time).
pub const REDUCE_SERVICE_NS: &Counter = &Counter("reduce.service_ns");
/// Per-run spilled bytes (execution-shape: budget).
pub const SPILL_RUN_BYTES: &Counter = &Counter("spill.run_bytes");
/// Per-bucket intra-reduce thread grants in key order (execution-shape:
/// grants depend on the thread settings and pool state).
pub const SCHED_GRANT_THREADS: &Counter = &Counter("sched.grant_threads");

// ---------------------------------------------------------------------------
// Telemetry series (folded from the event stream by
// `TelemetrySnapshot::inc_series`).

/// Map-side heartbeats (execution-shape: one per map chunk quantum).
pub const HEARTBEATS_MAP: &Counter = &Counter("telemetry.heartbeats.map");
/// Reduce-side heartbeats (data-plane: pull quanta are byte-stable).
pub const HEARTBEATS_REDUCE: &Counter = &Counter("telemetry.heartbeats.reduce");
/// Jobs entered (gauge).
pub const PROGRESS_JOBS_STARTED: &Counter = &Counter("progress.jobs_started");
/// Jobs finished (gauge).
pub const PROGRESS_JOBS_FINISHED: &Counter = &Counter("progress.jobs_finished");
/// Map records processed (gauge).
pub const PROGRESS_MAP_RECORDS: &Counter = &Counter("progress.map_records");
/// Map tasks completed (gauge; execution-shape: chunk count).
pub const PROGRESS_MAP_TASKS: &Counter = &Counter("progress.map_tasks");
/// Reduce values pulled (gauge).
pub const PROGRESS_REDUCE_VALUES: &Counter = &Counter("progress.reduce_values");
/// Reducers scheduled (gauge).
pub const PROGRESS_REDUCERS: &Counter = &Counter("progress.reducers");
/// Reducers completed (gauge).
pub const PROGRESS_REDUCERS_DONE: &Counter = &Counter("progress.reducers_done");

/// Every registered metric name. The root `tests/audit_determinism.rs`
/// checks that every counter, series and histogram the audited families
/// record is listed here.
pub const ALL: &[&Counter] = &[
    KERNEL_SWEEP_BUCKETS,
    KERNEL_EVENT_SWEEP_BUCKETS,
    KERNEL_MERGE_BUCKETS,
    KERNEL_FALLBACK_BUCKETS,
    KERNEL_PARALLEL_BUCKETS,
    KERNEL_ACTIVE_PEAK,
    JOIN_CANDIDATES,
    JOIN_EMITTED,
    ALLREP_REPLICA_PAIRS,
    ALLREP_PROJECTED_PAIRS,
    RCCIS_SPLIT_PAIRS,
    PASM_SHUFFLED_PRUNE_PAIRS,
    MATRIX_PAPER_GRID_JOIN_PAIRS,
    RCCIS_CROSSING_INTERVALS,
    RCCIS_FLAGGED_INTERVALS,
    RCCIS_REPLICA_PAIRS,
    RCCIS_PROJECTED_PAIRS,
    CASCADE_COMP_PAIRS,
    CASCADE_BASE_PAIRS,
    ONEBUCKET_ROW_COPIES,
    ONEBUCKET_COL_COPIES,
    SPILL_BUCKETS,
    SPILL_RUNS,
    SPILL_BYTES,
    TELEMETRY_STRAGGLERS,
    SCHED_GRANTS,
    SCHED_HEAVY_BUCKETS,
    REDUCE_BUCKET_PAIRS,
    SHUFFLE_JOB_BYTES,
    MAP_TASK_RECORDS,
    REDUCE_SERVICE_NS,
    SPILL_RUN_BYTES,
    SCHED_GRANT_THREADS,
    HEARTBEATS_MAP,
    HEARTBEATS_REDUCE,
    PROGRESS_JOBS_STARTED,
    PROGRESS_JOBS_FINISHED,
    PROGRESS_MAP_RECORDS,
    PROGRESS_MAP_TASKS,
    PROGRESS_REDUCE_VALUES,
    PROGRESS_REDUCERS,
    PROGRESS_REDUCERS_DONE,
];

// ---------------------------------------------------------------------------
// Execution-shape classification — the ONE place both byte-diff filters
// derive from.

/// Name prefix of every spill-layout metric; shared by the counter and
/// series classifiers (the satellite-1 "one prefix list drives both").
pub const SPILL_PREFIX: &str = "spill.";
/// Name prefix of the live-telemetry counter family.
pub const TELEMETRY_PREFIX: &str = "telemetry.";
/// Name prefix of the intra-reduce scheduler family; shared by the
/// counter and series classifiers like [`SPILL_PREFIX`] — grants and
/// heavy classifications describe *how* a run executed, never the data
/// plane.
pub const SCHED_PREFIX: &str = "sched.";
/// Name prefix of the progress gauges (rendered as Prometheus gauges).
pub const PROGRESS_PREFIX: &str = "progress.";
/// Name prefix of per-map-task series (chunking-dependent).
pub const MAP_TASK_PREFIX: &str = "map.task";
/// Name suffix of wall-time series (nanosecond histograms).
pub const NS_SUFFIX: &str = "_ns";

/// Exact counter names that are execution-shape without sharing a shape
/// prefix.
pub const SHAPE_COUNTER_NAMES: &[&Counter] = &[KERNEL_PARALLEL_BUCKETS, KERNEL_ACTIVE_PEAK];
/// Counter-name prefixes whose whole family is execution-shape.
pub const SHAPE_COUNTER_PREFIXES: &[&str] = &[SPILL_PREFIX, TELEMETRY_PREFIX, SCHED_PREFIX];

/// Exact series names that are execution-shape without sharing a shape
/// prefix or suffix. Note `telemetry.heartbeats.reduce` is *absent*:
/// reduce heartbeats derive from pull quanta and stay byte-identical,
/// while map heartbeats follow the chunk count.
pub const SHAPE_SERIES_NAMES: &[&Counter] = &[
    TELEMETRY_STRAGGLERS,
    HEARTBEATS_MAP,
    PROGRESS_MAP_TASKS,
    KERNEL_ACTIVE_PEAK,
];
/// Series-name prefixes whose whole family is execution-shape.
pub const SHAPE_SERIES_PREFIXES: &[&str] = &[SPILL_PREFIX, MAP_TASK_PREFIX, SCHED_PREFIX];
/// Series-name suffixes whose whole family is execution-shape.
pub const SHAPE_SERIES_SUFFIXES: &[&str] = &[NS_SUFFIX];

/// Whether a counter name describes *execution shape* — how a run was
/// physically carried out (intra-reducer chunking, spill decisions)
/// rather than the data plane. Execution-shape counters are legitimately
/// configuration-dependent: [`KERNEL_PARALLEL_BUCKETS`] varies with the
/// thread grant, and the `spill.*` family varies with
/// `ClusterConfig::reduce_memory_budget`. Determinism byte-diffs
/// (the determinism audit, the equivalence proptests) exclude exactly these
/// names; every data-plane counter must stay byte-identical across
/// thread counts *and* budgets.
pub fn is_execution_shape(name: &str) -> bool {
    SHAPE_COUNTER_NAMES.iter().any(|&c| &**c == name)
        || SHAPE_COUNTER_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// True for telemetry series whose value legitimately depends on *how*
/// the job executed (thread count, chunking, memory budget, wall clock)
/// rather than on *what* it computed. These are excluded from the
/// cross-thread-count determinism contract, mirroring
/// [`is_execution_shape`] for counters.
pub fn is_execution_shape_series(name: &str) -> bool {
    SHAPE_SERIES_NAMES.iter().any(|&c| &**c == name)
        || SHAPE_SERIES_PREFIXES.iter().any(|p| name.starts_with(p))
        || SHAPE_SERIES_SUFFIXES.iter().any(|s| name.ends_with(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_duplicate_free_and_sorted_within_reason() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(&***name), "duplicate registry entry {name}");
            assert!(name.contains('.'), "registry names are dotted: {name}");
        }
    }

    #[test]
    fn shape_entries_are_registered() {
        for name in SHAPE_COUNTER_NAMES.iter().chain(SHAPE_SERIES_NAMES) {
            assert!(ALL.contains(name), "{name} classified but unregistered");
        }
    }

    #[test]
    fn both_classifiers_share_the_spill_prefix() {
        assert!(SHAPE_COUNTER_PREFIXES.contains(&SPILL_PREFIX));
        assert!(SHAPE_SERIES_PREFIXES.contains(&SPILL_PREFIX));
        assert!(is_execution_shape(SPILL_RUNS));
        assert!(is_execution_shape_series(SPILL_RUN_BYTES));
    }

    #[test]
    fn both_classifiers_share_the_sched_prefix() {
        // The grant counters and histogram vary with the thread settings;
        // were either classifier to miss the prefix, the cross-setting
        // byte-diffs of the determinism audit and the schedule_equivalence
        // proptest would flag legitimate grant variation as
        // nondeterminism.
        assert!(SHAPE_COUNTER_PREFIXES.contains(&SCHED_PREFIX));
        assert!(SHAPE_SERIES_PREFIXES.contains(&SCHED_PREFIX));
        assert!(is_execution_shape(SCHED_GRANTS));
        assert!(is_execution_shape(SCHED_HEAVY_BUCKETS));
        assert!(is_execution_shape_series(SCHED_GRANT_THREADS));
    }

    #[test]
    fn classifier_split_is_intentional() {
        // Shape as counter (telemetry.* prefix) but data-plane as series:
        // reduce heartbeats count pull quanta, which are byte-stable.
        assert!(is_execution_shape(HEARTBEATS_REDUCE));
        assert!(!is_execution_shape_series(HEARTBEATS_REDUCE));
        // Shape as series (chunk count) without being a counter at all.
        assert!(is_execution_shape_series(PROGRESS_MAP_TASKS));
        assert!(!is_execution_shape(PROGRESS_MAP_TASKS));
    }
}
