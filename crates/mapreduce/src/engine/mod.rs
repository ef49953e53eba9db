//! The execution engine: runs one map-reduce cycle.
//!
//! The data plane is partitioned end-to-end, mirroring Hadoop's actual
//! shuffle rather than a single global sort:
//!
//! 1. **Map** — each worker maps its input chunk; its [`crate::Emitter`] files
//!    every pair under its reducer key as it is emitted, in O(1) for a key
//!    it has seen before, so the worker finishes with a key-grouped run and
//!    nothing to sort.
//! 2. **Shuffle** — [`merge_keyed_runs`] walks the distinct keys in
//!    ascending order and hands each bucket over as its key's segments in
//!    run (chunk) order — moved, never copied into one vector —
//!    accumulating the shuffle-volume counters per segment. No code path
//!    ever sorts or re-compares individual pairs. With
//!    [`ClusterConfig::reduce_memory_budget`] set, a bucket whose values
//!    exceed the budget is cut into runs on an engine-internal
//!    [`crate::Dfs`] instead of staying resident (see [`crate::spill`]).
//! 3. **Reduce** — workers steal buckets and reducers take *ownership* of
//!    their bucket, consuming it as a pull-based
//!    [`crate::job::ValueStream`]: resident buckets stream out of memory
//!    segment by segment, spilled buckets stream back chunk-by-chunk from
//!    the DFS. The
//!    fault-free path moves the bucket out without a copy; only with a
//!    [`FaultPlan`] attached is the bucket cloned per attempt (for spilled
//!    buckets the clone is just run paths — the retry re-reads them),
//!    mirroring Hadoop re-reading the shuffled segment on retry.
//!
//! Determinism is preserved by construction: a bucket is its key's
//! segments in run (chunk) order and a segment is in emission order, so
//! every bucket equals that key's slice of a stable sort of the
//! concatenated map outputs — identical for every `worker_threads` count.
//!
//! Each phase lives in its own file (`map.rs`, `shuffle.rs`, `reduce.rs`);
//! this one holds the configuration and [`Engine::run_job`], which reads
//! the job's one [`Clock`] once per phase boundary: the reading closes the
//! phase's span (when an [`Observer`] is attached) *and* becomes the
//! phase's wall in [`JobMetrics`].

mod map;
mod reduce;
mod schedule;
mod shuffle;

pub use shuffle::{merge_keyed_runs, ShuffleStats};

use crate::cost::{CostModel, ReducerCost};
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::job::{Mapper, Reducer};
use crate::metrics::{names, JobMetrics};
use crate::observe::{Clock, Event, EventKind, MonotonicClock, Observer};
use crate::record::Record;
use std::sync::Arc;
use std::time::Duration;

/// Default pair count at which a reduce bucket counts as "heavy" and
/// becomes eligible for an intra-reducer thread grant.
pub const DEFAULT_HEAVY_BUCKET_THRESHOLD: usize = 4096;

/// Cluster shape and reduce-phase parameters. The simulated cluster time
/// is priced by [`CostModel::default`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Parallel reduce slots — the paper runs "16 reduce processes".
    /// Note this is *slots*, not logical reducers: a job may have many more
    /// distinct reducer keys than slots; they queue, and the simulated time
    /// reflects the resulting waves.
    pub reducer_slots: usize,
    /// Worker threads used for the map phase (and for physically running
    /// reducers). Defaults to the machine's available parallelism.
    pub worker_threads: usize,
    /// Upper bound on the threads one reducer invocation may use (the
    /// kernel layer's intra-reducer parallelism). The reduce phase's one
    /// schedule pulls heavy buckets first and grants each up to this many
    /// threads from a shared pool of `worker_threads` tokens; light buckets
    /// run serial. Defaults to `worker_threads`; set to 1 for strictly
    /// serial reducers.
    pub intra_reduce_threads: usize,
    /// Pair count at which a bucket counts as heavy: a bucket whose
    /// `pairs_received` reaches it may take an intra-reducer thread grant.
    /// Defaults to [`DEFAULT_HEAVY_BUCKET_THRESHOLD`].
    pub heavy_bucket_threshold: usize,
    /// Per-reducer memory budget in approx-bytes (see
    /// [`Record::approx_bytes`]) — the paper's reducer-size bound. `None`
    /// (the default) keeps every bucket resident; with `Some(b)`, a bucket
    /// whose buffered values exceed `b` bytes during the shuffle merge is
    /// spilled to an engine-internal [`crate::Dfs`] as consecutive runs and
    /// streamed back to its reducer on demand. Outputs and data-plane
    /// counters are byte-identical either way (only the `spill.*`
    /// execution-shape counters differ; see
    /// [`crate::metrics::is_execution_shape`]).
    pub reduce_memory_budget: Option<u64>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ClusterConfig {
            reducer_slots: 16,
            worker_threads: threads,
            intra_reduce_threads: threads,
            heavy_bucket_threshold: DEFAULT_HEAVY_BUCKET_THRESHOLD,
            reduce_memory_budget: None,
        }
    }
}

impl ClusterConfig {
    /// A config with `slots` reduce slots and every other field default.
    pub fn with_slots(slots: usize) -> Self {
        ClusterConfig {
            reducer_slots: slots,
            ..ClusterConfig::default()
        }
    }
}

/// Result of one map-reduce cycle: the reducer outputs (concatenated in
/// reducer-key order, hence deterministic) plus the job metrics.
#[derive(Debug, Clone)]
pub struct JobOutput<O> {
    /// Output records, ordered by reducer key then emission order.
    pub outputs: Vec<O>,
    /// The cycle's metrics.
    pub metrics: JobMetrics,
}

/// The MapReduce engine. Cheap to construct; holds only configuration, an
/// optional fault plan and an optional observer.
#[derive(Debug, Default)]
pub struct Engine {
    cfg: ClusterConfig,
    faults: Option<Arc<FaultPlan>>,
    observer: Option<Arc<Observer>>,
}

impl Engine {
    /// Creates an engine over the given cluster configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        Engine {
            cfg,
            faults: None,
            observer: None,
        }
    }

    /// Attaches a fault-injection plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Attaches an [`Observer`]: every subsequent job appends its job /
    /// phase / task / reduce / spill spans and heartbeat / straggler /
    /// error instants to it, stamped by the observer's clock — which also
    /// times the [`JobMetrics`] walls (see [`crate::observe`]). Without an
    /// observer the engine records nothing and reads a clock only at
    /// phase boundaries.
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Arc<Observer>> {
        self.observer.as_ref()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Runs one map-reduce cycle.
    ///
    /// * `input` — the records to map over (a multi-relation job simply
    ///   concatenates its relations, with the relation id carried inside
    ///   each record, as Hadoop jobs do with multiple input files).
    /// * `mapper` / `reducer` — the job logic; usually closures.
    ///
    /// Output records are ordered by reducer key, then by value emission
    /// order, so results are deterministic regardless of thread count.
    ///
    /// # Errors
    /// Returns [`EngineError::MaxAttemptsExceeded`] when an injected fault
    /// exhausts the fault plan's `max_attempts` (mirroring Hadoop failing
    /// the job), and [`EngineError::Internal`] if an engine invariant is
    /// breached (a bug in the engine itself).
    ///
    /// # Panics
    /// Re-raises a mapper/reducer panic with its original payload — a
    /// panicking map or reduce function is job-logic failure, exactly like
    /// an uncaught exception in a Hadoop task.
    pub fn run_job<I, M, O>(
        &self,
        name: &str,
        input: &[I],
        mapper: impl Mapper<I, M>,
        reducer: impl Reducer<M, O>,
    ) -> Result<JobOutput<O>, EngineError>
    where
        I: Record,
        M: Record,
        O: Record,
    {
        let clock: Arc<dyn Clock> = match &self.observer {
            Some(observer) => Arc::clone(observer.clock()),
            None => Arc::new(MonotonicClock::new()),
        };
        let start = clock.now_nanos();
        let mut result = self.run_phases(name, input, &mapper, &reducer, &clock, start);
        let end = clock.now_nanos();
        if let Ok(out) = &mut result {
            out.metrics.wall = Duration::from_nanos(end.saturating_sub(start));
        }
        if let Some(observer) = &self.observer {
            // The job span closes on the failure path too, followed by the
            // `error` instant that freezes the flight dump — a failed job
            // is in its trace.
            let mut span =
                Event::span(EventKind::Job, name, 0, start, end).arg("records", input.len() as u64);
            if let Ok(out) = &result {
                span = span
                    .arg("pairs", out.metrics.intermediate_pairs)
                    .arg("outputs", out.metrics.output_records);
            }
            observer.record(span);
            if let Err(e) = &result {
                observer.note_error(name, end, e);
            }
        }
        result
    }

    /// Reads the clock at a phase boundary. The one reading closes
    /// `phase`'s span — on the failure path too, then without `args` —
    /// and is returned to become the phase's [`JobMetrics`] wall.
    fn close_phase(
        &self,
        clock: &dyn Clock,
        phase: &'static str,
        start: u64,
        args: impl IntoIterator<Item = (&'static str, u64)>,
    ) -> u64 {
        let now = clock.now_nanos();
        if let Some(observer) = &self.observer {
            let mut span = Event::span(EventKind::Phase, phase, 0, start, now);
            span.args.extend(args);
            observer.record(span);
        }
        now
    }

    /// The three phases of one cycle. `start` is the job's first clock
    /// reading, which also opens the map phase; `metrics.wall` is left
    /// for [`Engine::run_job`] to fill from its closing reading.
    fn run_phases<I, M, O>(
        &self,
        name: &str,
        input: &[I],
        mapper: &impl Mapper<I, M>,
        reducer: &impl Reducer<M, O>,
        clock: &Arc<dyn Clock>,
        start: u64,
    ) -> Result<JobOutput<O>, EngineError>
    where
        I: Record,
        M: Record,
        O: Record,
    {
        let records = input.len() as u64;

        // ---- Map phase: per-worker key-grouped runs ------------------------
        let (runs, map_input_bytes, mut counters) = self.run_map_phase(input, mapper);
        let map_end = self.close_phase(clock.as_ref(), "map", start, [("records", records)]);

        // ---- Shuffle: hand the runs' segments over as reducer buckets ----
        let shuffled = self.run_shuffle_phase(name, runs, clock);
        let args = shuffled.as_ref().map(|(buckets, shuffle, ..)| {
            [
                ("pairs", shuffle.pairs),
                ("bytes", shuffle.bytes),
                ("reducers", buckets.len() as u64),
            ]
        });
        let shuffle_end = self.close_phase(
            clock.as_ref(),
            "shuffle",
            map_end,
            args.into_iter().flatten(),
        );
        let (buckets, shuffle, spill_stats, spill_write_nanos) = shuffled?;

        // ---- Reduce phase ---------------------------------------------------
        // Outputs are concatenated here, inside the phase's wall but after
        // `run_reduce_phase` has returned and freed its scaffolding:
        // allocating the job-sized output vector any earlier leaves glibc's
        // heap one output vector larger for the rest of the process (peak
        // RSS 157 → 179 MB on perf's `q1_sparse_shuffle`).
        let reduced = self.run_reduce_phase(name, buckets, reducer).map(
            |(outs, loads, reduce_counters, spill_read_nanos)| {
                let (outputs, output_bytes) = concat_outputs(outs);
                (
                    outputs,
                    output_bytes,
                    loads,
                    reduce_counters,
                    spill_read_nanos,
                )
            },
        );
        let args = reduced.as_ref().map(|(outputs, _, loads, ..)| {
            [
                ("reducers", loads.len() as u64),
                ("outputs", outputs.len() as u64),
            ]
        });
        let reduce_end = self.close_phase(
            clock.as_ref(),
            "reduce",
            shuffle_end,
            args.into_iter().flatten(),
        );
        let (outputs, output_bytes, loads, reduce_counters, spill_read_nanos) = reduced?;
        counters.merge(&reduce_counters);
        if spill_stats.buckets > 0 {
            counters.inc(names::SPILL_BUCKETS, spill_stats.buckets);
            counters.inc(names::SPILL_RUNS, spill_stats.runs);
            counters.inc(names::SPILL_BYTES, spill_stats.bytes);
        }

        let simulated = CostModel::default()
            .simulate_phases(
                records,
                shuffle.pairs,
                loads.iter().map(|l| ReducerCost {
                    pairs_received: l.pairs_received,
                    work: l.work,
                    output: l.output,
                }),
                self.cfg.reducer_slots,
            )
            .total();

        let metrics = JobMetrics {
            name: name.to_string(),
            map_input_records: records,
            map_input_bytes,
            intermediate_pairs: shuffle.pairs,
            shuffle_bytes: shuffle.bytes,
            distinct_reducers: loads.len() as u64,
            reducer_loads: loads,
            output_records: outputs.len() as u64,
            output_bytes,
            wall: Duration::ZERO,
            map_wall: Duration::from_nanos(map_end.saturating_sub(start)),
            shuffle_wall: Duration::from_nanos(shuffle_end.saturating_sub(map_end)),
            reduce_wall: Duration::from_nanos(reduce_end.saturating_sub(shuffle_end)),
            spill_wall: Duration::from_nanos(spill_write_nanos + spill_read_nanos),
            simulated,
            counters,
        };

        Ok(JobOutput { outputs, metrics })
    }
}

/// Concatenates the per-reducer outputs (key order), accounting output
/// volume in the same pass (the reduce-side write).
fn concat_outputs<O: Record>(mut outs: Vec<Vec<O>>) -> (Vec<O>, u64) {
    let mut outputs = Vec::with_capacity(outs.iter().map(Vec::len).sum());
    let mut output_bytes = 0u64;
    for out in &mut outs {
        output_bytes += out.iter().map(Record::approx_bytes).sum::<u64>();
        outputs.append(out);
    }
    (outputs, output_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Emitter, ReduceCtx, ValueStream};

    pub(super) fn engine() -> Engine {
        Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: 3,
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn groups_all_values_for_a_key() {
        let out = engine()
            .run_job(
                "group",
                &[1u64, 2, 3, 4, 5, 6, 7, 8],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 2, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        assert_eq!(out.outputs, vec![(0, 20), (1, 16)]);
        assert_eq!(out.metrics.distinct_reducers, 2);
        assert_eq!(out.metrics.map_input_records, 8);
    }

    #[test]
    fn value_order_is_emission_order() {
        // All values to one key: reducer must see input order even though
        // the map phase ran on 3 threads.
        let input: Vec<u64> = (0..1000).collect();
        let out = engine()
            .run_job(
                "order",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    out.extend(vs);
                },
            )
            .unwrap();
        assert_eq!(out.outputs, input);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let input: Vec<u64> = (0..500).map(|i| i * 7 % 101).collect();
        let run = |threads: usize| {
            Engine::new(ClusterConfig {
                reducer_slots: 4,
                worker_threads: threads,
                ..ClusterConfig::default()
            })
            .run_job(
                "det",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| {
                    e.emit(n % 7, n);
                    if n % 3 == 0 {
                        e.emit(n % 5, n * 2);
                    }
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    for v in vs.by_ref() {
                        out.push((ctx.key, v));
                    }
                },
            )
            .unwrap()
            .outputs
        };
        let base = run(1);
        for t in [2, 4, 8] {
            assert_eq!(run(t), base, "threads = {t}");
        }
    }

    #[test]
    fn empty_input_produces_empty_job() {
        let out = engine()
            .run_job(
                "empty",
                &Vec::<u64>::new(),
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            )
            .unwrap();
        assert!(out.outputs.is_empty());
        assert_eq!(out.metrics.intermediate_pairs, 0);
        assert_eq!(out.metrics.distinct_reducers, 0);
    }

    #[test]
    fn metrics_count_pairs_and_outputs() {
        let out = engine()
            .run_job(
                "metrics",
                &[10u64, 20, 30],
                |&n: &u64, e: &mut Emitter<u64>| {
                    // Each record to 2 reducers: 6 pairs.
                    e.emit(0, n);
                    e.emit(1, n);
                },
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    out.push(vs.len() as u64);
                },
            )
            .unwrap();
        assert_eq!(out.metrics.intermediate_pairs, 6);
        assert_eq!(out.metrics.output_records, 2);
        assert_eq!(out.metrics.shuffle_bytes, 6 * 16);
        assert_eq!(out.metrics.map_input_bytes, 3 * 8);
        assert_eq!(out.metrics.output_bytes, 2 * 8);
        assert!(out.metrics.simulated > 0.0);
    }

    #[test]
    fn phase_walls_are_recorded_and_bounded_by_total() {
        let input: Vec<u64> = (0..2000).collect();
        let out = engine()
            .run_job(
                "phases",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 16, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let m = &out.metrics;
        let phases = m.map_wall + m.shuffle_wall + m.reduce_wall;
        assert!(phases <= m.wall, "phases {phases:?} > wall {:?}", m.wall);
        // The phases cover the whole data plane; only metric assembly is
        // outside them, so they cannot all be zero for a 2000-record job.
        assert!(m.wall > std::time::Duration::ZERO);
    }

    #[test]
    fn reducer_work_units_recorded() {
        let out = engine()
            .run_job(
                "work",
                &[1u64, 2, 3],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    ctx.add_work(100);
                    out.extend(vs);
                },
            )
            .unwrap();
        assert_eq!(out.metrics.total_work(), 100);
    }

    #[test]
    fn counters_merge_from_map_and_reduce() {
        let out = engine()
            .run_job(
                "counted",
                &(0..100u64).collect::<Vec<_>>(),
                |&n: &u64, e: &mut Emitter<u64>| {
                    e.inc(names::PROGRESS_MAP_RECORDS, 1);
                    if n % 2 == 0 {
                        e.inc(names::JOIN_CANDIDATES, 1);
                    }
                    e.emit(n % 4, n);
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    ctx.inc(names::PROGRESS_REDUCE_VALUES, vs.len() as u64);
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let c = &out.metrics.counters;
        assert_eq!(c.get(names::PROGRESS_MAP_RECORDS), 100);
        assert_eq!(c.get(names::JOIN_CANDIDATES), 50);
        assert_eq!(c.get(names::PROGRESS_REDUCE_VALUES), 100);
        assert_eq!(c.get("absent"), 0);
    }

    #[test]
    fn counters_deterministic_across_thread_counts() {
        let input: Vec<u64> = (0..333).collect();
        let run = |threads: usize| {
            Engine::new(ClusterConfig {
                reducer_slots: 4,
                worker_threads: threads,
                ..ClusterConfig::default()
            })
            .run_job(
                "cdet",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| {
                    e.inc(names::JOIN_CANDIDATES, 1 + (n % 3));
                    e.emit(n % 7, n);
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    ctx.inc(names::PROGRESS_REDUCERS_DONE, 1);
                    out.push(vs.len() as u64);
                },
            )
            .unwrap()
            .metrics
            .counters
            .clone()
        };
        let base = run(1);
        for t in [2, 8] {
            assert_eq!(run(t), base, "threads = {t}");
        }
    }

    #[test]
    fn no_observer_records_nothing() {
        let eng = engine();
        assert!(eng.observer().is_none());
        let out = eng
            .run_job(
                "untraced",
                &[1u64, 2, 3],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            )
            .unwrap();
        assert_eq!(out.outputs, vec![1, 2, 3]);
        assert!(out.metrics.counters.is_empty());
    }

    pub(super) fn budgeted_engine(budget: Option<u64>, threads: usize) -> Engine {
        Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: threads,
            intra_reduce_threads: threads,
            reduce_memory_budget: budget,
            ..ClusterConfig::default()
        })
    }

    /// A job whose 3 buckets hold ~133 u64 values (~1 KiB) each.
    fn spill_job(eng: &Engine) -> JobOutput<(u64, u64)> {
        let input: Vec<u64> = (0..400).collect();
        eng.run_job(
            "spilly",
            &input,
            |&n: &u64, e: &mut Emitter<u64>| {
                e.inc(names::PROGRESS_MAP_RECORDS, 1);
                e.emit(n % 3, n);
            },
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                ctx.inc(names::PROGRESS_REDUCERS_DONE, 1);
                out.push((ctx.key, vs.sum()));
            },
        )
        .unwrap()
    }

    #[test]
    fn tiny_budget_spills_and_matches_unlimited() {
        let base = spill_job(&budgeted_engine(None, 3));
        assert_eq!(base.metrics.counters.get("spill.buckets"), 0);
        assert_eq!(base.metrics.spill_wall, Duration::ZERO);
        for budget in [64, 1024] {
            for threads in [1, 2, 8] {
                let out = spill_job(&budgeted_engine(Some(budget), threads));
                assert_eq!(
                    out.outputs, base.outputs,
                    "budget {budget} threads {threads}"
                );
                assert_eq!(out.metrics.reducer_loads, base.metrics.reducer_loads);
                // Every non-spill counter must match the unlimited run.
                for (k, v) in out.metrics.counters.iter() {
                    if !crate::metrics::is_execution_shape(k) {
                        assert_eq!(v, base.metrics.counters.get(k), "counter {k}");
                    }
                }
                let spilled = out.metrics.counters.get("spill.buckets");
                assert_eq!(spilled, 3, "all three ~1KiB buckets overflow {budget}");
                assert!(out.metrics.counters.get("spill.runs") >= spilled);
                assert!(out.metrics.counters.get("spill.bytes") > 0);
            }
        }
    }

    #[test]
    fn spill_layout_is_thread_count_independent() {
        let base = spill_job(&budgeted_engine(Some(128), 1));
        for threads in [2, 8] {
            let out = spill_job(&budgeted_engine(Some(128), threads));
            // Including the spill.* counters: flush points are cut from the
            // merged stream, which never depends on worker_threads.
            assert_eq!(out.metrics.counters, base.metrics.counters);
            assert_eq!(out.outputs, base.outputs);
        }
    }

    #[test]
    fn generous_budget_stays_in_memory() {
        let out = spill_job(&budgeted_engine(Some(1 << 20), 3));
        assert_eq!(out.metrics.counters.get("spill.buckets"), 0);
        assert_eq!(out.metrics.counters.get("spill.runs"), 0);
        assert_eq!(out.metrics.spill_wall, Duration::ZERO);
    }

    #[test]
    fn spilled_values_keep_emission_order() {
        // All values to one key, budget far below the bucket size: the
        // reducer must still see exact input order through the spill runs.
        let input: Vec<u64> = (0..3000).collect();
        let out = budgeted_engine(Some(256), 3)
            .run_job(
                "spill-order",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    out.extend(vs);
                },
            )
            .unwrap();
        assert_eq!(out.outputs, input);
        assert_eq!(out.metrics.counters.get("spill.buckets"), 1);
        assert!(out.metrics.counters.get("spill.runs") > 1);
    }
}
