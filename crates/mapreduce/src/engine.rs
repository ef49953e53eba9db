//! The execution engine: runs one map-reduce cycle.
//!
//! The data plane is partitioned end-to-end, mirroring Hadoop's actual
//! shuffle rather than a single global sort:
//!
//! 1. **Map** — each worker maps its input chunk; its [`Emitter`] files
//!    every pair under its reducer key as it is emitted, so the worker
//!    finishes with a key-grouped run and nothing to sort.
//! 2. **Shuffle** — [`merge_keyed_runs`] walks the distinct keys in
//!    ascending order and, per key, splices the runs' segments together in
//!    run (chunk) order, accumulating the shuffle-volume counters per
//!    segment. No code path ever sorts or re-compares individual pairs.
//!    With [`ClusterConfig::reduce_memory_budget`] set, a bucket that
//!    overflows the budget is cut into runs on an engine-internal
//!    [`crate::Dfs`] instead of staying resident (see [`crate::spill`]).
//! 3. **Reduce** — workers steal buckets and reducers take *ownership* of
//!    their bucket, consuming it as a pull-based
//!    [`crate::job::ValueStream`]: resident buckets stream out of memory,
//!    spilled buckets stream back chunk-by-chunk from the DFS. The
//!    fault-free path moves the bucket out without a copy; only with a
//!    [`FaultPlan`] attached is the bucket cloned per attempt (for spilled
//!    buckets the clone is just run paths — the retry re-reads them),
//!    mirroring Hadoop re-reading the shuffled segment on retry.
//!
//! Determinism is preserved by construction: a bucket is its key's
//! segments in run (chunk) order and a segment is in emission order, so
//! every bucket equals that key's slice of a stable sort of the
//! concatenated map outputs — identical for every `worker_threads` count.
//! Each phase is timed separately and reported through [`JobMetrics`].

use crate::cost::{CostModel, ReducerCost};
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::job::{BucketSource, Emitter, KeyedRun, Mapper, ReduceCtx, Reducer, ReducerId};
use crate::metrics::{names, Counters, JobMetrics, ReducerLoad};
use crate::record::Record;
use crate::schedule::{BucketLoad, SchedConfig, SchedulePlan};
use crate::spill::{SpillRun, SpillStats, SpillStore, SpilledBucket};
use crate::telemetry::{detect_stragglers, HistogramRegistry, Telemetry};
use crate::trace::{SpanKind, TraceEvent, Tracer};
use std::any::Any;
use std::iter::Peekable;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
// repolint: allow(wall-clock, file): Instant feeds only the wall/map/shuffle/
// reduce duration metrics in JobMetrics; durations are never keyed, emitted,
// or otherwise able to reach job output.
use std::time::{Duration, Instant};

/// Default candidate count at which a reduce bucket counts as "heavy" and
/// becomes eligible for intra-reducer parallel join kernels.
pub const DEFAULT_HEAVY_BUCKET_THRESHOLD: usize = 4096;

/// Cluster shape and cost parameters.
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
    /// Upper bound on worker threads one reducer invocation may use for
    /// heavy-bucket compute (the kernel layer's intra-reducer parallelism).
    /// How the grant is actually computed per bucket is governed by
    /// [`ClusterConfig::sched`]: the default skew-driven policy hands up to
    /// this many threads to predicted-heavy buckets (heavy-first, from a
    /// shared token pool) while light buckets run serial. Defaults to
    /// `worker_threads`; set to 1 for strictly serial reducers.
    pub intra_reduce_threads: usize,
    /// Candidate count at which a bucket counts as heavy and may use the
    /// intra-reducer thread grant. Defaults to
    /// [`DEFAULT_HEAVY_BUCKET_THRESHOLD`].
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
    /// Intra-reduce scheduling policy and scoring knobs (see
    /// [`crate::schedule`]). Outputs and data-plane counters are
    /// byte-identical for every policy; only the `sched.*` execution-shape
    /// counters differ.
    pub sched: SchedConfig,
    /// Cost-model weights for the simulated cluster time.
    pub cost: CostModel,
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
            sched: SchedConfig::default(),
            cost: CostModel::default(),
        }
    }
}

impl ClusterConfig {
    /// A config with `slots` reduce slots and default cost weights.
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

/// What the reduce phase hands back to `run_job`: per-key outputs (key
/// order), per-reducer loads, the merged user counters, and the cumulative
/// nanoseconds workers spent streaming spilled buckets back from DFS.
type ReducePhaseResult<O> = (Vec<(ReducerId, Vec<O>)>, Vec<ReducerLoad>, Counters, u64);

/// The MapReduce engine. Cheap to construct; holds only configuration, an
/// optional fault plan, an optional tracer and an optional telemetry plane.
#[derive(Debug, Default)]
pub struct Engine {
    cfg: ClusterConfig,
    faults: Option<Arc<FaultPlan>>,
    tracer: Option<Arc<Tracer>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl Engine {
    /// Creates an engine over the given cluster configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        Engine {
            cfg,
            faults: None,
            tracer: None,
            telemetry: None,
        }
    }

    /// Attaches a fault-injection plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Attaches a [`Tracer`]: every subsequent job records job / phase /
    /// per-worker task / per-reducer spans into it (see [`crate::trace`]).
    /// Without a tracer the engine records nothing and pays only a
    /// per-phase `Option` check.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Attaches a live [`Telemetry`] plane: every subsequent job feeds
    /// progress gauges, heartbeats, histograms, the straggler detector and
    /// the flight recorder (see [`crate::telemetry`]). Without one the
    /// engine pays only per-phase `Option` checks.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached telemetry plane, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
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
        let result = self.run_job_inner(name, input, mapper, reducer);
        // The flight-recorder dump on the typed-error path: freeze the
        // recent-events ring as JSONL for forensics (readable via
        // [`Telemetry::last_flight_dump`]).
        if let (Err(e), Some(tel)) = (&result, &self.telemetry) {
            tel.note_error(name, e);
        }
        result
    }

    fn run_job_inner<I, M, O>(
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
        let start = Instant::now();
        let tracer = self.tracer.as_deref();
        let telemetry = self.telemetry.as_deref();
        let job_t0 = tracer.map(Tracer::now_us).unwrap_or(0);
        if let Some(tel) = telemetry {
            tel.job_start(name, input.len() as u64);
        }

        // ---- Map phase: per-worker key-grouped runs ------------------------
        let map_start = Instant::now();
        let map_t0 = tracer.map(Tracer::now_us).unwrap_or(0);
        let (runs, map_input_bytes, mut counters) = self.run_map_phase(name, input, &mapper);
        if let Some(t) = tracer {
            t.record(
                TraceEvent::span(SpanKind::Phase, "map", 0, map_t0, t.now_us())
                    .arg("records", input.len() as u64),
            );
        }
        if let Some(tel) = telemetry {
            tel.phase_end(name, "map", input.len() as u64);
        }
        let map_wall = map_start.elapsed();

        // ---- Shuffle: splice the runs' segments into reducer buckets -------
        let shuffle_start = Instant::now();
        let shuffle_t0 = tracer.map(Tracer::now_us).unwrap_or(0);
        let (buckets, shuffle, spill_stats, spill_write_nanos) = match self.cfg.reduce_memory_budget
        {
            // Unlimited budget: the in-memory fast path. No spill store
            // (hence no Dfs) is ever constructed.
            None => {
                let (buckets, stats) = merge_keyed_runs(runs);
                let sources: Vec<(ReducerId, BucketSource<M>)> = buckets
                    .into_iter()
                    .map(|(k, v)| (k, BucketSource::InMemory(v)))
                    .collect();
                (sources, stats, SpillStats::default(), 0u64)
            }
            Some(budget) => {
                let mut store = SpillStore::new(budget, tracer, telemetry);
                let (sources, stats) = merge_keyed_runs_budgeted(name, runs, &mut store)?;
                let (spill_stats, write_nanos) = store.finish();
                (sources, stats, spill_stats, write_nanos)
            }
        };
        if let Some(t) = tracer {
            t.record(
                TraceEvent::span(SpanKind::Phase, "shuffle", 0, shuffle_t0, t.now_us())
                    .arg("pairs", shuffle.pairs)
                    .arg("bytes", shuffle.bytes)
                    .arg("reducers", buckets.len() as u64),
            );
        }
        if let Some(tel) = telemetry {
            // Bucket sizes in key order and one shuffle-volume sample —
            // both data-plane (independent of threads and budget), merged
            // under one lock.
            let mut hists = HistogramRegistry::new();
            for (_, source) in &buckets {
                hists.record(names::REDUCE_BUCKET_PAIRS, source.len() as u64);
            }
            hists.record(names::SHUFFLE_JOB_BYTES, shuffle.bytes);
            tel.merge_hists(&hists);
            tel.gauges().add_reducers(buckets.len() as u64);
            tel.phase_end(name, "shuffle", shuffle.pairs);
        }
        let shuffle_wall = shuffle_start.elapsed();

        // ---- Reduce phase ---------------------------------------------------
        let reduce_start = Instant::now();
        let reduce_t0 = tracer.map(Tracer::now_us).unwrap_or(0);
        let (mut results, loads, reduce_counters, spill_read_nanos) =
            self.run_reduce_phase(name, buckets, &reducer)?;
        counters.merge(&reduce_counters);
        if spill_stats.buckets > 0 {
            counters.inc(names::SPILL_BUCKETS, spill_stats.buckets);
            counters.inc(names::SPILL_RUNS, spill_stats.runs);
            counters.inc(names::SPILL_BYTES, spill_stats.bytes);
        }

        // Concatenate outputs in key order, accounting output volume in the
        // same pass (the reduce-side write).
        let output_records: u64 = results.iter().map(|(_, o)| o.len() as u64).sum();
        let mut outputs = Vec::with_capacity(output_records as usize);
        let mut output_bytes = 0u64;
        for (_, o) in &mut results {
            output_bytes += o.iter().map(Record::approx_bytes).sum::<u64>();
            outputs.append(o);
        }
        if let Some(t) = tracer {
            t.record(
                TraceEvent::span(SpanKind::Phase, "reduce", 0, reduce_t0, t.now_us())
                    .arg("reducers", loads.len() as u64)
                    .arg("outputs", output_records),
            );
            t.record(
                TraceEvent::span(SpanKind::Job, name, 0, job_t0, t.now_us())
                    .arg("records", input.len() as u64)
                    .arg("pairs", shuffle.pairs)
                    .arg("outputs", output_records),
            );
        }
        if let Some(tel) = telemetry {
            tel.phase_end(name, "reduce", output_records);
            tel.job_end(name, output_records);
        }
        let reduce_wall = reduce_start.elapsed();

        let simulated = self
            .cfg
            .cost
            .simulate_phases(
                input.len() as u64,
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
            map_input_records: input.len() as u64,
            map_input_bytes,
            intermediate_pairs: shuffle.pairs,
            shuffle_bytes: shuffle.bytes,
            distinct_reducers: loads.len() as u64,
            reducer_loads: loads,
            output_records,
            output_bytes,
            wall: start.elapsed(),
            map_wall,
            shuffle_wall,
            reduce_wall,
            spill_wall: Duration::from_nanos(spill_write_nanos + spill_read_nanos),
            simulated,
            counters,
        };

        Ok(JobOutput { outputs, metrics })
    }

    /// Maps `input` in parallel chunks; each worker returns its run grouped
    /// by key (per-key emission order kept), the bytes it read and its
    /// accumulated user counters. Runs, counters and per-task trace events
    /// all come back in chunk order, so the downstream merge — and the
    /// trace — see the same sequence as sequential execution.
    fn run_map_phase<I, M>(
        &self,
        name: &str,
        input: &[I],
        mapper: &impl Mapper<I, M>,
    ) -> (Vec<KeyedRun<M>>, u64, Counters)
    where
        I: Record,
        M: Record,
    {
        let threads = self.cfg.worker_threads.max(1);
        if input.is_empty() {
            return (Vec::new(), 0, Counters::new());
        }
        let chunk = input.len().div_ceil(threads);
        let chunks: Vec<&[I]> = input.chunks(chunk).collect();
        let tracer = self.tracer.as_deref();
        let telemetry = self.telemetry.as_deref();
        let hb_every = telemetry
            .map(|t| t.config().heartbeat_every.max(1))
            .unwrap_or(u64::MAX);
        let mut runs: Vec<KeyedRun<M>> = Vec::with_capacity(chunks.len());
        let mut input_bytes = 0u64;
        let mut counters = Counters::new();
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        crossbeam::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    scope.spawn(move |_| {
                        let t0 = tracer.map(Tracer::now_us).unwrap_or(0);
                        let mut em = Emitter::default();
                        let mut bytes = 0u64;
                        let mut processed = 0u64;
                        let mut since_heartbeat = 0u64;
                        for rec in *c {
                            bytes += rec.approx_bytes();
                            mapper.map(rec, &mut em);
                            if let Some(tel) = telemetry {
                                processed += 1;
                                since_heartbeat += 1;
                                if since_heartbeat == hb_every {
                                    since_heartbeat = 0;
                                    tel.gauges().add_map_records(hb_every);
                                    tel.heartbeat(name, "map", ci as u64, processed);
                                }
                            }
                        }
                        if let Some(tel) = telemetry {
                            // Sub-quantum remainder, so progress.map_records
                            // sums to exactly the input record count.
                            tel.gauges().add_map_records(since_heartbeat);
                        }
                        let emitted = em.emitted() as u64;
                        let (run, worker_counters) = em.finish();
                        let event = tracer.map(|t| {
                            TraceEvent::span(SpanKind::Task, "map-task", ci as u64, t0, t.now_us())
                                .arg("records", c.len() as u64)
                                .arg("pairs", emitted)
                        });
                        (run, bytes, worker_counters, event)
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok((run, bytes, worker_counters, event)) => {
                        runs.push(run);
                        input_bytes += bytes;
                        counters.merge(&worker_counters);
                        events.extend(event);
                    }
                    // Keep draining the remaining handles so the scope can
                    // close; re-raise the first payload afterwards.
                    Err(payload) => {
                        panic_payload.get_or_insert(payload);
                    }
                }
            }
        })
        .unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        if let Some(t) = tracer {
            t.record_batch(events);
        }
        if let Some(tel) = telemetry {
            let mut hists = HistogramRegistry::new();
            for c in &chunks {
                hists.record(names::MAP_TASK_RECORDS, c.len() as u64);
            }
            tel.merge_hists(&hists);
            tel.gauges().add_map_tasks(chunks.len() as u64);
        }
        (runs, input_bytes, counters)
    }

    /// Runs reducers over the key buckets, work-stealing across worker
    /// threads, with fault-injection retries. Each bucket arrives as a
    /// [`BucketSource`] (resident or spilled) and is consumed by the
    /// reducer as a pull-based [`crate::job::ValueStream`].
    ///
    /// Ownership: without a fault plan each bucket is *moved* into its
    /// reducer (zero clones); with a plan attached the bucket stays resident
    /// and every attempt clones it — the in-process analogue of a re-executed
    /// Hadoop reduce task re-reading its shuffled segment from disk. A
    /// spilled bucket's "clone" is just its run paths: every attempt
    /// re-reads the runs from the spill store.
    fn run_reduce_phase<M, O>(
        &self,
        job_name: &str,
        buckets: Vec<(ReducerId, BucketSource<M>)>,
        reducer: &impl Reducer<M, O>,
    ) -> Result<ReducePhaseResult<O>, EngineError>
    where
        M: Record,
        O: Record,
    {
        struct BucketSlot<M> {
            key: ReducerId,
            pairs_received: u64,
            values: parking_lot::Mutex<Option<BucketSource<M>>>,
        }

        /// What one reducer invocation leaves behind: outputs, its load
        /// line, its user counters and (when tracing) its span. Stored per
        /// bucket so the merge below is in bucket order — deterministic no
        /// matter which worker stole which bucket.
        struct ReduceResult<O> {
            key: ReducerId,
            out: Vec<O>,
            load: ReducerLoad,
            counters: Counters,
            event: Option<TraceEvent>,
            service_ns: u64,
            grant: u64,
        }

        let threads = self.cfg.worker_threads.max(1);
        let next = AtomicUsize::new(0);
        let n = buckets.len();
        // Intra-reduce scheduling: score every bucket by predicted work
        // (full logical length — spilled buckets report their pre-spill
        // pair count — times the kernel work multiplier and spill penalty)
        // and build the execution plan: pull order plus the live grant
        // table workers draw thread budgets from. Under the default
        // skew-driven policy heavy buckets run first with up to
        // `intra_reduce_threads`, light buckets run serial, and grants are
        // recomputed from remaining pool capacity as buckets finish. The
        // plan never affects output bytes — results land in per-bucket
        // slots and merge in bucket order below.
        let bucket_loads: Vec<BucketLoad> = buckets.iter().map(|(_, s)| s.load()).collect();
        let plan = SchedulePlan::new(&self.cfg, &bucket_loads);
        let heavy_threshold = self.cfg.heavy_bucket_threshold;
        let faults = self.faults.clone();
        let tracer = self.tracer.as_deref();
        let telemetry = self.telemetry.clone();
        let hb_every = telemetry
            .as_ref()
            .map_or(u64::MAX, |t| t.config().heartbeat_every.max(1));
        let job_label: Arc<str> = Arc::from(job_name);
        let slots: Vec<BucketSlot<M>> = buckets
            .into_iter()
            .map(|(key, source)| BucketSlot {
                key,
                pairs_received: source.len() as u64,
                values: parking_lot::Mutex::new(Some(source)),
            })
            .collect();
        type ResultSlot<O> = parking_lot::Mutex<Option<ReduceResult<O>>>;
        let result_slots: Vec<ResultSlot<O>> =
            (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        let mut worker_error: Option<EngineError> = None;
        let mut worker_events: Vec<TraceEvent> = Vec::new();
        let mut spill_read_nanos = 0u64;

        // Shared state is captured by reference; the `move` below only
        // copies these references (plus each worker's index) into the
        // closure.
        let slots = &slots;
        let next = &next;
        let faults = &faults;
        let result_refs = &result_slots;
        let telemetry_ref = &telemetry;
        let job_label = &job_label;
        let plan = &plan;

        crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(n.max(1)))
                .map(|w| {
                    scope.spawn(move |_| {
                        let t0 = tracer.map(Tracer::now_us).unwrap_or(0);
                        let mut buckets_run = 0u64;
                        let mut spill_read_nanos = 0u64;
                        loop {
                            let pos = next.fetch_add(1, Ordering::Relaxed);
                            if pos >= n {
                                break;
                            }
                            // Workers steal *pull positions*; the plan maps
                            // each position to a bucket index so heavy
                            // buckets are picked up first under the
                            // skew-driven order (identity for the static
                            // policies).
                            let Some(&i) = plan.order().get(pos) else {
                                break;
                            };
                            // repolint: allow(panic-propagation): i < n == slots.len() — plan.order() is a permutation of 0..n
                            let slot = &slots[i];
                            // The bucket's thread grant, drawn from the
                            // plan's token pool now (not at spawn time) so
                            // it reflects capacity freed by finished
                            // buckets. Held across fault retries; returned
                            // when the bucket completes.
                            let grant = plan.acquire(i);
                            let mut attempts = 0u32;
                            loop {
                                attempts += 1;
                                if let Some(plan) = &faults {
                                    if plan.should_fail(job_name, slot.key) {
                                        if attempts >= plan.max_attempts() {
                                            // The job fails, as Hadoop's
                                            // would; surfaced as a typed
                                            // error at the join point.
                                            return Err(EngineError::MaxAttemptsExceeded {
                                                job: job_name.to_string(),
                                                reducer: slot.key,
                                                attempts,
                                            });
                                        }
                                        continue; // retry (re-read below)
                                    }
                                }
                                let taken = if faults.is_some() {
                                    // Retryable run: keep the bucket resident and
                                    // hand the reducer a fresh copy per attempt.
                                    slot.values.lock().clone()
                                } else {
                                    // Fault-free run: move the bucket out.
                                    slot.values.lock().take()
                                };
                                // `next.fetch_add` hands each bucket index to
                                // exactly one worker, so an empty slot means
                                // an engine bug, not a user error.
                                let Some(source) = taken else {
                                    return Err(EngineError::Internal(
                                        "reduce bucket consumed twice",
                                    ));
                                };
                                let spilled = source.is_spilled();
                                let r0 = tracer.map(Tracer::now_us).unwrap_or(0);
                                let svc0 = telemetry_ref.as_ref().map_or(0, |t| t.now_nanos());
                                let mut out = Vec::new();
                                let mut ctx =
                                    ReduceCtx::with_parallelism(slot.key, grant, heavy_threshold);
                                let mut values = source.into_stream();
                                if let Some(tel) = telemetry_ref {
                                    values.enable_heartbeats(
                                        Arc::clone(tel),
                                        Arc::clone(job_label),
                                        slot.key,
                                        hb_every,
                                    );
                                }
                                reducer.reduce(&mut ctx, &mut values, &mut out);
                                // Streaming can't surface a Result per value,
                                // so a spilled-read failure ends the stream
                                // early and is latched for this check.
                                if let Some(e) = values.io_error() {
                                    return Err(EngineError::Spill {
                                        job: job_name.to_string(),
                                        reducer: slot.key,
                                        detail: e.to_string(),
                                    });
                                }
                                spill_read_nanos += values.io_nanos();
                                // Drop the stream before reading the clock so
                                // its heartbeat remainder is flushed within
                                // the bucket's service window.
                                drop(values);
                                let service_ns = telemetry_ref
                                    .as_ref()
                                    .map_or(0, |t| t.now_nanos().saturating_sub(svc0));
                                let event = tracer.map(|t| {
                                    TraceEvent::span(
                                        SpanKind::Reduce,
                                        "reduce",
                                        w as u64,
                                        r0,
                                        t.now_us(),
                                    )
                                    .arg("key", slot.key)
                                    .arg("pairs", slot.pairs_received)
                                    .arg("work", ctx.work())
                                    .arg("out", out.len() as u64)
                                    .arg("spilled", spilled as u64)
                                    .arg("grant", grant as u64)
                                });
                                let load = ReducerLoad {
                                    key: slot.key,
                                    pairs_received: slot.pairs_received,
                                    work: ctx.work(),
                                    output: out.len() as u64,
                                    attempts,
                                };
                                let ReduceCtx { counters, .. } = ctx;
                                // repolint: allow(panic-propagation): i < n == result_refs.len(), same guard
                                *result_refs[i].lock() = Some(ReduceResult {
                                    key: slot.key,
                                    out,
                                    load,
                                    counters,
                                    event,
                                    service_ns,
                                    grant: grant as u64,
                                });
                                if let Some(tel) = telemetry_ref {
                                    tel.gauges().note_reducer_done();
                                }
                                buckets_run += 1;
                                break;
                            }
                            // Return the grant so queued buckets see the
                            // freed capacity (error paths abort the whole
                            // job, so they need not bother).
                            plan.release(grant);
                        }
                        let stint = tracer.map(|t| {
                            TraceEvent::span(
                                SpanKind::Task,
                                "reduce-worker",
                                w as u64,
                                t0,
                                t.now_us(),
                            )
                            .arg("buckets", buckets_run)
                            .arg("heavy_buckets", plan.heavy_count() as u64)
                        });
                        Ok((stint, spill_read_nanos))
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(Ok((event, nanos))) => {
                        worker_events.extend(event);
                        spill_read_nanos += nanos;
                    }
                    Ok(Err(e)) => {
                        worker_error.get_or_insert(e);
                    }
                    Err(payload) => {
                        panic_payload.get_or_insert(payload);
                    }
                }
            }
        })
        .unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        if let Some(e) = worker_error {
            return Err(e);
        }

        let mut outs = Vec::with_capacity(n);
        let mut loads = Vec::with_capacity(n);
        let mut counters = Counters::new();
        let mut reduce_events: Vec<TraceEvent> = Vec::new();
        let mut service: Vec<(ReducerId, u64, u64)> = Vec::new();
        let mut active_peaks: Vec<u64> = Vec::new();
        let mut grants: Vec<u64> = Vec::with_capacity(n);
        for slot in result_slots {
            let r = slot
                .into_inner()
                .ok_or(EngineError::Internal("reducer left no result"))?;
            if telemetry.is_some() {
                service.push((r.key, r.load.pairs_received, r.service_ns));
                let peak = r.counters.get(names::KERNEL_ACTIVE_PEAK);
                if peak > 0 {
                    active_peaks.push(peak);
                }
            }
            grants.push(r.grant);
            outs.push((r.key, r.out));
            loads.push(r.load);
            counters.merge(&r.counters);
            reduce_events.extend(r.event);
        }
        // Scheduler shape counters (the `sched.` prefix is execution-shape:
        // grants vary with policy, thread count and pool state, never the
        // data plane). `sched.grants` sums the per-bucket grants, so any
        // value above the bucket count proves some bucket ran
        // multi-threaded — what the repolint-audit sched leg asserts.
        // Recorded only when the plan deviated from the all-serial floor,
        // mirroring the `spill.*` gate: trivial jobs keep a clean counter
        // set.
        let granted_total: u64 = grants.iter().sum();
        if granted_total > n as u64 || plan.heavy_count() > 0 {
            counters.inc(names::SCHED_GRANTS, granted_total);
            if plan.heavy_count() > 0 {
                counters.inc(names::SCHED_HEAVY_BUCKETS, plan.heavy_count() as u64);
            }
        }
        if let Some(tel) = &telemetry {
            // Service-time and active-peak samples in bucket (key) order —
            // the same deterministic merge discipline as the trace batches
            // below. `kernel.active_peak` sketches the event sweep's
            // execution shape: the log2 histogram of per-bucket maximum
            // active-array occupancy.
            let mut hists = HistogramRegistry::new();
            for &(_, _, ns) in &service {
                hists.record(names::REDUCE_SERVICE_NS, ns);
            }
            for &peak in &active_peaks {
                hists.record(names::KERNEL_ACTIVE_PEAK, peak);
            }
            // Per-bucket grants in bucket (key) order: the grant histogram
            // the audit sched leg inspects (`max() > 1` on the heavy mix).
            for &g in &grants {
                hists.record(names::SCHED_GRANT_THREADS, g);
            }
            tel.merge_hists(&hists);
            let cfg = tel.config();
            let stragglers =
                detect_stragglers(&service, cfg.straggler_fraction, cfg.min_straggler_reducers);
            if !stragglers.is_empty() {
                // Execution-shape by classification: rates depend on wall
                // time, so the counter only exists when telemetry is on.
                counters.inc(names::TELEMETRY_STRAGGLERS, stragglers.len() as u64);
            }
            tel.note_stragglers(job_name, &stragglers);
        }
        if let Some(t) = tracer {
            // Per-reducer spans in bucket (key) order, then worker stints in
            // worker order — the deterministic merge of the trace buffers.
            t.record_batch(reduce_events);
            t.record_batch(worker_events);
        }
        Ok((outs, loads, counters, spill_read_nanos))
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
    fn add_segment<M: Record>(&mut self, values: &[M]) {
        self.pairs += values.len() as u64;
        self.bytes += values.iter().map(|v| v.approx_bytes() + 8).sum::<u64>();
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

/// Splices per-worker key-grouped runs into reducer buckets.
///
/// Keys ascend, and a bucket is its key's segments concatenated in run
/// index order, so the result is exactly a *stable* sort of the
/// concatenated map outputs grouped by key: values within a key keep
/// mapper-emission order. The first segment of a key is moved, the rest
/// are appended — a memcpy per segment; the full pair vector is never
/// materialized, sorted or compared pair by pair.
pub fn merge_keyed_runs<M: Record>(
    runs: Vec<KeyedRun<M>>,
) -> (Vec<(ReducerId, Vec<M>)>, ShuffleStats) {
    let mut buckets: Vec<(ReducerId, Vec<M>)> = Vec::new();
    let mut stats = ShuffleStats::default();
    let mut walk = KeyMajor::new(runs);
    while let Some((key, mut segments)) = walk.next_key() {
        let mut values = segments.next().unwrap_or_default();
        stats.add_segment(&values);
        values.reserve_exact(segments.as_slice().iter().map(Vec::len).sum());
        for mut segment in segments {
            stats.add_segment(&segment);
            values.append(&mut segment);
        }
        buckets.push((key, values));
    }
    (buckets, stats)
}

/// The budgeted merge's result: per-reducer bucket sources (in-memory or
/// spilled) plus the shuffle volume stats.
type BudgetedShuffle<M> = (Vec<(ReducerId, BucketSource<M>)>, ShuffleStats);

/// The budgeted shuffle: the same key-major walk as [`merge_keyed_runs`],
/// but a bucket buffers at most `store.budget()` approx-bytes before the
/// buffered prefix is flushed to the spill store as a run. A bucket that
/// never overflows comes out as [`BucketSource::InMemory`] — byte-for-byte
/// the fast path — while an overflowing bucket becomes
/// [`BucketSource::Spilled`] over its runs (plus the in-memory tail, also
/// flushed). A bucket's value sequence is thread-count-independent, so the
/// flush points — and therefore the whole spill layout — depend only on
/// the budget. A failed spill write names the bucket being flushed.
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
        let mut values: Vec<M> = Vec::new();
        let mut buffered = 0u64;
        let mut spilled: Vec<SpillRun> = Vec::new();
        for segment in segments {
            stats.add_segment(&segment);
            for value in segment {
                buffered += value.approx_bytes();
                values.push(value);
                if buffered > budget {
                    spilled.push(spill(store, std::mem::take(&mut values))?);
                    buffered = 0;
                }
            }
        }
        if spilled.is_empty() {
            buckets.push((key, BucketSource::InMemory(values)));
            continue;
        }
        if !values.is_empty() {
            spilled.push(spill(store, values)?);
        }
        store.note_bucket();
        let bucket = SpilledBucket::new(Arc::clone(store.dfs()), spilled);
        buckets.push((key, BucketSource::Spilled(bucket)));
    }
    Ok((buckets, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ValueStream;

    fn engine() -> Engine {
        Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: 3,
            cost: CostModel::default(),
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
                cost: CostModel::default(),
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
    fn fault_injection_retries_deterministically() {
        let input: Vec<u64> = (0..100).collect();
        let clean = engine()
            .run_job(
                "faulty",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 5, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let faulty = Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: 3,
            cost: CostModel::default(),
            ..ClusterConfig::default()
        })
        .with_faults(FaultPlan::new().fail("faulty", 2, 2))
        .run_job(
            "faulty",
            &input,
            |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 5, n),
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                out.push((ctx.key, vs.sum()));
            },
        )
        .unwrap();
        assert_eq!(
            faulty.outputs, clean.outputs,
            "retry must not change output"
        );
        assert_eq!(faulty.metrics.retries(), 2);
        let load2 = faulty
            .metrics
            .reducer_loads
            .iter()
            .find(|l| l.key == 2)
            .unwrap();
        assert_eq!(load2.attempts, 3);
    }

    #[test]
    fn fault_exceeding_attempts_fails_job() {
        let result = Engine::new(ClusterConfig::with_slots(2))
            .with_faults(FaultPlan::new().fail("j", 0, 10).with_max_attempts(3))
            .run_job(
                "j",
                &[1u64],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            );
        match result {
            Err(EngineError::MaxAttemptsExceeded {
                job,
                reducer,
                attempts,
            }) => {
                assert_eq!(job, "j");
                assert_eq!(reducer, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected MaxAttemptsExceeded, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "mapper exploded on 7")]
    fn map_panic_payload_is_reraised() {
        let _ = engine()
            .run_job(
                "boom",
                &(0..32u64).collect::<Vec<_>>(),
                |&n: &u64, e: &mut Emitter<u64>| {
                    assert!(n != 7, "mapper exploded on {n}");
                    e.emit(0, n);
                },
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            )
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "reducer exploded on key 3")]
    fn reduce_panic_payload_is_reraised() {
        let _ = engine()
            .run_job(
                "boom",
                &(0..32u64).collect::<Vec<_>>(),
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 5, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    assert!(ctx.key != 3, "reducer exploded on key {}", ctx.key);
                    out.extend(vs);
                },
            )
            .unwrap();
    }

    /// One map worker's run, built the way the map phase builds it.
    fn run_of<M>(pairs: impl IntoIterator<Item = (ReducerId, M)>) -> KeyedRun<M> {
        let mut e = Emitter::default();
        for (k, v) in pairs {
            e.emit(k, v);
        }
        e.finish().0
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
            vec![(1, vec!['b', 'd']), (3, vec!['e']), (5, vec!['a', 'c'])]
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
        assert_eq!(buckets, vec![(0, vec![1, 2, 3, 4, 5])]);
    }

    #[test]
    fn merge_handles_empty_runs() {
        let (buckets, stats) =
            merge_keyed_runs(vec![Vec::new(), run_of([(2u64, 9u64)]), Vec::new()]);
        assert_eq!(buckets, vec![(2, vec![9])]);
        assert_eq!(stats.pairs, 1);
        let (empty, stats) = merge_keyed_runs(Vec::<KeyedRun<u64>>::new());
        assert!(empty.is_empty());
        assert_eq!(stats, ShuffleStats::default());
    }

    #[test]
    fn counters_merge_from_map_and_reduce() {
        let out = engine()
            .run_job(
                "counted",
                &(0..100u64).collect::<Vec<_>>(),
                |&n: &u64, e: &mut Emitter<u64>| {
                    e.inc("map.seen", 1);
                    if n % 2 == 0 {
                        e.inc("map.even", 1);
                    }
                    e.emit(n % 4, n);
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    ctx.inc("reduce.values", vs.len() as u64);
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let c = &out.metrics.counters;
        assert_eq!(c.get("map.seen"), 100);
        assert_eq!(c.get("map.even"), 50);
        assert_eq!(c.get("reduce.values"), 100);
        assert_eq!(c.get("absent"), 0);
    }

    #[test]
    fn counters_deterministic_across_thread_counts() {
        let input: Vec<u64> = (0..333).collect();
        let run = |threads: usize| {
            Engine::new(ClusterConfig {
                reducer_slots: 4,
                worker_threads: threads,
                cost: CostModel::default(),
                ..ClusterConfig::default()
            })
            .run_job(
                "cdet",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| {
                    e.inc("pairs", 1 + (n % 3));
                    e.emit(n % 7, n);
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    ctx.inc("groups", 1);
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
    fn tracer_records_job_phase_task_and_reduce_spans() {
        let tracer = Arc::new(Tracer::new());
        let eng = Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: 3,
            cost: CostModel::default(),
            ..ClusterConfig::default()
        })
        .with_tracer(tracer.clone());
        let _ = eng
            .run_job(
                "traced",
                &(0..64u64).collect::<Vec<_>>(),
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 4, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    ctx.add_work(vs.len() as u64);
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let events = tracer.snapshot();
        let names_of = |kind: SpanKind| -> Vec<String> {
            events
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.name.clone())
                .collect()
        };
        assert_eq!(names_of(SpanKind::Job), vec!["traced"]);
        assert_eq!(names_of(SpanKind::Phase), vec!["map", "shuffle", "reduce"]);
        // 3 worker threads → 3 map chunks; plus up to 3 reduce-worker stints.
        let tasks = names_of(SpanKind::Task);
        assert_eq!(tasks.iter().filter(|n| *n == "map-task").count(), 3);
        assert!(tasks.iter().filter(|n| *n == "reduce-worker").count() >= 1);
        // One reduce span per bucket, in key order.
        let reduce_keys: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == SpanKind::Reduce)
            .map(|e| {
                e.args
                    .iter()
                    .find(|(k, _)| *k == "key")
                    .expect("reduce span has key arg")
                    .1
            })
            .collect();
        assert_eq!(reduce_keys, vec![0, 1, 2, 3]);
        let reduce0 = events.iter().find(|e| e.kind == SpanKind::Reduce).unwrap();
        assert!(reduce0.args.contains(&("pairs", 16)));
        assert!(reduce0.args.contains(&("work", 16)));
        assert!(reduce0.args.contains(&("out", 1)));
        // The export shapes hold on a real trace.
        let json = tracer.chrome_trace();
        assert!(json.contains("\"cat\":\"job\""), "{json}");
        assert!(json.contains("\"cat\":\"phase\""), "{json}");
        assert!(json.contains("\"cat\":\"task\""), "{json}");
    }

    #[test]
    fn no_tracer_records_nothing() {
        let eng = engine();
        assert!(eng.tracer().is_none());
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

    /// Clone-counting value for asserting the zero-clone reduce contract.
    #[derive(Debug, PartialEq)]
    struct Tracked(u64);

    static TRACKED_CLONES: AtomicUsize = AtomicUsize::new(0);

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            TRACKED_CLONES.fetch_add(1, Ordering::SeqCst);
            Tracked(self.0)
        }
    }

    impl Record for Tracked {}

    #[test]
    fn reduce_clones_only_under_fault_plan() {
        // Single test covers both paths so the shared counter sees no
        // interference from parallel test threads (no other test uses
        // `Tracked`).
        let input: Vec<u64> = (0..64).collect();
        let mapper = |&n: &u64, e: &mut Emitter<Tracked>| e.emit(n % 4, Tracked(n));
        let reducer =
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<Tracked>, out: &mut Vec<(u64, u64)>| {
                out.push((ctx.key, vs.map(|t| t.0).sum()));
            };

        let before = TRACKED_CLONES.load(Ordering::SeqCst);
        let clean = engine()
            .run_job("noclone", &input, mapper, reducer)
            .unwrap();
        let clean_clones = TRACKED_CLONES.load(Ordering::SeqCst) - before;
        assert_eq!(clean_clones, 0, "fault-free path must not clone buckets");

        let before = TRACKED_CLONES.load(Ordering::SeqCst);
        let faulty = Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: 3,
            cost: CostModel::default(),
            ..ClusterConfig::default()
        })
        .with_faults(FaultPlan::new().fail("noclone", 1, 1))
        .run_job("noclone", &input, mapper, reducer)
        .unwrap();
        let fault_clones = TRACKED_CLONES.load(Ordering::SeqCst) - before;
        // One clone per successful attempt: 4 buckets, each reduced once
        // (failed attempts bail before reading values): 64 values across 4
        // buckets of 16.
        assert_eq!(fault_clones, 64, "fault path clones each bucket once");
        assert_eq!(faulty.outputs, clean.outputs);
    }

    fn budgeted_engine(budget: Option<u64>, threads: usize) -> Engine {
        Engine::new(ClusterConfig {
            reducer_slots: 4,
            worker_threads: threads,
            intra_reduce_threads: threads,
            reduce_memory_budget: budget,
            cost: CostModel::default(),
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
                e.inc("map.seen", 1);
                e.emit(n % 3, n);
            },
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                ctx.inc("groups", 1);
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

    #[test]
    fn spilled_bucket_fault_retry_rereads_runs() {
        let input: Vec<u64> = (0..600).collect();
        let run = |eng: Engine| {
            eng.run_job(
                "spill-faulty",
                &input,
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 4, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap()
        };
        let clean = run(budgeted_engine(Some(128), 3));
        let faulty = run(
            budgeted_engine(Some(128), 3).with_faults(FaultPlan::new().fail("spill-faulty", 2, 2)),
        );
        assert_eq!(faulty.outputs, clean.outputs);
        assert_eq!(faulty.metrics.retries(), 2);
    }

    #[test]
    fn spill_spans_reach_the_tracer() {
        let tracer = Arc::new(Tracer::new());
        let eng = budgeted_engine(Some(64), 2).with_tracer(tracer.clone());
        let _ = spill_job(&eng);
        let spills: Vec<_> = tracer
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == SpanKind::Spill)
            .collect();
        assert!(!spills.is_empty(), "budgeted run must record spill spans");
        assert!(spills.iter().all(|e| e.name == "spill-run"));
        assert!(tracer.chrome_trace().contains("\"cat\":\"spill\""));

        // A reduce span carries the spilled flag.
        let reduce = tracer
            .snapshot()
            .into_iter()
            .find(|e| e.kind == SpanKind::Reduce)
            .unwrap();
        assert!(reduce.args.contains(&("spilled", 1)));
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
        let mut store = SpillStore::new(32, None, None);
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
            let mut store = SpillStore::new(budget, None, None);
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
        let mut store = SpillStore::new(32, None, None);
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
