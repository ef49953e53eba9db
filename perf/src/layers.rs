//! The traced run: spans recorded here, around calls into each layer's
//! public functions, and the per-layer metrics derived from them and from
//! the `JobChain` / `JobMetrics` / `Counters` values those calls return.
//!
//! Nothing is attached to the engine. A traced op is the untraced op with
//! a clock read at each layer boundary; the layer replays (`interval`,
//! `core.kernel`, `mapreduce` passthrough, `Dfs`) drive one layer alone on
//! the workload's own data so its cost is known without the layers around
//! it.

use crate::run::{
    generate, output_is_correct, run_serial_child, set_up, timed_loop, Prepared, RunSpec,
};
use crate::stats::median;
use crate::trace::{op_closure_s, Tracer};
use crate::workloads::{Workload, PARTITIONS, SPILL_BUDGET, THREADS};
use ij_core::algorithm::iv_records;
use ij_core::executor::Candidates;
use ij_core::kernel::{self, KernelConfig};
use ij_core::records::{FlagRec, IvRec};
use ij_core::{plan, RunArtifacts};
use ij_interval::{ops, MapOp, Partitioning};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{
    ClusterConfig, Dfs, DfsError, Emitter, Engine, JobChain, ReduceCtx, ValueStream,
};
use ij_query::QueryClass;
use std::hint::black_box;
use std::time::Instant;

/// Traced ops never number fewer than this.
pub const MIN_TRACED_OPS: usize = 3;
/// `mapreduce.unattributed_frac` above this fails the traced run: job
/// wall time the engine does not attribute to a phase must stay visible.
pub const MAX_UNATTRIBUTED_FRAC: f64 = 0.10;
/// Records per Dfs replay file: 256 KiB of 32-byte `FlagRec`s.
const DFS_FILE_RECORDS: usize = 262_144 / 32;
/// Records per `Dfs::read_range` call of the replay.
const DFS_RANGE_RECORDS: usize = 2048;

/// The result of a traced run.
pub struct LayerRun {
    /// `(metric name, value)` for every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// The recorded spans.
    pub tracer: Tracer,
    /// Ops attempted (untraced baseline plus traced).
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
}

/// What one traced op yields beside its spans. The output tuples are
/// dropped with the op: only the chain of job metrics is kept.
struct TracedOp {
    chain: JobChain,
    count: u64,
    plan_s: f64,
    run_s: f64,
}

/// One op with a span at each layer boundary: `op` > `query.plan`,
/// `core.run` (> one derived `mapreduce.job` per cycle > derived
/// `mapreduce.map` / `.shuffle` / `.reduce`), `verify`.
fn traced_op(w: &Workload, p: &Prepared, t: &mut Tracer, op: u32) -> Result<TracedOp, String> {
    t.set_op(Some(op));
    let result = t.span("op", |t| {
        let alg = t.span("query.plan", |_| {
            let query = (w.query)();
            black_box(QueryClass::of(&query));
            plan(&query, w.plan_config())
        });
        let out = t
            .span("core.run", |_| {
                alg.run(&p.query, black_box(&p.input), &p.engine)
            })
            .map_err(|e| e.to_string())?;
        let run = t
            .last_named("core.run")
            .expect("core.run was just recorded");
        let mut cursor = t.spans()[run].start_ns;
        for cycle in &out.chain.cycles {
            let (job, job_end) =
                t.derived("mapreduce.job", run, cursor, cycle.wall.as_nanos() as u64);
            let mut phase = cursor;
            for (name, wall) in [
                ("mapreduce.map", cycle.map_wall),
                ("mapreduce.shuffle", cycle.shuffle_wall),
                ("mapreduce.reduce", cycle.reduce_wall),
            ] {
                phase = t.derived(name, job, phase, wall.as_nanos() as u64).1;
            }
            cursor = job_end;
        }
        if t.span("verify", |_| output_is_correct(w, &out, p.reference_count)) {
            Ok((out.chain, out.count))
        } else {
            Err(format!(
                "traced op counted {}, the reference is {}",
                out.count, p.reference_count
            ))
        }
    });
    t.set_op(None);
    let (chain, count) = result?;
    let dur = |name: &str| {
        let i = t.last_named(name).expect("span was recorded");
        t.spans()[i].dur_ns() as f64 / 1e9
    };
    Ok(TracedOp {
        chain,
        count,
        plan_s: dur("query.plan"),
        run_s: dur("core.run"),
    })
}

/// `ops::apply` of project, split and replicate for every input interval
/// (span `interval.ops`). Returns the number of applications.
fn interval_replay(p: &Prepared, part: &Partitioning, t: &mut Tracer) -> u64 {
    t.span("interval.ops", |_| {
        let mut pairs = 0usize;
        let mut applied = 0u64;
        for rel in p.input.relations() {
            for tuple in rel.tuples() {
                for op in [MapOp::Project, MapOp::Split, MapOp::Replicate] {
                    pairs += ops::apply(op, black_box(tuple.interval()), part).len();
                    applied += 1;
                }
            }
        }
        black_box(pairs);
        applied
    })
}

/// Per partition, every interval whose `split` range covers it becomes a
/// candidate (span `core.kernel.build`).
fn kernel_candidates(p: &Prepared, part: &Partitioning, t: &mut Tracer) -> Vec<Candidates> {
    t.span("core.kernel.build", |_| {
        let m = p.query.num_relations() as usize;
        let mut buckets: Vec<Candidates> = (0..part.len()).map(|_| Candidates::new(m)).collect();
        for (r, rel) in p.input.relations().iter().enumerate() {
            for tuple in rel.tuples() {
                for i in ops::split(tuple.interval(), part) {
                    buckets[i].push(r, tuple.interval(), tuple.id);
                }
            }
        }
        buckets.iter_mut().for_each(Candidates::finish);
        buckets
    })
}

/// `kernel::execute` over every partition's candidates (span `span`).
/// Returns `(work units, outputs)`.
fn kernel_replay(
    p: &Prepared,
    buckets: &[Candidates],
    cfg: &KernelConfig,
    span: &'static str,
    t: &mut Tracer,
) -> (u64, u64) {
    t.span(span, |_| {
        let (mut work, mut outputs) = (0u64, 0u64);
        for cands in buckets {
            work += kernel::execute(&p.query, cands, cfg, |_| true, |_| outputs += 1).work;
        }
        (work, outputs)
    })
}

/// An `Engine::run_job` whose mapper routes each record to its `split`
/// partitions and whose reducer only drains the stream: the engine's cost
/// per pair with no join kernel (span `span`). Returns the pairs shuffled.
fn passthrough_replay(
    records: &[IvRec],
    part: &Partitioning,
    cluster: ClusterConfig,
    span: &'static str,
    t: &mut Tracer,
) -> Result<u64, String> {
    let engine = Engine::new(cluster);
    let out = t
        .span(span, |_| {
            engine.run_job(
                "perf-passthrough",
                records,
                |rec: &IvRec, out: &mut Emitter<IvRec>| {
                    for i in ops::split(rec.iv, part) {
                        out.emit(i as u64, *rec);
                    }
                },
                |_: &mut ReduceCtx, values: &mut ValueStream<IvRec>, out: &mut Vec<u64>| {
                    out.push(values.map(|rec| u64::from(rec.tid) & 1).sum());
                },
            )
        })
        .map_err(|e| format!("passthrough replay: {e}"))?;
    black_box(&out.outputs);
    Ok(out.metrics.intermediate_pairs)
}

/// `Dfs::write` (span `mapreduce.dfs.write`), then `Dfs::read` and
/// `Dfs::read_range` (span `mapreduce.dfs.read`) over `bytes` of 32-byte
/// records in 256 KiB files. Returns the MB written; twice that is read.
fn dfs_replay(records: &[IvRec], bytes: u64, t: &mut Tracer) -> Result<f64, String> {
    let total = (bytes as usize / 32).max(1);
    let files: Vec<Vec<FlagRec>> = (0..total.div_ceil(DFS_FILE_RECORDS))
        .map(|f| {
            let len = DFS_FILE_RECORDS.min(total - f * DFS_FILE_RECORDS);
            (0..len)
                .map(|i| FlagRec {
                    rec: records[(f * DFS_FILE_RECORDS + i) % records.len()],
                    replicate: i % 2 == 0,
                })
                .collect()
        })
        .collect();
    let paths: Vec<String> = (0..files.len()).map(|f| format!("perf/dfs/{f}")).collect();
    let dfs = Dfs::new();
    t.span("mapreduce.dfs.write", |_| {
        paths
            .iter()
            .zip(files)
            .try_for_each(|(path, recs)| dfs.write(path, recs))
    })
    .map_err(|e| format!("Dfs write replay: {e}"))?;
    let read = t
        .span("mapreduce.dfs.read", |_| -> Result<usize, DfsError> {
            let mut seen = 0usize;
            for path in &paths {
                let whole = dfs.read::<FlagRec>(path)?;
                seen += whole.len();
                let mut at = 0;
                while at < whole.len() {
                    let chunk = dfs.read_range::<FlagRec>(path, at, DFS_RANGE_RECORDS)?;
                    at += chunk.len();
                    seen += black_box(chunk).len();
                }
            }
            Ok(seen)
        })
        .map_err(|e| format!("Dfs read replay: {e}"))?;
    if read != 2 * total {
        return Err(format!(
            "Dfs replay read {read} records back, wrote {total} twice over"
        ));
    }
    Ok((total * 32) as f64 / 1e6)
}

/// The traced ops: at least [`MIN_TRACED_OPS`], until `seconds` have
/// passed, or exactly `spec.ops`. Returns the good ops and the number
/// attempted.
fn traced_loop(spec: &RunSpec, p: &Prepared, seconds: f64, t: &mut Tracer) -> (Vec<TracedOp>, u32) {
    let mut good = Vec::new();
    let mut attempted = 0u32;
    let start = Instant::now();
    loop {
        let stop = match spec.ops {
            Some(n) => attempted as usize >= n,
            None => {
                attempted as usize >= MIN_TRACED_OPS && start.elapsed().as_secs_f64() >= seconds
            }
        };
        if stop {
            return (good, attempted);
        }
        match traced_op(spec.workload, p, t, attempted) {
            Ok(op) => good.push(op),
            Err(e) => eprintln!("{}: traced op {attempted} failed: {e}", spec.workload.name),
        }
        attempted += 1;
    }
}

/// The whole traced run. `spec.seconds` is split evenly between the
/// untraced baseline loop and the traced loop; the replays run once each.
pub fn per_layer(spec: &RunSpec) -> Result<LayerRun, String> {
    let w = spec.workload;
    let mut t = Tracer::new();
    let p = set_up(spec)?;
    let intervals = p.input.total_tuples() as f64;
    black_box(t.span("datagen.generate", |_| {
        generate(&w.relations(spec.scale, spec.seed))
    }));

    // Untraced baseline, then traced ops, in the same process and on the
    // same data: their ratio is the tracing overhead.
    let base = timed_loop(spec, &p, spec.seconds / 2.0);
    let untraced_wall_s = median(&base.wall_s);
    let (traced, traced_ops) = traced_loop(spec, &p, spec.seconds / 2.0, &mut t);
    let attempted = base.wall_s.len() as u64 + u64::from(traced_ops);
    let failed = base.failed + u64::from(traced_ops) - traced.len() as u64;
    let Some(last) = traced.last() else {
        return Err(format!("{}: every traced op failed", w.name));
    };

    // Closure: within each traced op the spans' self times sum to the op.
    let op_walls = (0..traced_ops)
        .map(|op| op_closure_s(t.spans(), op))
        .collect::<Result<Vec<f64>, String>>()?;
    let per_op = |f: &dyn Fn(&TracedOp) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let secs = |d: std::time::Duration| d.as_secs_f64();
    let unattributed = per_op(&|o| {
        let c = &o.chain;
        let phases = c.total_map_wall() + c.total_shuffle_wall() + c.total_reduce_wall();
        (secs(c.total_wall()) - secs(phases)) / secs(c.total_wall())
    });
    if spec.scale == 1.0 && unattributed > MAX_UNATTRIBUTED_FRAC {
        return Err(format!(
            "{}: mapreduce.unattributed_frac {unattributed:.3} exceeds {MAX_UNATTRIBUTED_FRAC}",
            w.name
        ));
    }

    // Layer replays on the workload's own data.
    let part =
        RunArtifacts::partition_span(p.input.span(), PARTITIONS).map_err(|e| e.to_string())?;
    let applied = interval_replay(&p, &part, &mut t);
    let buckets = kernel_candidates(&p, &part, &mut t);
    let serial = kernel_replay(
        &p,
        &buckets,
        &KernelConfig::serial(),
        "core.kernel.replay_serial",
        &mut t,
    );
    let parallel = kernel_replay(
        &p,
        &buckets,
        &KernelConfig {
            threads: THREADS,
            parallel_threshold: 0,
        },
        "core.kernel.replay_parallel2",
        &mut t,
    );
    drop(buckets);
    if serial != parallel {
        return Err(format!(
            "{}: kernel replay (work, outputs) is {serial:?} on 1 thread and {parallel:?} on {THREADS}",
            w.name
        ));
    }
    let records = iv_records(&p.input);
    let in_memory = ClusterConfig {
        reduce_memory_budget: None,
        ..w.cluster_config(THREADS)
    };
    let passthrough_pairs = passthrough_replay(
        &records,
        &part,
        in_memory.clone(),
        "mapreduce.passthrough",
        &mut t,
    )?;
    if w.budget.is_some() {
        let budgeted = ClusterConfig {
            reduce_memory_budget: Some(SPILL_BUDGET),
            ..in_memory
        };
        passthrough_replay(
            &records,
            &part,
            budgeted,
            "mapreduce.passthrough_spill",
            &mut t,
        )?;
    }
    let chain = &last.chain;
    let shuffle_bytes = chain.total_shuffle_bytes();
    let dfs_mb = dfs_replay(&records, shuffle_bytes, &mut t)?;
    drop(records);
    let child = run_serial_child(spec, p.reference_count)?;

    let counter = |name: &str| chain.counter(name) as f64;
    let candidates = counter(names::JOIN_CANDIDATES);
    let core_run_s = per_op(&|o| o.run_s);
    let generate_s = t.total_s("datagen.generate");
    let interval_s = t.total_s("interval.ops");
    let serial_s = t.total_s("core.kernel.replay_serial");
    let parallel_s = t.total_s("core.kernel.replay_parallel2");
    let passthrough_s = t.total_s("mapreduce.passthrough");
    let metrics = vec![
        ("datagen.generate_s", generate_s),
        ("datagen.intervals_per_s", intervals / generate_s),
        ("interval.ops_s", interval_s),
        ("interval.ops_per_s", applied as f64 / interval_s),
        ("query.plan_s", per_op(&|o| o.plan_s)),
        ("core.run_s", core_run_s),
        (
            "core.driver_self_s",
            per_op(&|o| o.run_s - secs(o.chain.total_wall())),
        ),
        ("core.cycles", chain.num_cycles() as f64),
        (
            "core.replication_rate",
            chain.total_pairs() as f64 / intervals,
        ),
        ("core.output_tuples", last.count as f64),
        ("core.join_candidates", candidates),
        ("core.join_emitted", counter(names::JOIN_EMITTED)),
        (
            "core.candidate_hit_ratio",
            if candidates > 0.0 {
                counter(names::JOIN_EMITTED) / candidates
            } else {
                0.0
            },
        ),
        ("core.kernel.replay_serial_s", serial_s),
        ("core.kernel.replay_parallel2_s", parallel_s),
        ("core.kernel.replay_work", serial.0 as f64),
        ("core.kernel.replay_outputs", serial.1 as f64),
        ("core.kernel.parallel_speedup", serial_s / parallel_s),
        (
            "core.kernel.sweep_buckets",
            counter(names::KERNEL_SWEEP_BUCKETS),
        ),
        (
            "core.kernel.event_sweep_buckets",
            counter(names::KERNEL_EVENT_SWEEP_BUCKETS),
        ),
        (
            "core.kernel.merge_buckets",
            counter(names::KERNEL_MERGE_BUCKETS),
        ),
        (
            "core.kernel.fallback_buckets",
            counter(names::KERNEL_FALLBACK_BUCKETS),
        ),
        (
            "core.kernel.parallel_buckets",
            counter(names::KERNEL_PARALLEL_BUCKETS),
        ),
        (
            "mapreduce.map_s",
            per_op(&|o| secs(o.chain.total_map_wall())),
        ),
        (
            "mapreduce.shuffle_s",
            per_op(&|o| secs(o.chain.total_shuffle_wall())),
        ),
        (
            "mapreduce.reduce_s",
            per_op(&|o| secs(o.chain.total_reduce_wall())),
        ),
        ("mapreduce.unattributed_frac", unattributed),
        ("mapreduce.passthrough_s", passthrough_s),
        (
            "mapreduce.passthrough_pairs_per_s",
            passthrough_pairs as f64 / passthrough_s,
        ),
        ("mapreduce.serial_run_s", child.serial_run_s),
        (
            "mapreduce.thread_speedup",
            child.serial_run_s / untraced_wall_s,
        ),
        ("mapreduce.skew_max_mean", chain.worst_skew()),
        (
            "mapreduce.retries",
            chain.cycles.iter().map(|c| c.retries()).sum::<u64>() as f64,
        ),
        (
            "mapreduce.spill_s",
            per_op(&|o| secs(o.chain.total_spill_wall())),
        ),
        ("mapreduce.spill.buckets", counter(names::SPILL_BUCKETS)),
        ("mapreduce.spill.runs", counter(names::SPILL_RUNS)),
        ("mapreduce.spill.bytes", counter(names::SPILL_BYTES)),
        (
            "mapreduce.spill.write_amp",
            counter(names::SPILL_BYTES) / shuffle_bytes as f64,
        ),
        (
            "mapreduce.passthrough_spill_s",
            t.total_s("mapreduce.passthrough_spill"),
        ),
        (
            "mapreduce.dfs.write_mb_per_s",
            dfs_mb / t.total_s("mapreduce.dfs.write"),
        ),
        (
            "mapreduce.dfs.read_mb_per_s",
            2.0 * dfs_mb / t.total_s("mapreduce.dfs.read"),
        ),
        ("mapreduce.sched.grants", counter(names::SCHED_GRANTS)),
        (
            "mapreduce.sched.heavy_buckets",
            counter(names::SCHED_HEAVY_BUCKETS),
        ),
        ("trace.op_wall_s", median(&op_walls)),
        ("trace.untraced_wall_s", untraced_wall_s),
        ("trace_overhead_frac", core_run_s / untraced_wall_s - 1.0),
    ];
    Ok(LayerRun {
        metrics,
        tracer: t,
        attempted,
        failed,
    })
}
