//! Shared measurement plumbing for the per-table/figure binaries.

use ij_core::{Algorithm, JoinInput, JoinOutput};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{ClusterConfig, Counters, Engine, Observer, SchedConfig, SchedPolicy};
use ij_query::JoinQuery;
use std::sync::Arc;
use std::time::Instant;

/// One algorithm measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Simulated cluster time (cost units), summed across cycles.
    pub simulated: f64,
    /// Real wall-clock seconds of the in-process run.
    pub wall_secs: f64,
    /// Map-phase wall-clock seconds, summed across cycles.
    pub map_secs: f64,
    /// Shuffle (run-merge) wall-clock seconds, summed across cycles.
    pub shuffle_secs: f64,
    /// Reduce-phase wall-clock seconds, summed across cycles.
    pub reduce_secs: f64,
    /// Spill I/O wall-clock seconds, summed across cycles (zero unless a
    /// reduce-memory budget made buckets spill).
    pub spill_secs: f64,
    /// Total intermediate key-value pairs across cycles.
    pub pairs: u64,
    /// Output tuple count.
    pub output: u64,
    /// Intervals replicated (if the algorithm reports it).
    pub replicated: Option<u64>,
    /// Worst per-cycle load skew.
    pub skew: f64,
    /// Consistent cells used / total, when the algorithm is matrix-based.
    pub consistent_cells: Option<(u64, u64)>,
    /// User counters summed across the algorithm's cycles (replicas,
    /// crossing intervals, candidate vs emitted pairs, …).
    pub counters: Counters,
    /// The raw output (for cross-checking between algorithms).
    pub out: JoinOutput,
}

/// Builds the simulated cluster (the paper runs 16 reduce processes).
pub fn engine(slots: usize) -> Engine {
    Engine::new(ClusterConfig::with_slots(slots))
}

/// Builds the simulated cluster for the bench binaries. When `observed` —
/// `--trace <path>` or `--metrics-out <path>` was given — one [`Observer`]
/// (monotonic clock, default heartbeat quantum) is attached and records
/// every job run against the engine; [`write_trace`] and
/// [`write_metrics`] render two views of it. `budget` is the `--budget
/// <bytes>` reduce-memory budget (oversized reducer buckets then spill to
/// the Dfs and `spill.*` counters appear in the tables); `sched` selects
/// the intra-reduce grant policy (the `--sched` flag) — output bytes are
/// policy-invariant, so the tables only move in wall-clock and the
/// `sched.*` counters.
pub fn observed_engine(
    slots: usize,
    observed: bool,
    budget: Option<u64>,
    sched: SchedPolicy,
) -> (Engine, Option<Arc<Observer>>) {
    let engine = Engine::new(ClusterConfig {
        reduce_memory_budget: budget,
        sched: SchedConfig::with_policy(sched),
        ..ClusterConfig::with_slots(slots)
    });
    if !observed {
        return (engine, None);
    }
    let observer = Arc::new(Observer::new());
    (engine.with_observer(Arc::clone(&observer)), Some(observer))
}

/// Writes the observer's telemetry snapshot to `path` in Prometheus text
/// exposition format (no-op without a path or an observer).
pub fn write_metrics(path: Option<&str>, observer: &Option<Arc<Observer>>) {
    if let (Some(path), Some(obs)) = (path, observer) {
        let snap = obs.snapshot();
        std::fs::write(path, snap.to_prometheus())
            .unwrap_or_else(|e| panic!("cannot write metrics {path}: {e}"));
        eprintln!(
            "(wrote {path}: {} series, {} histograms — Prometheus text format)",
            snap.series.len(),
            snap.histograms.len()
        );
    }
}

/// Writes the observer's Chrome trace to `path` (no-op without a path or
/// an observer).
pub fn write_trace(path: Option<&str>, observer: &Option<Arc<Observer>>) {
    if let (Some(path), Some(obs)) = (path, observer) {
        std::fs::write(path, obs.chrome_trace())
            .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
        eprintln!(
            "(wrote {path}: {} events — open in chrome://tracing or ui.perfetto.dev)",
            obs.len()
        );
    }
}

/// Runs one algorithm and collects the table-relevant numbers.
///
/// # Panics
/// Panics if the algorithm rejects the query — bench scenarios only pair
/// algorithms with the query classes they support.
pub fn measure(
    alg: &dyn Algorithm,
    q: &JoinQuery,
    input: &JoinInput,
    engine: &Engine,
) -> Measurement {
    let start = Instant::now();
    let out = alg
        .run(q, input, engine)
        .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
    let wall_secs = start.elapsed().as_secs_f64();
    Measurement {
        algorithm: alg.name(),
        simulated: out.chain.total_simulated(),
        wall_secs,
        map_secs: out.chain.total_map_wall().as_secs_f64(),
        shuffle_secs: out.chain.total_shuffle_wall().as_secs_f64(),
        reduce_secs: out.chain.total_reduce_wall().as_secs_f64(),
        spill_secs: out.chain.total_spill_wall().as_secs_f64(),
        pairs: out.chain.total_pairs(),
        output: out.count,
        replicated: out.stats.replicated_intervals,
        skew: out.chain.worst_skew(),
        consistent_cells: out.stats.consistent_cells,
        counters: out.chain.total_counters(),
        out,
    }
}

/// RCCIS's key-value pairs as the paper counts them: every split copy of
/// the marking cycle (`rccis.split_pairs`) plus the join cycle's pairs. The
/// run itself shuffles fewer ([`Measurement::pairs`]): its marking cycle
/// ships only the copies near enough to a boundary to be in a crossing set.
pub fn rccis_paper_pairs(rc: &Measurement) -> u64 {
    let join = rc
        .out
        .chain
        .cycles
        .last()
        .map_or(0, |c| c.intermediate_pairs);
    rc.counters.get(names::RCCIS_SPLIT_PAIRS) + join
}

/// Asserts that all measurements produced the same output count — the
/// harness's built-in cross-check that the compared algorithms computed the
/// same join.
pub fn assert_same_output(ms: &[Measurement]) {
    if let Some(first) = ms.first() {
        for m in &ms[1..] {
            assert_eq!(
                m.output, first.output,
                "{} and {} disagree on the join size",
                m.algorithm, first.algorithm
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_core::two_way::TwoWayJoin;
    use ij_core::OutputMode;
    use ij_interval::{AllenPredicate::Overlaps, Interval, Relation};

    #[test]
    fn measure_runs_and_counts() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", vec![Interval::new(0, 10).unwrap()]),
                Relation::from_intervals("B", vec![Interval::new(5, 15).unwrap()]),
            ],
        )
        .unwrap();
        let e = engine(4);
        let alg = TwoWayJoin {
            partitions: 4,
            mode: OutputMode::Count,
        };
        let m = measure(&alg, &q, &input, &e);
        assert_eq!(m.output, 1);
        assert!(m.simulated > 0.0);
        assert_same_output(&[m.clone(), m]);
    }

    #[test]
    fn observed_engine_renders_both_views_of_one_observer() {
        let (e, observer) = observed_engine(4, true, None, SchedPolicy::default());
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", vec![Interval::new(0, 10).unwrap()]),
                Relation::from_intervals("B", vec![Interval::new(5, 15).unwrap()]),
            ],
        )
        .unwrap();
        let alg = TwoWayJoin {
            partitions: 4,
            mode: OutputMode::Count,
        };
        let m = measure(&alg, &q, &input, &e);
        assert_eq!(m.output, 1);
        let obs = observer.as_ref().expect("observed");
        assert!(!obs.is_empty(), "jobs run against it leave events");
        assert!(obs.snapshot().series["progress.jobs_finished"] > 0);

        let trace = std::env::temp_dir().join("ij_bench_trace_test.json");
        write_trace(trace.to_str(), &observer);
        let written = std::fs::read_to_string(&trace).unwrap();
        assert!(written.starts_with("{\"traceEvents\":["));
        let _ = std::fs::remove_file(&trace);

        let metrics = std::env::temp_dir().join("ij_bench_metrics_test.prom");
        write_metrics(metrics.to_str(), &observer);
        let written = std::fs::read_to_string(&metrics).unwrap();
        assert!(written.contains("# TYPE ij_progress_jobs_started gauge"));
        assert!(written.contains("ij_telemetry_stragglers"));
        let _ = std::fs::remove_file(&metrics);

        let (_, unobserved) = observed_engine(4, false, None, SchedPolicy::AllSerial);
        assert!(unobserved.is_none());
        write_trace(None, &unobserved); // no-ops must not panic
        write_metrics(None, &unobserved);
    }

    #[test]
    fn budgeted_engine_spills_and_reports_spill_time() {
        let q = JoinQuery::chain(&[Overlaps]).unwrap();
        let many: Vec<Interval> = (0..200)
            .map(|i| Interval::new(i, i + 300).unwrap())
            .collect();
        let input = JoinInput::bind_owned(
            &q,
            vec![
                Relation::from_intervals("A", many.clone()),
                Relation::from_intervals("B", many),
            ],
        )
        .unwrap();
        let alg = TwoWayJoin {
            partitions: 2,
            mode: OutputMode::Count,
        };
        let (unbudgeted, _) = observed_engine(4, false, None, SchedPolicy::default());
        let base = measure(&alg, &q, &input, &unbudgeted);
        assert_eq!(base.counters.get("spill.buckets"), 0);
        assert_eq!(base.spill_secs, 0.0);

        let (budgeted, _) = observed_engine(4, false, Some(64), SchedPolicy::default());
        let m = measure(&alg, &q, &input, &budgeted);
        assert_eq!(m.output, base.output, "budget must not change the join");
        assert!(m.counters.get("spill.buckets") > 0);
        assert!(m.spill_secs > 0.0);
    }
}
