//! The metric catalogue: every name, unit, direction and bound the
//! benchmark reports. `BENCHMARK.json` at the repository root lists the
//! same metrics; a unit test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression, when the runs compared use *different*
    /// seeds (the harness behind `BENCHMARK.json` does): sized at three
    /// times the seed-to-seed spread measured when the benchmark was
    /// defined, because the data, and with it every count and time, moves
    /// with the seed.
    pub bound: f64,
    /// The same, for two runs of one seed — what `compare` applies to two
    /// result files of the same seed. 0 for the counts the program makes:
    /// they repeat exactly.
    pub same_seed_bound: f64,
}

/// The end-to-end metrics, in printing order. `failed_frac` is reported by
/// `all` and gated by `compare` but is not in `BENCHMARK.json`: the driver
/// counts failures itself (`attempted` / `failed`) and refuses a metric
/// that is always 0.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "join_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.10,
    },
    EndToEnd {
        name: "intervals_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        same_seed_bound: 0.10,
    },
    EndToEnd {
        name: "join_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.10,
    },
    EndToEnd {
        name: "shuffle_pairs",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        same_seed_bound: 0.00,
    },
    EndToEnd {
        name: "shuffle_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
        same_seed_bound: 0.00,
    },
    EndToEnd {
        name: "max_reducer_pairs",
        unit: "count",
        better: Better::Lower,
        bound: 0.10,
        same_seed_bound: 0.00,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        same_seed_bound: 0.10,
    },
];

/// `failed_frac`: ops that returned `Err` or a wrong output over ops
/// attempted. Any increase is a regression.
pub const FAILED_FRAC: EndToEnd = EndToEnd {
    name: "failed_frac",
    unit: "ratio",
    better: Better::Lower,
    bound: 0.00,
    same_seed_bound: 0.00,
};

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run, grouped by layer.
pub const PER_LAYER: [PerLayer; 46] = [
    ("datagen.generate_s", "s", Lower),
    ("datagen.intervals_per_s", "1/s", Higher),
    ("interval.ops_s", "s", Lower),
    ("interval.ops_per_s", "1/s", Higher),
    ("query.plan_s", "s", Lower),
    ("core.run_s", "s", Lower),
    ("core.driver_self_s", "s", Lower),
    ("core.cycles", "count", Lower),
    ("core.replication_rate", "ratio", Lower),
    ("core.output_tuples", "count", Higher),
    ("core.join_candidates", "count", Lower),
    ("core.join_emitted", "count", Higher),
    ("core.candidate_hit_ratio", "ratio", Higher),
    ("core.kernel.replay_serial_s", "s", Lower),
    ("core.kernel.replay_parallel2_s", "s", Lower),
    ("core.kernel.replay_work", "count", Lower),
    ("core.kernel.replay_outputs", "count", Higher),
    ("core.kernel.parallel_speedup", "ratio", Higher),
    ("core.kernel.sweep_buckets", "count", Higher),
    ("core.kernel.event_sweep_buckets", "count", Higher),
    ("core.kernel.merge_buckets", "count", Higher),
    ("core.kernel.fallback_buckets", "count", Lower),
    ("core.kernel.parallel_buckets", "count", Higher),
    ("mapreduce.map_s", "s", Lower),
    ("mapreduce.shuffle_s", "s", Lower),
    ("mapreduce.reduce_s", "s", Lower),
    ("mapreduce.unattributed_frac", "ratio", Lower),
    ("mapreduce.passthrough_s", "s", Lower),
    ("mapreduce.passthrough_pairs_per_s", "1/s", Higher),
    ("mapreduce.serial_run_s", "s", Lower),
    ("mapreduce.thread_speedup", "ratio", Higher),
    ("mapreduce.skew_max_mean", "ratio", Lower),
    ("mapreduce.retries", "count", Lower),
    ("mapreduce.spill_s", "s", Lower),
    ("mapreduce.spill.buckets", "count", Lower),
    ("mapreduce.spill.runs", "count", Lower),
    ("mapreduce.spill.bytes", "bytes", Lower),
    ("mapreduce.spill.write_amp", "ratio", Lower),
    ("mapreduce.passthrough_spill_s", "s", Lower),
    ("mapreduce.dfs.write_mb_per_s", "MB/s", Higher),
    ("mapreduce.dfs.read_mb_per_s", "MB/s", Higher),
    ("mapreduce.sched.grants", "count", Higher),
    ("mapreduce.sched.heavy_buckets", "count", Higher),
    ("trace.op_wall_s", "s", Lower),
    ("trace.untraced_wall_s", "s", Lower),
    ("trace_overhead_frac", "ratio", Lower),
];
