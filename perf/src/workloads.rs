//! The six standing workloads: query, generator settings, plan and cluster
//! configuration. Everything here is fixed; only `--seed` and the smoke
//! scale vary between runs.

use ij_core::{OutputMode, PlanConfig};
use ij_datagen::{Distribution, SynthConfig};
use ij_interval::AllenPredicate::{Before, Contains, Overlaps};
use ij_mapreduce::ClusterConfig;
use ij_query::{Condition, JoinQuery};

/// The independent algorithm the full-size correctness gate compares
/// the planned algorithm's count against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// `AllReplicate` — colocation queries.
    AllReplicate,
    /// `AllSeqMatrix` — the hybrid query Q4.
    AllSeqMatrix,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every result.
    pub name: &'static str,
    /// Why the workload exists (which layer it exposes).
    pub why: &'static str,
    /// The algorithm `ij_core::plan` must pick; checked in set-up.
    pub algorithm: &'static str,
    /// Builds the join query.
    pub query: fn() -> JoinQuery,
    /// Generator settings of relation `r` is `relations(seed)[r]`, already
    /// seeded with `seed + r`.
    relations: fn(u64) -> Vec<SynthConfig>,
    /// Materialize or count.
    pub mode: OutputMode,
    /// `PlanConfig::prune_hybrid`.
    pub prune_hybrid: bool,
    /// `ClusterConfig::reduce_memory_budget`.
    pub budget: Option<u64>,
    /// Second algorithm of the full-size gate.
    pub reference: Reference,
}

/// The reduce-memory budget of `q1_sparse_spill` (and of the passthrough
/// spill replay): 256 KiB per bucket.
pub const SPILL_BUDGET: u64 = 262_144;

/// Reduce slots, partitions and matrix width are the paper's (16 reduce
/// processes, o = 6).
pub const REDUCER_SLOTS: usize = 16;
/// 1-D partitions for RCCIS.
pub const PARTITIONS: usize = 16;
/// Partitions per matrix dimension for PASM.
pub const PER_DIM: usize = 6;
/// Worker threads of the timed runs: the host has two cores and the
/// workloads never run concurrently.
pub const THREADS: usize = 2;

fn q1() -> JoinQuery {
    JoinQuery::chain(&[Overlaps, Overlaps]).expect("Q1 is a valid chain")
}

fn q0() -> JoinQuery {
    JoinQuery::chain(&[Overlaps, Contains, Overlaps]).expect("Q0 is a valid chain")
}

fn clique() -> JoinQuery {
    JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Overlaps, 1),
            Condition::whole(1, Contains, 2),
            Condition::whole(0, Overlaps, 2),
        ],
    )
    .expect("the colocation clique is valid")
}

fn q4() -> JoinQuery {
    JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Before, 1),
            Condition::whole(0, Overlaps, 2),
        ],
    )
    .expect("Q4 is valid")
}

fn q1_dense(seed: u64) -> Vec<SynthConfig> {
    (0..3)
        .map(|r| SynthConfig::table1(Q1_DENSE_N, seed + r))
        .collect()
}

fn q1_sparse(seed: u64) -> Vec<SynthConfig> {
    (0..3)
        .map(|r| SynthConfig {
            t_max: Q1_SPARSE_T_MAX,
            ..SynthConfig::table1(Q1_SPARSE_N, seed + r)
        })
        .collect()
}

fn q0_dense(seed: u64) -> Vec<SynthConfig> {
    (0..4)
        .map(|r| SynthConfig::table1(Q0_DENSE_N, seed + r))
        .collect()
}

fn clique_zipf(seed: u64) -> Vec<SynthConfig> {
    [90i64, 60, 25]
        .iter()
        .zip(0u64..)
        .map(|(&i_max, r)| SynthConfig {
            ds: Distribution::Zipf { theta: 2.0 },
            i_max,
            ..SynthConfig::table1(CLIQUE_N, seed + r)
        })
        .collect()
}

fn q4_hybrid(seed: u64) -> Vec<SynthConfig> {
    [(Q4_N1, 100i64), (2_000, 100), (1_000, 600)]
        .iter()
        .zip(0u64..)
        .map(|(&(n, i_max), r)| SynthConfig {
            t_max: 200_000,
            i_max,
            ..SynthConfig::table1(n, seed + r)
        })
        .collect()
}

/// Intervals per relation of `q1_dense_count`.
pub const Q1_DENSE_N: usize = 50_000;
/// Intervals per relation of `q1_sparse_shuffle` / `q1_sparse_spill`.
pub const Q1_SPARSE_N: usize = 300_000;
/// Time range of the sparse workloads: 200x Table 1's, so that 300 000
/// intervals per relation are 1000x sparser than `q1_dense_count`'s data.
pub const Q1_SPARSE_T_MAX: i64 = 20_000_000;
/// Intervals per relation of `q0_dense_materialize`.
pub const Q0_DENSE_N: usize = 22_000;
/// Intervals per relation of `clique_zipf_count`.
pub const CLIQUE_N: usize = 26_000;
/// Intervals of R1 in `q4_hybrid_pasm` (R2 and R3 stay at 2 000 / 1 000:
/// R3's count sets the pruning fraction, as in the paper's Table 3).
pub const Q4_N1: usize = 80_000;

/// The six workloads, in the order `all` runs them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "q1_dense_count",
        why: "Q1 chain on dense Table-1 data, counted: the dual-window reduce kernel is nearly the whole op, so kernel work shows here and shuffle work must not",
        algorithm: "RCCIS",
        query: q1,
        relations: q1_dense,
        mode: OutputMode::Count,
        prune_hybrid: false,
        budget: None,
        reference: Reference::AllReplicate,
    },
    Workload {
        name: "q1_sparse_shuffle",
        why: "Q1 on 1000x sparser data, materialized: 1.8 M pairs shuffled for 88 k outputs, map+shuffle are 40% of the op, so map/shuffle/record-format work shows here; the kernel is under a third",
        algorithm: "RCCIS",
        query: q1,
        relations: q1_sparse,
        mode: OutputMode::Materialize,
        prune_hybrid: false,
        budget: None,
        reference: Reference::AllReplicate,
    },
    Workload {
        name: "q1_sparse_spill",
        why: "q1_sparse_shuffle under a 256 KiB reduce budget: every bucket spills through spill->Dfs, so a gain for the in-memory shuffle that costs the spill path shows as a regression here",
        algorithm: "RCCIS",
        query: q1,
        relations: q1_sparse,
        mode: OutputMode::Materialize,
        prune_hybrid: false,
        budget: Some(SPILL_BUDGET),
        reference: Reference::AllReplicate,
    },
    Workload {
        name: "q0_dense_materialize",
        why: "Q0 four-way chain (Fig. 3) materialized: the same sweep kernels emit millions of 4-tuples instead of counting, so output assembly and memory dominate",
        algorithm: "RCCIS",
        query: q0,
        relations: q0_dense,
        mode: OutputMode::Materialize,
        prune_hybrid: false,
        budget: None,
        reference: Reference::AllReplicate,
    },
    Workload {
        name: "clique_zipf_count",
        why: "colocation clique on Zipf(2) start points: every bucket takes event_sweep and the load sits in a hot region, so skew/scheduler work shows here and not on the uniform workloads",
        algorithm: "RCCIS",
        query: clique,
        relations: clique_zipf,
        mode: OutputMode::Count,
        prune_hybrid: false,
        budget: None,
        reference: Reference::AllReplicate,
    },
    Workload {
        name: "q4_hybrid_pasm",
        why: "hybrid Q4 (Table 3) through PASM: three MR cycles over a 6x6 cell matrix with sweep and backtrack kernels, so the multi-cycle driver, Dfs hand-off and sequence kernels show here only",
        algorithm: "PASM",
        query: q4,
        relations: q4_hybrid,
        mode: OutputMode::Count,
        prune_hybrid: true,
        budget: None,
        reference: Reference::AllSeqMatrix,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Generator settings per relation at `scale` (1.0 = the standing
    /// size; `--smoke` uses 0.02). Both the interval count and the time
    /// range shrink, so a scaled instance keeps the workload's density and
    /// still joins. Relation `r` is seeded `seed + r`.
    pub fn relations(&self, scale: f64, seed: u64) -> Vec<SynthConfig> {
        let full = (self.relations)(seed);
        let max_len = full.iter().map(|c| c.i_max).max().unwrap_or(1);
        full.into_iter()
            .map(|c| SynthConfig {
                n: ((c.n as f64 * scale).round() as usize).max(1),
                t_max: ((c.t_max as f64 * scale).round() as i64).max(4 * max_len),
                ..c
            })
            .collect()
    }

    /// Generator settings of the 300-intervals-per-relation oracle gate:
    /// every relation at [`GATE_N`] intervals, on the time range scaled as
    /// if the smallest relation had been shrunk to that size.
    pub fn gate_relations(&self, seed: u64) -> Vec<SynthConfig> {
        let min_n = (self.relations)(seed)
            .iter()
            .map(|c| c.n)
            .min()
            .unwrap_or(GATE_N);
        self.relations((GATE_N as f64 / min_n as f64).min(1.0), seed)
            .into_iter()
            .map(|c| SynthConfig { n: GATE_N, ..c })
            .collect()
    }

    /// The planner settings of the op.
    pub fn plan_config(&self) -> PlanConfig {
        PlanConfig {
            partitions: PARTITIONS,
            per_dim: PER_DIM,
            mode: self.mode,
            prune_hybrid: self.prune_hybrid,
        }
    }

    /// The cluster settings of the op with `threads` worker and
    /// intra-reduce threads (2 for timed runs, 1 for the serial child).
    pub fn cluster_config(&self, threads: usize) -> ClusterConfig {
        ClusterConfig {
            reducer_slots: REDUCER_SLOTS,
            worker_threads: threads,
            intra_reduce_threads: threads,
            reduce_memory_budget: self.budget,
            ..ClusterConfig::default()
        }
    }
}

/// Intervals per relation of the oracle gate.
pub const GATE_N: usize = 300;
