//! Aggregation of metrics across the cycles of a multi-cycle algorithm.
//!
//! RCCIS runs two MR cycles, PASM three, and the 2-way cascade one per join
//! condition. The paper compares algorithms on *total* elapsed time and
//! *total* communication, so every algorithm in `ij-core` returns a
//! [`JobChain`] next to its output.

use crate::metrics::{Counters, JobMetrics};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The metrics of an algorithm run: one [`JobMetrics`] per MR cycle.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobChain {
    /// Per-cycle metrics, in execution order.
    pub cycles: Vec<JobMetrics>,
}

impl JobChain {
    /// An empty chain.
    pub fn new() -> Self {
        JobChain::default()
    }

    /// Appends one cycle's metrics.
    pub fn push(&mut self, m: JobMetrics) {
        self.cycles.push(m);
    }

    /// Merges another chain's cycles after this one's.
    pub fn extend(&mut self, other: JobChain) {
        self.cycles.extend(other.cycles);
    }

    /// Number of MR cycles (RCCIS: 2, All-Matrix: 1, PASM: 3, …).
    pub fn num_cycles(&self) -> usize {
        self.cycles.len()
    }

    /// Total intermediate key-value pairs across cycles — the paper's
    /// bracketed "# Pairs" figures in Table 1.
    pub fn total_pairs(&self) -> u64 {
        self.cycles.iter().map(|c| c.intermediate_pairs).sum()
    }

    /// Total bytes shuffled across cycles.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.cycles.iter().map(|c| c.shuffle_bytes).sum()
    }

    /// Total records read by map phases (the cascade's "huge reading cost").
    pub fn total_records_read(&self) -> u64 {
        self.cycles.iter().map(|c| c.map_input_records).sum()
    }

    /// Total simulated cluster time (cycles are sequential, so they sum).
    pub fn total_simulated(&self) -> f64 {
        self.cycles.iter().map(|c| c.simulated).sum()
    }

    /// Total wall-clock time of the in-process runs.
    pub fn total_wall(&self) -> Duration {
        self.cycles.iter().map(|c| c.wall).sum()
    }

    /// Total map-phase wall-clock time across cycles.
    pub fn total_map_wall(&self) -> Duration {
        self.cycles.iter().map(|c| c.map_wall).sum()
    }

    /// Total shuffle (run-merge) wall-clock time across cycles.
    pub fn total_shuffle_wall(&self) -> Duration {
        self.cycles.iter().map(|c| c.shuffle_wall).sum()
    }

    /// Total reduce-phase wall-clock time across cycles.
    pub fn total_reduce_wall(&self) -> Duration {
        self.cycles.iter().map(|c| c.reduce_wall).sum()
    }

    /// Total spill I/O wall-clock time across cycles (zero unless a
    /// memory budget made buckets spill; see [`JobMetrics::spill_wall`]).
    pub fn total_spill_wall(&self) -> Duration {
        self.cycles.iter().map(|c| c.spill_wall).sum()
    }

    /// Worst load skew across cycles.
    pub fn worst_skew(&self) -> f64 {
        self.cycles.iter().map(JobMetrics::skew).fold(1.0, f64::max)
    }

    /// User counters summed across all cycles (Hadoop's job-group counter
    /// rollup): per-name u64 sums, so the merge is order-independent.
    pub fn total_counters(&self) -> Counters {
        let mut total = Counters::new();
        for c in &self.cycles {
            total.merge(&c.counters);
        }
        total
    }

    /// One counter's total across cycles (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.cycles.iter().map(|c| c.counters.get(name)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ReducerLoad;

    fn cycle(pairs: u64, sim: f64) -> JobMetrics {
        JobMetrics {
            name: "c".into(),
            map_input_records: pairs,
            map_input_bytes: pairs * 8,
            intermediate_pairs: pairs,
            shuffle_bytes: pairs * 10,
            distinct_reducers: 1,
            reducer_loads: vec![ReducerLoad {
                key: 0,
                pairs_received: pairs,
                work: 0,
                output: 1,
                attempts: 1,
            }],
            output_records: 1,
            output_bytes: 8,
            wall: Duration::from_millis(5),
            map_wall: Duration::from_millis(3),
            shuffle_wall: Duration::from_millis(1),
            reduce_wall: Duration::from_millis(1),
            spill_wall: Duration::from_micros(100),
            simulated: sim,
            counters: Counters::default(),
        }
    }

    #[test]
    fn totals_sum_over_cycles() {
        let mut chain = JobChain::new();
        chain.push(cycle(100, 1.5));
        chain.push(cycle(50, 2.5));
        assert_eq!(chain.num_cycles(), 2);
        assert_eq!(chain.total_pairs(), 150);
        assert_eq!(chain.total_shuffle_bytes(), 1500);
        assert_eq!(chain.total_records_read(), 150);
        assert!((chain.total_simulated() - 4.0).abs() < 1e-9);
        assert_eq!(chain.total_wall(), Duration::from_millis(10));
        assert_eq!(chain.total_map_wall(), Duration::from_millis(6));
        assert_eq!(chain.total_shuffle_wall(), Duration::from_millis(2));
        assert_eq!(chain.total_reduce_wall(), Duration::from_millis(2));
        assert_eq!(chain.total_spill_wall(), Duration::from_micros(200));
    }

    #[test]
    fn empty_chain_is_zero() {
        let chain = JobChain::new();
        assert_eq!(chain.total_pairs(), 0);
        assert_eq!(chain.worst_skew(), 1.0);
    }

    #[test]
    fn counters_roll_up_across_cycles() {
        use crate::metrics::names::{JOIN_EMITTED, RCCIS_CROSSING_INTERVALS, RCCIS_REPLICA_PAIRS};
        let mut chain = JobChain::new();
        let mut a = cycle(10, 1.0);
        a.counters.inc(RCCIS_REPLICA_PAIRS, 4);
        a.counters.inc(RCCIS_CROSSING_INTERVALS, 2);
        let mut b = cycle(20, 1.0);
        b.counters.inc(RCCIS_REPLICA_PAIRS, 6);
        b.counters.inc(JOIN_EMITTED, 9);
        chain.push(a);
        chain.push(b);
        let total = chain.total_counters();
        assert_eq!(total.get(RCCIS_REPLICA_PAIRS), 10);
        assert_eq!(total.get(RCCIS_CROSSING_INTERVALS), 2);
        assert_eq!(total.get(JOIN_EMITTED), 9);
        assert_eq!(chain.counter(RCCIS_REPLICA_PAIRS), 10);
        assert_eq!(chain.counter("absent"), 0);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = JobChain::new();
        a.push(cycle(1, 1.0));
        let mut b = JobChain::new();
        b.push(cycle(2, 2.0));
        a.extend(b);
        assert_eq!(a.num_cycles(), 2);
        assert_eq!(a.total_pairs(), 3);
    }
}
