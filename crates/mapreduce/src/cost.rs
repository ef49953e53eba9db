//! The simulated-cluster cost model.
//!
//! The paper reports elapsed "hh:mm" on a 16-core Hadoop cluster. Our
//! substitute (documented in DESIGN.md §4) is a deterministic cost model
//! driven by exactly the quantities the paper argues dominate the elapsed
//! time of a join MR job:
//!
//! * reading input records in the map phase,
//! * communicating intermediate key-value pairs to reducers,
//! * per-reducer compute, where reducers are **list-scheduled onto a
//!   fixed number of slots** — so one straggler reducer dominates a cycle,
//!   which is the whole point of the paper's load-balancing analysis
//!   (Fig. 4/5).
//!
//! Costs are in abstract units (unit = processing one record); relative
//! comparisons between algorithms are what matters.

use serde::{Deserialize, Serialize};

/// Weights for the simulated cluster time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of reading one input record in the map phase.
    pub read_cost: f64,
    /// Cost of shuffling one intermediate pair (serialize, spill, network,
    /// merge-sort). The dominant term in the paper's analysis: on
    /// Hadoop-era clusters one shuffled record costs orders of magnitude
    /// more than one in-memory candidate comparison, which is why the
    /// default is 40x `work_cost`.
    pub pair_cost: f64,
    /// Cost of one reducer work unit (one candidate examined).
    pub work_cost: f64,
    /// Cost of emitting one output record.
    pub output_cost: f64,
    /// Fixed startup overhead per MR cycle (job scheduling, task launch) —
    /// why a cascade of 2-way joins pays per-cycle, as Section 6 notes.
    pub cycle_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            read_cost: 1.0,
            pair_cost: 40.0,
            work_cost: 1.0,
            output_cost: 1.0,
            cycle_overhead: 10_000.0,
        }
    }
}

/// Simulated time of one cycle, broken down per phase (all in cost units).
///
/// [`PhaseCost::total`] reproduces exactly what [`CostModel::simulate`]
/// returns; the breakdown feeds the per-phase columns in the bench reports.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Map-phase time: input records read, spread over the slots.
    pub map: f64,
    /// Shuffle time: intermediate pairs communicated, spread over the slots.
    pub shuffle: f64,
    /// Reduce-phase makespan under FIFO slot scheduling.
    pub reduce: f64,
    /// Fixed per-cycle startup overhead.
    pub overhead: f64,
}

impl PhaseCost {
    /// Total simulated cycle time — the sum of all phases plus overhead.
    pub fn total(&self) -> f64 {
        self.overhead + self.map + self.shuffle + self.reduce
    }
}

impl CostModel {
    /// Simulated elapsed time of one cycle.
    ///
    /// * map phase: `records * read_cost` spread over `slots`;
    /// * shuffle: `pairs * pair_cost` spread over `slots`;
    /// * reduce phase: each reducer costs
    ///   `pairs_received * pair_cost + work * work_cost + output * output_cost`;
    ///   reducers are greedily list-scheduled (longest processing time
    ///   first) onto `slots` parallel slots and the phase lasts until the
    ///   last slot finishes.
    pub fn simulate(
        &self,
        map_input_records: u64,
        intermediate_pairs: u64,
        reducer_costs: impl IntoIterator<Item = ReducerCost>,
        slots: usize,
    ) -> f64 {
        self.simulate_phases(map_input_records, intermediate_pairs, reducer_costs, slots)
            .total()
    }

    /// Like [`CostModel::simulate`], but returns the per-phase breakdown.
    pub fn simulate_phases(
        &self,
        map_input_records: u64,
        intermediate_pairs: u64,
        reducer_costs: impl IntoIterator<Item = ReducerCost>,
        slots: usize,
    ) -> PhaseCost {
        let slots = slots.max(1);
        PhaseCost {
            map: map_input_records as f64 * self.read_cost / slots as f64,
            shuffle: intermediate_pairs as f64 * self.pair_cost / slots as f64,
            reduce: self.schedule(reducer_costs, slots),
            overhead: self.cycle_overhead,
        }
    }

    /// Cost charged to a single reducer.
    pub fn reducer_cost(&self, c: ReducerCost) -> f64 {
        c.pairs_received as f64 * self.pair_cost
            + c.work as f64 * self.work_cost
            + c.output as f64 * self.output_cost
    }

    /// Predicted compute cost of one reduce bucket *before* it runs — the
    /// scoring primitive of the skew-driven intra-reduce scheduler
    /// (`mapreduce::schedule`). Unlike [`CostModel::reducer_cost`], which
    /// prices a finished reducer from its reported counters, this
    /// estimates from what the shuffle knows up front: the pairs routed to
    /// the bucket, scaled by a penalty factor for buckets that must stream
    /// back from spilled Dfs runs (`spill_penalty`; `1.0` for resident
    /// buckets).
    pub fn predicted_bucket_cost(&self, pairs_received: u64, spill_penalty: f64) -> f64 {
        pairs_received as f64 * self.work_cost * spill_penalty
    }

    /// FIFO list-scheduling of reducer costs onto `slots` slots; returns
    /// the makespan.
    ///
    /// Tasks are assigned in *key order* to the next free slot — how Hadoop
    /// launches reduce tasks. This matters for reproducing the paper's
    /// load-balancing results: All-Rep's heaviest reducers are the
    /// right-most (highest-keyed) ones, so they start last and stretch the
    /// job tail ("the large time taken by All-Rep is due to lagging
    /// reducers", Section 7.1); an LPT scheduler would mask the effect.
    fn schedule(&self, reducer_costs: impl IntoIterator<Item = ReducerCost>, slots: usize) -> f64 {
        let costs: Vec<f64> = reducer_costs
            .into_iter()
            .map(|c| self.reducer_cost(c))
            .collect();
        if costs.is_empty() {
            return 0.0;
        }
        let mut slot_loads = vec![0.0f64; slots.min(costs.len())];
        for c in costs {
            // Assign to the least-loaded slot (`min_by` keeps the first among
            // ties). `total_cmp` cannot fail, and agrees with `<` here: loads
            // are sums of non-negative finite costs.
            if let Some(least) = slot_loads.iter_mut().min_by(|a, b| a.total_cmp(b)) {
                *least += c;
            }
        }
        slot_loads.into_iter().fold(0.0, f64::max)
    }
}

/// The cost-relevant counters of one reducer invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReducerCost {
    /// Intermediate pairs this reducer received.
    pub pairs_received: u64,
    /// Work units it reported.
    pub work: u64,
    /// Output records it emitted.
    pub output: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc(pairs: u64) -> ReducerCost {
        ReducerCost {
            pairs_received: pairs,
            work: 0,
            output: 0,
        }
    }

    #[test]
    fn straggler_dominates() {
        let m = CostModel {
            cycle_overhead: 0.0,
            ..CostModel::default()
        };
        // 4 slots, one giant reducer: makespan ~ giant reducer.
        let balanced = m.simulate(0, 0, (0..8).map(|_| rc(100)), 4);
        let skewed = m.simulate(
            0,
            0,
            [rc(730), rc(10)].into_iter().chain((0..6).map(|_| rc(10))),
            4,
        );
        // Same total pairs in reduce (800), wildly different makespans.
        assert!(
            skewed > balanced * 3.0,
            "skewed={skewed} balanced={balanced}"
        );
    }

    #[test]
    fn perfect_balance_divides_by_slots() {
        let m = CostModel {
            cycle_overhead: 0.0,
            pair_cost: 1.0,
            ..CostModel::default()
        };
        let t = m.simulate(0, 0, (0..4).map(|_| rc(25)), 4);
        // 4 reducers of 25 pairs on 4 slots -> makespan 25.
        assert!((t - 25.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn more_slots_never_slower() {
        let m = CostModel::default();
        let costs: Vec<ReducerCost> = (0..20).map(|i| rc(10 + i * 7)).collect();
        let mut prev = f64::INFINITY;
        for slots in [1, 2, 4, 8, 16] {
            let t = m.simulate(100, 500, costs.iter().copied(), slots);
            assert!(t <= prev + 1e-9, "slots={slots}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn cycle_overhead_charged_once_per_cycle() {
        let m = CostModel::default();
        let t = m.simulate(0, 0, std::iter::empty(), 16);
        assert!((t - m.cycle_overhead).abs() < 1e-9);
    }

    #[test]
    fn empty_schedule_is_zero() {
        let m = CostModel::default();
        assert_eq!(m.schedule(std::iter::empty(), 4), 0.0);
    }

    #[test]
    fn predicted_bucket_cost_scales_linearly_in_each_factor() {
        let m = CostModel::default();
        let base = m.predicted_bucket_cost(1000, 1.0);
        assert!((base - 1000.0 * m.work_cost).abs() < 1e-9);
        assert!((m.predicted_bucket_cost(2000, 1.0) - base * 2.0).abs() < 1e-9);
        // Spill penalty inflates, never deflates, a resident score.
        assert!((m.predicted_bucket_cost(1000, 1.5) - base * 1.5).abs() < 1e-9);
        assert_eq!(m.predicted_bucket_cost(0, 1.5), 0.0);
    }

    #[test]
    fn phase_breakdown_sums_to_simulate() {
        let m = CostModel::default();
        let costs: Vec<ReducerCost> = (0..10).map(|i| rc(5 + i * 3)).collect();
        let phases = m.simulate_phases(200, 900, costs.iter().copied(), 4);
        let total = m.simulate(200, 900, costs.iter().copied(), 4);
        assert!((phases.total() - total).abs() < 1e-9);
        assert!(phases.map > 0.0 && phases.shuffle > 0.0 && phases.reduce > 0.0);
        assert_eq!(phases.overhead, m.cycle_overhead);
    }
}
