//! The reduce phase's one schedule: heavy buckets first, extra threads
//! from a token pool.
//!
//! Reducer skew is the paper's central headache: one overloaded reducer
//! sets the job's wall clock (Sections 6–7). A reducer's cost is priced by
//! its input size `q` (Afrati et al.), which the shuffle merge knows for
//! every bucket before the reduce phase spawns a worker: its
//! `pairs_received`. For a spilled bucket that is the full logical length
//! ([`crate::spill::SpilledBucket::len`] counts every value the budgeted
//! merge routed there), so the schedule does not depend on
//! `reduce_memory_budget`. [`SchedulePlan::new`] reads it once:
//!
//! 1. **Heavy.** A bucket is heavy iff `pairs_received ≥
//!    heavy_bucket_threshold`.
//! 2. **Order.** Workers pull buckets by descending pairs, ties broken by
//!    bucket index, so the buckets that dominate the reduce makespan start
//!    first instead of landing behind a queue of light ones.
//! 3. **Grant.** A heavy bucket takes up to `intra_reduce_threads` from a
//!    shared pool of `worker_threads` tokens when its worker picks it up; a
//!    light bucket runs serial. Tokens return as buckets finish, so a grant
//!    reads the *remaining* capacity. `acquire` never blocks; it takes what
//!    is free.
//!
//! The grant is the only parallelism decision: the kernel layer splits a
//! bucket across exactly the threads it was granted. The schedule changes
//! only *when* work runs, never *what* is emitted: grants feed the
//! kernels' block-ordered merge (byte-identical output for any thread
//! count) and the engine merges results in bucket order whatever the
//! execution order, so outputs and data-plane counters are byte-identical
//! for every `intra_reduce_threads` — pinned by the `schedule_equivalence`
//! proptest and a determinism-audit leg. Only the `sched.*`
//! execution-shape counters differ (see [`crate::metrics::names`]).
//!
//! Oversubscription bound: each reduce worker contributes one baseline
//! thread (the work-stealing loop itself, which blocks inside the
//! kernel's scoped join while its grant runs) and the extra-token pool
//! holds `worker_threads` tokens, so peak live threads stay under
//! 2 × `worker_threads`.

use super::ClusterConfig;
use crate::sync::Locked;
use std::cmp::Reverse;

/// The reduce phase's execution plan: the heavy-first pull order and the
/// live grant table. Built once per job by [`SchedulePlan::new`] before the
/// reduce workers spawn; shared by reference across them afterwards.
#[derive(Debug)]
pub(super) struct SchedulePlan {
    /// Permutation: pull position → bucket index.
    order: Vec<usize>,
    /// Per-bucket heavy classification (bucket-index order).
    heavy: Vec<bool>,
    /// Per-bucket grant ceiling (`intra_reduce_threads`).
    intra_cap: usize,
    /// Spare thread tokens heavy buckets draw extra threads from.
    pool: Locked<usize>,
}

impl SchedulePlan {
    /// The plan for buckets of `pairs[i]` pairs each under `cfg`.
    pub(super) fn new(cfg: &ClusterConfig, pairs: &[u64]) -> Self {
        let threshold = cfg.heavy_bucket_threshold as u64;
        let mut keyed: Vec<(Reverse<u64>, usize)> =
            pairs.iter().map(|&p| Reverse(p)).zip(0..).collect();
        keyed.sort_unstable();
        SchedulePlan {
            order: keyed.into_iter().map(|(_, i)| i).collect(),
            heavy: pairs.iter().map(|&p| p >= threshold).collect(),
            intra_cap: cfg.intra_reduce_threads.max(1),
            pool: Locked::new(cfg.worker_threads.max(1)),
        }
    }

    /// The bucket pull order (position → bucket index).
    pub(super) fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of heavy buckets in the plan.
    pub(super) fn heavy_count(&self) -> usize {
        self.heavy.iter().filter(|&&h| h).count()
    }

    /// Grants threads to bucket `index` as its worker picks it up. Never
    /// blocks: a heavy bucket takes `1 + min(intra_cap - 1, free tokens)`
    /// and a light bucket takes 1. The grant must be handed back via
    /// [`SchedulePlan::release`] when the bucket ends.
    pub(super) fn acquire(&self, index: usize) -> usize {
        if !self.heavy.get(index).copied().unwrap_or(false) {
            return 1;
        }
        let extra = self.pool.write(|pool| {
            let extra = self.intra_cap.saturating_sub(1).min(*pool);
            *pool -= extra;
            extra
        });
        1 + extra
    }

    /// Returns a grant's extra tokens to the pool, so buckets still
    /// queued see the freed capacity.
    pub(super) fn release(&self, grant: usize) {
        if grant > 1 {
            self.pool.write(|pool| *pool += grant - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threads: usize, intra: usize) -> ClusterConfig {
        ClusterConfig {
            reducer_slots: 4,
            worker_threads: threads,
            intra_reduce_threads: intra,
            heavy_bucket_threshold: 100,
            reduce_memory_budget: None,
        }
    }

    fn free_tokens(plan: &SchedulePlan) -> usize {
        plan.pool.read(|pool| *pool)
    }

    #[test]
    fn heavy_first_order_is_descending_pairs_with_index_ties() {
        let plan = SchedulePlan::new(&cfg(8, 8), &[10, 500, 500, 9000, 3, 100, 99]);
        assert_eq!(plan.order(), &[3, 1, 2, 5, 6, 0, 4]);
        assert_eq!(plan.heavy, [false, true, true, true, false, true, false]);
        assert_eq!(plan.heavy_count(), 4);
    }

    #[test]
    fn one_intra_reduce_thread_grants_one() {
        let plan = SchedulePlan::new(&cfg(8, 1), &[10, 9000, 500]);
        assert_eq!(plan.order(), &[1, 2, 0]);
        assert_eq!(plan.heavy_count(), 2);
        // Serial even for a heavy bucket with spare tokens.
        assert_eq!(plan.acquire(1), 1);
        plan.release(1);
        assert_eq!(free_tokens(&plan), 8);
    }

    #[test]
    fn grants_draw_from_and_return_to_the_pool() {
        let pairs: Vec<u64> = (0..20).map(|i| if i == 4 { 9000 } else { 10 }).collect();
        let plan = SchedulePlan::new(&cfg(8, 8), &pairs);
        // Heavy bucket pulled first, even though 4 buckets precede it in
        // key order — and it gets the full intra cap despite 20 buckets
        // competing (a static `threads / buckets` split would hand it a
        // single thread).
        assert_eq!(plan.order()[0], 4);
        let g = plan.acquire(4);
        assert_eq!(g, 8);
        assert_eq!(free_tokens(&plan), 1);
        // Light buckets stay serial and take nothing from the pool.
        assert_eq!(plan.acquire(0), 1);
        assert_eq!(free_tokens(&plan), 1);
        plan.release(g);
        assert_eq!(free_tokens(&plan), 8);
        plan.release(1); // serial grants return nothing
        assert_eq!(free_tokens(&plan), 8);
    }

    #[test]
    fn second_heavy_bucket_sees_remaining_capacity() {
        let plan = SchedulePlan::new(&cfg(8, 6), &[9000, 8000]);
        let g0 = plan.acquire(0);
        assert_eq!(g0, 6); // intra cap, pool had 8
        let g1 = plan.acquire(1);
        assert_eq!(g1, 4); // 1 + the 3 tokens left
        plan.release(g0);
        let g2 = plan.acquire(0);
        assert_eq!(g2, 6); // freed capacity is re-grantable
        plan.release(g1);
        plan.release(g2);
        assert_eq!(free_tokens(&plan), 8);
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = SchedulePlan::new(&cfg(8, 8), &[]);
        assert!(plan.order().is_empty());
        assert_eq!(plan.heavy_count(), 0);
        assert_eq!(plan.acquire(3), 1);
    }
}
