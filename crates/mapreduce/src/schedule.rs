//! Skew-driven intra-reduce thread scheduling.
//!
//! The paper's central headache is reducer skew: one overloaded reducer
//! sets the job's wall clock (Sections 6–7). The engine long had every
//! ingredient a scheduler needs — per-bucket pair counts from the shuffle
//! merge, the `spill.*` stats, per-reducer load lines and the kernel work
//! multiplier — yet split intra-reduce threads *uniformly*
//! (`worker_threads / concurrent_reducers`), so light buckets hoarded
//! threads the straggler bucket needed. This module replaces that static
//! grant with a plan computed before the reduce phase spawns workers:
//!
//! 1. **Score** every bucket by predicted work:
//!    `pairs_received × spill_penalty`, priced through
//!    [`crate::cost::CostModel::predicted_bucket_cost`] (the spill penalty
//!    inflates buckets that must stream back from the Dfs).
//! 2. **Order** buckets heavy-first (descending score, ties on bucket
//!    index), so the buckets that dominate the reduce makespan start
//!    first instead of landing behind a queue of light ones.
//! 3. **Grant** threads dynamically from a lock-light table: a heavy
//!    bucket takes up to `intra_reduce_threads` from a shared token pool
//!    when its worker picks it up; light buckets run serial; tokens
//!    return to the pool as buckets finish, so grants are recomputed from
//!    the *remaining* capacity rather than fixed at spawn time. There is
//!    no barrier — `acquire` never blocks, it just takes what is free.
//!
//! The scheduler changes only *when* work runs, never *what* is emitted:
//! grants feed the kernel layer's chunk-ordered merge (byte-identical
//! output for any thread count) and the engine merges results in bucket
//! (key) order regardless of execution order, so outputs and data-plane
//! counters are byte-identical for every [`SchedPolicy`] — pinned by the
//! `schedule_equivalence` proptest and a determinism-audit leg. Only the
//! `sched.*` execution-shape counters differ (see
//! [`crate::metrics::names`]).
//!
//! Oversubscription bound: each reduce worker contributes one baseline
//! thread (the work-stealing loop itself, which blocks inside the
//! kernel's scoped join while its grant runs) and the extra-token pool
//! holds `worker_threads` tokens, so peak live threads stay under
//! 2 × `worker_threads`. In the skewed regime the scheduler targets —
//! few heavy buckets, many light ones — light buckets drain quickly and
//! actual concurrency sits near `worker_threads`.

use crate::engine::ClusterConfig;
use crate::sync::Locked;
use std::fmt;
use std::str::FromStr;

/// Factor by which a spilled bucket's score is inflated: streaming runs
/// back from the Dfs adds chunked reads and value reconstruction on top of
/// the join itself, so a spilled bucket of equal size is slower than a
/// resident one and deserves its grant earlier.
const SPILL_PENALTY: f64 = 1.5;

/// How intra-reduce thread grants are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Score-ordered heavy-first execution with dynamic grants from the
    /// shared token pool (the default).
    #[default]
    SkewDriven,
    /// Every bucket runs serial, in shuffle (key) order — the
    /// determinism-audit anchor and the floor for grant benchmarks.
    AllSerial,
}

impl SchedPolicy {
    /// Stable lowercase name (what `--sched` parses and reports print).
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::SkewDriven => "skew",
            SchedPolicy::AllSerial => "serial",
        }
    }
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "skew" | "skew-driven" => Ok(SchedPolicy::SkewDriven),
            "serial" | "all-serial" => Ok(SchedPolicy::AllSerial),
            other => Err(format!(
                "unknown sched policy {other:?} (expected skew or serial)"
            )),
        }
    }
}

/// The scheduler knob carried in [`ClusterConfig`].
#[derive(Debug, Clone, Default)]
pub struct SchedConfig {
    /// Grant policy (default: [`SchedPolicy::SkewDriven`]).
    pub policy: SchedPolicy,
}

impl SchedConfig {
    /// A config running `policy`.
    pub fn with_policy(policy: SchedPolicy) -> Self {
        SchedConfig { policy }
    }
}

/// What the scheduler knows about one reduce bucket before it runs. For
/// spilled buckets `pairs` is the *full logical length* (the shuffle merge
/// counts every value through the budgeted path, not just the in-memory
/// tail), so scores are budget-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketLoad {
    /// Intermediate pairs routed to the bucket.
    pub pairs: u64,
    /// Whether the bucket streams back from Dfs spill runs.
    pub spilled: bool,
}

/// The reduce phase's execution plan: per-bucket scores, the heavy-first
/// pull order and the live grant table. Built once per job by
/// [`SchedulePlan::new`] before the reduce workers spawn; shared by
/// reference across them afterwards.
#[derive(Debug)]
pub struct SchedulePlan {
    policy: SchedPolicy,
    /// Permutation: pull position → bucket index. Identity for
    /// [`SchedPolicy::AllSerial`], descending-score for
    /// [`SchedPolicy::SkewDriven`].
    order: Vec<usize>,
    /// Per-bucket predicted score (bucket-index order).
    scores: Vec<f64>,
    /// Per-bucket heavy classification (bucket-index order).
    heavy: Vec<bool>,
    /// Per-bucket grant ceiling (`intra_reduce_threads`).
    intra_cap: usize,
    /// Spare thread tokens heavy buckets draw extra threads from.
    pool: Locked<usize>,
}

impl SchedulePlan {
    /// Scores `loads` under `cfg` and computes the execution order and
    /// initial grant capacity. The heavy cutoff is the predicted cost of
    /// a resident `heavy_bucket_threshold`-pair bucket — the same
    /// absolute notion of "heavy" the kernel layer uses.
    pub fn new(cfg: &ClusterConfig, loads: &[BucketLoad]) -> Self {
        let threads = cfg.worker_threads.max(1);
        let n = loads.len();
        let cutoff = cfg
            .cost
            .predicted_bucket_cost(cfg.heavy_bucket_threshold as u64, 1.0);
        let scores: Vec<f64> = loads
            .iter()
            .map(|l| {
                let penalty = if l.spilled { SPILL_PENALTY } else { 1.0 };
                cfg.cost.predicted_bucket_cost(l.pairs, penalty)
            })
            .collect();
        let heavy: Vec<bool> = scores.iter().map(|&s| s > 0.0 && s >= cutoff).collect();
        let mut order: Vec<usize> = (0..n).collect();
        let pool = match cfg.sched.policy {
            SchedPolicy::SkewDriven => {
                // Descending score; ties break on the bucket index, so the
                // order is a pure function of the scores — independent of
                // thread count and of float quirks (total_cmp is total).
                order.sort_by(|&a, &b| {
                    let sa = scores.get(a).copied().unwrap_or(0.0);
                    let sb = scores.get(b).copied().unwrap_or(0.0);
                    sb.total_cmp(&sa).then(a.cmp(&b))
                });
                threads
            }
            SchedPolicy::AllSerial => 0,
        };
        SchedulePlan {
            policy: cfg.sched.policy,
            order,
            scores,
            heavy,
            intra_cap: cfg.intra_reduce_threads.max(1),
            pool: Locked::new(pool),
        }
    }

    /// The policy this plan runs.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// The bucket pull order (position → bucket index).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The predicted score of bucket `index` (0.0 when out of range).
    pub fn score(&self, index: usize) -> f64 {
        self.scores.get(index).copied().unwrap_or(0.0)
    }

    /// Whether bucket `index` is classified heavy.
    pub fn is_heavy(&self, index: usize) -> bool {
        self.heavy.get(index).copied().unwrap_or(false)
    }

    /// Number of heavy buckets in the plan.
    pub fn heavy_count(&self) -> usize {
        self.heavy.iter().filter(|&&h| h).count()
    }

    /// Grants threads to bucket `index` as its worker picks it up. Never
    /// blocks: under [`SchedPolicy::SkewDriven`] a heavy bucket takes
    /// `1 + min(intra_cap - 1, free tokens)` and a light bucket takes 1;
    /// [`SchedPolicy::AllSerial`] always grants 1. The grant must be
    /// handed back via [`SchedulePlan::release`] when the bucket ends.
    pub fn acquire(&self, index: usize) -> usize {
        match self.policy {
            SchedPolicy::AllSerial => 1,
            SchedPolicy::SkewDriven => {
                if !self.is_heavy(index) {
                    return 1;
                }
                let extra = self.pool.write(|pool| {
                    let extra = self.intra_cap.saturating_sub(1).min(*pool);
                    *pool -= extra;
                    extra
                });
                1 + extra
            }
        }
    }

    /// Returns a grant's extra tokens to the pool, so buckets still
    /// queued see the freed capacity. A no-op under
    /// [`SchedPolicy::AllSerial`].
    pub fn release(&self, grant: usize) {
        if self.policy == SchedPolicy::SkewDriven && grant > 1 {
            self.pool.write(|pool| *pool += grant - 1);
        }
    }

    /// Free tokens currently in the pool (diagnostic).
    pub fn free_tokens(&self) -> usize {
        self.pool.read(|pool| *pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn cfg(threads: usize, intra: usize, policy: SchedPolicy) -> ClusterConfig {
        ClusterConfig {
            reducer_slots: 4,
            worker_threads: threads,
            intra_reduce_threads: intra,
            heavy_bucket_threshold: 100,
            reduce_memory_budget: None,
            sched: SchedConfig::with_policy(policy),
            cost: CostModel::default(),
        }
    }

    fn mem(pairs: u64) -> BucketLoad {
        BucketLoad {
            pairs,
            spilled: false,
        }
    }

    #[test]
    fn policy_parses_and_prints() {
        for (s, p) in [
            ("skew", SchedPolicy::SkewDriven),
            ("skew-driven", SchedPolicy::SkewDriven),
            ("serial", SchedPolicy::AllSerial),
            ("all-serial", SchedPolicy::AllSerial),
        ] {
            assert_eq!(s.parse::<SchedPolicy>().unwrap(), p);
        }
        assert!("best-effort".parse::<SchedPolicy>().is_err());
        assert!("uniform".parse::<SchedPolicy>().is_err());
        assert_eq!(SchedPolicy::SkewDriven.to_string(), "skew");
        assert_eq!(SchedPolicy::default(), SchedPolicy::SkewDriven);
    }

    #[test]
    fn heavy_first_order_is_descending_score_with_index_ties() {
        let plan = SchedulePlan::new(
            &cfg(8, 8, SchedPolicy::SkewDriven),
            &[mem(10), mem(500), mem(500), mem(9000), mem(3)],
        );
        assert_eq!(plan.order(), &[3, 1, 2, 0, 4]);
        assert!(plan.is_heavy(3) && plan.is_heavy(1) && plan.is_heavy(2));
        assert!(!plan.is_heavy(0) && !plan.is_heavy(4));
        assert_eq!(plan.heavy_count(), 3);
    }

    #[test]
    fn all_serial_keeps_shuffle_order_and_grants_one() {
        let plan = SchedulePlan::new(
            &cfg(8, 8, SchedPolicy::AllSerial),
            &[mem(10), mem(9000), mem(500)],
        );
        assert_eq!(plan.order(), &[0, 1, 2]);
        // Serial even for a heavy bucket with spare threads.
        assert_eq!(plan.acquire(1), 1);
        plan.release(1); // no-op
        assert_eq!(plan.free_tokens(), 0);
    }

    #[test]
    fn skew_grants_draw_from_and_return_to_the_pool() {
        let loads: Vec<BucketLoad> = (0..20)
            .map(|i| if i == 4 { mem(9000) } else { mem(10) })
            .collect();
        let plan = SchedulePlan::new(&cfg(8, 8, SchedPolicy::SkewDriven), &loads);
        // Heavy bucket pulled first, even though 19 buckets precede it in
        // key order — and it gets the full intra cap despite 20 buckets
        // competing (a static `threads / buckets` split would hand it a
        // single thread).
        assert_eq!(plan.order()[0], 4);
        let g = plan.acquire(4);
        assert_eq!(g, 8);
        assert_eq!(plan.free_tokens(), 1);
        // Light buckets stay serial and take nothing from the pool.
        assert_eq!(plan.acquire(0), 1);
        assert_eq!(plan.free_tokens(), 1);
        plan.release(g);
        assert_eq!(plan.free_tokens(), 8);
        plan.release(1); // serial grants return nothing
        assert_eq!(plan.free_tokens(), 8);
    }

    #[test]
    fn second_heavy_bucket_sees_remaining_capacity() {
        let plan = SchedulePlan::new(&cfg(8, 6, SchedPolicy::SkewDriven), &[mem(9000), mem(8000)]);
        let g0 = plan.acquire(0);
        assert_eq!(g0, 6); // intra cap, pool had 8
        let g1 = plan.acquire(1);
        assert_eq!(g1, 4); // 1 + the 3 tokens left
        plan.release(g0);
        let g2 = plan.acquire(0);
        assert_eq!(g2, 6); // freed capacity is re-grantable
        plan.release(g1);
        plan.release(g2);
        assert_eq!(plan.free_tokens(), 8);
    }

    #[test]
    fn spill_penalty_shifts_the_cutoff() {
        let base = cfg(8, 8, SchedPolicy::SkewDriven);
        // 80 pairs < threshold 100: light when resident…
        let resident = SchedulePlan::new(&base, &[mem(80)]);
        assert!(!resident.is_heavy(0));
        // …but heavy once the 1.5× spill penalty prices the Dfs re-read.
        let spilled = SchedulePlan::new(
            &base,
            &[BucketLoad {
                pairs: 80,
                spilled: true,
            }],
        );
        assert!(spilled.is_heavy(0));
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = SchedulePlan::new(&cfg(8, 8, SchedPolicy::SkewDriven), &[]);
        assert!(plan.order().is_empty());
        assert_eq!(plan.heavy_count(), 0);
        assert_eq!(plan.score(3), 0.0);
        assert!(!plan.is_heavy(3));
    }
}
