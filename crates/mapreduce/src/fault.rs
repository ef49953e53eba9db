//! Fault injection: forced reducer failures and automatic retry.
//!
//! Hadoop re-executes failed reduce tasks; because the join reducers are
//! pure functions of their input group, a retry must produce byte-identical
//! output. [`FaultPlan`] lets tests inject a one-shot failure for chosen
//! `(job, reducer)` coordinates; the engine retries the task and records the
//! extra attempt in [`crate::ReducerLoad::attempts`]. Integration tests use
//! this to demonstrate the determinism claim.

use crate::job::ReducerId;
use crate::sync::Locked;
use std::collections::BTreeMap;

/// A set of one-shot reducer failures to inject, keyed by
/// `(job name, reducer key)`. Each entry fails that reducer's first
/// `count` attempts; the engine then retries until success or until
/// [`FaultPlan::max_attempts`] is exceeded.
#[derive(Debug, Default)]
pub struct FaultPlan {
    failures: Locked<BTreeMap<(String, ReducerId), u32>>,
    max_attempts: u32,
}

impl FaultPlan {
    /// An empty plan (no injected failures). `max_attempts` defaults to 4,
    /// matching Hadoop's default `mapred.reduce.max.attempts`.
    pub fn new() -> Self {
        FaultPlan {
            failures: Locked::new(BTreeMap::new()),
            max_attempts: 4,
        }
    }

    /// Injects `count` consecutive failures for reducer `key` of job `job`.
    pub fn fail(mut self, job: &str, key: ReducerId, count: u32) -> Self {
        self.failures
            .get_mut()
            .insert((job.to_string(), key), count);
        self
    }

    /// Overrides the maximum attempts per reducer task.
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Maximum attempts per reducer task.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Consumes one planned failure for `(job, key)` if any remain.
    /// Returns `true` when the attempt should fail.
    pub fn should_fail(&self, job: &str, key: ReducerId) -> bool {
        self.failures
            .write(|map| match map.get_mut(&(job.to_string(), key)) {
                Some(remaining) if *remaining > 0 => {
                    *remaining -= 1;
                    true
                }
                _ => false,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumes_planned_failures() {
        let plan = FaultPlan::new().fail("j", 3, 2);
        assert!(plan.should_fail("j", 3));
        assert!(plan.should_fail("j", 3));
        assert!(!plan.should_fail("j", 3)); // exhausted
        assert!(!plan.should_fail("j", 4)); // different key
        assert!(!plan.should_fail("k", 3)); // different job
    }

    #[test]
    fn default_max_attempts_matches_hadoop() {
        assert_eq!(FaultPlan::new().max_attempts(), 4);
        assert_eq!(FaultPlan::new().with_max_attempts(0).max_attempts(), 1);
    }
}
