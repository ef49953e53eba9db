//! Typed engine failures.
//!
//! The engine never panics on its own behalf: every failure mode it can
//! detect — a fault plan exhausting a reducer's retry budget, or a breached
//! internal invariant — surfaces as an [`EngineError`] from
//! [`crate::Engine::run_job`]. Panics raised *inside user map/reduce
//! functions* are still re-raised with their original payload (they are
//! bugs in job logic, not engine failures), mirroring Hadoop failing a task
//! on an uncaught exception.
//!
//! Keeping the engine's own paths panic-free is a determinism requirement
//! as much as an ergonomic one: a panic mid-reduce tears down workers at a
//! thread-schedule-dependent point, while a typed error propagates through
//! one deterministic join point. The crate-level clippy lints at the top of
//! `lib.rs` (`unwrap_used`, `expect_used`, `panic`, `indexing_slicing`, …)
//! enforce this contract statically over the whole crate.

use crate::job::ReducerId;
use std::fmt;

/// Error from one map-reduce cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A reducer task failed more times than the fault plan's
    /// `max_attempts` allows — the in-process analogue of Hadoop failing
    /// the job after `mapred.reduce.max.attempts`.
    MaxAttemptsExceeded {
        /// The job whose reducer kept failing.
        job: String,
        /// The reducer key.
        reducer: ReducerId,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// An engine invariant was breached — always a bug in the engine, never
    /// a user error. The payload names the invariant.
    Internal(&'static str),
    /// A spill-path DFS operation failed while writing or streaming back an
    /// over-budget bucket. The spill store is engine-internal, so this too
    /// is an engine bug rather than a user error, but it carries the job
    /// and reducer for diagnosis.
    Spill {
        /// The job whose spill I/O failed.
        job: String,
        /// The reducer bucket being flushed or streamed back.
        reducer: ReducerId,
        /// The underlying DFS failure.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MaxAttemptsExceeded {
                job,
                reducer,
                attempts,
            } => write!(
                f,
                "reducer {reducer} of job {job} exceeded max attempts ({attempts} tries)"
            ),
            EngineError::Internal(what) => write!(f, "engine invariant breached: {what}"),
            EngineError::Spill {
                job,
                reducer,
                detail,
            } => write!(
                f,
                "spill I/O failed for reducer {reducer} of job {job}: {detail}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = EngineError::MaxAttemptsExceeded {
            job: "j".into(),
            reducer: 3,
            attempts: 4,
        };
        assert!(e.to_string().contains("reducer 3"));
        assert!(e.to_string().contains("job j"));
        assert!(EngineError::Internal("x").to_string().contains('x'));
        let s = EngineError::Spill {
            job: "j".into(),
            reducer: 7,
            detail: "dfs: no such file: spill/7/0".into(),
        };
        assert!(s.to_string().contains("reducer 7"));
        assert!(s.to_string().contains("spill/7/0"));
    }
}
