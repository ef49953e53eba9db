//! Benchmark harness shared code: result tables, JSON reports and the
//! scenario definitions used by the per-table/figure binaries.

#![allow(
    clippy::disallowed_types,
    reason = "the bench harness reports wall time; it produces no job output"
)]

pub mod report;
pub mod scale;
pub mod scenarios;

pub use report::{Report, Row};
pub use scale::Scale;
