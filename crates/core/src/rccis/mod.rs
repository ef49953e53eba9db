//! RCCIS — *Replicate Consistent And Crossing Interval Sets*
//! (paper Section 6.1).
//!
//! The colocation multi-way join algorithm. Two MR cycles — the mark and
//! join stages of the component-matrix pipeline (`crate::component_matrix`)
//! over a one-dimensional reducer matrix:
//!
//! 1. **Marking** ([`marking`]): every relation is *split*; reducer `p_i`
//!    finds the interval-sets that are consistent (Section 5.2) and cross
//!    `p_i` (Section 5.3), and flags for replication the member intervals
//!    that *start* in `p_i`. Only the split copies near enough to `p_i`'s
//!    boundaries to be in a crossing set are shipped to it, and it returns
//!    only the flagged intervals' keys.
//! 2. **Join**: cycle 2 maps the input itself and reads each interval's
//!    flag from that set; flagged intervals are *replicated*, the rest
//!    *projected*;
//!    each reducer joins what it received and emits the output tuples it
//!    owns (those whose maximal start point lies in its partition).
//!
//! [`rounds`] holds the [`Rccis`] front-end that builds this setting.

pub mod marking;
pub mod rounds;

pub use rounds::Rccis;
