//! Single-node reference implementations.
//!
//! The oracle computes the exact join output without MapReduce; every
//! distributed algorithm is tested against it. Three engines:
//!
//! * [`nested_loop`] — the generic oracle for any query class; its
//!   single-attribute engine, [`reference_join`], re-checks every
//!   condition with `holds` and shares nothing with the reducer kernels
//!   but the binding order, and multi-attribute (General-class) queries
//!   take the definition itself, an odometer over the cross product with
//!   `JoinQuery::satisfied_by_tuples`;
//! * [`plane_sweep`] — an independent sort-based implementation for 2-way
//!   colocation joins, used to cross-check the oracle itself;
//! * [`indexed`] — a third independent 2-way implementation on top of
//!   [`ij_interval::IntervalIndex`].

pub mod indexed;
pub mod nested_loop;
pub mod plane_sweep;

pub use crate::kernel::backtrack::reference_join;
pub use indexed::indexed_join_2way;
pub use nested_loop::oracle_join;
pub use plane_sweep::sweep_join_2way;
