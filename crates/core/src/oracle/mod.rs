//! The single-node reference implementation.
//!
//! The oracle computes the exact join output without MapReduce; every
//! distributed algorithm is tested against it. [`nested_loop`] holds it:
//! for single-attribute queries its engine, [`reference_join`], re-checks
//! every condition with `holds` and shares nothing with the reducer
//! kernels but the binding order; multi-attribute (General-class) queries
//! take the definition itself, an odometer over the cross product with
//! `JoinQuery::satisfied_by_tuples`. `reference_join` is itself checked
//! against a brute-force cross product for every Allen predicate
//! (`kernel::backtrack`'s tests).

pub mod nested_loop;

pub use crate::kernel::backtrack::reference_join;
pub use nested_loop::oracle_join;
