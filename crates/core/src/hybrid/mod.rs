//! Hybrid join queries (paper Section 8): single interval attribute, both
//! colocation and sequence predicates.
//!
//! The query is viewed through its colocation connected components
//! (`ij_query::Components`): the components become the dimensions of a
//! reducer matrix (as in All-Matrix) while each component's internal
//! colocation query is solved with RCCIS's replication marking — the
//! component-matrix pipeline (`crate::component_matrix`) that RCCIS and
//! All-Matrix are the one-dimension and all-singleton settings of.
//!
//! * [`fcts`] / [`fstc`] — the two staged baselines (First Colocation Then
//!   Sequence / First Sequence Then Colocation), which both materialize
//!   large intermediate results;
//! * [`all_seq_matrix`] — the paper's single-pass All-Seq-Matrix (mark →
//!   join);
//! * [`pasm`] — Pruned-All-Seq-Matrix (mark → prune → join), which
//!   additionally drops intervals that cannot appear in any component's
//!   output.

pub mod all_seq_matrix;
pub mod fcts;
pub mod fstc;
pub mod pasm;

pub use all_seq_matrix::AllSeqMatrix;
pub use fcts::Fcts;
pub use fstc::Fstc;
pub use pasm::Pasm;
