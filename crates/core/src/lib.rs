//! The paper's contribution: multi-way interval join algorithms on
//! MapReduce.
//!
//! | Algorithm | Query class | Cycles | Paper |
//! |-----------|-------------|--------|-------|
//! | [`two_way`] per-predicate joins | any 2-way | 1 | Section 4 |
//! | [`cascade::TwoWayCascade`] | any | 1 per condition | Section 6 (baseline) |
//! | [`all_replicate::AllReplicate`] | colocation/sequence | 1 | Sections 6–7 (baseline) |
//! | [`rccis::Rccis`] | colocation | 2 | Section 6.1 |
//! | [`all_matrix::AllMatrix`] | sequence | 1 | Section 7.1 |
//! | [`hybrid::fcts::Fcts`] / [`hybrid::fstc::Fstc`] | hybrid | many | Section 8 (baselines) |
//! | [`hybrid::all_seq_matrix::AllSeqMatrix`] | hybrid | 2 | Section 8.1 |
//! | [`hybrid::pasm::Pasm`] | hybrid | 3 | Section 8.2 |
//! | [`gen_matrix::GenMatrix`] | general (multi-attribute) | 2 | Section 9.1 |
//!
//! The 2-way join, All-Rep, RCCIS, All-Matrix, All-Seq-Matrix and PASM are
//! front-ends of one mark → prune → join pipeline (`component_matrix`,
//! crate-private) that routes each relation with a fixed or a marked map
//! operation (DESIGN.md §5). Their cycle counts above are maxima — a stage
//! that can move nothing (marking or pruning a query without a
//! multi-relation colocation component) does not run.
//!
//! All algorithms implement the [`Algorithm`] trait and are verified against
//! the single-node [`oracle`].

pub mod algorithm;
pub mod all_matrix;
pub mod all_replicate;
pub mod cascade;
mod component_matrix;
pub mod executor;
pub mod gen_matrix;
pub mod hybrid;
pub mod input;
// The reducer kernels' contract is their docs plus `execute_kind`'s
// `Option` (DESIGN.md §10): an undocumented public item does not build.
#[deny(missing_docs)]
pub mod kernel;
pub mod one_bucket;
pub mod oracle;
pub mod output;
mod plan;
pub mod planner;
pub mod rccis;
pub mod records;
pub mod two_way;

pub use algorithm::{Algorithm, PartitionStrategy, RunArtifacts};
pub use input::JoinInput;
pub use output::{JoinOutput, OutputMode, OutputTuple, Tuples};
pub use planner::{plan, PlanConfig};
