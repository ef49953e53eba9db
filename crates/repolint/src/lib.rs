//! `repolint` — the part of the workspace's determinism & soundness
//! checking that the compiler and clippy cannot carry, paired with a
//! dynamic determinism auditor.
//!
//! The engine promises byte-identical job output for every
//! `worker_threads` count (DESIGN.md §11). Most of the static invariants
//! behind that promise are enforced by `cargo clippy`: the root
//! `clippy.toml` bans `HashMap`/`HashSet`, `Instant`/`SystemTime`,
//! `thread::current` and ambient entropy workspace-wide, and
//! `ij-mapreduce`'s crate-level lint attribute forbids `unwrap`/`expect`/
//! `panic!`/indexing in every function the engine can reach. What is left
//! here are three rules over this repo's own conventions:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `kernel-doc` | every `pub fn` in `core::kernel` states the predicate classes it is complete for |
//! | `counter-registry` | every counter/histogram name is a `mapreduce::metrics::names` constant; the execution-shape classifiers are defined only in that registry |
//! | `lock-discipline` | no nested guard acquisitions; no guard held across a `ValueStream` pull or Dfs I/O call |
//!
//! `// repolint: allow(<rule>): <justification>` suppresses a rule for
//! the next line; `allow(<rule>, file)` for the whole file. The
//! justification is mandatory.
//!
//! The static checks are validated against the property they protect:
//! `repolint audit` ([`audit::run_audit`]) runs all eleven algorithm
//! families under threads 1/2/8 — with the reduce-memory budget both
//! unlimited and pinned low enough to spill — and byte-diffs their
//! Dfs-serialized output.

pub mod audit;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod symbols;

use rules::Violation;
use std::path::Path;

/// Lints every workspace source under `root` and returns
/// `(violations, files_scanned)`.
pub fn check_workspace(root: &Path) -> std::io::Result<(Vec<Violation>, usize)> {
    let paths = scan::workspace_sources(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for rel in &paths {
        let src = std::fs::read_to_string(root.join(rel))?;
        files.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    Ok((rules::analyze(&files), files.len()))
}
