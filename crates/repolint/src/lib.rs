//! `repolint` — the workspace's determinism & soundness static-analysis
//! suite, paired with a dynamic determinism auditor.
//!
//! The engine promises byte-identical job output for every
//! `worker_threads` count (DESIGN.md §11). Four invariants make that
//! true, and each has a lint rule guarding it:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unordered-iter` | no `HashMap`/`HashSet` where iteration order can reach shuffle keys, emitted pairs or metrics |
//! | `wall-clock` | no `SystemTime`/`Instant`/thread-id/entropy outside the bench/datagen crates and the engine's one clock file (`observe/clock.rs`) |
//! | `no-panic` | engine hot paths (`engine/`, `dfs.rs`, `job.rs`, `schedule.rs`, `spill.rs`, `observe/`) return typed [`ij_mapreduce::EngineError`]s, never panic |
//! | `kernel-doc` | every `pub fn` in `core::kernel` states the predicate classes it is complete for |
//!
//! `repolint graph` (DESIGN.md §15) lifts the analysis across files: it
//! parses every crate's token stream into a call graph
//! ([`symbols`]/[`callgraph`]) and runs three semantic rule families
//! ([`graph`]) over it:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `panic-propagation` | no panic-capable function transitively reachable from `Engine::run_job` and the engine's phase files, the `Dfs`, the spill path or the observer |
//! | `counter-registry` | every counter/histogram name is a `mapreduce::metrics::names` constant; the execution-shape classifiers are defined only in that registry |
//! | `lock-discipline` | no nested guard acquisitions; no guard held across a `ValueStream` pull or Dfs I/O call |
//!
//! `// repolint: allow(<rule>): <justification>` suppresses a rule for
//! the next line; `allow(<rule>, file)` for the whole file. The
//! justification is mandatory.
//!
//! The static pass is validated against the property it protects:
//! `repolint audit` ([`audit::run_audit`]) runs all eleven algorithm
//! families under threads 1/2/8 — with the reduce-memory budget both
//! unlimited and pinned low enough to spill — and byte-diffs their
//! Dfs-serialized output.

pub mod audit;
pub mod callgraph;
pub mod config;
pub mod graph;
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
    let files = scan::workspace_sources(root)?;
    let mut violations = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        violations.extend(rules::check_file(&rel_str, &src));
    }
    Ok((violations, files.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root");
        let (violations, scanned) = check_workspace(&root).expect("scan");
        assert!(
            scanned > 50,
            "expected a real workspace, saw {scanned} files"
        );
        assert!(
            violations.is_empty(),
            "workspace has lint violations:\n{}",
            report::to_text(&violations, scanned, true)
        );
    }
}
