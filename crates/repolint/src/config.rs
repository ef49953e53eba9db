//! Rule registry and path scoping.
//!
//! Each rule guards one determinism or soundness invariant of the
//! workspace (DESIGN.md §11). Scoping is path-based and intentionally
//! conservative: a rule fires everywhere inside its scope unless an
//! explicit `// repolint: allow(<rule>): <justification>` marker
//! suppresses it.

/// Stable rule identifiers (these are the names allow-markers use).
pub const UNORDERED_ITER: &str = "unordered-iter";
/// See [`UNORDERED_ITER`].
pub const WALL_CLOCK: &str = "wall-clock";
/// See [`UNORDERED_ITER`].
pub const NO_PANIC: &str = "no-panic";
/// See [`UNORDERED_ITER`].
pub const KERNEL_DOC: &str = "kernel-doc";
/// Call-graph rule: no panic-capable function reachable from the engine
/// entry points (`repolint graph`).
pub const PANIC_PROPAGATION: &str = "panic-propagation";
/// Call-graph rule: counter/histogram names must come from the
/// `mapreduce::metrics::names` registry (`repolint graph`).
pub const COUNTER_REGISTRY: &str = "counter-registry";
/// Call-graph rule: no nested lock acquisitions, no lock held across a
/// `ValueStream` pull or Dfs I/O (`repolint graph`).
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Emitted for malformed allow-markers (unknown rule, no justification).
pub const BAD_MARKER: &str = "bad-marker";

/// One rule's registry entry.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier (`unordered-iter`, …).
    pub name: &'static str,
    /// One-line description shown in reports.
    pub summary: &'static str,
}

/// Every rule the tool knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: UNORDERED_ITER,
        summary: "no HashMap/HashSet in shuffle/output-feeding modules; \
                  use BTreeMap/BTreeSet or sort before iterating",
    },
    RuleInfo {
        name: WALL_CLOCK,
        summary: "no wall-clock, thread-id or entropy sources outside \
                  clock/bench/datagen allowlist",
    },
    RuleInfo {
        name: NO_PANIC,
        summary: "no unwrap/expect/panic in engine hot paths; typed \
                  EngineError only",
    },
    RuleInfo {
        name: KERNEL_DOC,
        summary: "every pub fn in core::kernel documents its \
                  predicate-class precondition",
    },
    RuleInfo {
        name: PANIC_PROPAGATION,
        summary: "no unwrap/expect/panic!/indexing-panic function \
                  transitively reachable from Engine::run_job, Dfs, spill \
                  or the observer",
    },
    RuleInfo {
        name: COUNTER_REGISTRY,
        summary: "counter/histogram names are declared once in \
                  mapreduce::metrics::names and referenced as constants; \
                  execution-shape classifiers live in the registry",
    },
    RuleInfo {
        name: LOCK_DISCIPLINE,
        summary: "no nested .lock()/.read()/.write() acquisitions in one \
                  function; no lock held across a ValueStream pull or \
                  Dfs I/O call",
    },
];

/// Whether `name` is a known rule identifier.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name) || name == BAD_MARKER
}

/// Normalizes a path to forward slashes for matching.
fn norm(path: &str) -> String {
    path.replace('\\', "/")
}

/// R1 scope: modules whose iteration order can reach emitted pairs,
/// shuffle keys or reported metrics — the algorithm crate and the engine.
pub fn in_unordered_iter_scope(path: &str) -> bool {
    let p = norm(path);
    p.contains("crates/core/src/") || p.contains("crates/mapreduce/src/")
}

/// R2 scope: every crate source file except the explicit allowlist —
/// the bench harness, the datagen crate (seeded generators; timing only
/// feeds reports), and the engine's clock module — the *single*
/// mapreduce file that may touch `Instant`; the engine, the spill path
/// and the rest of `observe/` must go through the injectable `Clock`
/// trait and so stay in scope.
pub fn in_wall_clock_scope(path: &str) -> bool {
    let p = norm(path);
    if !p.contains("crates/") || !p.contains("/src/") {
        return false;
    }
    let allowlisted = p.contains("crates/bench/")
        || p.contains("crates/datagen/")
        || p.ends_with("crates/mapreduce/src/observe/clock.rs");
    !allowlisted
}

/// R3 scope: the engine's map/shuffle/reduce hot paths, plus the whole
/// observer module (it runs inside those hot paths, so a panic there is a
/// panic in the engine).
pub fn in_no_panic_scope(path: &str) -> bool {
    let p = norm(path);
    p.contains("crates/mapreduce/src/engine/")
        || p.ends_with("crates/mapreduce/src/dfs.rs")
        || p.ends_with("crates/mapreduce/src/job.rs")
        || p.ends_with("crates/mapreduce/src/schedule.rs")
        || p.ends_with("crates/mapreduce/src/spill.rs")
        || p.contains("crates/mapreduce/src/observe/")
}

/// R4 scope: the predicate-specialized kernel layer.
pub fn in_kernel_doc_scope(path: &str) -> bool {
    norm(path).contains("crates/core/src/kernel/")
}

/// Keywords (lowercase) that count as stating a predicate-class
/// precondition in a kernel doc comment. A doc must contain at least one.
pub const PRECONDITION_KEYWORDS: &[&str] = &[
    "single-attribute",
    "colocation",
    "sequence",
    "predicate",
    "allen",
    "condition set",
    "any query class",
    "class-independent",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_match_expected_paths() {
        assert!(in_unordered_iter_scope("crates/core/src/cascade.rs"));
        assert!(in_unordered_iter_scope("crates/mapreduce/src/fault.rs"));
        assert!(!in_unordered_iter_scope("crates/query/src/query.rs"));

        assert!(in_wall_clock_scope("crates/query/src/query.rs"));
        assert!(!in_wall_clock_scope("crates/bench/src/scenarios.rs"));
        assert!(!in_wall_clock_scope("crates/datagen/src/lib.rs"));
        assert!(!in_wall_clock_scope(
            "crates/mapreduce/src/observe/clock.rs"
        ));
        for in_scope in [
            "crates/mapreduce/src/observe/mod.rs",
            "crates/mapreduce/src/observe/hist.rs",
            "crates/mapreduce/src/engine/mod.rs",
            "crates/mapreduce/src/engine/reduce.rs",
            "crates/mapreduce/src/spill.rs",
        ] {
            assert!(
                in_wall_clock_scope(in_scope),
                "{in_scope}: only observe/clock.rs is allowlisted; everything else uses Clock"
            );
        }

        for hot in [
            "crates/mapreduce/src/engine/mod.rs",
            "crates/mapreduce/src/engine/map.rs",
            "crates/mapreduce/src/engine/shuffle.rs",
            "crates/mapreduce/src/engine/reduce.rs",
            "crates/mapreduce/src/schedule.rs",
            "crates/mapreduce/src/spill.rs",
            "crates/mapreduce/src/observe/mod.rs",
            "crates/mapreduce/src/observe/snapshot.rs",
        ] {
            assert!(in_no_panic_scope(hot), "{hot}");
        }
        assert!(!in_no_panic_scope("crates/mapreduce/src/metrics.rs"));

        assert!(in_kernel_doc_scope("crates/core/src/kernel/mod.rs"));
        assert!(!in_kernel_doc_scope("crates/core/src/cascade.rs"));
    }
}
