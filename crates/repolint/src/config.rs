//! Rule registry and path scoping.
//!
//! Each rule guards one invariant the compiler and clippy cannot express
//! (DESIGN.md §11 lists every invariant with its mechanism). A rule fires
//! everywhere inside its scope unless an explicit
//! `// repolint: allow(<rule>): <justification>` marker suppresses it.

/// Stable rule identifiers (these are the names allow-markers use).
pub const KERNEL_DOC: &str = "kernel-doc";
/// Counter/histogram names must come from the
/// `mapreduce::metrics::names` registry.
pub const COUNTER_REGISTRY: &str = "counter-registry";
/// No nested lock acquisitions, no lock held across a `ValueStream` pull
/// or Dfs I/O.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Emitted for malformed allow-markers (unknown rule, no justification).
pub const BAD_MARKER: &str = "bad-marker";

/// One rule's registry entry.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier (`kernel-doc`, …).
    pub name: &'static str,
    /// One-line description shown in reports.
    pub summary: &'static str,
}

/// Every rule the tool knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: KERNEL_DOC,
        summary: "every pub fn in core::kernel documents its \
                  predicate-class precondition",
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

/// `kernel-doc` scope: the predicate-specialized kernel layer.
pub fn in_kernel_doc_scope(path: &str) -> bool {
    path.replace('\\', "/").contains("crates/core/src/kernel/")
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
