//! Seeded-fixture proof that each `repolint graph` rule family detects
//! its violation class — and that allow-markers and clean rewrites
//! silence it. The fixtures live under `tests/fixtures/graph/` (excluded
//! from the workspace scan) and are presented to the analyzer under
//! synthetic workspace paths.

use repolint::graph::analyze;
use repolint::rules::Violation;

fn run(files: &[(&str, &str)]) -> Vec<Violation> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze(&owned)
}

const PANIC_ENTRY: &str = include_str!("fixtures/graph/panic_entry.rs");
const PANIC_HELPER: &str = include_str!("fixtures/graph/panic_helper.rs");
const PANIC_HELPER_MARKED: &str = include_str!("fixtures/graph/panic_helper_marked.rs");
const NAMES_FIXTURE: &str = include_str!("fixtures/graph/names_fixture.rs");
const REGISTRY_DRIFT: &str = include_str!("fixtures/graph/registry_drift.rs");
const LOCK_NESTED: &str = include_str!("fixtures/graph/lock_nested.rs");
const LOCK_CLEAN: &str = include_str!("fixtures/graph/lock_clean.rs");

#[test]
fn panic_propagation_crosses_file_boundaries() {
    let v = run(&[
        ("crates/mapreduce/src/engine/mod.rs", PANIC_ENTRY),
        ("crates/mapreduce/src/job.rs", PANIC_HELPER),
    ]);
    let pp: Vec<&Violation> = v.iter().filter(|v| v.rule == "panic-propagation").collect();
    // `deeper` has an indexing site and an unwrap; `island` panics but is
    // unreachable and must not appear.
    assert_eq!(pp.len(), 2, "{pp:?}");
    assert!(pp.iter().all(|v| v.path == "crates/mapreduce/src/job.rs"));
    assert!(
        pp.iter().all(|v| v
            .message
            .contains("Engine::run_job → helper_chain → deeper")),
        "{pp:?}"
    );
    assert!(!v.iter().any(|v| v.message.contains("island")), "{v:?}");
}

#[test]
fn panic_propagation_markers_suppress_both_spellings() {
    // One site is marked allow(panic-propagation), the other relies on an
    // existing allow(no-panic) marker — both must count.
    let v = run(&[
        ("crates/mapreduce/src/engine/mod.rs", PANIC_ENTRY),
        ("crates/mapreduce/src/job.rs", PANIC_HELPER_MARKED),
    ]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn counter_registry_detects_all_three_drift_shapes() {
    let v = run(&[
        ("crates/mapreduce/src/metrics/names.rs", NAMES_FIXTURE),
        ("crates/mapreduce/src/metrics.rs", REGISTRY_DRIFT),
    ]);
    let cr: Vec<&Violation> = v.iter().filter(|v| v.rule == "counter-registry").collect();
    assert_eq!(cr.len(), 3, "{cr:?}");
    assert!(cr.iter().any(|v| v.message.contains("spill.rogue")));
    assert!(cr
        .iter()
        .any(|v| v.message.contains("names::REDUCE_SERVICE_NS")));
    assert!(cr
        .iter()
        .any(|v| v.message.contains("is_execution_shape_series")));
}

#[test]
fn registry_module_itself_is_exempt() {
    // The registry declares the literals; it must not be reported for
    // containing them, and its in-registry classifier is legal.
    let v = run(&[("crates/mapreduce/src/metrics/names.rs", NAMES_FIXTURE)]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn lock_discipline_flags_nested_and_across_io() {
    let v = run(&[("crates/mapreduce/src/dfs.rs", LOCK_NESTED)]);
    let ld: Vec<&Violation> = v.iter().filter(|v| v.rule == "lock-discipline").collect();
    assert_eq!(ld.len(), 3, "{ld:?}");
    assert!(ld.iter().any(|v| v.message.contains("nested lock")));
    assert!(ld
        .iter()
        .any(|v| v.message.contains("lock held across stream/Dfs I/O")));
}

#[test]
fn disciplined_locking_is_clean() {
    let v = run(&[("crates/mapreduce/src/dfs.rs", LOCK_CLEAN)]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn suggestions_name_the_mechanical_fix() {
    let v = run(&[
        ("crates/mapreduce/src/metrics/names.rs", NAMES_FIXTURE),
        ("crates/mapreduce/src/metrics.rs", REGISTRY_DRIFT),
    ]);
    assert!(
        v.iter()
            .any(|v| v.suggestion.contains("names::REDUCE_SERVICE_NS")),
        "{v:?}"
    );
}
