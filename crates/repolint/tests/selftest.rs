//! Self-tests: each seeded violation fixture trips exactly its rule —
//! and allow-markers and clean rewrites silence it — and the real
//! workspace is clean. The fixtures live under `tests/fixtures/`
//! (excluded from the workspace scan) and are presented to the analyzer
//! under synthetic workspace paths.

use repolint::rules::analyze;
use repolint::{config, report};
use std::path::Path;

const KERNEL_DOC: &str = include_str!("fixtures/r4_kernel_doc.rs");
const NAMES_FIXTURE: &str = include_str!("fixtures/graph/names_fixture.rs");
const REGISTRY_DRIFT: &str = include_str!("fixtures/graph/registry_drift.rs");
const LOCK_NESTED: &str = include_str!("fixtures/graph/lock_nested.rs");
const LOCK_CLEAN: &str = include_str!("fixtures/graph/lock_clean.rs");

#[test]
fn r4_fixture_trips_kernel_doc() {
    let v = analyze(&[("crates/core/src/kernel/bad.rs", KERNEL_DOC)]);
    assert_eq!(v.len(), 2, "{v:?}"); // vague doc + missing doc
    assert!(v.iter().all(|v| v.rule == config::KERNEL_DOC));
    let msgs: String = v.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.contains("undocumented_precondition"));
    assert!(msgs.contains("no_doc_at_all"));
    assert!(!msgs.contains("properly_documented"));
    assert!(!msgs.contains("helper"));
}

#[test]
fn counter_registry_detects_all_three_drift_shapes() {
    let v = analyze(&[
        ("crates/mapreduce/src/metrics/names.rs", NAMES_FIXTURE),
        ("crates/mapreduce/src/metrics.rs", REGISTRY_DRIFT),
    ]);
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().all(|v| v.rule == config::COUNTER_REGISTRY));
    assert!(v.iter().any(|v| v.message.contains("spill.rogue")));
    assert!(v
        .iter()
        .any(|v| v.message.contains("names::REDUCE_SERVICE_NS")));
    assert!(v
        .iter()
        .any(|v| v.message.contains("is_execution_shape_series")));
    // The suggestion names the mechanical fix.
    assert!(
        v.iter()
            .any(|v| v.suggestion.contains("names::REDUCE_SERVICE_NS")),
        "{v:?}"
    );
}

#[test]
fn registry_module_itself_is_exempt() {
    // The registry declares the literals; it must not be reported for
    // containing them, and its in-registry classifier is legal.
    let v = analyze(&[("crates/mapreduce/src/metrics/names.rs", NAMES_FIXTURE)]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn lock_discipline_flags_nested_and_across_io() {
    let v = analyze(&[("crates/mapreduce/src/dfs.rs", LOCK_NESTED)]);
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v.iter().all(|v| v.rule == config::LOCK_DISCIPLINE));
    assert!(v.iter().any(|v| v.message.contains("nested lock")));
    assert!(v
        .iter()
        .any(|v| v.message.contains("lock held across stream/Dfs I/O")));
}

#[test]
fn disciplined_locking_is_clean() {
    let v = analyze(&[("crates/mapreduce/src/dfs.rs", LOCK_CLEAN)]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn fixtures_render_to_json() {
    let v = analyze(&[("crates/mapreduce/src/dfs.rs", LOCK_NESTED)]);
    let json = report::to_json(&v, 1);
    assert!(json.contains("\"rule\": \"lock-discipline\""));
    assert!(json.contains("\"violation_count\": 3"));
}

#[test]
fn workspace_check_is_clean_end_to_end() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let (violations, scanned) = repolint::check_workspace(&root).expect("scan");
    assert!(
        scanned > 50,
        "expected a real workspace, saw {scanned} files"
    );
    assert!(
        violations.is_empty(),
        "workspace must lint clean:\n{}",
        report::to_text(&violations, scanned, true)
    );
}
