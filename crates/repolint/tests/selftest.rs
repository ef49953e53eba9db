//! Self-tests: each seeded violation fixture trips exactly its rule, and
//! the real workspace is clean.

use repolint::rules::check_file;
use repolint::{config, report};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

#[test]
fn r1_fixture_trips_unordered_iter() {
    let v = check_file("crates/core/src/bad.rs", &fixture("r1_unordered_iter.rs"));
    let hits: Vec<_> = v
        .iter()
        .filter(|v| v.rule == config::UNORDERED_ITER)
        .collect();
    // Two HashMap mentions (use + two in the fn) are flagged; the
    // marker-covered HashSet is not.
    assert!(hits.len() >= 2, "{v:?}");
    assert!(v.iter().all(|v| v.rule == config::UNORDERED_ITER), "{v:?}");
    assert!(!v.iter().any(|v| v.message.contains("HashSet")), "{v:?}");
}

#[test]
fn r2_fixture_trips_wall_clock() {
    let v = check_file("crates/core/src/bad.rs", &fixture("r2_wall_clock.rs"));
    assert!(!v.is_empty());
    assert!(v.iter().all(|v| v.rule == config::WALL_CLOCK), "{v:?}");
    let msgs: String = v.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.contains("Instant"));
    assert!(msgs.contains("SystemTime"));
    assert!(msgs.contains("thread::current"));
    // The same source is fine in an allowlisted location.
    let allow = check_file("crates/bench/src/bad.rs", &fixture("r2_wall_clock.rs"));
    assert!(allow.is_empty(), "{allow:?}");
}

#[test]
fn r3_fixture_trips_no_panic_outside_tests_only() {
    let v = check_file(
        "crates/mapreduce/src/engine/mod.rs",
        &fixture("r3_no_panic.rs"),
    );
    assert_eq!(v.len(), 3, "{v:?}"); // unwrap, panic!, expect — not the test unwrap
    assert!(v.iter().all(|v| v.rule == config::NO_PANIC));
}

#[test]
fn r4_fixture_trips_kernel_doc() {
    let v = check_file(
        "crates/core/src/kernel/bad.rs",
        &fixture("r4_kernel_doc.rs"),
    );
    assert_eq!(v.len(), 2, "{v:?}"); // vague doc + missing doc
    assert!(v.iter().all(|v| v.rule == config::KERNEL_DOC));
    let msgs: String = v.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.contains("undocumented_precondition"));
    assert!(msgs.contains("no_doc_at_all"));
    assert!(!msgs.contains("properly_documented"));
    assert!(!msgs.contains("helper"));
}

#[test]
fn r3_spill_fixture_trips_no_panic_in_spill_scope() {
    let v = check_file(
        "crates/mapreduce/src/spill.rs",
        &fixture("r3_no_panic_spill.rs"),
    );
    assert_eq!(v.len(), 3, "{v:?}"); // unwrap, panic!, expect — not the test unwrap
    assert!(v.iter().all(|v| v.rule == config::NO_PANIC));
    // The same source outside the no-panic scope passes.
    let elsewhere = check_file(
        "crates/mapreduce/src/metrics.rs",
        &fixture("r3_no_panic_spill.rs"),
    );
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

#[test]
fn r2_spill_fixture_trips_wall_clock_without_the_real_marker() {
    let v = check_file(
        "crates/mapreduce/src/spill.rs",
        &fixture("r2_wall_clock_spill.rs"),
    );
    assert!(!v.is_empty());
    assert!(v.iter().all(|v| v.rule == config::WALL_CLOCK), "{v:?}");
    let msgs: String = v.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.contains("Instant"));
}

#[test]
fn fixtures_render_to_json() {
    let v = check_file(
        "crates/mapreduce/src/engine/mod.rs",
        &fixture("r3_no_panic.rs"),
    );
    let json = report::to_json(&v, 1);
    assert!(json.contains("\"rule\": \"no-panic\""));
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
        violations.is_empty(),
        "workspace must lint clean:\n{}",
        report::to_text(&violations, scanned, true)
    );
}
