//! Cross-crate self-check: the workspace is clean under the rules that
//! stay in `repolint` — no counter name bypasses
//! `mapreduce::metrics::names`, no guard is held across stream/Dfs I/O,
//! every kernel entry point documents its predicate classes. (The
//! determinism bans and the engine's no-panic rule are clippy's —
//! `tests/lint_gate.rs` pins those.)

use std::path::Path;

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (violations, scanned) = repolint::check_workspace(root).expect("scan");
    assert!(
        scanned > 50,
        "expected a real workspace scan, saw {scanned} files"
    );
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        repolint::report::to_text(&violations, scanned, true)
    );
}

#[test]
fn execution_shape_classifiers_are_registry_backed() {
    // The satellite dedup: both classifiers must be the registry's — the
    // crate-root counter re-export and the snapshot's data-plane
    // projection agree with the registry module on every registered name.
    use ij_mapreduce::metrics::names;
    let mut all = ij_mapreduce::TelemetrySnapshot::default();
    for name in names::ALL {
        assert_eq!(
            ij_mapreduce::is_execution_shape(name),
            names::is_execution_shape(name),
            "{name}"
        );
        all.series.insert(name.to_string(), 1);
    }
    let kept = all.data_plane().series;
    for name in names::ALL {
        assert_eq!(
            kept.contains_key(*name),
            !names::is_execution_shape_series(name),
            "{name}"
        );
    }
    // The one intentionally split classification stays pinned: reduce
    // heartbeats are execution-shape as counters but data-plane as series.
    assert!(names::is_execution_shape(names::HEARTBEATS_REDUCE));
    assert!(!names::is_execution_shape_series(names::HEARTBEATS_REDUCE));
}
