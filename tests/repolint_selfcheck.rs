//! Cross-crate self-check: the workspace's own call graph carries zero
//! unmarked panic-propagation violations reachable from `Engine::run_job`
//! and zero counter-registry drift. This is the CI-facing pin for the
//! `repolint graph` pass — if a new helper reachable from the engine
//! grows an `unwrap()`, or a counter name bypasses
//! `mapreduce::metrics::names`, this test fails before the lint job does.

use std::path::Path;

#[test]
fn workspace_graph_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (violations, graph, scanned) =
        repolint::graph::check_workspace_graph(root).expect("graph scan");
    assert!(
        scanned > 50,
        "expected a real workspace scan, saw {scanned} files"
    );
    // The graph actually modeled the engine: its entry point and the Dfs
    // methods must be nodes, and run_job must call into the reduce phase.
    let run_job = graph
        .nodes
        .iter()
        .position(|n| n.display == "Engine::run_job")
        .expect("Engine::run_job is a call-graph node");
    assert!(graph.nodes.iter().any(|n| n.display == "Dfs::read_range"));
    let parent = graph.reach(&[run_job]);
    let reached = parent.iter().filter(|p| p.is_some()).count();
    assert!(
        reached > 10,
        "Engine::run_job should reach a real closure, reached {reached} nodes"
    );
    // The engine is split by phase: every phase file must stay inside
    // run_job's closure, or its panic sites fall out of the rule's scope.
    for (display, file) in [
        ("Engine::run_map_phase", "engine/map.rs"),
        ("merge_keyed_runs", "engine/shuffle.rs"),
        ("merge_keyed_runs_budgeted", "engine/shuffle.rs"),
        ("Engine::run_reduce_phase", "engine/reduce.rs"),
        ("Observer::record_reduce_phase", "observe/mod.rs"),
    ] {
        let node = graph
            .nodes
            .iter()
            .position(|n| n.display == display && n.path.ends_with(file))
            .unwrap_or_else(|| panic!("{display} in {file} is a call-graph node"));
        assert!(parent[node].is_some(), "{display} fell out of the closure");
    }

    let panic_violations: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "panic-propagation")
        .collect();
    assert!(
        panic_violations.is_empty(),
        "unmarked panic-capable functions reachable from the engine:\n{panic_violations:#?}"
    );
    let registry_violations: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "counter-registry")
        .collect();
    assert!(
        registry_violations.is_empty(),
        "counter-registry drift:\n{registry_violations:#?}"
    );
    assert!(
        violations.is_empty(),
        "workspace graph has violations:\n{violations:#?}"
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
