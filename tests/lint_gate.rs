//! The static determinism and no-panic invariants are carried by
//! `cargo clippy` (root `clippy.toml` + `ij-mapreduce`'s crate lint
//! attribute, DESIGN.md §11). CI runs clippy, but tier-1 is `cargo test`,
//! so this test keeps them enforced there: the workspace must pass
//! `clippy -D warnings`, and the seeded violations in
//! `tests/fixtures/clippy_seeds` must each be caught.

use std::path::Path;
use std::process::Command;

const CARGO: &str = env!("CARGO");
const SEEDS: &str = "tests/fixtures/clippy_seeds";

/// `cargo clippy <args> -- -D warnings` from the repo root, in a target
/// directory of its own (the enclosing `cargo test` may hold the usual one).
fn clippy(args: &[&str]) -> Command {
    let mut cmd = Command::new(CARGO);
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["clippy", "--offline", "--target-dir"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-gate"))
        .args(args)
        .args(["--", "-D", "warnings"]);
    cmd
}

#[test]
fn clippy_carries_the_static_invariants() {
    let probe = Command::new(CARGO).args(["clippy", "--version"]).output();
    if !probe.is_ok_and(|o| o.status.success()) {
        eprintln!("lint_gate: skipped — `cargo clippy --version` failed (clippy not installed)");
        return;
    }

    let workspace = clippy(&["--workspace", "--all-targets"])
        .output()
        .expect("cargo runs");
    assert!(
        workspace.status.success(),
        "the workspace must pass clippy:\n{}",
        String::from_utf8_lossy(&workspace.stderr)
    );
    // The seeds prove what the lint attribute catches; the engine crate
    // must carry that attribute verbatim.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    let seed_root = read(&format!("{SEEDS}/src/lib.rs"));
    let attr = seed_root
        .find("#![cfg_attr(")
        .zip(seed_root.find("\n)]\n"))
        .map(|(from, to)| &seed_root[from..to + 3])
        .expect("the seed crate's lint attribute");
    assert!(
        read("crates/mapreduce/src/lib.rs").contains(attr),
        "ij-mapreduce no longer carries the seed crate's lint attribute:\n{attr}"
    );

    let manifest = format!("{SEEDS}/Cargo.toml");
    // The seed crate is configured by the root clippy.toml wherever it lives.
    let seeds = clippy(&["--manifest-path", &manifest, "--message-format=json"])
        .env("CLIPPY_CONF_DIR", env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo runs");
    assert!(!seeds.status.success(), "the seed crate must fail clippy");
    // One JSON diagnostic per stdout line; a seed is caught when some line
    // names its lint, its file and a fragment of its message.
    let stdout = String::from_utf8_lossy(&seeds.stdout);
    for (lint, file, what) in [
        ("disallowed_types", "src/lib.rs", "collections::HashMap"),
        ("disallowed_types", "src/lib.rs", "std::time::Instant"),
        ("disallowed_methods", "src/lib.rs", "std::thread::current"),
        ("unwrap_used", "src/lib.rs", "unwrap"),
        ("expect_used", "src/lib.rs", "expect"),
        ("panic", "src/lib.rs", "panic"),
        ("indexing_slicing", "src/lib.rs", "indexing"),
        ("allow_attributes_without_reason", "src/lib.rs", "reason"),
        // A lock taken outside `mapreduce::sync::Locked`.
        (
            "disallowed_methods",
            "src/lib.rs",
            "parking_lot::Mutex::lock",
        ),
        (
            "disallowed_methods",
            "src/lib.rs",
            "parking_lot::RwLock::write",
        ),
        // The panicking helper in a second module, called from the first.
        ("unwrap_used", "src/helper.rs", "unwrap"),
    ] {
        let caught = stdout.lines().any(|l| {
            l.contains(&format!("\"code\":\"clippy::{lint}\""))
                && l.contains(&format!("\"file_name\":\"{file}\""))
                && l.contains(what)
        });
        assert!(
            caught,
            "clippy::{lint} did not fire on `{what}` in {SEEDS}/{file}:\n{stdout}"
        );
    }
}
