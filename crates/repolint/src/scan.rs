//! Workspace walking: which files `repolint check` reads.
//!
//! The scan covers every `.rs` file under `<root>/crates/`, excluding
//! directories whose contents are test-only by construction —
//! `tests/`, `benches/`, `examples/` and `fixtures/` — mirroring the
//! rules' own `#[cfg(test)]` exemption (the invariants protect
//! production job output; test scaffolding may unwrap and hash freely).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names whose subtrees are skipped.
const SKIP_DIRS: &[&str] = &["tests", "benches", "examples", "fixtures", "target"];

/// Recursively collects the `.rs` files to lint under `root/crates`,
/// sorted by path for deterministic report order. Returned paths are
/// relative to `root`.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    let crates = root.join("crates");
    walk(&crates, &mut found)?;
    for p in &mut found {
        if let Ok(rel) = p.strip_prefix(root) {
            *p = rel.to_path_buf();
        }
    }
    found.sort();
    Ok(found)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_crate_but_not_its_fixtures() {
        // CARGO_MANIFEST_DIR = crates/repolint; the workspace root is two
        // levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root");
        let files = workspace_sources(&root).expect("scan");
        let as_str: Vec<String> = files
            .iter()
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .collect();
        assert!(as_str.iter().any(|p| p.ends_with("repolint/src/scan.rs")));
        assert!(as_str
            .iter()
            .any(|p| p.ends_with("mapreduce/src/engine/mod.rs")));
        assert!(!as_str.iter().any(|p| p.contains("/fixtures/")));
        assert!(!as_str.iter().any(|p| p.contains("/tests/")));
    }
}
