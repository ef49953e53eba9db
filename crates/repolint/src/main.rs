//! The `repolint` CLI.
//!
//! ```text
//! repolint check [--root PATH] [--format text|json] [--suggest]
//! repolint audit [--scale N]
//! ```
//!
//! Exit codes: `0` clean / deterministic, `1` violations / divergence,
//! `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repolint check [--root PATH] [--format text|json] [--suggest]\n\
         \u{20}      repolint audit [--scale N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("audit") => run_audit(&args[1..]),
        _ => usage(),
    }
}

fn run_check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = "text".to_string();
    let mut suggest = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" => format = f.clone(),
                _ => return usage(),
            },
            "--suggest" => suggest = true,
            _ => return usage(),
        }
    }
    // Fall back to the workspace the binary was built from when invoked
    // outside a checkout (e.g. `cargo run -p repolint` from a subdir).
    if !root.join("crates").is_dir() {
        let manifest_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        if manifest_root.join("crates").is_dir() {
            root = manifest_root;
        }
    }
    match repolint::check_workspace(&root) {
        Ok((violations, scanned)) => {
            if format == "json" {
                print!("{}", repolint::report::to_json(&violations, scanned));
            } else {
                print!(
                    "{}",
                    repolint::report::to_text(&violations, scanned, suggest)
                );
            }
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("repolint: scan failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_audit(args: &[String]) -> ExitCode {
    let mut scale = 120usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => scale = n,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    match repolint::audit::run_audit(scale) {
        Ok(report) => {
            print!("{}", report.render());
            if report.deterministic() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("repolint: audit failed: {e}");
            ExitCode::from(2)
        }
    }
}
