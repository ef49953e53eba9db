//! The cross-file rule families run over the workspace call graph
//! (`repolint graph`): panic-propagation, counter-registry and
//! lock-discipline. See DESIGN.md §15 for the rule semantics and the
//! documented false-negative classes.
//!
//! All three families honor the same allow-marker grammar as the token
//! rules; `panic-propagation` additionally accepts an existing
//! `allow(no-panic)` marker at a site, so the hot-path files never need
//! double markers for one invariant.

use crate::callgraph::CallGraph;
use crate::config;
use crate::lexer::{lex, LexedFile, TokKind};
use crate::rules::{parse_markers, Marker, Violation};
use crate::symbols::{extract, FileSymbols, LockIssueKind};
use crate::{scan, symbols};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Call-graph entry points: `Engine::run_job` (whose closure holds the
/// phase files under `engine/`) plus everything defined in `dfs.rs`,
/// `spill.rs` or `observe/` (the issue's "`Engine::run_job`, `Dfs`,
/// `spill`, or the telemetry data plane" — now the observer, views
/// included).
fn is_entry_file(path: &str) -> bool {
    path.ends_with("/dfs.rs") || path.ends_with("/spill.rs") || path.contains("/observe/")
}

fn is_registry_file(path: &str) -> bool {
    path.ends_with("/metrics/names.rs")
}

/// Metric-recording methods whose first string argument *must* be a
/// registered name.
const RECORDING_METHODS: &[&str] = &["inc", "record", "inc_series", "record_hist"];

/// Classifier functions that must live inside the registry module.
const REGISTRY_CLASSIFIERS: &[&str] = &["is_execution_shape", "is_execution_shape_series"];

/// One parsed input file: symbols plus markers.
struct AnalyzedFile {
    syms: FileSymbols,
    markers: Vec<Marker>,
    lexed: LexedFile,
}

/// Runs the three graph rule families over `(path, source)` pairs and
/// returns the violations, sorted by `(path, line, rule)`. This is the
/// fixture-testable core of [`check_workspace_graph`].
pub fn analyze(files: &[(String, String)]) -> Vec<Violation> {
    let analyzed: Vec<AnalyzedFile> = files
        .iter()
        .map(|(path, src)| {
            let lexed = lex(src);
            AnalyzedFile {
                syms: extract(path, &lexed),
                markers: parse_markers(&lexed),
                lexed,
            }
        })
        .collect();
    let graph = CallGraph::build(&analyzed.iter().map(|a| a.syms.clone()).collect::<Vec<_>>());
    let mut out = Vec::new();
    panic_propagation(&graph, &analyzed, &mut out);
    counter_registry(&analyzed, &mut out);
    lock_discipline(&analyzed, &mut out);
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out
}

/// Builds the call graph for `(path, source)` pairs (exposed so callers
/// can dump it alongside the violations).
pub fn build_graph(files: &[(String, String)]) -> CallGraph {
    let syms: Vec<FileSymbols> = files
        .iter()
        .map(|(path, src)| extract(path, &lex(src)))
        .collect();
    CallGraph::build(&syms)
}

/// Scans the workspace under `root`, runs [`analyze`], and returns
/// `(violations, call_graph, files_scanned)`.
pub fn check_workspace_graph(root: &Path) -> std::io::Result<(Vec<Violation>, CallGraph, usize)> {
    let paths = scan::workspace_sources(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for rel in &paths {
        let src = std::fs::read_to_string(root.join(rel))?;
        files.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    let violations = analyze(&files);
    let graph = build_graph(&files);
    Ok((violations, graph, files.len()))
}

fn marker_allows(markers: &[Marker], rules: &[&str], line: u32) -> bool {
    rules
        .iter()
        .any(|r| markers.iter().any(|m| m.covers(r, line)))
}

// ---------------------------------------------------------------------------
// Family 1: panic-propagation

fn panic_propagation(graph: &CallGraph, files: &[AnalyzedFile], out: &mut Vec<Violation>) {
    let markers_by_path: BTreeMap<&str, &Vec<Marker>> = files
        .iter()
        .map(|a| (a.syms.path.as_str(), &a.markers))
        .collect();
    let entries: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.display == "Engine::run_job" || is_entry_file(&n.path))
        .map(|(i, _)| i)
        .collect();
    let parent = graph.reach(&entries);
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if parent[i].is_none() || n.panics.is_empty() {
            continue;
        }
        let allows = markers_by_path.get(n.path.as_str());
        for site in &n.panics {
            let allowed = allows.is_some_and(|ms| {
                marker_allows(
                    ms,
                    &[config::PANIC_PROPAGATION, config::NO_PANIC],
                    site.line,
                )
            });
            if allowed || !seen.insert((n.path.clone(), site.line, site.what.clone())) {
                continue;
            }
            let chain = graph.path_to(&parent, i);
            out.push(Violation {
                rule: config::PANIC_PROPAGATION,
                path: n.path.clone(),
                line: site.line,
                message: format!(
                    "{} in `{}` is reachable from the engine data plane via {}",
                    site.what, n.display, chain
                ),
                suggestion: "return a typed `EngineError`, restructure so the \
                             panic cannot fire, or mark `// repolint: \
                             allow(panic-propagation): <why it cannot fire>`"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Family 2: counter-registry

/// Parses `pub const IDENT: &str = "value";` declarations from the
/// registry module's token stream, mapping value → const name.
fn parse_registry(lexed: &LexedFile) -> BTreeMap<String, String> {
    let toks = &lexed.tokens;
    let mut map = BTreeMap::new();
    for i in 0..toks.len() {
        let is = |k: usize, kind: TokKind, text: &str| {
            toks.get(i + k)
                .map(|t| t.kind == kind && t.text == text)
                .unwrap_or(false)
        };
        // const NAME : & str = "value" ;
        if is(0, TokKind::Ident, "const")
            && toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident)
            && is(2, TokKind::Punct, ":")
            && is(3, TokKind::Punct, "&")
            && is(4, TokKind::Ident, "str")
            && is(5, TokKind::Punct, "=")
            && toks.get(i + 6).map(|t| t.kind) == Some(TokKind::Str)
        {
            map.insert(toks[i + 6].text.clone(), toks[i + 1].text.clone());
        }
    }
    map
}

fn counter_registry(files: &[AnalyzedFile], out: &mut Vec<Violation>) {
    let registry: Option<(&AnalyzedFile, BTreeMap<String, String>)> = files
        .iter()
        .find(|a| is_registry_file(&a.syms.path))
        .map(|a| (a, parse_registry(&a.lexed)));

    for a in files {
        if is_registry_file(&a.syms.path) {
            continue;
        }
        // Classifier functions must live inside the registry module.
        for d in &a.syms.fns {
            if REGISTRY_CLASSIFIERS.contains(&d.name.as_str())
                && !marker_allows(&a.markers, &[config::COUNTER_REGISTRY], d.line)
            {
                out.push(Violation {
                    rule: config::COUNTER_REGISTRY,
                    path: a.syms.path.clone(),
                    line: d.line,
                    message: format!(
                        "`fn {}` defined outside `metrics/names.rs`: the \
                         execution-shape sets can silently drift",
                        d.name
                    ),
                    suggestion: "move the classifier into the \
                                 `metrics::names` registry and re-export it \
                                 at this path"
                        .to_string(),
                });
            }
        }
        for u in &a.syms.str_uses {
            if marker_allows(&a.markers, &[config::COUNTER_REGISTRY], u.line) {
                continue;
            }
            let recording = u
                .record_call
                .as_deref()
                .is_some_and(|m| RECORDING_METHODS.contains(&m));
            match &registry {
                Some((_, consts)) => {
                    if let Some(cname) = consts.get(&u.value) {
                        // Any literal duplicating a registered name — in a
                        // recording call or not — must use the constant.
                        out.push(Violation {
                            rule: config::COUNTER_REGISTRY,
                            path: a.syms.path.clone(),
                            line: u.line,
                            message: format!(
                                "string literal \"{}\" duplicates the \
                                 registered counter name `names::{}`",
                                u.value, cname
                            ),
                            suggestion: format!(
                                "use `names::{cname}` so the registry stays \
                                 the single source of truth"
                            ),
                        });
                    } else if recording {
                        out.push(Violation {
                            rule: config::COUNTER_REGISTRY,
                            path: a.syms.path.clone(),
                            line: u.line,
                            message: format!(
                                "`.{}(\"{}\", …)` records a name not declared \
                                 in `mapreduce::metrics::names`",
                                u.record_call.as_deref().unwrap_or(""),
                                u.value
                            ),
                            suggestion: format!(
                                "declare `pub const …: &str = \"{}\";` in \
                                 metrics/names.rs and pass the constant",
                                u.value
                            ),
                        });
                    }
                }
                None if recording => {
                    out.push(Violation {
                        rule: config::COUNTER_REGISTRY,
                        path: a.syms.path.clone(),
                        line: u.line,
                        message: format!(
                            "`.{}(\"{}\", …)` recorded but no \
                             `metrics/names.rs` registry module exists",
                            u.record_call.as_deref().unwrap_or(""),
                            u.value
                        ),
                        suggestion: "create the `mapreduce::metrics::names` \
                                     registry module and declare every \
                                     counter name there"
                            .to_string(),
                    });
                }
                None => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Family 3: lock-discipline

fn lock_discipline(files: &[AnalyzedFile], out: &mut Vec<Violation>) {
    for a in files {
        for d in &a.syms.fns {
            for issue in &d.lock_issues {
                if marker_allows(&a.markers, &[config::LOCK_DISCIPLINE], issue.line) {
                    continue;
                }
                let what = match issue.kind {
                    LockIssueKind::Nested => "nested lock acquisition",
                    LockIssueKind::AcrossIo => "lock held across stream/Dfs I/O",
                };
                out.push(Violation {
                    rule: config::LOCK_DISCIPLINE,
                    path: a.syms.path.clone(),
                    line: issue.line,
                    message: format!("{what} in `{}`: {}", d.display(), issue.detail),
                    suggestion: "scope the outer guard so it drops before the \
                                 inner acquisition / I/O, or mark \
                                 `// repolint: allow(lock-discipline): <why \
                                 the order is deadlock-free>`"
                        .to_string(),
                });
            }
        }
    }
}

// Re-export so `symbols::crate_of` stays reachable for integration tests
// without a second path.
pub use symbols::crate_of;

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        analyze(&owned)
    }

    const NAMES_RS: &str = "pub const SPILL_RUNS: &str = \"spill.runs\";\n";

    #[test]
    fn panic_in_helper_reachable_from_run_job_is_flagged() {
        let v = run(&[
            (
                "crates/mapreduce/src/engine/mod.rs",
                "impl Engine { pub fn run_job(&self) { helper(); } }",
            ),
            (
                "crates/mapreduce/src/job.rs",
                "pub fn helper() { maybe().unwrap(); }\nfn maybe() -> Option<u8> { None }",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, config::PANIC_PROPAGATION);
        assert!(
            v[0].message.contains("Engine::run_job → helper"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn marker_suppresses_propagated_panic() {
        let v = run(&[
            (
                "crates/mapreduce/src/engine/mod.rs",
                "impl Engine { pub fn run_job(&self) { helper(); } }",
            ),
            (
                "crates/mapreduce/src/job.rs",
                "pub fn helper() {\n\
                 // repolint: allow(panic-propagation): value seeded two lines up\n\
                 maybe().unwrap();\n}\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn existing_no_panic_marker_also_suppresses() {
        let v = run(&[(
            "crates/mapreduce/src/observe/hist.rs",
            "pub fn record(&mut self) {\n\
             // repolint: allow(no-panic): bucket_index clamps to len-1\n\
             self.counts[0] += 1;\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unreachable_panic_is_not_flagged() {
        let v = run(&[(
            "crates/mapreduce/src/metrics.rs",
            "pub fn island() { x.unwrap(); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unregistered_recording_name_is_flagged() {
        let v = run(&[
            ("crates/mapreduce/src/metrics/names.rs", NAMES_RS),
            (
                "crates/mapreduce/src/metrics.rs",
                "pub fn f(c: &Counters) { c.inc(\"spill.rogue\", 1); }",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, config::COUNTER_REGISTRY);
        assert!(v[0].message.contains("spill.rogue"));
    }

    #[test]
    fn literal_duplicating_registered_name_is_flagged() {
        let v = run(&[
            ("crates/mapreduce/src/metrics/names.rs", NAMES_RS),
            (
                "crates/bench/src/report.rs",
                "pub fn f(c: &Counters) { c.get(\"spill.runs\"); }",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("names::SPILL_RUNS"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn classifier_outside_registry_is_flagged() {
        let v = run(&[
            ("crates/mapreduce/src/metrics/names.rs", NAMES_RS),
            (
                "crates/mapreduce/src/metrics.rs",
                "pub fn is_execution_shape(n: &str) -> bool { false }",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("is_execution_shape"));
    }

    #[test]
    fn missing_registry_is_flagged_on_recording() {
        let v = run(&[(
            "crates/mapreduce/src/metrics.rs",
            "pub fn f(c: &Counters) { c.inc(\"spill.runs\", 1); }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("no `metrics/names.rs` registry"));
    }

    #[test]
    fn lock_discipline_flags_and_marker_suppresses() {
        let nested = "pub fn f(&self) {\n\
                      let a = self.files.write();\n\
                      let b = self.stats.write();\n}\n";
        let v = run(&[("crates/mapreduce/src/dfs.rs", nested)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, config::LOCK_DISCIPLINE);
        let marked = "pub fn f(&self) {\n\
                      let a = self.files.write();\n\
                      // repolint: allow(lock-discipline): fixed global order files→stats\n\
                      let b = self.stats.write();\n}\n";
        assert!(run(&[("crates/mapreduce/src/dfs.rs", marked)]).is_empty());
    }
}
