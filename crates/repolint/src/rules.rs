//! The lint rules, run over [`crate::lexer::LexedFile`]s by [`analyze`].
//!
//! These are the invariants clippy cannot express (the determinism bans
//! and the engine's no-panic rule are the root `clippy.toml` and a crate
//! lint attribute — see DESIGN.md §11): `kernel-doc` reads doc comments,
//! `lock-discipline` tracks guard live ranges inside one function, and
//! `counter-registry` compares every file's string literals against the
//! constants declared in `mapreduce::metrics::names`.
//!
//! All rules share three conventions:
//!
//! * **Test code is exempt.** Tokens inside `#[cfg(test)]` items are
//!   skipped — the invariants protect production job output.
//! * **Allow-markers.** `// repolint: allow(<rule>): <why>` suppresses
//!   the named rule on the marker's comment block and the line after it;
//!   `// repolint: allow(<rule>, file): <why>` suppresses it for the
//!   whole file. The justification is mandatory — a bare marker is
//!   itself a violation (`bad-marker`).
//! * **Suggestions.** Every violation carries a mechanical fix
//!   suggestion; `--suggest` mode prints them.

use crate::config;
use crate::lexer::{lex, LexedFile, TokKind, Token};
use crate::symbols::{extract, FileSymbols, LockIssueKind};
use std::collections::BTreeMap;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (see [`config::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

/// A parsed `repolint: allow(...)` marker.
#[derive(Debug)]
struct Marker {
    rule: String,
    file_scope: bool,
    /// Suppressed line range, inclusive (line-scope markers cover their
    /// contiguous comment block plus the next source line).
    span: (u32, u32),
    justified: bool,
    line: u32,
}

impl Marker {
    /// Whether this marker suppresses `rule` on `line`.
    fn covers(&self, rule: &str, line: u32) -> bool {
        self.justified
            && self.rule == rule
            && (self.file_scope || (self.span.0 <= line && line <= self.span.1))
    }
}

/// One parsed input file: tokens, symbols and markers.
struct AnalyzedFile {
    syms: FileSymbols,
    markers: Vec<Marker>,
    lexed: LexedFile,
}

impl AnalyzedFile {
    fn allows(&self, rule: &str, line: u32) -> bool {
        self.markers.iter().any(|m| m.covers(rule, line))
    }
}

/// Runs every rule over `(workspace-relative path, source)` pairs and
/// returns the violations, sorted by `(path, line, rule)`. The paths
/// scope `kernel-doc` and locate the counter registry, so fixtures are
/// presented under synthetic workspace paths.
pub fn analyze<P: AsRef<str>, S: AsRef<str>>(files: &[(P, S)]) -> Vec<Violation> {
    let analyzed: Vec<AnalyzedFile> = files
        .iter()
        .map(|(path, src)| {
            let lexed = lex(src.as_ref());
            AnalyzedFile {
                syms: extract(path.as_ref(), &lexed),
                markers: parse_markers(&lexed),
                lexed,
            }
        })
        .collect();
    let mut out = Vec::new();
    for a in &analyzed {
        bad_markers(a, &mut out);
        if config::in_kernel_doc_scope(&a.syms.path) {
            kernel_doc(a, &mut out);
        }
        lock_discipline(a, &mut out);
    }
    counter_registry(&analyzed, &mut out);
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out
}

// ---------------------------------------------------------------------------
// Allow-markers

fn bad_markers(a: &AnalyzedFile, out: &mut Vec<Violation>) {
    for m in &a.markers {
        if !m.justified {
            out.push(Violation {
                rule: config::BAD_MARKER,
                path: a.syms.path.clone(),
                line: m.line,
                message: format!("allow-marker for `{}` lacks a justification", m.rule),
                suggestion: "write `// repolint: allow(<rule>): <why it is safe>`".to_string(),
            });
        } else if !config::is_known_rule(&m.rule) {
            out.push(Violation {
                rule: config::BAD_MARKER,
                path: a.syms.path.clone(),
                line: m.line,
                message: format!("allow-marker names unknown rule `{}`", m.rule),
                suggestion: format!(
                    "use one of: {}",
                    config::RULES
                        .iter()
                        .map(|r| r.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }
}

fn parse_markers(lexed: &LexedFile) -> Vec<Marker> {
    let mut markers = Vec::new();
    for (i, c) in lexed.comments.iter().enumerate() {
        // Markers live in plain comments only — doc comments merely
        // *describe* the grammar (as this crate's own docs do).
        if c.doc {
            continue;
        }
        let Some(at) = c.text.find("repolint: allow(") else {
            continue;
        };
        let rest = &c.text[at + "repolint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let inside = &rest[..close];
        let (rule, file_scope) = match inside.split_once(',') {
            Some((r, flag)) => (r.trim().to_string(), flag.trim() == "file"),
            None => (inside.trim().to_string(), false),
        };
        // Justification: non-whitespace text after "):" on the same
        // comment (a multi-line comment block may continue it, but it must
        // *start* with the marker).
        let after = &rest[close + 1..];
        let justified = after
            .strip_prefix(':')
            .map(|j| !j.trim().is_empty())
            .unwrap_or(false);
        // Line-scope markers cover their contiguous comment run plus one
        // line of code below it.
        let mut end = c.end_line;
        for later in &lexed.comments[i + 1..] {
            if later.line == end + 1 {
                end = later.end_line;
            } else {
                break;
            }
        }
        markers.push(Marker {
            rule,
            file_scope,
            span: (c.line, end + 1),
            justified,
            line: c.line,
        });
    }
    markers
}

// ---------------------------------------------------------------------------
// #[cfg(test)] regions

/// Returns a per-token mask: `true` where the token sits inside a
/// `#[cfg(test)]` item (attribute through matching close brace).
pub(crate) fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let is = |i: usize, kind: TokKind, text: &str| {
        tokens
            .get(i)
            .map(|t| t.kind == kind && t.text == text)
            .unwrap_or(false)
    };
    let mut i = 0;
    while i + 6 < tokens.len() {
        let hit = is(i, TokKind::Punct, "#")
            && is(i + 1, TokKind::Punct, "[")
            && is(i + 2, TokKind::Ident, "cfg")
            && is(i + 3, TokKind::Punct, "(")
            && is(i + 4, TokKind::Ident, "test")
            && is(i + 5, TokKind::Punct, ")")
            && is(i + 6, TokKind::Punct, "]");
        if !hit {
            i += 1;
            continue;
        }
        // Skip to the item's opening brace, then to its matching close.
        let mut j = i + 7;
        while j < tokens.len() && !is(j, TokKind::Punct, "{") {
            j += 1;
        }
        let mut depth = 0usize;
        let mut k = j;
        while k < tokens.len() {
            if is(k, TokKind::Punct, "{") {
                depth += 1;
            } else if is(k, TokKind::Punct, "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        for slot in mask.iter_mut().take((k + 1).min(tokens.len())).skip(i) {
            *slot = true;
        }
        i = k + 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// kernel-doc

fn kernel_doc(a: &AnalyzedFile, out: &mut Vec<Violation>) {
    let (path, lexed) = (a.syms.path.as_str(), &a.lexed);
    let toks = &lexed.tokens;
    let in_test = test_region_mask(toks);
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] || t.kind != TokKind::Ident || t.text != "pub" {
            continue;
        }
        // `pub fn` only — `pub(crate) fn` etc. are internal API.
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        if next.text != "fn" {
            continue;
        }
        let Some(name_tok) = toks.get(i + 2) else {
            continue;
        };
        if a.allows(config::KERNEL_DOC, t.line) {
            continue;
        }
        // Gather the doc block: contiguous doc comments ending directly
        // above the fn (attribute-only lines in between are fine).
        let doc = doc_block_above(lexed, toks, i, t.line);
        match doc {
            None => out.push(Violation {
                rule: config::KERNEL_DOC,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`pub fn {}` in the kernel layer has no doc comment",
                    name_tok.text
                ),
                suggestion: "document which predicate classes \
                             (colocation / sequence / mixed Allen sets) the \
                             kernel is complete for"
                    .to_string(),
            }),
            Some(text) => {
                let lower = text.to_lowercase();
                let stated = config::PRECONDITION_KEYWORDS
                    .iter()
                    .any(|k| lower.contains(k));
                if !stated {
                    out.push(Violation {
                        rule: config::KERNEL_DOC,
                        path: path.to_string(),
                        line: t.line,
                        message: format!(
                            "doc comment of `pub fn {}` does not state its \
                             predicate-class precondition",
                            name_tok.text
                        ),
                        suggestion: "name the predicate classes the function \
                                     assumes (e.g. \"complete for any \
                                     single-attribute query\", \"colocation \
                                     condition sets only\")"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// The concatenated doc-comment text directly above the token at `tok_idx`
/// (line `fn_line`), tolerating attribute lines between doc and item.
fn doc_block_above(
    lexed: &LexedFile,
    toks: &[Token],
    tok_idx: usize,
    fn_line: u32,
) -> Option<String> {
    // Lines occupied by attributes directly above the fn: walk tokens
    // backward over balanced `#[ … ]` groups.
    // Kind-guarded comparisons throughout: string literals now carry their
    // contents as `text`, so a `"]"` literal must never look like a bracket.
    let punct = |t: &Token, ch: &str| t.kind == TokKind::Punct && t.text == ch;
    let mut first_line = fn_line;
    let mut j = tok_idx;
    while j >= 1 {
        if punct(&toks[j - 1], "]") {
            // Walk back to the matching `[` and its `#`.
            let mut depth = 0usize;
            let mut k = j - 1;
            loop {
                if punct(&toks[k], "]") {
                    depth += 1;
                } else if punct(&toks[k], "[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            if k >= 1 && punct(&toks[k - 1], "#") {
                first_line = toks[k - 1].line;
                j = k - 1;
                continue;
            }
        }
        break;
    }
    // Contiguous doc comments whose run ends on the line above
    // `first_line`.
    let mut block: Vec<&str> = Vec::new();
    let mut expect_end = first_line - 1;
    for c in lexed.comments.iter().rev() {
        if c.end_line == expect_end && c.doc {
            block.push(&c.text);
            expect_end = c.line.saturating_sub(1);
        } else if c.end_line < first_line {
            break;
        }
    }
    if block.is_empty() {
        None
    } else {
        block.reverse();
        Some(block.join("\n"))
    }
}

// ---------------------------------------------------------------------------
// counter-registry

fn is_registry_file(path: &str) -> bool {
    path.ends_with("/metrics/names.rs")
}

/// Metric-recording methods whose first string argument *must* be a
/// registered name.
const RECORDING_METHODS: &[&str] = &["inc", "record", "inc_series", "record_hist"];

/// Classifier functions that must live inside the registry module.
const REGISTRY_CLASSIFIERS: &[&str] = &["is_execution_shape", "is_execution_shape_series"];

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
                && !a.allows(config::COUNTER_REGISTRY, d.line)
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
            if a.allows(config::COUNTER_REGISTRY, u.line) {
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
// lock-discipline

fn lock_discipline(a: &AnalyzedFile, out: &mut Vec<Violation>) {
    for d in &a.syms.fns {
        for issue in &d.lock_issues {
            if a.allows(config::LOCK_DISCIPLINE, issue.line) {
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
                message: format!("{what} in `{}`: {}", d.name, issue.detail),
                suggestion: "scope the outer guard so it drops before the \
                             inner acquisition / I/O, or mark \
                             `// repolint: allow(lock-discipline): <why \
                             the order is deadlock-free>`"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNEL: &str = "crates/core/src/kernel/mod.rs";
    const NAMES_RS: &str = "pub const SPILL_RUNS: &str = \"spill.runs\";\n";

    #[test]
    fn marker_suppresses_the_next_line_only() {
        let src = "// repolint: allow(kernel-doc): internal shim, documented at the caller\n\
                   pub fn a() {}\n\
                   pub fn b() {}\n";
        let v = analyze(&[(KERNEL, src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert_eq!(v[0].rule, config::KERNEL_DOC);
    }

    #[test]
    fn file_scope_marker_suppresses_everywhere() {
        let src = "// repolint: allow(kernel-doc, file): generated shims\n\
                   pub fn a() {}\n\
                   pub fn b() {}\n";
        assert!(analyze(&[(KERNEL, src)]).is_empty());
    }

    #[test]
    fn unjustified_or_unknown_marker_is_a_violation() {
        let bare = "// repolint: allow(kernel-doc)\nfn f() {}\n";
        let v = analyze(&[("crates/core/src/x.rs", bare)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, config::BAD_MARKER);
        // So is any name outside `config::RULES` — which is what the rules
        // that moved to clippy now are.
        let unknown = "// repolint: allow(no-such-rule): checked above\nfn f() {}\n";
        let v = analyze(&[("crates/core/src/x.rs", unknown)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("unknown rule"), "{}", v[0].message);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "/// Colocation condition sets only.\n\
                   pub fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       pub fn undocumented() {}\n\
                   }\n";
        assert!(analyze(&[(KERNEL, src)]).is_empty());
    }

    #[test]
    fn kernel_doc_requires_precondition() {
        let undocumented = "pub fn join_it(x: u32) -> u32 { x }\n";
        let vague = "/// Joins a bucket.\npub fn join_it(x: u32) -> u32 { x }\n";
        let good = "/// Complete for any single-attribute query.\n\
                    #[inline]\n\
                    pub fn join_it(x: u32) -> u32 { x }\n";
        assert_eq!(analyze(&[(KERNEL, undocumented)]).len(), 1);
        assert_eq!(analyze(&[(KERNEL, vague)]).len(), 1);
        assert!(analyze(&[(KERNEL, good)]).is_empty());
        // Out of scope: same file content elsewhere passes.
        assert!(analyze(&[("crates/core/src/cascade.rs", undocumented)]).is_empty());
    }

    #[test]
    fn pub_crate_fns_are_not_kernel_doc_targets() {
        let src = "pub(crate) fn helper(x: u32) -> u32 { x }\n";
        assert!(analyze(&[(KERNEL, src)]).is_empty());
    }

    #[test]
    fn unregistered_recording_name_is_flagged() {
        let v = analyze(&[
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
        let v = analyze(&[
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
        let v = analyze(&[
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
        let v = analyze(&[(
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
        let v = analyze(&[("crates/mapreduce/src/dfs.rs", nested)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, config::LOCK_DISCIPLINE);
        let marked = "pub fn f(&self) {\n\
                      let a = self.files.write();\n\
                      // repolint: allow(lock-discipline): fixed global order files→stats\n\
                      let b = self.stats.write();\n}\n";
        assert!(analyze(&[("crates/mapreduce/src/dfs.rs", marked)]).is_empty());
    }
}
