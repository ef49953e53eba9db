//! The lint rules, run over [`crate::lexer::LexedFile`]s.
//!
//! All rules share three conventions:
//!
//! * **Test code is exempt.** Tokens inside `#[cfg(test)]` items are
//!   skipped — the invariants protect production job output, and tests
//!   legitimately `unwrap()` and build scratch hash maps.
//! * **Allow-markers.** `// repolint: allow(<rule>): <why>` suppresses
//!   the named rule on the marker's comment block and the line after it;
//!   `// repolint: allow(<rule>, file): <why>` suppresses it for the
//!   whole file. The justification is mandatory — a bare marker is
//!   itself a violation (`bad-marker`).
//! * **Suggestions.** Every violation carries a mechanical fix
//!   suggestion; `--suggest` mode prints them.

use crate::config;
use crate::lexer::{lex, LexedFile, TokKind, Token};

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
pub(crate) struct Marker {
    pub(crate) rule: String,
    pub(crate) file_scope: bool,
    /// Suppressed line range, inclusive (line-scope markers cover their
    /// contiguous comment block plus the next source line).
    pub(crate) span: (u32, u32),
    pub(crate) justified: bool,
    pub(crate) line: u32,
}

impl Marker {
    /// Whether this marker suppresses `rule` on `line`.
    pub(crate) fn covers(&self, rule: &str, line: u32) -> bool {
        self.justified
            && self.rule == rule
            && (self.file_scope || (self.span.0 <= line && line <= self.span.1))
    }
}

/// Lints one file. `path` is the workspace-relative path used for rule
/// scoping and reporting.
pub fn check_file(path: &str, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let markers = parse_markers(&lexed);
    let in_test = test_region_mask(&lexed.tokens);
    let mut out = Vec::new();

    for m in &markers {
        if !m.justified {
            out.push(Violation {
                rule: config::BAD_MARKER,
                path: path.to_string(),
                line: m.line,
                message: format!("allow-marker for `{}` lacks a justification", m.rule),
                suggestion: "write `// repolint: allow(<rule>): <why it is safe>`".to_string(),
            });
        } else if !config::is_known_rule(&m.rule) {
            out.push(Violation {
                rule: config::BAD_MARKER,
                path: path.to_string(),
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

    let allowed = |rule: &str, line: u32| markers.iter().any(|m| m.covers(rule, line));

    if config::in_unordered_iter_scope(path) {
        rule_unordered_iter(path, &lexed, &in_test, &allowed, &mut out);
    }
    if config::in_wall_clock_scope(path) {
        rule_wall_clock(path, &lexed, &in_test, &allowed, &mut out);
    }
    if config::in_no_panic_scope(path) {
        rule_no_panic(path, &lexed, &in_test, &allowed, &mut out);
    }
    if config::in_kernel_doc_scope(path) {
        rule_kernel_doc(path, &lexed, &in_test, &allowed, &mut out);
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

// ---------------------------------------------------------------------------
// Allow-markers

pub(crate) fn parse_markers(lexed: &LexedFile) -> Vec<Marker> {
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
// R1: unordered-iter

fn rule_unordered_iter(
    path: &str,
    lexed: &LexedFile,
    in_test: &[bool],
    allowed: &dyn Fn(&str, u32) -> bool,
    out: &mut Vec<Violation>,
) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        if allowed(config::UNORDERED_ITER, t.line) {
            continue;
        }
        let ordered = if t.text == "HashMap" {
            "BTreeMap"
        } else {
            "BTreeSet"
        };
        out.push(Violation {
            rule: config::UNORDERED_ITER,
            path: path.to_string(),
            line: t.line,
            message: format!(
                "`{}` in a module feeding shuffle/output paths: iteration \
                 order is nondeterministic",
                t.text
            ),
            suggestion: format!(
                "use `{ordered}`, collect-and-sort before iterating, or mark \
                 `// repolint: allow(unordered-iter): <why order never \
                 escapes>`"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// R2: wall-clock

const ENTROPY_IDENTS: &[&str] = &[
    "SystemTime",
    "Instant",
    "thread_rng",
    "from_entropy",
    "OsRng",
];

fn rule_wall_clock(
    path: &str,
    lexed: &LexedFile,
    in_test: &[bool],
    allowed: &dyn Fn(&str, u32) -> bool,
    out: &mut Vec<Violation>,
) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let flagged = if ENTROPY_IDENTS.contains(&t.text.as_str()) {
            Some(t.text.clone())
        } else if t.text == "thread"
            && matches!(toks.get(i + 1), Some(n) if n.text == ":")
            && matches!(toks.get(i + 2), Some(n) if n.text == ":")
            && matches!(toks.get(i + 3), Some(n) if n.text == "current")
        {
            Some("thread::current".to_string())
        } else {
            None
        };
        let Some(name) = flagged else { continue };
        if allowed(config::WALL_CLOCK, t.line) {
            continue;
        }
        out.push(Violation {
            rule: config::WALL_CLOCK,
            path: path.to_string(),
            line: t.line,
            message: format!(
                "`{name}` outside the clock/bench/datagen allowlist: \
                 wall-clock, thread ids and entropy must never reach job \
                 output"
            ),
            suggestion: "read time through the injectable Clock, derive \
                         randomness from a seeded generator, or mark \
                         `// repolint: allow(wall-clock): <why it cannot \
                         reach output>`"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// R3: no-panic

const BANG_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn rule_no_panic(
    path: &str,
    lexed: &LexedFile,
    in_test: &[bool],
    allowed: &dyn Fn(&str, u32) -> bool,
    out: &mut Vec<Violation>,
) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let found: Option<(String, &str)> = if t.kind == TokKind::Punct && t.text == "." {
            match toks.get(i + 1) {
                Some(n)
                    if n.kind == TokKind::Ident
                        && (n.text == "unwrap" || n.text == "expect")
                        && matches!(toks.get(i + 2), Some(p) if p.text == "(") =>
                {
                    Some((
                        format!(".{}()", n.text),
                        "return a typed `EngineError` (or restructure so the \
                         invariant is checked with `let … else` + \
                         `EngineError::Internal`)",
                    ))
                }
                _ => None,
            }
        } else if t.kind == TokKind::Ident
            && BANG_MACROS.contains(&t.text.as_str())
            && matches!(toks.get(i + 1), Some(p) if p.text == "!")
        {
            Some((
                format!("{}!", t.text),
                "propagate a typed `EngineError` instead of tearing down the \
                 worker at a schedule-dependent point",
            ))
        } else {
            None
        };
        let Some((what, fix)) = found else { continue };
        if allowed(config::NO_PANIC, t.line) {
            continue;
        }
        out.push(Violation {
            rule: config::NO_PANIC,
            path: path.to_string(),
            line: t.line,
            message: format!("`{what}` in an engine hot path"),
            suggestion: fix.to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// R4: kernel-doc

fn rule_kernel_doc(
    path: &str,
    lexed: &LexedFile,
    in_test: &[bool],
    allowed: &dyn Fn(&str, u32) -> bool,
    out: &mut Vec<Violation>,
) {
    let toks = &lexed.tokens;
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
        if allowed(config::KERNEL_DOC, t.line) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashmap_in_scope_is_flagged_and_marker_suppresses() {
        let src = "use std::collections::HashMap;\n\
                   // repolint: allow(unordered-iter): keys re-sorted below\n\
                   fn f(m: HashMap<u32, u32>) {}\n";
        let v = check_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].rule, config::UNORDERED_ITER);
    }

    #[test]
    fn file_scope_marker_suppresses_everywhere() {
        let src = "// repolint: allow(unordered-iter, file): test scratch\n\
                   use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, u32>) {}\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unjustified_marker_is_a_violation() {
        let src = "// repolint: allow(unordered-iter)\nfn f() {}\n";
        let v = check_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, config::BAD_MARKER);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       #[test]\n\
                       fn t() { let x: Option<u32> = None; x.unwrap(); panic!(); }\n\
                   }\n";
        assert!(check_file("crates/mapreduce/src/engine/mod.rs", src).is_empty());
    }

    #[test]
    fn no_panic_catches_all_forms() {
        let src = "fn f(x: Option<u32>) {\n\
                       x.unwrap();\n\
                       x.expect(\"boom\");\n\
                       panic!(\"no\");\n\
                       unreachable!();\n\
                   }\n";
        let v = check_file("crates/mapreduce/src/engine/mod.rs", src);
        let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(rules.iter().all(|r| *r == config::NO_PANIC));
        // unwrap_or / resume_unwind style idents never match.
        let ok = "fn g(x: Option<u32>) -> u32 { x.unwrap_or(4) }\n";
        assert!(check_file("crates/mapreduce/src/engine/mod.rs", ok).is_empty());
    }

    #[test]
    fn wall_clock_flags_instant_and_thread_current() {
        let src = "use std::time::Instant;\n\
                   fn f() { let _ = std::thread::current().id(); }\n";
        let v = check_file("crates/query/src/q.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        // The engine's clock module is allowlisted by path.
        assert!(check_file("crates/mapreduce/src/observe/clock.rs", src).is_empty());
    }

    #[test]
    fn kernel_doc_requires_precondition() {
        let undocumented = "pub fn join_it(x: u32) -> u32 { x }\n";
        let vague = "/// Joins a bucket.\npub fn join_it(x: u32) -> u32 { x }\n";
        let good = "/// Complete for any single-attribute query.\n\
                    #[inline]\n\
                    pub fn join_it(x: u32) -> u32 { x }\n";
        let path = "crates/core/src/kernel/mod.rs";
        assert_eq!(check_file(path, undocumented).len(), 1);
        assert_eq!(check_file(path, vague).len(), 1);
        assert!(check_file(path, good).is_empty());
        // Out of scope: same file content elsewhere passes.
        assert!(check_file("crates/core/src/cascade.rs", undocumented).is_empty());
    }

    #[test]
    fn spill_module_is_in_no_panic_scope() {
        let panicky = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = check_file("crates/mapreduce/src/spill.rs", panicky);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, config::NO_PANIC);
    }

    #[test]
    fn spill_module_is_in_wall_clock_scope_with_marker_escape() {
        let timed = "use std::time::Instant;\nfn g() {}\n";
        let v = check_file("crates/mapreduce/src/spill.rs", timed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, config::WALL_CLOCK);
        // The real spill.rs times its I/O on the injectable Clock and
        // needs no marker; the file-scope escape still parses.
        let justified =
            "// repolint: allow(wall-clock, file): spill I/O timers only feed metrics\n\
             use std::time::Instant;\nfn g() {}\n";
        assert!(check_file("crates/mapreduce/src/spill.rs", justified).is_empty());
    }

    #[test]
    fn mapreduce_wall_clock_is_allowed_only_in_clock_rs() {
        // The injectable-Clock contract: `Instant` is legal in the one
        // allowlisted clock module and nowhere else in the engine crate.
        let timed = "use std::time::Instant;\nfn now() {}\n";
        assert!(check_file("crates/mapreduce/src/observe/clock.rs", timed).is_empty());
        for path in [
            "crates/mapreduce/src/observe/mod.rs",
            "crates/mapreduce/src/observe/snapshot.rs",
            "crates/mapreduce/src/engine/mod.rs",
            "crates/mapreduce/src/engine/reduce.rs",
        ] {
            let v = check_file(path, timed);
            assert_eq!(v.len(), 1, "{path}: {v:?}");
            assert_eq!(v[0].rule, config::WALL_CLOCK, "{path}");
        }
    }

    #[test]
    fn observer_and_engine_phase_files_are_in_no_panic_scope() {
        let panicky = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        for path in [
            "crates/mapreduce/src/observe/mod.rs",
            "crates/mapreduce/src/observe/hist.rs",
            "crates/mapreduce/src/observe/snapshot.rs",
            "crates/mapreduce/src/observe/clock.rs",
            "crates/mapreduce/src/engine/map.rs",
            "crates/mapreduce/src/engine/shuffle.rs",
            "crates/mapreduce/src/engine/reduce.rs",
        ] {
            let v = check_file(path, panicky);
            assert_eq!(v.len(), 1, "{path}: {v:?}");
            assert_eq!(v[0].rule, config::NO_PANIC, "{path}");
        }
        // Test modules inside the observer stay exempt, like everywhere else.
        let test_only = "#[cfg(test)]\nmod tests {\n fn t(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(check_file("crates/mapreduce/src/observe/hist.rs", test_only).is_empty());
    }

    #[test]
    fn pub_crate_fns_are_not_kernel_doc_targets() {
        let src = "pub(crate) fn helper(x: u32) -> u32 { x }\n";
        assert!(check_file("crates/core/src/kernel/mod.rs", src).is_empty());
    }
}
