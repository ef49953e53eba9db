//! Per-file symbol extraction: function definitions with their lock
//! acquisitions, and string-literal uses, parsed from the lexer's token
//! stream — the facts the `lock-discipline` and `counter-registry` rules
//! ([`crate::rules`]) run over. `#[cfg(test)]` subtrees are excluded up
//! front via the same brace matcher the other rules use, so test
//! scaffolding never contributes functions or literals.
//!
//! The parser is heuristic by design (no full grammar):
//!
//! * a function is `fn name` followed by a body (bodyless trait
//!   declarations are skipped);
//! * a lock acquisition is `.lock()` / `.read()` / `.write()` with empty
//!   parentheses (parking_lot style); its *live range* is computed from
//!   the binding form, and nested acquisitions or stream/Dfs I/O inside
//!   that range become [`LockIssue`]s.

use crate::lexer::{LexedFile, TokKind, Token};
use crate::rules::test_region_mask;

/// What a [`LockIssue`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockIssueKind {
    /// A second acquisition while another guard is live.
    Nested,
    /// A `ValueStream` pull or Dfs I/O call while a guard is live.
    AcrossIo,
}

/// A lock-discipline fact found in one function body.
#[derive(Debug, Clone)]
pub struct LockIssue {
    /// Which discipline was broken.
    pub kind: LockIssueKind,
    /// Line of the offending inner site.
    pub line: u32,
    /// Line of the outer acquisition whose guard was live.
    pub outer_line: u32,
    /// Detail for the report (method names involved).
    pub detail: String,
}

/// One function definition with its lock-discipline facts.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Lock-discipline issues in the body.
    pub lock_issues: Vec<LockIssue>,
}

/// A string literal in production (non-test) position.
#[derive(Debug, Clone)]
pub struct StrUse {
    /// The literal's contents.
    pub value: String,
    /// 1-based line.
    pub line: u32,
    /// `Some(method)` when the literal is the first argument of a
    /// metric-recording call (`.inc("…")`, `.record("…")`, …).
    pub record_call: Option<String>,
}

/// The extracted fact set for one source file.
#[derive(Debug, Clone)]
pub struct FileSymbols {
    /// Workspace-relative path.
    pub path: String,
    /// Function definitions outside `#[cfg(test)]`.
    pub fns: Vec<FnDef>,
    /// Production string-literal uses (test regions excluded).
    pub str_uses: Vec<StrUse>,
}

/// Lock-guard acquisition methods (empty-parens calls).
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Methods that pull from a stream or perform Dfs I/O — forbidden while a
/// guard is live. `read`/`write`/`read_range` only count with a receiver
/// chain that mentions `dfs` (see [`receiver_mentions_dfs`]).
const STREAM_PULLS: &[&str] = &["next", "take_vec"];
const DFS_IO: &[&str] = &["read", "write", "read_range", "remove", "list"];

/// Extracts the symbol facts of one lexed file.
pub fn extract(path: &str, lexed: &LexedFile) -> FileSymbols {
    let toks = &lexed.tokens;
    let mask = test_region_mask(toks);
    let punct = |i: usize, ch: &str| {
        toks.get(i)
            .map(|t| t.kind == TokKind::Punct && t.text == ch)
            .unwrap_or(false)
    };
    let ident = |i: usize| {
        toks.get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    };

    let mut fns: Vec<FnDef> = Vec::new();
    let mut str_uses: Vec<StrUse> = Vec::new();

    // --- string-literal uses ------------------------------------------------
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Str || mask[i] {
            continue;
        }
        // `.inc("name", …)` → the literal directly follows `method` + `(`.
        let record_call = if i >= 3
            && punct(i - 1, "(")
            && punct(i - 3, ".")
            && matches!(
                ident(i - 2),
                Some("inc" | "record" | "inc_series" | "record_hist" | "get")
            ) {
            ident(i - 2).map(str::to_string)
        } else {
            None
        };
        str_uses.push(StrUse {
            value: t.text.clone(),
            line: t.line,
            record_call,
        });
    }

    // --- function definitions ----------------------------------------------
    for i in 0..toks.len() {
        if ident(i) != Some("fn") || mask[i] {
            continue;
        }
        let Some(name) = ident(i + 1) else { continue };
        if let Some((b0, b1)) = fn_body_range(toks, i + 2) {
            fns.push(FnDef {
                name: name.to_string(),
                line: toks[i].line,
                lock_issues: body_lock_issues(toks, b0, b1, &mask),
            });
        }
    }

    FileSymbols {
        path: path.replace('\\', "/"),
        fns,
        str_uses,
    }
}

/// Skips a balanced `<…>` starting at `i` (which holds `<`); `->` arrows
/// inside don't close the group. Returns the index just past the `>`.
fn skip_angles(toks: &[Token], mut i: usize) -> Option<usize> {
    let mut depth = 0usize;
    while let Some(t) = toks.get(i) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => {
                    let arrow =
                        i >= 1 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == "-";
                    if !arrow {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i + 1);
                        }
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// The token range (inclusive) of a fn body, scanning from just past the
/// fn name: the first `{` at paren/bracket depth 0 through its matching
/// `}`. `None` for bodyless trait declarations (`;` first).
fn fn_body_range(toks: &[Token], mut i: usize) -> Option<(usize, usize)> {
    let mut nest = 0i32;
    loop {
        let t = toks.get(i)?;
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => nest += 1,
                ")" | "]" => nest -= 1,
                ";" if nest == 0 => return None,
                "{" if nest == 0 => break,
                _ => {}
            }
        }
        i += 1;
    }
    let b0 = i;
    let mut depth = 0i32;
    while let Some(t) = toks.get(i) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((b0, i));
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    Some((b0, toks.len() - 1)) // unterminated: run to EOF, like the lexer
}

/// If the tokens at `i` form `::<…>(` or `(`, returns the index of the
/// `(`, so a turbofish call (`dfs.read::<V>(…)`) still counts as a call.
fn call_paren(toks: &[Token], i: usize) -> Option<usize> {
    let punct = |i: usize, ch: &str| {
        toks.get(i)
            .map(|t| t.kind == TokKind::Punct && t.text == ch)
            .unwrap_or(false)
    };
    if punct(i, "(") {
        return Some(i);
    }
    if punct(i, ":") && punct(i + 1, ":") && punct(i + 2, "<") {
        let after = skip_angles(toks, i + 2)?;
        if punct(after, "(") {
            return Some(after);
        }
    }
    None
}

/// Whether the receiver chain ending just before the `.` at `dot`
/// mentions a Dfs (identifier containing `dfs`, case-insensitive), looking
/// back a few tokens (`self.dfs.write(…)`, `dfs.read::<V>(…)`).
fn receiver_mentions_dfs(toks: &[Token], dot: usize) -> bool {
    let lo = dot.saturating_sub(4);
    toks[lo..dot]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text.to_lowercase().contains("dfs"))
}

/// One lock acquisition with its computed guard live range.
struct Acquisition {
    method: String,
    line: u32,
    /// Token index of the `.`.
    at: usize,
    /// Last token index (inclusive) at which the guard is still live.
    end: usize,
}

fn body_lock_issues(toks: &[Token], b0: usize, b1: usize, mask: &[bool]) -> Vec<LockIssue> {
    let hi = b1.min(toks.len() - 1);
    let punct = |i: usize, ch: &str| {
        toks.get(i)
            .map(|t| t.kind == TokKind::Punct && t.text == ch)
            .unwrap_or(false)
    };

    // Pass 1: find acquisitions and their guard live ranges.
    let mut acqs: Vec<Acquisition> = Vec::new();
    for (i, &masked) in mask.iter().enumerate().take(hi + 1).skip(b0) {
        if masked || !punct(i, ".") {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if m.kind != TokKind::Ident || !LOCK_METHODS.contains(&m.text.as_str()) {
            continue;
        }
        // Empty parens only: `.read("path")` is Dfs I/O, not a guard.
        if !(punct(i + 2, "(") && punct(i + 3, ")")) {
            continue;
        }
        // A guard is *held* only when the lock call's result is bound
        // directly (`let g = m.lock();`). `let v = m.lock().clone();`
        // binds the clone — the guard itself is a statement temporary.
        let let_bound = statement_starts_with_let(toks, b0, i) && punct(i + 4, ";");
        let end = guard_range_end(toks, i + 4, hi, let_bound);
        acqs.push(Acquisition {
            method: m.text.clone(),
            line: m.line,
            at: i,
            end,
        });
    }

    // Pass 2: nested acquisitions and I/O inside a live range.
    let mut out = Vec::new();
    for a in &acqs {
        for b in &acqs {
            if b.at > a.at && b.at <= a.end {
                out.push(LockIssue {
                    kind: LockIssueKind::Nested,
                    line: b.line,
                    outer_line: a.line,
                    detail: format!(
                        ".{}() acquired while the .{}() guard from line {} is live",
                        b.method, a.method, a.line
                    ),
                });
            }
        }
        let stop = a.end.min(hi);
        for (i, &masked) in mask.iter().enumerate().take(stop + 1).skip(a.at + 4) {
            if masked || !punct(i, ".") {
                continue;
            }
            let Some(m) = toks.get(i + 1) else { continue };
            if m.kind != TokKind::Ident {
                continue;
            }
            let name = m.text.as_str();
            let empty_parens = punct(i + 2, "(") && punct(i + 3, ")");
            let called = call_paren(toks, i + 2).is_some();
            let is_pull = STREAM_PULLS.contains(&name) && called;
            let is_dfs = DFS_IO.contains(&name)
                && called
                && !(empty_parens && LOCK_METHODS.contains(&name))
                && receiver_mentions_dfs(toks, i);
            if is_pull || is_dfs {
                out.push(LockIssue {
                    kind: LockIssueKind::AcrossIo,
                    line: m.line,
                    outer_line: a.line,
                    detail: format!(
                        ".{name}(…) while the .{}() guard from line {} is live",
                        a.method, a.line
                    ),
                });
            }
        }
    }
    out.sort_by_key(|i| (i.line, i.outer_line));
    out
}

/// Whether the statement containing token `i` starts with `let` (walking
/// back to the previous `;`, `{` or `}` inside the body).
fn statement_starts_with_let(toks: &[Token], b0: usize, i: usize) -> bool {
    let mut j = i;
    while j > b0 {
        let t = &toks[j - 1];
        if t.kind == TokKind::Punct && (t.text == ";" || t.text == "{" || t.text == "}") {
            break;
        }
        j -= 1;
    }
    toks.get(j)
        .map(|t| t.kind == TokKind::Ident && t.text == "let")
        .unwrap_or(false)
}

/// The last token index at which a guard acquired just before `from` is
/// still live. Let-bound guards live to the end of the enclosing block
/// (the `}` taking relative depth below zero); temporaries die at the
/// first `;` at relative depth 0 — or at that same `}`, so an
/// `if a.lock().x { … } else { … }` temporary never spans both arms.
fn guard_range_end(toks: &[Token], from: usize, hi: usize, let_bound: bool) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().take(hi + 1).skip(from) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            ";" if depth == 0 && !let_bound => return i,
            _ => {}
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sym(src: &str) -> FileSymbols {
        extract("crates/mapreduce/src/engine/mod.rs", &lex(src))
    }

    #[test]
    fn fns_are_extracted_inside_and_outside_impl_blocks() {
        let s = sym("impl Engine {\n\
                         pub fn run_job(&self) { helper(); self.step(); }\n\
                     }\n\
                     fn helper() {}\n\
                     trait T { fn declared(&self); }\n");
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["run_job", "helper"]);
    }

    #[test]
    fn cfg_test_fns_are_invisible() {
        let s = sym("fn prod() {}\n\
                     #[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}");
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "prod");
    }

    #[test]
    fn recording_literals_are_tagged() {
        let s = sym("fn f(c: &Counters) { c.inc(\"spill.runs\", 1); let s = \"plain\"; }");
        assert_eq!(s.str_uses.len(), 2);
        assert_eq!(s.str_uses[0].value, "spill.runs");
        assert_eq!(s.str_uses[0].record_call.as_deref(), Some("inc"));
        assert!(s.str_uses[1].record_call.is_none());
    }

    #[test]
    fn nested_locks_are_detected() {
        let s = sym("fn f(&self) {\n\
                         let a = self.files.write();\n\
                         let b = self.stats.write();\n\
                     }");
        let issues = &s.fns[0].lock_issues;
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert_eq!(issues[0].kind, LockIssueKind::Nested);
        assert_eq!(issues[0].line, 3);
        assert_eq!(issues[0].outer_line, 2);
    }

    #[test]
    fn scoped_guard_then_lock_is_clean() {
        let s = sym("fn f(&self) {\n\
                         { let a = self.files.write(); a.insert(1); }\n\
                         let b = self.stats.write();\n\
                     }");
        assert!(
            s.fns[0].lock_issues.is_empty(),
            "{:?}",
            s.fns[0].lock_issues
        );
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let s = sym("fn f(&self) {\n\
                         let v = self.slot.lock().clone();\n\
                         let b = self.stats.write();\n\
                     }");
        assert!(
            s.fns[0].lock_issues.is_empty(),
            "{:?}",
            s.fns[0].lock_issues
        );
    }

    #[test]
    fn lock_across_stream_pull_and_dfs_io_is_flagged() {
        let s = sym("fn f(&self) {\n\
                         let g = self.state.lock();\n\
                         let x = stream.next();\n\
                         self.dfs.write(\"p\", v);\n\
                         let r = dfs.read::<u64>(\"p\");\n\
                     }");
        let issues = &s.fns[0].lock_issues;
        let kinds: Vec<_> = issues.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, vec![LockIssueKind::AcrossIo; 3], "{issues:?}");
    }

    #[test]
    fn dfs_style_read_without_dfs_receiver_is_not_io() {
        // `.read()` empty parens is a guard; `.read(buf)` on a non-dfs
        // receiver is out of the heuristic's reach (documented).
        let s = sym("fn f(&self) {\n\
                         let g = self.state.lock();\n\
                         socket.read(buf);\n\
                     }");
        assert!(
            s.fns[0].lock_issues.is_empty(),
            "{:?}",
            s.fns[0].lock_issues
        );
    }
}
