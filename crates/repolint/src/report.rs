//! Report rendering: human text and machine-readable JSON.
//!
//! The JSON is written by hand (the tool is dependency-free); the schema
//! is stable so CI can archive and diff reports across runs:
//!
//! ```json
//! {
//!   "tool": "repolint",
//!   "files_scanned": 42,
//!   "violation_count": 1,
//!   "violations": [
//!     {"rule": "…", "path": "…", "line": 7,
//!      "message": "…", "suggestion": "…"}
//!   ]
//! }
//! ```

use crate::rules::Violation;
use std::fmt::Write as _;

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report.
pub fn to_json(violations: &[Violation], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"tool\": \"repolint\",");
    let _ = writeln!(out, "  \"files_scanned\": {files_scanned},");
    let _ = writeln!(out, "  \"violation_count\": {},", violations.len());
    out.push_str("  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \
             \"message\": \"{}\", \"suggestion\": \"{}\"",
            json_escape(v.rule),
            json_escape(&v.path),
            v.line,
            json_escape(&v.message),
            json_escape(&v.suggestion),
        );
        out.push('}');
    }
    if !violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Renders the human report; with `suggest`, each violation carries its
/// mechanical fix suggestion.
pub fn to_text(violations: &[Violation], files_scanned: usize, suggest: bool) -> String {
    let mut out = String::new();
    for v in violations {
        let _ = writeln!(out, "{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
        if suggest {
            let _ = writeln!(out, "    fix: {}", v.suggestion);
        }
    }
    let _ = writeln!(
        out,
        "{} file(s) scanned, {} violation(s)",
        files_scanned,
        violations.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Violation> {
        vec![Violation {
            rule: "kernel-doc",
            path: "crates/x/src/a.rs".into(),
            line: 3,
            message: "a \"quoted\" message".into(),
            suggestion: "do\nbetter".into(),
        }]
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let j = to_json(&sample(), 5);
        assert!(j.contains("\"violation_count\": 1"));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("do\\nbetter"));
        assert!(j.contains("\"files_scanned\": 5"));
    }

    #[test]
    fn empty_report_is_valid() {
        let j = to_json(&[], 7);
        assert!(j.contains("\"violations\": []"));
    }

    #[test]
    fn text_mentions_suggestion_only_on_request() {
        let plain = to_text(&sample(), 1, false);
        let with = to_text(&sample(), 1, true);
        assert!(!plain.contains("fix:"));
        assert!(with.contains("fix:"));
    }
}
