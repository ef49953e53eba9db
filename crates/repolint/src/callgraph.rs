//! The cross-file call graph built from [`crate::symbols`] fact sets.
//!
//! Resolution policy (DESIGN.md §15): plain calls (`name(…)`) and method
//! calls (`.name(…)`) resolve to every function of that name defined in
//! the **same crate** — an over-approximation within the crate, and a
//! deliberate under-approximation across crates, so trait dynamic
//! dispatch (a `reducer.reduce(…)` that lands in the algorithm crate)
//! doesn't pull every kernel into the engine's panic closure.
//! Path-qualified calls (`Type::name(…)`) resolve by impl-qualified name
//! across **all** crates, since the target is unambiguous. Unresolved
//! calls (std, closures, dynamic dispatch) simply contribute no edge.

use crate::symbols::{FileSymbols, PanicSite};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One function node.
#[derive(Debug, Clone)]
pub struct Node {
    /// `Type::name` or the bare name — what reports print.
    pub display: String,
    /// Bare function name.
    pub name: String,
    /// Workspace-relative defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Crate the function is defined in.
    pub crate_name: String,
    /// Panic sites inside the body.
    pub panics: Vec<PanicSite>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Function nodes, in file-then-definition order.
    pub nodes: Vec<Node>,
    /// `edges[i]` = sorted, deduplicated callee node indices of node `i`.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from per-file symbol sets.
    pub fn build(files: &[FileSymbols]) -> CallGraph {
        let mut nodes = Vec::new();
        for f in files {
            for d in &f.fns {
                nodes.push(Node {
                    display: d.display().to_string(),
                    name: d.name.clone(),
                    path: f.path.clone(),
                    line: d.line,
                    crate_name: f.crate_name.clone(),
                    panics: d.panics.clone(),
                });
            }
        }
        // (crate, bare name) -> node indices; (qualified name) -> indices.
        let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name
                .entry((n.crate_name.as_str(), n.name.as_str()))
                .or_default()
                .push(i);
            if n.display.contains("::") {
                by_qual.entry(n.display.as_str()).or_default().push(i);
            }
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut idx = 0usize;
        for f in files {
            for d in &f.fns {
                for c in &d.calls {
                    let targets: Option<&Vec<usize>> = match &c.qual {
                        Some(q) => by_qual
                            .get(q.as_str())
                            .or_else(|| by_name.get(&(f.crate_name.as_str(), c.callee.as_str()))),
                        None => by_name.get(&(f.crate_name.as_str(), c.callee.as_str())),
                    };
                    if let Some(ts) = targets {
                        edges[idx].extend(ts.iter().copied());
                    }
                }
                edges[idx].sort_unstable();
                edges[idx].dedup();
                idx += 1;
            }
        }
        CallGraph { nodes, edges }
    }

    /// BFS from `entries`; returns a parent array — `parent[i]` is
    /// `Some(p)` when node `i` was first reached via `p` (`p == i` for an
    /// entry itself), `None` when unreachable.
    pub fn reach(&self, entries: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &e in entries {
            if parent[e].is_none() {
                parent[e] = Some(e);
                queue.push_back(e);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if parent[m].is_none() {
                    parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// The entry-to-`node` call path implied by a [`CallGraph::reach`]
    /// parent array, as ` → `-joined display names.
    pub fn path_to(&self, parent: &[Option<usize>], node: usize) -> String {
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&i| self.nodes[i].display.as_str())
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// Hand-written JSON dump for CI artifacts:
    /// `{"nodes": [{"id", "fn", "path", "line", "crate", "panic_sites"}],
    ///   "edges": [[from, to], …]}`.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = String::from("{\n  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"id\": {i}, \"fn\": \"{}\", \"path\": \"{}\", \
                 \"line\": {}, \"crate\": \"{}\", \"panic_sites\": {}}}",
                esc(&n.display),
                esc(&n.path),
                n.line,
                esc(&n.crate_name),
                n.panics.len()
            );
        }
        out.push_str("\n  ],\n  \"edges\": [");
        let mut first = true;
        for (from, tos) in self.edges.iter().enumerate() {
            for &to in tos {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\n    [{from}, {to}]");
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::symbols::extract;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let syms: Vec<_> = files.iter().map(|(p, s)| extract(p, &lex(s))).collect();
        CallGraph::build(&syms)
    }

    fn idx(g: &CallGraph, display: &str) -> usize {
        g.nodes.iter().position(|n| n.display == display).unwrap()
    }

    #[test]
    fn same_crate_calls_resolve_across_files() {
        let g = graph(&[
            (
                "crates/mapreduce/src/engine/mod.rs",
                "impl Engine { pub fn run_job(&self) { helper(); } }",
            ),
            ("crates/mapreduce/src/job.rs", "pub fn helper() {}"),
        ]);
        let run = idx(&g, "Engine::run_job");
        let helper = idx(&g, "helper");
        assert_eq!(g.edges[run], vec![helper]);
    }

    #[test]
    fn cross_crate_needs_qualification() {
        let g = graph(&[
            (
                "crates/mapreduce/src/engine/mod.rs",
                "fn a() { reduce(); } fn b() { Kernel::reduce(); }",
            ),
            (
                "crates/core/src/kernel/mod.rs",
                "impl Kernel { pub fn reduce() {} }",
            ),
        ]);
        let a = idx(&g, "a");
        let b = idx(&g, "b");
        let reduce = idx(&g, "Kernel::reduce");
        // Unqualified `reduce()` must NOT cross the crate boundary…
        assert!(g.edges[a].is_empty(), "{:?}", g.edges[a]);
        // …but the path-qualified call resolves.
        assert_eq!(g.edges[b], vec![reduce]);
    }

    #[test]
    fn method_calls_resolve_within_the_crate() {
        let g = graph(&[(
            "crates/mapreduce/src/engine/mod.rs",
            "impl Engine { fn outer(&self) { self.inner(); } fn inner(&self) {} }",
        )]);
        let outer = idx(&g, "Engine::outer");
        let inner = idx(&g, "Engine::inner");
        assert_eq!(g.edges[outer], vec![inner]);
    }

    #[test]
    fn reach_returns_shortest_parents_and_paths() {
        let g = graph(&[(
            "crates/mapreduce/src/engine/mod.rs",
            "fn a() { b(); } fn b() { c(); } fn c() {} fn island() {}",
        )]);
        let (a, c, island) = (idx(&g, "a"), idx(&g, "c"), idx(&g, "island"));
        let parent = g.reach(&[a]);
        assert!(parent[c].is_some());
        assert!(parent[island].is_none());
        assert_eq!(g.path_to(&parent, c), "a → b → c");
    }

    #[test]
    fn recursion_does_not_loop() {
        let g = graph(&[(
            "crates/mapreduce/src/engine/mod.rs",
            "fn a() { b(); } fn b() { a(); }",
        )]);
        let parent = g.reach(&[idx(&g, "a")]);
        assert!(parent.iter().all(Option::is_some));
    }

    #[test]
    fn json_dump_is_well_formed_enough_for_ci() {
        let g = graph(&[(
            "crates/mapreduce/src/engine/mod.rs",
            "fn a() { b(); } fn b() { x.unwrap(); }",
        )]);
        let j = g.to_json();
        assert!(j.contains("\"fn\": \"a\""));
        assert!(j.contains("\"panic_sites\": 1"));
        assert!(j.contains("[0, 1]"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
