//! Spans recorded by the benchmark's own code around calls into each
//! layer's public functions.
//!
//! Spans are kept in memory and written out once, when the run ends. A
//! span's *self time* is its duration minus the part its child spans cover;
//! within one traced op the self times sum to the op's wall time, which is
//! the closure the traced run asserts.

use crate::json::Value;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`, e.g. `core.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; `>= start_ns`.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Traced op the span belongs to (`None` for the layer replays).
    pub op: Option<u32>,
    /// `false` when the span was timed by this file's clock around a call;
    /// `true` when its duration is a value the call returned (a
    /// `JobMetrics` phase wall) laid out inside its parent.
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for the benchmark's single driving thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
    op: Option<u32>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the op identifier stamped on the spans recorded from now on.
    pub fn set_op(&mut self, op: Option<u32>) {
        self.op = op;
    }

    /// Times `f` as a span named `name`, child of the innermost open span.
    /// `f` gets the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            derived: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a child of span `parent` whose duration `dur_ns` was
    /// returned by the traced call rather than timed here. Derived
    /// children are laid end to end from `cursor_ns`; returns the id and
    /// the cursor after the new span.
    pub fn derived(
        &mut self,
        name: &'static str,
        parent: usize,
        cursor_ns: u64,
        dur_ns: u64,
    ) -> (usize, u64) {
        let end_ns = cursor_ns + dur_ns;
        self.spans.push(Span {
            name,
            start_ns: cursor_ns,
            end_ns,
            parent: Some(parent),
            op: self.spans[parent].op,
            derived: true,
        });
        (self.spans.len() - 1, end_ns)
    }

    /// Index of the most recently *started* span named `name`.
    pub fn last_named(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration in seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The spans as a JSON array of
    /// `{name, start_ns, end_ns, parent, workload, op, derived}`.
    pub fn to_json(&self, workload: &str) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("name", Value::from(s.name)),
                        ("start_ns", Value::from(s.start_ns)),
                        ("end_ns", Value::from(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                        ),
                        ("workload", Value::from(workload)),
                        (
                            "op",
                            s.op.map_or(Value::Null, |o| Value::from(u64::from(o))),
                        ),
                        ("derived", Value::from(s.derived)),
                    ])
                })
                .collect(),
        )
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Self time of every span, in nanoseconds: duration minus the summed
/// durations of its direct children (children never overlap each other:
/// timed spans nest on one thread and derived spans are laid end to end).
/// `Err` names the first child that does not lie inside its parent.
pub fn self_times_ns(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .ok_or_else(|| format!("span {i} ({}) names a missing parent {p}", s.name))?;
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({}) [{}, {}] leaves its parent {p} ({}) [{}, {}]",
                s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
            ));
        }
        own[p] = own[p].checked_sub(s.dur_ns()).ok_or_else(|| {
            format!(
                "children of span {p} ({}) cover more than its duration",
                parent.name
            )
        })?;
    }
    Ok(own)
}

/// Checks the closure of one traced op: the self times of the op's spans
/// sum to the duration of its root span. Returns that duration in seconds.
pub fn op_closure_s(spans: &[Span], op: u32) -> Result<f64, String> {
    let own = self_times_ns(spans)?;
    let mut roots = spans
        .iter()
        .filter(|s| s.op == Some(op) && s.parent.is_none());
    let root = roots
        .next()
        .ok_or_else(|| format!("op {op} has no root span"))?;
    if roots.next().is_some() {
        return Err(format!("op {op} has more than one root span"));
    }
    let sum: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.op == Some(op))
        .map(|(_, o)| o)
        .sum();
    if sum != root.dur_ns() {
        return Err(format!(
            "op {op}: self times sum to {sum} ns but the op took {} ns",
            root.dur_ns()
        ));
    }
    Ok(root.dur_ns() as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: Some(0),
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, None),
            span("plan", 0, 10, Some(0)),
            span("run", 10, 95, Some(0)),
            span("job", 12, 90, Some(2)),
            span("map", 12, 40, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans).unwrap(), vec![5, 10, 7, 50, 28]);
        assert_eq!(op_closure_s(&spans, 0).unwrap(), 100.0 / 1e9);
    }

    #[test]
    fn child_outside_parent_is_an_error() {
        let spans = vec![span("op", 10, 20, None), span("late", 15, 25, Some(0))];
        assert!(self_times_ns(&spans)
            .unwrap_err()
            .contains("leaves its parent"));
        let spans = vec![span("op", 10, 20, None), span("orphan", 12, 13, Some(7))];
        assert!(self_times_ns(&spans)
            .unwrap_err()
            .contains("missing parent"));
    }

    #[test]
    fn overlapping_children_break_closure() {
        // Two children that together cover more than the parent.
        let spans = vec![
            span("op", 0, 10, None),
            span("a", 0, 8, Some(0)),
            span("b", 2, 10, Some(0)),
        ];
        assert!(self_times_ns(&spans).unwrap_err().contains("cover more"));
    }

    #[test]
    fn closure_needs_exactly_one_root() {
        let spans = vec![span("a", 0, 5, None), span("b", 5, 9, None)];
        assert!(op_closure_s(&spans, 0)
            .unwrap_err()
            .contains("more than one root"));
        assert!(op_closure_s(&spans, 3).unwrap_err().contains("no root"));
    }

    #[test]
    fn tracer_nests_and_stamps_ops() {
        let mut t = Tracer::new();
        t.set_op(Some(4));
        let got = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(got, 7);
        t.set_op(None);
        t.span("replay", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, Some(4)));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].op),
            ("inner", Some(0), Some(4))
        );
        assert_eq!((s[2].name, s[2].parent, s[2].op), ("replay", None, None));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(op_closure_s(s, 4).unwrap(), s[0].dur_ns() as f64 / 1e9);
    }

    #[test]
    fn derived_children_are_laid_end_to_end() {
        let mut t = Tracer::new();
        t.set_op(Some(0));
        t.span("run", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let run = t.last_named("run").unwrap();
        let start = t.spans()[run].start_ns;
        let (job, _) = t.derived("job", run, start, 1_000_000);
        let (_, cur) = t.derived("map", job, start, 400_000);
        let (_, cur) = t.derived("reduce", job, cur, 500_000);
        assert_eq!(cur, start + 900_000);
        let own = self_times_ns(t.spans()).unwrap();
        assert_eq!(own[job], 100_000);
        assert!(t.spans()[job].derived);
        assert_eq!(t.total_s("map"), 0.0004);
        let json = t.to_json("w");
        assert_eq!(json.as_arr().unwrap().len(), 4);
        assert_eq!(
            json.as_arr().unwrap()[1].get("parent").unwrap().as_f64(),
            Some(0.0)
        );
    }
}
