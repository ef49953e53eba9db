//! Result tables: aligned console output plus machine-readable JSON (used
//! to regenerate EXPERIMENTS.md).

use ij_mapreduce::metrics::names;
use ij_mapreduce::{Counters, ReducerLoad, SkewReport, TelemetrySnapshot};
use serde::Serialize;
use std::io::Write;

/// One measured cell value.
#[derive(Debug, Clone, Serialize)]
#[serde(untagged)]
pub enum Cell {
    /// A plain string (e.g. a trace name).
    Text(String),
    /// An integer count.
    Int(u64),
    /// A float (times, skews, fractions).
    Float(f64),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}
impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as u64)
    }
}
impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => group_thousands(*v),
            Cell::Float(v) => {
                if v.abs() >= 1000.0 {
                    group_thousands(v.round() as u64)
                } else {
                    format!("{v:.2}")
                }
            }
        }
    }
}

fn group_thousands(mut v: u64) -> String {
    let mut parts = Vec::new();
    loop {
        parts.push((v % 1000, ()));
        v /= 1000;
        if v == 0 {
            break;
        }
    }
    parts
        .iter()
        .rev()
        .enumerate()
        .map(|(i, (p, _))| {
            if i == 0 {
                format!("{p}")
            } else {
                format!("{p:03}")
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// One result row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Cell values, parallel to the report's columns.
    pub cells: Vec<Cell>,
}

/// A named result table.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Experiment id (e.g. `"table1"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Free-form notes (workload parameters, scale).
    pub notes: Vec<String>,
    /// Column headers.
    pub columns: Vec<String>,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// An empty report.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            notes: Vec::new(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a workload note (printed above the table).
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Adds one row; must match the column count.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(Row { cells });
    }

    /// Renders the aligned console table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for n in &self.notes {
            out.push_str(&format!("   {n}\n"));
        }
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.cells.iter().map(Cell::render).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for r in &rendered {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        out.push_str(&format!("   {}\n", header.join("  ")));
        out.push_str(&format!(
            "   {}\n",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        ));
        for r in &rendered {
            let line: Vec<String> = r
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            out.push_str(&format!("   {}\n", line.join("  ")));
        }
        out
    }

    /// Prints the table to stdout and optionally writes JSON.
    pub fn finish(&self, json_path: Option<&str>) {
        println!("{}", self.render());
        if let Some(path) = json_path {
            let file =
                std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            let mut w = std::io::BufWriter::new(file);
            serde_json::to_writer_pretty(&mut w, self).expect("serialize report");
            w.flush().expect("flush report");
            eprintln!("(wrote {path})");
        }
    }
}

/// Formats a simulated-time value in engine cost units compactly.
pub fn fmt_sim(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}K", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Formats a map/shuffle/reduce wall-clock breakdown compactly, e.g.
/// `"12ms/3.4ms/40ms"` — the per-phase columns added by the partitioned
/// shuffle work.
pub fn fmt_phases(map_secs: f64, shuffle_secs: f64, reduce_secs: f64) -> String {
    format!(
        "{}/{}/{}",
        fmt_secs(map_secs),
        fmt_secs(shuffle_secs),
        fmt_secs(reduce_secs)
    )
}

/// Formats one measurement's spill activity from its `spill.*` counters
/// and spill wall time: `-` when nothing spilled (no budget, or every
/// bucket fit), else `"<buckets>b/<runs>r/<bytes>B <secs>"`.
pub fn fmt_spill(counters: &Counters, spill_secs: f64) -> String {
    let buckets = counters.get(names::SPILL_BUCKETS);
    if buckets == 0 {
        "-".to_string()
    } else {
        format!(
            "{}b/{}r/{}B {}",
            buckets,
            counters.get(names::SPILL_RUNS),
            counters.get(names::SPILL_BYTES),
            fmt_secs(spill_secs)
        )
    }
}

/// Formats one measurement's intra-reduce scheduling activity from its
/// `sched.*` counters: `-` when no reduce phase deviated from one thread
/// per bucket (all grants serial, nothing classified heavy), else
/// `"<granted threads>g/<heavy buckets>h"`. Granted threads sum over
/// every bucket of every MR cycle, so `g` exceeding the bucket count
/// means some bucket really ran multi-threaded.
pub fn fmt_sched(counters: &Counters) -> String {
    let grants = counters.get(names::SCHED_GRANTS);
    if grants == 0 {
        "-".to_string()
    } else {
        format!("{}g/{}h", grants, counters.get(names::SCHED_HEAVY_BUCKETS))
    }
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}us", s * 1e6)
    }
}

/// Summarizes a [`TelemetrySnapshot`] as a one-line report note: job and
/// reducer progress, heartbeat counts, detected stragglers, and the
/// reduce service-time histogram's spread when it was recorded.
pub fn telemetry_note(snap: &TelemetrySnapshot) -> String {
    let s = |name: &str| snap.series.get(name).copied().unwrap_or(0);
    let mut out = format!(
        "telemetry: jobs {}/{} reducers {}/{} heartbeats map={} reduce={} stragglers={}",
        s(names::PROGRESS_JOBS_FINISHED),
        s(names::PROGRESS_JOBS_STARTED),
        s(names::PROGRESS_REDUCERS_DONE),
        s(names::PROGRESS_REDUCERS),
        s(names::HEARTBEATS_MAP),
        s(names::HEARTBEATS_REDUCE),
        s(names::TELEMETRY_STRAGGLERS),
    );
    if let Some(h) = snap.histograms.get(&**names::REDUCE_SERVICE_NS) {
        if let (Some(min), Some(max)) = (h.min(), h.max()) {
            out.push_str(&format!(" service_ns[min={min} max={max} n={}]", h.count()));
        }
    }
    out
}

/// The column set matching [`skew_row`] — one row per job/cycle, summarizing
/// its per-reducer load distribution (the Section 7 / Figure 4 diagnosis).
pub fn skew_report_table(id: &str, title: &str) -> Report {
    Report::new(
        id,
        title,
        &[
            "cycle", "reducers", "max", "mean", "p50", "p99", "max/mean", "p99/p50", "gini",
            "top keys",
        ],
    )
}

/// Appends one [`SkewReport`] as a row of a [`skew_report_table`].
pub fn skew_row(report: &mut Report, label: &str, s: &SkewReport) {
    report.row(vec![
        label.into(),
        s.reducers.into(),
        s.max.into(),
        s.mean.into(),
        s.p50.into(),
        s.p99.into(),
        s.max_mean_ratio.into(),
        s.p99_p50_ratio.into(),
        s.gini.into(),
        fmt_top_keys(&s.top).into(),
    ]);
}

/// Formats the top-k heaviest reducers compactly: `"7:1,200 3:800"`.
fn fmt_top_keys(top: &[(u64, u64)]) -> String {
    top.iter()
        .map(|(k, v)| format!("{k}:{}", group_thousands(*v)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// An ASCII per-reducer load histogram: one bar per reducer (key order),
/// scaled so the heaviest fills `width` characters. The visual counterpart
/// of Figure 4's per-reducer bar chart.
pub fn load_histogram(loads: &[ReducerLoad], width: usize) -> String {
    let max = loads.iter().map(|l| l.pairs_received).max().unwrap_or(0);
    let key_w = loads
        .iter()
        .map(|l| l.key.to_string().len())
        .max()
        .unwrap_or(1);
    let count_w = loads
        .iter()
        .map(|l| group_thousands(l.pairs_received).len())
        .max()
        .unwrap_or(1);
    let mut out = String::new();
    for l in loads {
        let bar = if max == 0 {
            0
        } else {
            // At least one mark for any loaded reducer.
            ((l.pairs_received as f64 / max as f64) * width as f64).round() as usize
        }
        .max(usize::from(l.pairs_received > 0));
        out.push_str(&format!(
            "   {key:>key_w$}  {count:>count_w$}  {}\n",
            "#".repeat(bar),
            key = l.key,
            count = group_thousands(l.pairs_received),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_spill_shows_dash_without_spills() {
        let mut c = Counters::new();
        assert_eq!(fmt_spill(&c, 0.0), "-");
        c.inc(names::SPILL_BUCKETS, 2);
        c.inc(names::SPILL_RUNS, 5);
        c.inc(names::SPILL_BYTES, 4096);
        let s = fmt_spill(&c, 0.25);
        assert!(s.starts_with("2b/5r/4096B"), "{s}");
    }

    #[test]
    fn fmt_sched_shows_dash_without_grants() {
        let mut c = Counters::new();
        assert_eq!(fmt_sched(&c), "-");
        c.inc(names::SCHED_GRANTS, 21);
        c.inc(names::SCHED_HEAVY_BUCKETS, 2);
        assert_eq!(fmt_sched(&c), "21g/2h");
    }

    #[test]
    fn renders_aligned_table() {
        let mut r = Report::new("t", "demo", &["name", "count"]);
        r.note("note1");
        r.row(vec!["a".into(), 5u64.into()]);
        r.row(vec!["bbbb".into(), 123_456u64.into()]);
        let s = r.render();
        assert!(s.contains("note1"));
        assert!(s.contains("123,456"));
        assert!(s.contains("name"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        let mut r = Report::new("t", "demo", &["a", "b"]);
        r.row(vec!["x".into()]);
    }

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1000), "1,000");
        assert_eq!(group_thousands(1_234_567), "1,234,567");
    }

    #[test]
    fn sim_formatting() {
        assert_eq!(fmt_sim(12.0), "12");
        assert_eq!(fmt_sim(1234.0), "1.2K");
        assert_eq!(fmt_sim(2_500_000.0), "2.50M");
        assert_eq!(fmt_sim(3.2e9), "3.20G");
    }

    #[test]
    fn phase_formatting() {
        assert_eq!(fmt_phases(1.25, 0.0123, 0.000045), "1.25s/12.3ms/45us");
    }

    #[test]
    fn skew_rows_render() {
        let loads: Vec<ReducerLoad> = [10u64, 10, 10, 970]
            .iter()
            .enumerate()
            .map(|(i, &p)| ReducerLoad {
                key: i as u64,
                pairs_received: p,
                work: 0,
                output: 0,
                attempts: 1,
            })
            .collect();
        let s = SkewReport::from_loads(&loads, 2);
        let mut rep = skew_report_table("skew", "demo");
        skew_row(&mut rep, "join", &s);
        let rendered = rep.render();
        assert!(rendered.contains("max/mean"), "{rendered}");
        assert!(rendered.contains("gini"), "{rendered}");
        assert!(rendered.contains("3:970"), "top keys listed: {rendered}");
        assert!(rendered.contains("970"), "{rendered}");
    }

    #[test]
    fn histogram_scales_bars() {
        let loads: Vec<ReducerLoad> = [100u64, 50, 0, 1]
            .iter()
            .enumerate()
            .map(|(i, &p)| ReducerLoad {
                key: i as u64,
                pairs_received: p,
                work: 0,
                output: 0,
                attempts: 1,
            })
            .collect();
        let h = load_histogram(&loads, 20);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(&"#".repeat(20)), "{h}");
        assert!(lines[1].contains(&"#".repeat(10)), "{h}");
        assert!(!lines[2].contains('#'), "zero load draws no bar: {h}");
        assert!(lines[3].contains('#'), "tiny load still visible: {h}");
        assert!(load_histogram(&[], 10).is_empty());
    }

    #[test]
    fn telemetry_note_summarizes_progress_and_service_time() {
        let mut snap = TelemetrySnapshot::default();
        let empty = telemetry_note(&snap);
        assert!(empty.contains("jobs 0/0"), "{empty}");
        assert!(!empty.contains("service_ns"), "{empty}");
        snap.series.insert("progress.jobs_started".into(), 3);
        snap.series.insert("progress.jobs_finished".into(), 3);
        snap.series.insert("progress.reducers".into(), 16);
        snap.series.insert("progress.reducers_done".into(), 16);
        snap.series.insert("telemetry.stragglers".into(), 2);
        let mut h = ij_mapreduce::Histogram::new();
        h.record(100);
        h.record(900);
        snap.histograms.insert("reduce.service_ns".into(), h);
        let note = telemetry_note(&snap);
        assert!(note.contains("jobs 3/3"), "{note}");
        assert!(note.contains("reducers 16/16"), "{note}");
        assert!(note.contains("stragglers=2"), "{note}");
        assert!(note.contains("service_ns[min=100 max=900 n=2]"), "{note}");
    }

    #[test]
    fn json_round_trips() {
        let mut r = Report::new("t", "demo", &["a"]);
        r.row(vec![1u64.into()]);
        let js = serde_json::to_string(&r).unwrap();
        assert!(js.contains("\"id\": \"t\"") || js.contains("\"id\":\"t\""));
    }
}
