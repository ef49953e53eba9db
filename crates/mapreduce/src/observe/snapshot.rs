//! Telemetry snapshots: the series and histograms folded from the event
//! stream, and their Prometheus text exposition.
//!
//! A [`TelemetrySnapshot`] is a plain, sorted value type: scalar series
//! (gauges and counters) plus named histograms, computed from the
//! [`Event`] buffer by [`TelemetrySnapshot::from_events`]. Rendering is
//! fully deterministic — `BTreeMap` iteration order plus fixed histogram
//! bucket bounds — so two equal snapshots always produce byte-identical
//! Prometheus text. The determinism *audit* compares the
//! [`TelemetrySnapshot::data_plane`] projection, which strips
//! execution-shape series (anything timing-, chunking- or spill-layout-
//! dependent) the same way [`crate::is_execution_shape`] strips counters.

use super::hist::{bucket_upper_bound, Histogram};
use super::{Event, EventKind};
use crate::metrics::names::{self, is_execution_shape_series, Counter};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything the event stream says about progress, liveness and load
/// distributions at one point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Scalar series (progress gauges, heartbeat/straggler counters),
    /// keyed by dotted series name.
    pub series: BTreeMap<String, u64>,
    /// Named log2 histograms (service times, bucket sizes, run bytes).
    pub histograms: BTreeMap<String, Histogram>,
}

/// Maps a dotted series name onto a Prometheus metric name:
/// `ij_` prefix, non-alphanumeric bytes become `_`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("ij_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

impl TelemetrySnapshot {
    /// Folds the event stream into series and histograms. Every value is
    /// a count or sum over span args and durations, so the result does
    /// not depend on event order. The core series (the `progress.*`
    /// gauges, per-scope heartbeats, `telemetry.stragglers`) and the
    /// `spill.run_bytes` histogram are seeded at zero so scrapes always
    /// expose them.
    pub fn from_events(events: &[Event]) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        for name in [
            names::HEARTBEATS_MAP,
            names::HEARTBEATS_REDUCE,
            names::TELEMETRY_STRAGGLERS,
            names::PROGRESS_JOBS_STARTED,
            names::PROGRESS_JOBS_FINISHED,
            names::PROGRESS_MAP_RECORDS,
            names::PROGRESS_MAP_TASKS,
            names::PROGRESS_REDUCE_VALUES,
            names::PROGRESS_REDUCERS,
            names::PROGRESS_REDUCERS_DONE,
        ] {
            snap.inc_series(name, 0);
        }
        snap.histograms
            .entry(names::SPILL_RUN_BYTES.to_string())
            .or_default();
        for ev in events {
            snap.fold(ev);
        }
        snap
    }

    fn inc_series(&mut self, series: &Counter, delta: u64) {
        *self.series.entry(series.to_string()).or_insert(0) += delta;
    }

    /// Records arg `key` of `ev` — or nothing, when a failed phase left
    /// the arg off its span — into histogram `hist`, returning the value.
    fn record_hist(&mut self, hist: &Counter, ev: &Event, key: &str) -> u64 {
        let value = ev.get(key);
        if let Some(v) = value {
            self.histograms
                .entry(hist.to_string())
                .or_default()
                .record(v);
        }
        value.unwrap_or(0)
    }

    fn fold(&mut self, ev: &Event) {
        match (ev.kind, ev.name.as_str()) {
            (EventKind::Job, _) => {
                self.inc_series(names::PROGRESS_JOBS_STARTED, 1);
                // Only a job that ran to completion knows its output count.
                let finished = ev.get("outputs").is_some();
                self.inc_series(names::PROGRESS_JOBS_FINISHED, finished as u64);
            }
            (EventKind::Phase, "shuffle") => {
                self.record_hist(names::SHUFFLE_JOB_BYTES, ev, "bytes");
                self.inc_series(names::PROGRESS_REDUCERS, ev.get("reducers").unwrap_or(0));
            }
            (EventKind::Task, "map-task") => {
                let records = self.record_hist(names::MAP_TASK_RECORDS, ev, "records");
                self.inc_series(names::PROGRESS_MAP_RECORDS, records);
                self.inc_series(names::PROGRESS_MAP_TASKS, 1);
            }
            (EventKind::Reduce, _) => {
                self.inc_series(names::PROGRESS_REDUCERS_DONE, 1);
                self.inc_series(names::PROGRESS_REDUCE_VALUES, ev.get("pulled").unwrap_or(0));
                self.record_hist(names::REDUCE_BUCKET_PAIRS, ev, "pairs");
                self.record_hist(names::SCHED_GRANT_THREADS, ev, "grant");
                self.record_hist(names::KERNEL_ACTIVE_PEAK, ev, "active_peak");
                let service = self.histograms.entry(names::REDUCE_SERVICE_NS.to_string());
                service.or_default().record(ev.dur_ns);
            }
            (EventKind::Spill, _) => {
                self.record_hist(names::SPILL_RUN_BYTES, ev, "bytes");
            }
            (EventKind::Heartbeat, "map") => self.inc_series(names::HEARTBEATS_MAP, 1),
            (EventKind::Heartbeat, "reduce") => self.inc_series(names::HEARTBEATS_REDUCE, 1),
            (EventKind::Straggler, _) => self.inc_series(names::TELEMETRY_STRAGGLERS, 1),
            _ => {}
        }
    }

    /// The snapshot restricted to data-plane series: everything
    /// execution-shape (see [`is_execution_shape_series`]) removed. Two
    /// runs of the same job must produce byte-identical
    /// [`TelemetrySnapshot::to_prometheus`] output for this projection
    /// regardless of `worker_threads` or memory budget.
    pub fn data_plane(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            series: self
                .series
                .iter()
                .filter(|(k, _)| !is_execution_shape_series(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| !is_execution_shape_series(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// a `# TYPE` line per metric, `progress.*` series as gauges, other
    /// series as counters, histograms with cumulative `_bucket{le=...}`
    /// samples plus `_sum` and `_count`. Output is byte-deterministic for
    /// equal snapshots (sorted iteration, fixed bucket bounds).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(64 * (self.series.len() + self.histograms.len()));
        for (name, value) in &self.series {
            let pname = prometheus_name(name);
            let kind = if name.starts_with(names::PROGRESS_PREFIX) {
                "gauge"
            } else {
                "counter"
            };
            let _ = writeln!(out, "# TYPE {pname} {kind}");
            let _ = writeln!(out, "{pname} {value}");
        }
        for (name, hist) in &self.histograms {
            let pname = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {pname} histogram");
            let mut cumulative = 0u64;
            let top = hist.highest_bucket().map_or(0, |i| i + 1);
            for (i, count) in hist.bucket_counts().iter().enumerate().take(top) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{pname}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{pname}_sum {}", hist.sum());
            let _ = writeln!(out, "{pname}_count {}", hist.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        s.series.insert("progress.jobs_started".into(), 2);
        s.series.insert("telemetry.heartbeats.reduce".into(), 5);
        s.series.insert("telemetry.stragglers".into(), 1);
        s.series.insert("telemetry.heartbeats.map".into(), 3);
        let mut h = Histogram::new();
        for v in [1u64, 2, 2, 900] {
            h.record(v);
        }
        s.histograms.insert("reduce.bucket_pairs".into(), h);
        s.histograms.insert("reduce.service_ns".into(), {
            let mut h = Histogram::new();
            h.record(42);
            h
        });
        s
    }

    #[test]
    fn empty_stream_seeds_core_series_at_zero() {
        let snap = TelemetrySnapshot::from_events(&[]);
        assert_eq!(snap.series.get("telemetry.stragglers"), Some(&0));
        assert_eq!(snap.series.get("telemetry.heartbeats.map"), Some(&0));
        assert_eq!(snap.series.get("telemetry.heartbeats.reduce"), Some(&0));
        assert_eq!(snap.series.get("progress.jobs_started"), Some(&0));
        assert_eq!(snap.series.len(), 10);
        assert!(snap
            .histograms
            .get("spill.run_bytes")
            .is_some_and(Histogram::is_empty));
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn fold_counts_each_fact_once() {
        let span = |kind, name: &str, dur| Event::span(kind, name, 0, 0, dur);
        let events = [
            span(EventKind::Task, "map-task", 5)
                .arg("records", 60)
                .arg("pairs", 90),
            span(EventKind::Task, "map-task", 5).arg("records", 40),
            span(EventKind::Heartbeat, "map", 0),
            span(EventKind::Phase, "map", 5).arg("records", 100),
            span(EventKind::Spill, "spill-run", 1).arg("bytes", 512),
            span(EventKind::Phase, "shuffle", 2)
                .arg("pairs", 90)
                .arg("bytes", 1440)
                .arg("reducers", 2),
            span(EventKind::Heartbeat, "reduce", 0),
            span(EventKind::Heartbeat, "reduce", 0),
            span(EventKind::Reduce, "reduce", 700)
                .arg("pairs", 50)
                .arg("pulled", 50)
                .arg("grant", 2)
                .arg("active_peak", 9),
            span(EventKind::Reduce, "reduce", 300)
                .arg("pairs", 40)
                .arg("pulled", 30)
                .arg("grant", 1),
            span(EventKind::Task, "reduce-worker", 1000).arg("buckets", 2),
            span(EventKind::Straggler, "straggler", 0),
            span(EventKind::Job, "ok", 1100).arg("outputs", 7),
            // A failed job: no shuffle args, no outputs, an error instant.
            span(EventKind::Phase, "shuffle", 1),
            span(EventKind::Job, "doomed", 3).arg("records", 1),
            span(EventKind::Error, "doomed: boom", 0),
        ];
        let snap = TelemetrySnapshot::from_events(&events);
        let series = |name: &str| snap.series[name];
        assert_eq!(series("progress.jobs_started"), 2);
        assert_eq!(series("progress.jobs_finished"), 1);
        assert_eq!(series("progress.map_tasks"), 2);
        assert_eq!(series("progress.map_records"), 100);
        assert_eq!(series("progress.reducers"), 2);
        assert_eq!(series("progress.reducers_done"), 2);
        assert_eq!(series("progress.reduce_values"), 80);
        assert_eq!(series("telemetry.heartbeats.map"), 1);
        assert_eq!(series("telemetry.heartbeats.reduce"), 2);
        assert_eq!(series("telemetry.stragglers"), 1);
        let hist = |name: &str| (snap.histograms[name].count(), snap.histograms[name].sum());
        assert_eq!(hist("map.task_records"), (2, 100));
        assert_eq!(hist("shuffle.job_bytes"), (1, 1440));
        assert_eq!(hist("spill.run_bytes"), (1, 512));
        assert_eq!(hist("reduce.bucket_pairs"), (2, 90));
        assert_eq!(hist("reduce.service_ns"), (2, 1000));
        assert_eq!(hist("sched.grant_threads"), (2, 3));
        assert_eq!(hist("kernel.active_peak"), (1, 9));
        // Order-independent: the reversed stream folds to the same snapshot.
        let mut reversed = events.to_vec();
        reversed.reverse();
        assert_eq!(TelemetrySnapshot::from_events(&reversed), snap);
    }

    #[test]
    fn execution_shape_series_classification() {
        for name in [
            "spill.run_bytes",
            "map.task_records",
            "reduce.service_ns",
            "telemetry.stragglers",
            "telemetry.heartbeats.map",
            "progress.map_tasks",
            "kernel.active_peak",
        ] {
            assert!(is_execution_shape_series(name), "{name}");
        }
        for name in [
            "progress.jobs_started",
            "progress.reduce_values",
            "telemetry.heartbeats.reduce",
            "reduce.bucket_pairs",
            "shuffle.job_bytes",
        ] {
            assert!(!is_execution_shape_series(name), "{name}");
        }
    }

    #[test]
    fn data_plane_strips_execution_shape() {
        let d = snap().data_plane();
        assert!(d.series.contains_key("progress.jobs_started"));
        assert!(d.series.contains_key("telemetry.heartbeats.reduce"));
        assert!(!d.series.contains_key("telemetry.stragglers"));
        assert!(!d.series.contains_key("telemetry.heartbeats.map"));
        assert!(d.histograms.contains_key("reduce.bucket_pairs"));
        assert!(!d.histograms.contains_key("reduce.service_ns"));
    }

    #[test]
    fn prometheus_output_has_types_and_cumulative_buckets() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE ij_progress_jobs_started gauge"));
        assert!(text.contains("ij_progress_jobs_started 2"));
        assert!(text.contains("# TYPE ij_telemetry_stragglers counter"));
        assert!(text.contains("# TYPE ij_reduce_bucket_pairs histogram"));
        // Samples 1,2,2,900: bucket le="1" -> 1, le="3" -> 3, ..., le="1023" -> 4.
        assert!(
            text.contains("ij_reduce_bucket_pairs_bucket{le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ij_reduce_bucket_pairs_bucket{le=\"3\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("ij_reduce_bucket_pairs_bucket{le=\"1023\"} 4"),
            "{text}"
        );
        assert!(text.contains("ij_reduce_bucket_pairs_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("ij_reduce_bucket_pairs_sum 905"));
        assert!(text.contains("ij_reduce_bucket_pairs_count 4"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("ij_reduce_bucket_pairs_bucket{le=\"") {
                if rest.starts_with('+') {
                    continue;
                }
                let v: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(v >= last, "{line}");
                last = v;
            }
        }
    }

    #[test]
    fn empty_histogram_renders_zero_samples() {
        let mut s = TelemetrySnapshot::default();
        s.histograms
            .insert("spill.run_bytes".into(), Histogram::new());
        let text = s.to_prometheus();
        assert!(text.contains("ij_spill_run_bytes_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("ij_spill_run_bytes_sum 0"));
        assert!(text.contains("ij_spill_run_bytes_count 0"));
    }

    #[test]
    fn rendering_is_byte_deterministic() {
        assert_eq!(snap().to_prometheus(), snap().to_prometheus());
        assert_eq!(
            snap().data_plane().to_prometheus(),
            snap().data_plane().to_prometheus()
        );
    }

    #[test]
    fn names_are_sanitized() {
        let mut s = TelemetrySnapshot::default();
        s.series.insert("a.b-c/d".into(), 1);
        assert!(s.to_prometheus().contains("ij_a_b_c_d 1"));
    }
}
