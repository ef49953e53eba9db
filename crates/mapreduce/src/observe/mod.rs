//! Observability: one [`Observer`], one [`Clock`], one stream of [`Event`]s.
//!
//! The paper's evaluation is an argument about *where* pairs and time go —
//! which cycle, which phase, which reducer. An [`Observer`] attached to an
//! [`crate::Engine`] (via [`crate::Engine::with_observer`]) records each of
//! those facts exactly once, as a timestamped [`Event`] in one append-only
//! buffer, and every report is a pure function over that buffer, computed
//! when asked:
//!
//! * [`Observer::chrome_trace`] — Chrome trace-event JSON; load it in
//!   `chrome://tracing` or <https://ui.perfetto.dev> for the phase
//!   waterfall with per-worker lanes;
//! * [`Observer::jsonl`] — the same objects one per line, and
//!   [`Observer::last_flight_dump`] — its tail, frozen when a job dies
//!   with an [`EngineError`];
//! * [`Observer::snapshot`] — the [`TelemetrySnapshot`] of progress
//!   series, heartbeat/straggler counts and log2 histograms (rendered by
//!   [`TelemetrySnapshot::to_prometheus`]).
//!
//! # Event schema
//!
//! | kind (`cat`) | name | lane | args |
//! |---|---|---|---|
//! | `job` | the job's name | 0 | `records`; on success also `pairs`, `outputs` |
//! | `phase` | `map` | 0 | `records` |
//! | `phase` | `shuffle` | 0 | on success `pairs`, `bytes`, `reducers` |
//! | `phase` | `reduce` | 0 | on success `reducers`, `outputs` |
//! | `task` | `map-task` | chunk | `records`, `pairs` |
//! | `task` | `reduce-worker` | worker | `buckets`, `heavy_buckets` |
//! | `reduce` | `reduce` | worker | `key`, `pairs`, `pulled`, `work`, `out`, `spilled`, `grant`, `active_peak` (when > 0) |
//! | `spill` | `spill-run` | 0 | `key`, `records`, `bytes` |
//! | `heartbeat` | `map` / `reduce` | chunk / worker | `processed` (+ `key` on the reduce side) |
//! | `straggler` | `straggler` | 0 | `key`, `pairs`, `service_ns` |
//! | `error` | `<job>: <EngineError>` | 0 | — |
//!
//! The first five kinds are spans; the last three are instants (zero
//! duration). *Which* args are data-plane — byte-identical across
//! `worker_threads`, `intra_reduce_threads` and memory budgets — is
//! decided by the series they fold into, in [`crate::metrics::names`]:
//! `records`, `pairs`, `pulled`, `bytes` of the shuffle and the
//! reduce-heartbeat count are; lanes, chunking, durations, `grant`,
//! `spilled`, `active_peak` and everything about spill runs are execution
//! shape.
//!
//! Event *order* is deterministic where it can be — map tasks in chunk
//! order, reduce spans in bucket (key) order, phase and job spans after
//! their children — regardless of `worker_threads`; heartbeats are
//! appended live, so their interleaving follows the workers. All
//! timestamps come from the injectable [`Clock`], the same readings the
//! engine uses for the [`crate::JobMetrics`] walls: under a
//! [`VirtualClock`] a single-threaded run's trace is byte-reproducible.
//! With no observer attached the engine records nothing and reads the
//! clock only at phase boundaries.

pub mod clock;
pub mod hist;
pub mod snapshot;
pub mod straggler;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use hist::{bucket_index, bucket_upper_bound, Histogram, HIST_BUCKETS};
pub use snapshot::TelemetrySnapshot;
pub use straggler::{detect_stragglers, Straggler};

use crate::error::EngineError;
use crate::sync::Locked;
use std::fmt::Write as _;
use std::sync::Arc;

/// The heartbeat quantum of [`Observer::new`]: one heartbeat per this many
/// processed values (map records or reduce pulls).
pub const DEFAULT_HEARTBEAT_EVERY: u64 = 8192;
/// A reducer whose progress rate is below this fraction of the job median
/// is flagged as a straggler.
pub const STRAGGLER_FRACTION: f64 = 0.25;
/// Jobs with fewer reducers than this never flag stragglers.
pub const MIN_STRAGGLER_REDUCERS: usize = 4;
/// How many of the most recent events [`Observer::last_flight_dump`] keeps.
pub const FLIGHT_TAIL: usize = 1024;

/// What an [`Event`] describes; [`EventKind::as_str`] is its Chrome trace
/// `cat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span: one `run_job` call (one MR cycle).
    Job,
    /// Span: a phase within a job — map, shuffle or reduce.
    Phase,
    /// Span: one worker's stint within a phase (a map chunk, a reduce
    /// worker).
    Task,
    /// Span: one logical reducer invocation.
    Reduce,
    /// Span: one spill-run write on the budgeted shuffle path (see
    /// [`crate::spill`]).
    Spill,
    /// Point in time: a task reported liveness after another quantum of values.
    Heartbeat,
    /// Point in time: the straggler detector flagged a reducer.
    Straggler,
    /// Point in time: a job failed with an [`EngineError`].
    Error,
}

impl EventKind {
    /// The Chrome trace `cat` string for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Job => "job",
            EventKind::Phase => "phase",
            EventKind::Task => "task",
            EventKind::Reduce => "reduce",
            EventKind::Spill => "spill",
            EventKind::Heartbeat => "heartbeat",
            EventKind::Straggler => "straggler",
            EventKind::Error => "error",
        }
    }
}

/// One timestamped fact: a span (or, with zero duration, an instant) on a
/// worker lane, with numeric args. See the module docs for the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What the event describes.
    pub kind: EventKind,
    /// Job name, phase name, `"map-task"`, `"reduce"`, … per the schema.
    pub name: String,
    /// Worker or chunk index; 0 for events recorded by the caller thread.
    pub lane: u64,
    /// Start, in clock nanoseconds.
    pub start_ns: u64,
    /// Duration in clock nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// Numeric annotations (record counts, pair counts, reducer key, …).
    pub args: Vec<(&'static str, u64)>,
}

impl Event {
    /// A span from explicit start/end readings (end clamped to start).
    pub fn span(
        kind: EventKind,
        name: impl Into<String>,
        lane: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        Event {
            kind,
            name: name.into(),
            lane,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            args: Vec::new(),
        }
    }

    /// An instant: a zero-duration event at clock reading `t_ns`.
    pub fn instant(kind: EventKind, name: impl Into<String>, lane: u64, t_ns: u64) -> Self {
        Event::span(kind, name, lane, t_ns, t_ns)
    }

    /// Adds one numeric annotation (builder-style).
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        self.args.push((key, value));
        self
    }

    /// The value of arg `key`, if the event carries it.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// Appends the event as one Chrome trace-format JSON object: a complete
    /// (`"ph":"X"`) event on `pid` 0 with the lane as `tid`, times in
    /// whole microseconds.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        write_json_string(out, &self.name);
        let _ = write!(
            out,
            ",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}",
            self.kind.as_str(),
            self.start_ns / 1000,
            self.dur_ns / 1000,
            self.lane
        );
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push('}');
        }
        out.push('}');
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

/// One JSON object per line.
fn jsonl_of(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        ev.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// The event buffer and the dump frozen by the last failed job, behind
/// one lock (taken per event batch or heartbeat quantum, never per
/// record).
#[derive(Debug, Default)]
struct Log {
    events: Vec<Event>,
    flight_dump: Option<String>,
}

/// Collects the [`Event`]s of every job run against one engine and
/// renders the views over them. Cheap to share (`Arc<Observer>`); see the
/// module docs.
#[derive(Debug)]
pub struct Observer {
    clock: Arc<dyn Clock>,
    heartbeat_every: u64,
    log: Locked<Log>,
}

impl Default for Observer {
    fn default() -> Self {
        Observer::new()
    }
}

impl Observer {
    /// The production observer: a [`MonotonicClock`] whose epoch is now,
    /// one heartbeat per [`DEFAULT_HEARTBEAT_EVERY`] values.
    pub fn new() -> Self {
        Observer::with_clock(Arc::new(MonotonicClock::new()), DEFAULT_HEARTBEAT_EVERY)
    }

    /// An observer on an injected clock — tests and the determinism audit
    /// pass a [`VirtualClock`], so traces and walls carry no wall-clock
    /// entropy — with one heartbeat per `heartbeat_every` (≥ 1) values.
    pub fn with_clock(clock: Arc<dyn Clock>, heartbeat_every: u64) -> Self {
        Observer {
            clock,
            heartbeat_every: heartbeat_every.max(1),
            log: Locked::default(),
        }
    }

    /// The clock every timestamp — and, while this observer is attached,
    /// every [`crate::JobMetrics`] wall — is read from.
    pub(crate) fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Values a task processes between two heartbeats.
    pub(crate) fn heartbeat_every(&self) -> u64 {
        self.heartbeat_every
    }

    /// Current clock reading (ns since the clock's epoch).
    pub(crate) fn now(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Appends one event (one lock acquisition).
    pub(crate) fn record(&self, event: Event) {
        self.log.write(|log| log.events.push(event));
    }

    /// Appends a phase's batched events (one lock acquisition per batch).
    pub(crate) fn record_batch(&self, batch: Vec<Event>) {
        if !batch.is_empty() {
            self.log.write(|log| log.events.extend(batch));
        }
    }

    /// Appends an instant stamped with the current clock reading.
    pub(crate) fn instant(
        &self,
        kind: EventKind,
        name: impl Into<String>,
        lane: u64,
        args: &[(&'static str, u64)],
    ) {
        let mut event = Event::instant(kind, name, lane, self.now());
        event.args.extend_from_slice(args);
        self.record(event);
    }

    /// Appends a finished reduce phase — per-reducer spans in bucket (key)
    /// order, then worker stints in worker order — runs the straggler
    /// detector over the reduce spans (service time = span duration) and
    /// appends one `straggler` instant per flagged reducer. Returns how
    /// many were flagged.
    pub(crate) fn record_reduce_phase(&self, mut reduces: Vec<Event>, workers: Vec<Event>) -> u64 {
        let loads: Vec<_> = reduces
            .iter()
            .map(|e| {
                (
                    e.get("key").unwrap_or(0),
                    e.get("pairs").unwrap_or(0),
                    e.dur_ns,
                )
            })
            .collect();
        let flagged = detect_stragglers(&loads, STRAGGLER_FRACTION, MIN_STRAGGLER_REDUCERS);
        let now = self.now();
        reduces.extend(workers);
        reduces.extend(flagged.iter().map(|s| {
            Event::instant(EventKind::Straggler, "straggler", 0, now)
                .arg("key", s.key)
                .arg("pairs", s.pairs)
                .arg("service_ns", s.service_ns)
        }));
        self.record_batch(reduces);
        flagged.len() as u64
    }

    /// A job failed at clock reading `t_ns`: appends the `error` instant
    /// and freezes the JSONL of the last [`FLIGHT_TAIL`] events for
    /// forensics (readable via [`Observer::last_flight_dump`]).
    pub(crate) fn note_error(&self, job: &str, t_ns: u64, err: &EngineError) {
        let error = Event::instant(EventKind::Error, format!("{job}: {err}"), 0, t_ns);
        self.log.write(|log| {
            log.events.push(error);
            let tail = log.events.len().saturating_sub(FLIGHT_TAIL);
            let dump = jsonl_of(log.events.get(tail..).unwrap_or_default());
            log.flight_dump = Some(dump);
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.log.read(|log| log.events.len())
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the events recorded so far, in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.log.read(|log| log.events.clone())
    }

    /// Renders the Chrome trace-event JSON (`{"traceEvents": [...]}`) —
    /// open in `chrome://tracing` or Perfetto. Heartbeat, straggler
    /// and error instants render as zero-duration complete events.
    pub fn chrome_trace(&self) -> String {
        self.log.read(|log| {
            let mut out = String::with_capacity(log.events.len() * 96 + 32);
            out.push_str("{\"traceEvents\":[");
            for (i, ev) in log.events.iter().enumerate() {
                out.push_str(if i > 0 { ",\n  " } else { "\n  " });
                ev.write_json(&mut out);
            }
            out.push_str("\n]}\n");
            out
        })
    }

    /// Renders one JSON object per line (same objects as the Chrome
    /// trace), for `grep`/`jq` pipelines.
    pub fn jsonl(&self) -> String {
        self.log.read(|log| jsonl_of(&log.events))
    }

    /// The tail of [`Observer::jsonl`] as it stood when the most recent
    /// failed job recorded its `error` line, if any job has failed.
    pub fn last_flight_dump(&self) -> Option<String> {
        self.log.read(|log| log.flight_dump.clone())
    }

    /// The series and histograms folded from the events recorded so far
    /// (see [`TelemetrySnapshot::from_events`]).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.log
            .read(|log| TelemetrySnapshot::from_events(&log.events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn virtual_observer() -> (Arc<VirtualClock>, Observer) {
        let clock = Arc::new(VirtualClock::new());
        let obs = Observer::with_clock(Arc::clone(&clock) as Arc<dyn Clock>, 8);
        (clock, obs)
    }

    #[test]
    fn spans_clamp_and_annotate() {
        let ev = Event::span(EventKind::Task, "map-task", 2, 100, 50).arg("records", 7);
        assert_eq!(ev.dur_ns, 0, "end before start clamps to zero");
        assert_eq!(ev.args, vec![("records", 7)]);
        assert_eq!(ev.get("records"), Some(7));
        assert_eq!(ev.get("pairs"), None);
        assert_eq!(Event::span(EventKind::Job, "j", 0, 100, 350).dur_ns, 250);
    }

    #[test]
    fn records_in_order_and_batches() {
        let obs = Observer::new();
        assert!(obs.is_empty());
        obs.record(Event::span(EventKind::Job, "a", 0, 0, 1));
        obs.record_batch(vec![
            Event::span(EventKind::Task, "b", 1, 0, 1),
            Event::span(EventKind::Task, "c", 2, 0, 1),
        ]);
        obs.record_batch(Vec::new());
        let names: Vec<_> = obs.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(obs.len(), 3);
    }

    #[test]
    fn chrome_trace_shape() {
        let obs = Observer::new();
        obs.record(
            Event::span(EventKind::Phase, "map", 0, 10_000, 40_999)
                .arg("records", 3)
                .arg("pairs", 9),
        );
        let json = obs.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(
            json.contains(
                "{\"name\":\"map\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":10,\"dur\":30,\"pid\":0,\"tid\":0,\"args\":{\"records\":3,\"pairs\":9}}"
            ),
            "{json}"
        );
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let obs = Observer::new();
        obs.record(Event::span(EventKind::Job, "j1", 0, 0, 5));
        obs.record(Event::span(EventKind::Job, "j2", 0, 5, 9));
        let lines: Vec<_> = obs.jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn names_are_escaped() {
        let obs = Observer::new();
        obs.record(Event::span(EventKind::Job, "a\"b\\c\nd", 0, 0, 1));
        assert!(obs.chrome_trace().contains(r#""a\"b\\c\nd""#));
    }

    #[test]
    fn instants_carry_the_injected_clock_reading() {
        let (clock, obs) = virtual_observer();
        clock.set(42_000);
        obs.instant(EventKind::Heartbeat, "map", 3, &[("processed", 8)]);
        let ev = &obs.events()[0];
        assert_eq!((ev.start_ns, ev.dur_ns, ev.lane), (42_000, 0, 3));
        assert_eq!(ev.get("processed"), Some(8));
        assert_eq!(obs.now(), 42_000);
        assert!(obs.chrome_trace().contains("\"cat\":\"heartbeat\""));
    }

    #[test]
    fn heartbeat_quantum_is_clamped() {
        let obs = Observer::with_clock(Arc::new(VirtualClock::new()), 0);
        assert_eq!(obs.heartbeat_every(), 1);
        assert_eq!(Observer::new().heartbeat_every(), DEFAULT_HEARTBEAT_EVERY);
    }

    #[test]
    fn note_error_freezes_the_jsonl_tail() {
        let (_, obs) = virtual_observer();
        assert!(obs.last_flight_dump().is_none());
        obs.record(Event::span(EventKind::Phase, "map", 0, 0, 5).arg("records", 100));
        obs.note_error("j", 7, &EngineError::Internal("boom"));
        let dump = obs.last_flight_dump().unwrap();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.lines().next().unwrap().contains("\"cat\":\"phase\""));
        let last = dump.lines().last().unwrap();
        assert!(last.contains("\"cat\":\"error\""), "{last}");
        assert!(last.contains("j: ") && last.contains("boom"), "{last}");
        // The error line is part of the stream, not only of the dump...
        assert_eq!(obs.jsonl(), dump);
        // ...and the dump stays frozen while the stream grows.
        obs.record(Event::span(EventKind::Job, "next", 0, 8, 9));
        assert_eq!(obs.last_flight_dump().unwrap(), dump);
    }

    #[test]
    fn flight_dump_keeps_only_the_tail() {
        let obs = Observer::new();
        obs.record_batch(
            (0..FLIGHT_TAIL as u64 + 10)
                .map(|i| Event::span(EventKind::Spill, "spill-run", 0, i, i))
                .collect(),
        );
        obs.note_error("j", 0, &EngineError::Internal("late"));
        let dump = obs.last_flight_dump().unwrap();
        assert_eq!(dump.lines().count(), FLIGHT_TAIL);
        assert!(dump.lines().last().unwrap().contains("\"cat\":\"error\""));
    }

    #[test]
    fn reduce_phase_lands_in_order_and_flags_the_slow_reducer() {
        let (clock, obs) = virtual_observer();
        clock.set(9_000_000);
        let reduce = |key: u64, dur: u64| {
            Event::span(EventKind::Reduce, "reduce", 0, 0, dur)
                .arg("key", key)
                .arg("pairs", 1000)
        };
        let reduces = vec![
            reduce(0, 10_000),
            reduce(1, 12_000),
            reduce(2, 1_200_000),
            reduce(3, 11_000),
        ];
        let workers = vec![Event::span(EventKind::Task, "reduce-worker", 0, 0, 5)];
        assert_eq!(obs.record_reduce_phase(reduces, workers), 1);
        let events = obs.events();
        let kinds: Vec<_> = events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            ["reduce", "reduce", "reduce", "reduce", "task", "straggler"]
        );
        let flagged = events.last().unwrap();
        assert_eq!(flagged.get("key"), Some(2));
        assert_eq!(flagged.get("service_ns"), Some(1_200_000));
        assert_eq!(flagged.start_ns, 9_000_000);
        assert_eq!(obs.snapshot().series["telemetry.stragglers"], 1);
    }
}
