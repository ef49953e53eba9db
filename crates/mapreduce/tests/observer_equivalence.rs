//! The observer's views agree because they share a source (DESIGN.md §9).
//!
//! One [`Observer`] records each fact of a run once, on one injectable
//! clock; the Chrome trace, the JSONL flight dump, the Prometheus snapshot
//! and the `JobMetrics` walls are all read off that one stream. These
//! tests pin the contracts between them:
//!
//! * the *data-plane* snapshot — progress gauges, reduce heartbeats, the
//!   `reduce.bucket_pairs` and `shuffle.job_bytes` histograms — is
//!   byte-identical in Prometheus text form across `worker_threads` counts
//!   and reduce-memory budgets, exactly like job outputs (execution-shape
//!   series are excluded by `data_plane()`);
//! * spans, series, histograms, counters and walls that describe the same
//!   thing carry the same number;
//! * a failed job is in its trace and freezes a flight dump.

use ij_mapreduce::{
    Clock, ClusterConfig, Emitter, Engine, EngineError, Event, EventKind, FaultPlan, JobOutput,
    Observer, ReduceCtx, ValueStream, VirtualClock,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// An observer on a virtual clock (timestamps carry no entropy) with a
/// tiny heartbeat quantum so reduce heartbeats fire at test scale.
fn observer() -> Arc<Observer> {
    Arc::new(Observer::with_clock(Arc::new(VirtualClock::new()), 8))
}

fn engine(threads: usize, budget: Option<u64>) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        intra_reduce_threads: threads,
        reduce_memory_budget: budget,
        ..ClusterConfig::default()
    })
}

/// Runs the shared fan-out job against an observed engine and returns the
/// output plus the attached observer.
fn run(
    input: &[u64],
    fanout: u64,
    threads: usize,
    budget: Option<u64>,
) -> (JobOutput<(u64, u64)>, Arc<Observer>) {
    let obs = observer();
    let out = engine(threads, budget)
        .with_observer(Arc::clone(&obs))
        .run_job(
            "telemetry-prop",
            input,
            move |&n: &u64, e: &mut Emitter<u64>| {
                for i in 0..1 + n % fanout {
                    e.emit((n + i) % 13, n * 10 + i);
                }
            },
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                for v in vs.by_ref() {
                    out.push((ctx.key, v));
                }
            },
        )
        .expect("job runs");
    (out, obs)
}

fn of_kind(events: &[Event], kind: EventKind) -> Vec<&Event> {
    events.iter().filter(|e| e.kind == kind).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn data_plane_prometheus_text_is_thread_and_budget_invariant(
        input in proptest::collection::vec(0u64..5_000, 0..300),
        fanout in 1u64..4,
    ) {
        let (base_out, base_obs) = run(&input, fanout, 1, None);
        let base = base_obs.snapshot().data_plane().to_prometheus();
        for budget in [None, Some(256)] {
            for threads in [1usize, 2, 8] {
                let (out, obs) = run(&input, fanout, threads, budget);
                prop_assert_eq!(&out.outputs, &base_out.outputs);
                let text = obs.snapshot().data_plane().to_prometheus();
                prop_assert_eq!(
                    &text, &base,
                    "telemetry data plane diverged at budget {:?}, threads {}",
                    budget, threads
                );
            }
        }
    }
}

#[test]
fn snapshot_tracks_progress_and_heartbeats() {
    let input: Vec<u64> = (0..200).collect();
    let (out, obs) = run(&input, 3, 4, None);
    let snap = obs.snapshot();
    assert_eq!(snap.series["progress.jobs_started"], 1);
    assert_eq!(snap.series["progress.jobs_finished"], 1);
    assert_eq!(snap.series["progress.map_records"], 200);
    assert_eq!(
        snap.series["progress.reducers"],
        snap.series["progress.reducers_done"]
    );
    assert_eq!(
        snap.series["progress.reduce_values"],
        out.metrics.intermediate_pairs
    );
    assert!(snap.series["telemetry.heartbeats.reduce"] > 0);
    let pairs = snap.histograms.get("reduce.bucket_pairs").expect("hist");
    assert_eq!(pairs.sum(), out.metrics.intermediate_pairs);
    assert!(snap.histograms.contains_key("reduce.service_ns"));
}

#[test]
fn spans_cover_every_level_in_deterministic_order() {
    let obs = observer();
    let _ = engine(3, None)
        .with_observer(Arc::clone(&obs))
        .run_job(
            "traced",
            &(0..64u64).collect::<Vec<_>>()[..],
            |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 4, n),
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                ctx.add_work(vs.len() as u64);
                out.push((ctx.key, vs.sum()));
            },
        )
        .unwrap();
    let events = obs.events();
    let names_of = |kind| -> Vec<&str> {
        of_kind(&events, kind)
            .iter()
            .map(|e| e.name.as_str())
            .collect()
    };
    assert_eq!(names_of(EventKind::Job), ["traced"]);
    assert_eq!(names_of(EventKind::Phase), ["map", "shuffle", "reduce"]);
    // 3 worker threads → 3 map chunks, in chunk order on their own lanes;
    // plus up to 3 reduce-worker stints.
    let tasks = of_kind(&events, EventKind::Task);
    let map_lanes: Vec<u64> = tasks
        .iter()
        .filter(|e| e.name == "map-task")
        .map(|e| e.lane)
        .collect();
    assert_eq!(map_lanes, [0, 1, 2]);
    assert!(tasks.iter().any(|e| e.name == "reduce-worker"));
    // One reduce span per bucket, in key order, carrying the schema's args.
    let reduces = of_kind(&events, EventKind::Reduce);
    let keys: Vec<_> = reduces.iter().map(|e| e.get("key")).collect();
    assert_eq!(keys, [Some(0), Some(1), Some(2), Some(3)]);
    for (arg, want) in [
        ("pairs", 16),
        ("pulled", 16),
        ("work", 16),
        ("out", 1),
        ("spilled", 0),
    ] {
        assert_eq!(reduces[0].get(arg), Some(want), "{arg}");
    }
    assert!(reduces[0].get("grant").is_some());
    // Phases and the job come after their children.
    let last = events.last().unwrap();
    assert_eq!((last.kind, last.name.as_str()), (EventKind::Job, "traced"));
    assert_eq!(last.get("pairs"), Some(64));
    // The export shapes hold on a real stream.
    let json = obs.chrome_trace();
    for cat in ["job", "phase", "task", "reduce", "heartbeat"] {
        assert!(
            json.contains(&format!("\"cat\":\"{cat}\"")),
            "{cat}: {json}"
        );
    }
    assert_eq!(obs.jsonl().lines().count(), events.len());
}

#[test]
fn walls_are_the_span_durations_on_the_shared_clock() {
    const STEP: u64 = 7_000;
    let clock = Arc::new(VirtualClock::new());
    let obs = Arc::new(Observer::with_clock(
        Arc::clone(&clock) as Arc<dyn Clock>,
        8,
    ));
    let input: Vec<u64> = (0..120).collect();
    for threads in [1, 3] {
        let ticking = Arc::clone(&clock);
        let out = engine(threads, Some(256))
            .with_observer(Arc::clone(&obs))
            .run_job(
                "clocked",
                &input[..],
                move |&n: &u64, e: &mut Emitter<u64>| {
                    ticking.advance(STEP);
                    e.emit(n % 5, n);
                },
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let events = obs.events();
        let phase = |name: &str| {
            let spans = of_kind(&events, EventKind::Phase);
            spans.iter().rev().find(|e| e.name == name).unwrap().dur_ns
        };
        let m = &out.metrics;
        assert_eq!(m.map_wall, Duration::from_nanos(120 * STEP));
        assert_eq!(m.map_wall, Duration::from_nanos(phase("map")));
        assert_eq!(m.shuffle_wall, Duration::from_nanos(phase("shuffle")));
        assert_eq!(m.reduce_wall, Duration::from_nanos(phase("reduce")));
        let job = of_kind(&events, EventKind::Job).pop().unwrap();
        assert_eq!(m.wall, Duration::from_nanos(job.dur_ns));
        // Nothing but the mapper moved the clock.
        assert_eq!(m.wall, m.map_wall);
        assert_eq!(m.spill_wall, Duration::ZERO);
    }
}

#[test]
fn views_of_one_run_agree() {
    let input: Vec<u64> = (0..400).collect();
    for threads in [1, 4] {
        let (out, obs) = run(&input, 3, threads, Some(256));
        let (m, snap, events) = (&out.metrics, obs.snapshot(), obs.events());
        let reduces = of_kind(&events, EventKind::Reduce).len() as u64;
        assert_eq!(reduces, m.distinct_reducers);
        assert_eq!(reduces, snap.series["progress.reducers_done"]);
        assert_eq!(reduces, snap.histograms["reduce.service_ns"].count());
        assert_eq!(
            snap.histograms["reduce.bucket_pairs"].sum(),
            m.intermediate_pairs
        );
        assert_eq!(snap.histograms["shuffle.job_bytes"].sum(), m.shuffle_bytes);
        assert!(m.counters.get("spill.bytes") > 0, "256 bytes must spill");
        assert_eq!(
            snap.histograms["spill.run_bytes"].sum(),
            m.counters.get("spill.bytes")
        );
        assert_eq!(
            snap.histograms["spill.run_bytes"].count(),
            m.counters.get("spill.runs")
        );
        assert_eq!(
            snap.series["telemetry.stragglers"],
            m.counters.get("telemetry.stragglers")
        );
    }
}

#[test]
fn spill_spans_stay_on_the_callers_lane() {
    // Regression: the reducer key used to be passed as the span's lane, so
    // a budgeted Chrome trace grew one `tid` row per spilled bucket.
    let (out, obs) = run(&(0..400).collect::<Vec<u64>>(), 3, 2, Some(64));
    let events = obs.events();
    let spills = of_kind(&events, EventKind::Spill);
    assert_eq!(spills.len() as u64, out.metrics.counters.get("spill.runs"));
    let mut keys = std::collections::BTreeSet::new();
    for span in &spills {
        assert_eq!(span.name, "spill-run");
        assert_eq!(span.lane, 0, "the shuffle runs on the caller thread");
        keys.insert(span.get("key").expect("the key stays in args"));
    }
    assert!(keys.len() > 1, "several buckets spilled: {keys:?}");
    assert!(keys.iter().all(|k| *k < 13));
    assert!(obs.chrome_trace().contains("\"cat\":\"spill\""));
    // Reduce spans carry the spilled flag.
    let reduces = of_kind(&events, EventKind::Reduce);
    assert!(reduces.iter().any(|e| e.get("spilled") == Some(1)));
}

#[test]
fn virtual_clock_single_thread_trace_is_byte_reproducible() {
    let input: Vec<u64> = (0..300).collect();
    let (_, first) = run(&input, 3, 1, Some(256));
    let (_, second) = run(&input, 3, 1, Some(256));
    assert_eq!(first.chrome_trace(), second.chrome_trace());
    assert_eq!(first.jsonl(), second.jsonl());
}

fn doomed(obs: &Arc<Observer>) -> Result<JobOutput<u64>, EngineError> {
    engine(2, None)
        .with_observer(Arc::clone(obs))
        .with_faults(FaultPlan::new().fail("doomed", 0, 10).with_max_attempts(2))
        .run_job(
            "doomed",
            &(0..64u64).collect::<Vec<_>>()[..],
            |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 4, n),
            |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
        )
}

#[test]
fn failed_job_dumps_flight_recorder_jsonl() {
    let obs = observer();
    let result = doomed(&obs);
    assert!(
        matches!(result, Err(EngineError::MaxAttemptsExceeded { .. })),
        "{result:?}"
    );
    let dump = obs
        .last_flight_dump()
        .expect("error path freezes a flight dump");
    assert!(!dump.is_empty());
    for line in dump.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "flight dump is JSONL, got {line:?}"
        );
    }
    assert!(
        dump.lines().last().unwrap().contains("\"cat\":\"error\""),
        "{dump}"
    );
    assert!(dump.contains("doomed"), "{dump}");
    assert!(
        dump.lines()
            .any(|l| l.contains("\"name\":\"map\",\"cat\":\"phase\"")),
        "the events leading up to the failure are retained: {dump}"
    );
}

#[test]
fn failed_job_is_in_its_trace() {
    // Regression: job and phase spans used to be recorded on the success
    // path only, so the trace of a run that died showed nothing for it.
    let obs = observer();
    let err = doomed(&obs).unwrap_err();
    let events = obs.events();
    let phases: Vec<_> = of_kind(&events, EventKind::Phase)
        .iter()
        .map(|e| (e.name.as_str(), e.args.is_empty()))
        .collect();
    assert_eq!(
        phases,
        [("map", false), ("shuffle", false), ("reduce", true)],
        "the failed phase closes without result args"
    );
    let job = of_kind(&events, EventKind::Job).pop().expect("job span");
    assert_eq!(job.name, "doomed");
    assert_eq!(job.get("records"), Some(64));
    assert_eq!(job.get("outputs"), None);
    let error = events.last().unwrap();
    assert_eq!(error.kind, EventKind::Error);
    assert_eq!(error.name, format!("doomed: {err}"));
    assert_eq!(error.dur_ns, 0);
    let json = obs.chrome_trace();
    assert!(json.contains("\"cat\":\"error\""), "{json}");
    assert!(
        json.contains("\"name\":\"doomed\",\"cat\":\"job\""),
        "{json}"
    );
    let snap = obs.snapshot();
    assert_eq!(snap.series["progress.jobs_started"], 1);
    assert_eq!(snap.series["progress.jobs_finished"], 0);
}

#[test]
fn flight_dump_is_not_frozen_on_success() {
    let input: Vec<u64> = (0..32).collect();
    let (_, obs) = run(&input, 2, 2, None);
    assert!(obs.last_flight_dump().is_none());
    assert!(!obs.is_empty(), "events still recorded live");
}
