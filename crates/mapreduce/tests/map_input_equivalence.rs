//! A map input that builds its records as it reads them runs the job the
//! slice of the same records runs.
//!
//! [`MapInput`] is the one thing the map phase reads. A generated source —
//! here records computed from their index, never stored — and the slice
//! holding the same records must give identical outputs, `JobMetrics`,
//! counters and observer map-task spans and heartbeats, at
//! `worker_threads` 1, 2 and 8 and lengths the thread count does not
//! divide. The observer runs on a frozen virtual clock, so the walls and
//! timestamps compare exactly too.

use ij_mapreduce::metrics::names;
use ij_mapreduce::{
    ClusterConfig, Emitter, Engine, Event, EventKind, JobOutput, MapInput, Observer, ReduceCtx,
    ValueStream, VirtualClock,
};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Record `i` of a generated input, a pair so a record is 16 bytes.
fn record(seed: u64, i: usize) -> (u64, u64) {
    let x = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (i as u64, x >> 40)
}

/// `len` records computed from their index on every read.
struct Generated {
    seed: u64,
    len: usize,
}

impl MapInput for Generated {
    type Item = (u64, u64);

    fn len(&self) -> usize {
        self.len
    }

    fn for_each_in(&self, rows: Range<usize>, mut f: impl FnMut(&(u64, u64))) {
        assert!(rows.end <= self.len, "{rows:?} past {}", self.len);
        for i in rows {
            f(&record(self.seed, i));
        }
    }
}

/// Runs one fan-out job over `input` on `threads` workers with an
/// observer that heartbeats every 3 records. Returns the output and the
/// map side of the event stream: heartbeats by lane, then the map-task
/// spans, the phase spans and the job span.
fn run<S>(input: &S, threads: usize) -> (JobOutput<(u64, u64)>, Vec<Event>)
where
    S: MapInput<Item = (u64, u64)> + ?Sized,
{
    let obs = Arc::new(Observer::with_clock(Arc::new(VirtualClock::new()), 3));
    let out = Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        intra_reduce_threads: threads,
        ..ClusterConfig::default()
    })
    .with_observer(Arc::clone(&obs))
    .run_job(
        "map-input",
        input,
        |&(i, x): &(u64, u64), e: &mut Emitter<u64>| {
            e.inc(names::PROGRESS_MAP_RECORDS, 1);
            for k in 0..1 + x % 3 {
                e.emit((x + k) % 7, i);
            }
        },
        |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
            ctx.add_work(vs.len() as u64);
            for v in vs.by_ref() {
                out.push((ctx.key, v));
            }
        },
    )
    .expect("job runs");
    let map_side = |e: &Event| match e.kind {
        EventKind::Task | EventKind::Heartbeat => e.name.starts_with("map"),
        EventKind::Job | EventKind::Phase => true,
        _ => false,
    };
    // Workers record heartbeats as they go, interleaved by the schedule:
    // each lane's come in order, so they compare sorted by lane.
    let mut events: Vec<Event> = obs.events().into_iter().filter(map_side).collect();
    let beats = events
        .iter()
        .take_while(|e| e.kind == EventKind::Heartbeat)
        .count();
    events[..beats].sort_by_key(|e| e.lane);
    (out, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_generated_input_runs_the_job_its_slice_runs(seed in 0u64..1 << 32, len in 0usize..200) {
        let generated = Generated { seed, len };
        let slice: Vec<(u64, u64)> = (0..len).map(|i| record(seed, i)).collect();
        for threads in [1usize, 2, 8] {
            let (want, want_events) = run(slice.as_slice(), threads);
            let (got, got_events) = run(&generated, threads);
            prop_assert_eq!(&got.outputs, &want.outputs, "threads {}", threads);
            prop_assert_eq!(&got.metrics, &want.metrics, "threads {}", threads);
            prop_assert_eq!(&got_events, &want_events, "threads {}", threads);
            let tasks = got_events.iter().filter(|e| e.kind == EventKind::Task).count();
            prop_assert_eq!(tasks, len.div_ceil(len.div_ceil(threads).max(1)));
        }
    }
}

/// The fixed lengths the property may miss: empty, shorter than the
/// thread count, and one past a multiple of it. Records are counted once
/// each, in chunks of `len.div_ceil(threads)`.
#[test]
fn chunk_edges_read_every_record_once() {
    for len in [0, 1, 7, 9, 17, 101] {
        let generated = Generated { seed: 5, len };
        let slice: Vec<(u64, u64)> = (0..len).map(|i| record(5, i)).collect();
        for threads in [1usize, 2, 8] {
            let (want, want_events) = run(&slice[..], threads);
            let (got, got_events) = run(&generated, threads);
            assert_eq!(got.outputs, want.outputs, "len {len} threads {threads}");
            assert_eq!(got.metrics, want.metrics, "len {len} threads {threads}");
            assert_eq!(got_events, want_events, "len {len} threads {threads}");
            assert_eq!(got.metrics.map_input_records, len as u64);
            assert_eq!(got.metrics.map_input_bytes, 16 * len as u64);
            let counted = got.metrics.counters.get(names::PROGRESS_MAP_RECORDS);
            assert_eq!(counted, len as u64);
            let records: Vec<u64> = (got_events.iter())
                .filter(|e| e.kind == EventKind::Task)
                .map(|e| e.args.iter().find(|a| a.0 == "records").expect("records").1)
                .collect();
            let chunk = len.div_ceil(threads);
            let want: Vec<u64> = (0..len)
                .step_by(chunk.max(1))
                .map(|lo| (len.min(lo + chunk) - lo) as u64)
                .collect();
            assert_eq!(records, want, "len {len} threads {threads}");
        }
    }
}
