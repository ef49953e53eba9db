//! The map phase: parallel index ranges, each filed by key as it is emitted.

use super::{fan_out, Engine};
use crate::job::{Emitter, KeyedRun, MapInput, Mapper};
use crate::metrics::Counters;
use crate::observe::{Event, EventKind};
use crate::record::Record;

impl Engine {
    /// Maps `input` in parallel chunks; each worker returns its run grouped
    /// by key (per-key emission order kept), the bytes it read and its
    /// accumulated user counters. Runs, counters and per-task events all
    /// come back in chunk order, so the downstream merge — and the event
    /// stream — see the same sequence as sequential execution.
    pub(super) fn run_map_phase<S, M>(
        &self,
        input: &S,
        mapper: &impl Mapper<S::Item, M>,
    ) -> (Vec<KeyedRun<M>>, u64, Counters)
    where
        S: MapInput + ?Sized,
        M: Record,
    {
        let (threads, len) = (self.cfg.worker_threads.max(1), input.len());
        if len == 0 {
            return (Vec::new(), 0, Counters::new());
        }
        let chunk = len.div_ceil(threads);
        let chunks = (0..len).step_by(chunk).map(|lo| lo..len.min(lo + chunk));
        let observer = self.observer.as_deref();
        let tasks = fan_out(chunks.enumerate(), |(ci, rows)| {
            let t0 = observer.map_or(0, |o| o.now());
            let mut em = Emitter::default();
            let mut bytes = 0u64;
            let mut processed = 0u64;
            let records = rows.len() as u64;
            input.for_each_in(rows, |rec| {
                bytes += rec.approx_bytes();
                mapper.map(rec, &mut em);
                if let Some(o) = observer {
                    processed += 1;
                    if processed.is_multiple_of(o.heartbeat_every()) {
                        let args = [("processed", processed)];
                        o.instant(EventKind::Heartbeat, "map", ci as u64, &args);
                    }
                }
            });
            let emitted = em.emitted() as u64;
            let (run, worker_counters) = em.finish();
            let event = observer.map(|o| {
                Event::span(EventKind::Task, "map-task", ci as u64, t0, o.now())
                    .arg("records", records)
                    .arg("pairs", emitted)
            });
            (run, bytes, worker_counters, event)
        });
        let mut runs: Vec<KeyedRun<M>> = Vec::with_capacity(tasks.len());
        let mut input_bytes = 0u64;
        let mut counters = Counters::new();
        let mut events: Vec<Event> = Vec::new();
        for (run, bytes, worker_counters, event) in tasks {
            runs.push(run);
            input_bytes += bytes;
            counters.merge(&worker_counters);
            events.extend(event);
        }
        if let Some(o) = observer {
            o.record_batch(events);
        }
        (runs, input_bytes, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::engine;
    use crate::job::{Emitter, ReduceCtx, ValueStream};

    #[test]
    #[should_panic(expected = "mapper exploded on 7")]
    fn map_panic_payload_is_reraised() {
        let _ = engine()
            .run_job(
                "boom",
                &(0..32u64).collect::<Vec<_>>()[..],
                |&n: &u64, e: &mut Emitter<u64>| {
                    assert!(n != 7, "mapper exploded on {n}");
                    e.emit(0, n);
                },
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            )
            .unwrap();
    }
}
