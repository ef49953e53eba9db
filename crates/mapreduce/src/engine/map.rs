//! The map phase: parallel chunks, each filed by key as it is emitted.

use super::Engine;
use crate::job::{Emitter, KeyedRun, Mapper};
use crate::metrics::Counters;
use crate::observe::{Event, EventKind};
use crate::record::Record;
use std::any::Any;
use std::panic::resume_unwind;

impl Engine {
    /// Maps `input` in parallel chunks; each worker returns its run grouped
    /// by key (per-key emission order kept), the bytes it read and its
    /// accumulated user counters. Runs, counters and per-task events all
    /// come back in chunk order, so the downstream merge — and the event
    /// stream — see the same sequence as sequential execution.
    pub(super) fn run_map_phase<I, M>(
        &self,
        input: &[I],
        mapper: &impl Mapper<I, M>,
    ) -> (Vec<KeyedRun<M>>, u64, Counters)
    where
        I: Record,
        M: Record,
    {
        let threads = self.cfg.worker_threads.max(1);
        if input.is_empty() {
            return (Vec::new(), 0, Counters::new());
        }
        let chunk = input.len().div_ceil(threads);
        let chunks: Vec<&[I]> = input.chunks(chunk).collect();
        let observer = self.observer.as_deref();
        let mut runs: Vec<KeyedRun<M>> = Vec::with_capacity(chunks.len());
        let mut input_bytes = 0u64;
        let mut counters = Counters::new();
        let mut events: Vec<Event> = Vec::new();
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        crossbeam::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    scope.spawn(move |_| {
                        let t0 = observer.map_or(0, |o| o.now());
                        let mut em = Emitter::default();
                        let mut bytes = 0u64;
                        let mut processed = 0u64;
                        for rec in *c {
                            bytes += rec.approx_bytes();
                            mapper.map(rec, &mut em);
                            if let Some(o) = observer {
                                processed += 1;
                                if processed.is_multiple_of(o.heartbeat_every()) {
                                    let args = [("processed", processed)];
                                    o.instant(EventKind::Heartbeat, "map", ci as u64, &args);
                                }
                            }
                        }
                        let emitted = em.emitted() as u64;
                        let (run, worker_counters) = em.finish();
                        let event = observer.map(|o| {
                            Event::span(EventKind::Task, "map-task", ci as u64, t0, o.now())
                                .arg("records", c.len() as u64)
                                .arg("pairs", emitted)
                        });
                        (run, bytes, worker_counters, event)
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok((run, bytes, worker_counters, event)) => {
                        runs.push(run);
                        input_bytes += bytes;
                        counters.merge(&worker_counters);
                        events.extend(event);
                    }
                    // Keep draining the remaining handles so the scope can
                    // close; re-raise the first payload afterwards.
                    Err(payload) => {
                        panic_payload.get_or_insert(payload);
                    }
                }
            }
        })
        .unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
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
                &(0..32u64).collect::<Vec<_>>(),
                |&n: &u64, e: &mut Emitter<u64>| {
                    assert!(n != 7, "mapper exploded on {n}");
                    e.emit(0, n);
                },
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            )
            .unwrap();
    }
}
