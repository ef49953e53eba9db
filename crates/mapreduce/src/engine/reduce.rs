//! The reduce phase: plan-ordered work stealing over the key buckets,
//! with per-bucket thread grants and fault-injection retries.

use super::schedule::SchedulePlan;
use super::{fan_out, Engine};
use crate::error::EngineError;
use crate::job::{BucketSource, ReduceCtx, Reducer, ReducerId};
use crate::metrics::{names, Counters, ReducerLoad};
use crate::observe::{Event, EventKind};
use crate::record::Record;
use crate::sync::Locked;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What the reduce phase hands back to `run_job`: per-reducer outputs in
/// key order, per-reducer loads, the merged user counters, and the
/// cumulative nanoseconds workers spent streaming spilled buckets back
/// from DFS.
type ReducePhaseResult<O> = (Vec<Vec<O>>, Vec<ReducerLoad>, Counters, u64);

impl Engine {
    /// Runs reducers over the key buckets, work-stealing across worker
    /// threads, with fault-injection retries. Each bucket arrives as a
    /// [`BucketSource`] (resident or spilled) and is consumed by the
    /// reducer as a pull-based [`crate::job::ValueStream`].
    ///
    /// Ownership: without a fault plan each bucket is *moved* into its
    /// reducer (zero clones); with a plan attached the bucket stays resident
    /// and every attempt clones it — the in-process analogue of a re-executed
    /// Hadoop reduce task re-reading its shuffled segment from disk. A
    /// spilled bucket's "clone" is just its run paths: every attempt
    /// re-reads the runs from the spill store.
    pub(super) fn run_reduce_phase<M, O>(
        &self,
        job_name: &str,
        buckets: Vec<(ReducerId, BucketSource<M>)>,
        reducer: &impl Reducer<M, O>,
    ) -> Result<ReducePhaseResult<O>, EngineError>
    where
        M: Record,
        O: Record,
    {
        struct BucketSlot<M> {
            key: ReducerId,
            pairs_received: u64,
            values: Locked<Option<BucketSource<M>>>,
        }

        /// What one reducer invocation leaves behind: outputs, its load
        /// line, its user counters and (when observed) its span. Stored per
        /// bucket so the merge below is in bucket order — deterministic no
        /// matter which worker stole which bucket.
        struct ReduceResult<O> {
            out: Vec<O>,
            load: ReducerLoad,
            counters: Counters,
            event: Option<Event>,
            grant: u64,
        }

        let threads = self.cfg.worker_threads.max(1);
        let next = AtomicUsize::new(0);
        let n = buckets.len();
        // The schedule reads each bucket's pairs (a spilled bucket's full
        // logical length) once: heavy buckets run first with up to
        // `intra_reduce_threads`, light buckets run serial, and grants come
        // from the remaining pool capacity as buckets finish. It never
        // affects output bytes — results land in per-bucket slots and merge
        // in bucket order below.
        let slots: Vec<BucketSlot<M>> = buckets
            .into_iter()
            .map(|(key, source)| BucketSlot {
                key,
                pairs_received: source.len() as u64,
                values: Locked::new(Some(source)),
            })
            .collect();
        let pairs: Vec<u64> = slots.iter().map(|s| s.pairs_received).collect();
        let plan = SchedulePlan::new(&self.cfg, &pairs);
        let faults = self.faults.clone();
        let observer = self.observer.as_ref();
        let result_slots: Vec<Locked<Option<ReduceResult<O>>>> =
            (0..n).map(|_| Locked::new(None)).collect();
        let mut worker_error: Option<EngineError> = None;
        let mut worker_events: Vec<Event> = Vec::new();
        let mut spill_read_nanos = 0u64;

        let stints = fan_out(0..threads.min(n.max(1)), |w| {
            let t0 = observer.map_or(0, |o| o.now());
            let mut buckets_run = 0u64;
            let mut spill_read_nanos = 0u64;
            loop {
                let pos = next.fetch_add(1, Ordering::Relaxed);
                if pos >= n {
                    break;
                }
                // Workers steal *pull positions*; the plan maps
                // each position to a bucket index so heavy
                // buckets are picked up first.
                let Some(&i) = plan.order().get(pos) else {
                    break;
                };
                // plan.order() is a permutation of 0..n and
                // both tables have n entries.
                let (Some(slot), Some(result)) = (slots.get(i), result_slots.get(i)) else {
                    return Err(EngineError::Internal(
                        "schedule plan names a bucket that does not exist",
                    ));
                };
                // The bucket's thread grant, drawn from the
                // plan's token pool now (not at spawn time) so
                // it reflects capacity freed by finished
                // buckets. Held across fault retries; returned
                // when the bucket completes.
                let grant = plan.acquire(i);
                let mut attempts = 0u32;
                loop {
                    attempts += 1;
                    if let Some(plan) = &faults {
                        if plan.should_fail(job_name, slot.key) {
                            if attempts >= plan.max_attempts() {
                                // The job fails, as Hadoop's
                                // would; surfaced as a typed
                                // error at the join point.
                                return Err(EngineError::MaxAttemptsExceeded {
                                    job: job_name.to_string(),
                                    reducer: slot.key,
                                    attempts,
                                });
                            }
                            continue; // retry (re-read below)
                        }
                    }
                    let taken = if faults.is_some() {
                        // Retryable run: keep the bucket resident and
                        // hand the reducer a fresh copy per attempt.
                        slot.values.read(Option::clone)
                    } else {
                        // Fault-free run: move the bucket out.
                        slot.values.write(Option::take)
                    };
                    // `next.fetch_add` hands each bucket index to
                    // exactly one worker, so an empty slot means
                    // an engine bug, not a user error.
                    let Some(source) = taken else {
                        return Err(EngineError::Internal("reduce bucket consumed twice"));
                    };
                    let spilled = source.is_spilled();
                    let r0 = observer.map_or(0, |o| o.now());
                    let mut out = Vec::new();
                    let mut ctx = ReduceCtx::with_parallelism(slot.key, grant);
                    let mut values = source.into_stream();
                    if let Some(o) = observer {
                        values.enable_heartbeats(Arc::clone(o), w as u64, slot.key);
                    }
                    reducer.reduce(&mut ctx, &mut values, &mut out);
                    // Streaming can't surface a Result per value,
                    // so a spilled-read failure ends the stream
                    // early and is latched for this check.
                    if let Some(e) = values.io_error() {
                        return Err(EngineError::Spill {
                            job: job_name.to_string(),
                            reducer: slot.key,
                            detail: e.to_string(),
                        });
                    }
                    spill_read_nanos += values.io_nanos();
                    let rows: u64 = out.iter().map(Record::rows).sum();
                    // The span is the bucket's service window:
                    // its duration is what the straggler
                    // detector and `reduce.service_ns` read.
                    let event = observer.map(|o| {
                        let pulled = slot.pairs_received - values.len() as u64;
                        let peak = ctx.counters.get(names::KERNEL_ACTIVE_PEAK);
                        let span = Event::span(EventKind::Reduce, "reduce", w as u64, r0, o.now())
                            .arg("key", slot.key)
                            .arg("pairs", slot.pairs_received)
                            .arg("pulled", pulled)
                            .arg("work", ctx.work())
                            .arg("out", rows)
                            .arg("spilled", spilled as u64)
                            .arg("grant", grant as u64);
                        // `kernel.active_peak` sketches the event
                        // sweep's execution shape; only buckets
                        // that ran it carry the arg.
                        match peak {
                            0 => span,
                            _ => span.arg("active_peak", peak),
                        }
                    });
                    let load = ReducerLoad {
                        key: slot.key,
                        pairs_received: slot.pairs_received,
                        work: ctx.work(),
                        output: rows,
                        attempts,
                    };
                    let ReduceCtx { counters, .. } = ctx;
                    let done = ReduceResult {
                        out,
                        load,
                        counters,
                        event,
                        grant: grant as u64,
                    };
                    result.write(|r| *r = Some(done));
                    buckets_run += 1;
                    break;
                }
                // Return the grant so queued buckets see the
                // freed capacity (error paths abort the whole
                // job, so they need not bother).
                plan.release(grant);
            }
            let stint = observer.map(|o| {
                Event::span(EventKind::Task, "reduce-worker", w as u64, t0, o.now())
                    .arg("buckets", buckets_run)
                    .arg("heavy_buckets", plan.heavy_count() as u64)
            });
            Ok((stint, spill_read_nanos))
        });
        for stint in stints {
            match stint {
                Ok((event, nanos)) => {
                    worker_events.extend(event);
                    spill_read_nanos += nanos;
                }
                Err(e) => {
                    worker_error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = worker_error {
            return Err(e);
        }

        let mut outs = Vec::with_capacity(n);
        let mut loads = Vec::with_capacity(n);
        let mut counters = Counters::new();
        let mut reduce_events: Vec<Event> = Vec::new();
        let mut granted_total = 0u64;
        for slot in result_slots {
            let r = slot
                .into_inner()
                .ok_or(EngineError::Internal("reducer left no result"))?;
            granted_total += r.grant;
            outs.push(r.out);
            loads.push(r.load);
            counters.merge(&r.counters);
            reduce_events.extend(r.event);
        }
        // Scheduler shape counters (the `sched.` prefix is execution-shape:
        // grants vary with the thread settings and pool state, never the
        // data plane). `sched.grants` sums the per-bucket grants, so any
        // value above the bucket count proves some bucket ran
        // multi-threaded — what the determinism audit's sched leg asserts.
        // Recorded only when some bucket was heavy (only a heavy bucket is
        // granted more than one thread), mirroring the `spill.*` gate:
        // trivial jobs keep a clean counter set.
        let heavy = plan.heavy_count() as u64;
        if heavy > 0 {
            counters.inc(names::SCHED_GRANTS, granted_total);
            counters.inc(names::SCHED_HEAVY_BUCKETS, heavy);
        }
        if let Some(o) = observer {
            // Per-reducer spans in bucket (key) order, then worker stints in
            // worker order, then the stragglers the spans' durations reveal.
            let stragglers = o.record_reduce_phase(reduce_events, worker_events);
            if stragglers > 0 {
                // Execution-shape by classification: rates depend on clock
                // time, so the counter only exists when a job is observed.
                counters.inc(names::TELEMETRY_STRAGGLERS, stragglers);
            }
        }
        Ok((outs, loads, counters, spill_read_nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{budgeted_engine, engine};
    use super::*;
    use crate::fault::FaultPlan;
    use crate::job::{Emitter, ValueStream};
    use crate::ClusterConfig;

    #[test]
    fn fault_injection_retries_deterministically() {
        let input: Vec<u64> = (0..100).collect();
        let clean = engine()
            .run_job(
                "faulty",
                &input[..],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 5, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        let faulty = engine()
            .with_faults(FaultPlan::new().fail("faulty", 2, 2))
            .run_job(
                "faulty",
                &input[..],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 5, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap();
        assert_eq!(
            faulty.outputs, clean.outputs,
            "retry must not change output"
        );
        assert_eq!(faulty.metrics.retries(), 2);
        let load2 = faulty
            .metrics
            .reducer_loads
            .iter()
            .find(|l| l.key == 2)
            .unwrap();
        assert_eq!(load2.attempts, 3);
    }

    #[test]
    fn fault_exceeding_attempts_fails_job() {
        let result = Engine::new(ClusterConfig::with_slots(2))
            .with_faults(FaultPlan::new().fail("j", 0, 10).with_max_attempts(3))
            .run_job(
                "j",
                &[1u64][..],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(0, n),
                |_: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| out.extend(vs),
            );
        match result {
            Err(EngineError::MaxAttemptsExceeded {
                job,
                reducer,
                attempts,
            }) => {
                assert_eq!(job, "j");
                assert_eq!(reducer, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected MaxAttemptsExceeded, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "reducer exploded on key 3")]
    fn reduce_panic_payload_is_reraised() {
        let _ = engine()
            .run_job(
                "boom",
                &(0..32u64).collect::<Vec<_>>()[..],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 5, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<u64>| {
                    assert!(ctx.key != 3, "reducer exploded on key {}", ctx.key);
                    out.extend(vs);
                },
            )
            .unwrap();
    }

    /// Clone-counting value for asserting the zero-clone reduce contract.
    #[derive(Debug, PartialEq)]
    struct Tracked(u64);

    static TRACKED_CLONES: AtomicUsize = AtomicUsize::new(0);

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            TRACKED_CLONES.fetch_add(1, Ordering::SeqCst);
            Tracked(self.0)
        }
    }

    impl Record for Tracked {}

    #[test]
    fn reduce_clones_only_under_fault_plan() {
        // Single test covers both paths so the shared counter sees no
        // interference from parallel test threads (no other test uses
        // `Tracked`).
        let input: Vec<u64> = (0..64).collect();
        let mapper = |&n: &u64, e: &mut Emitter<Tracked>| e.emit(n % 4, Tracked(n));
        let reducer =
            |ctx: &mut ReduceCtx, vs: &mut ValueStream<Tracked>, out: &mut Vec<(u64, u64)>| {
                out.push((ctx.key, vs.map(|t| t.0).sum()));
            };

        let before = TRACKED_CLONES.load(Ordering::SeqCst);
        let clean = engine()
            .run_job("noclone", &input[..], mapper, reducer)
            .unwrap();
        let clean_clones = TRACKED_CLONES.load(Ordering::SeqCst) - before;
        assert_eq!(clean_clones, 0, "fault-free path must not clone buckets");

        let before = TRACKED_CLONES.load(Ordering::SeqCst);
        let faulty = engine()
            .with_faults(FaultPlan::new().fail("noclone", 1, 1))
            .run_job("noclone", &input[..], mapper, reducer)
            .unwrap();
        let fault_clones = TRACKED_CLONES.load(Ordering::SeqCst) - before;
        // One clone per successful attempt: 4 buckets, each reduced once
        // (failed attempts bail before reading values): 64 values across 4
        // buckets of 16.
        assert_eq!(fault_clones, 64, "fault path clones each bucket once");
        assert_eq!(faulty.outputs, clean.outputs);
    }

    #[test]
    fn spilled_bucket_fault_retry_rereads_runs() {
        let input: Vec<u64> = (0..600).collect();
        let run = |eng: Engine| {
            eng.run_job(
                "spill-faulty",
                &input[..],
                |&n: &u64, e: &mut Emitter<u64>| e.emit(n % 4, n),
                |ctx: &mut ReduceCtx, vs: &mut ValueStream<u64>, out: &mut Vec<(u64, u64)>| {
                    out.push((ctx.key, vs.sum()));
                },
            )
            .unwrap()
        };
        let clean = run(budgeted_engine(Some(128), 3));
        let faulty = run(
            budgeted_engine(Some(128), 3).with_faults(FaultPlan::new().fail("spill-faulty", 2, 2)),
        );
        assert_eq!(faulty.outputs, clean.outputs);
        assert_eq!(faulty.metrics.retries(), 2);
    }
}
