//! Whole-suite determinism: every algorithm family, threads 1/2/8,
//! budgets unlimited and pinned-low.
//!
//! The static checks (clippy's bans, the typed metric registry, the
//! closure-only lock wrapper) exist to protect one property: a job
//! chain's output is byte-identical for every worker-thread count. This
//! auditor checks the property directly. It runs *all thirteen* audited
//! family/query cases on a seeded workload under `worker_threads`/
//! `intra_reduce_threads` 1, 2 and 8 with a low heavy-bucket threshold
//! (so the parallel kernels engage), serializes each run's output tuples,
//! chain `total_counters` and data-plane telemetry **through the Dfs**
//! (the same store the algorithms chain cycles through), and byte-diffs
//! the snapshots across thread counts. Every family is additionally
//! re-run with `reduce_memory_budget` pinned to [`SPILL_BUDGET`], so the
//! spill-to-Dfs reduce path is byte-diffed against the in-memory baseline
//! too, and at 8 worker threads with `intra_reduce_threads: 1` (every
//! grant serial), so multi-thread grants can never change output bytes.
//! The dedicated sched leg re-runs the clique family on a skewed
//! hot-region mix across `intra_reduce_threads` {1, threads} × threads ×
//! budgets and asserts the heavy bucket actually received a multi-thread
//! grant.
//!
//! The workload comes from a tiny in-file LCG rather than an RNG crate:
//! the auditor itself must be deterministic.

use ij_core::all_matrix::AllMatrix;
use ij_core::all_replicate::AllReplicate;
use ij_core::cascade::TwoWayCascade;
use ij_core::gen_matrix::GenMatrix;
use ij_core::hybrid::{AllSeqMatrix, Fcts, Fstc, Pasm};
use ij_core::one_bucket::OneBucketTheta;
use ij_core::rccis::Rccis;
use ij_core::two_way::TwoWayJoin;
use ij_core::{Algorithm, JoinInput};
use ij_interval::AllenPredicate::{Before, Contains, Overlaps};
use ij_interval::{Interval, Relation};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{is_execution_shape, ClusterConfig, Dfs, Engine, Observer, VirtualClock};
use ij_query::JoinQuery;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Thread counts every algorithm family is audited under.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The pinned low reduce-memory budget (approx bytes per bucket) every
/// family is re-audited under. Small enough that interval-record buckets
/// at the audit scale spill to the Dfs, so the audit byte-diffs the
/// *spilled* reduce path against the in-memory baseline.
const SPILL_BUDGET: u64 = 256;

/// Intervals per relation: small enough to finish in seconds, dense
/// enough to produce thousands of candidate pairs per reducer.
const AUDIT_SCALE: usize = 80;

/// The audit verdict for one algorithm family.
#[derive(Debug)]
struct AuditCase {
    algorithm: &'static str,
    /// Whether all thread counts, budgets and grant settings produced
    /// byte-identical snapshots.
    identical: bool,
    /// Output tuple count of the baseline run (the workload must actually
    /// exercise the join).
    output_count: u64,
    /// Unlimited-budget thread counts that diverged from the baseline.
    diverged: Vec<usize>,
    /// Thread counts that diverged under the pinned [`SPILL_BUDGET`].
    budget_diverged: Vec<usize>,
    /// Whether the serial-grant leg (8 worker threads,
    /// `intra_reduce_threads: 1`, budgeted) diverged.
    serial_diverged: bool,
    /// Buckets spilled under the pinned budget (single-thread run).
    spilled_buckets: u64,
    /// The baseline run's `join.emitted` total, for families whose output
    /// comes from one `kernel::reduce_join` cycle (see [`suite`]).
    join_emitted: Option<u64>,
    /// `kernel.parallel_buckets` of the top-thread run.
    parallel_buckets: u64,
}

impl AuditCase {
    /// Whether the join counters are maintained: a single-join-cycle
    /// family must have emitted exactly its output.
    fn join_counted(&self) -> bool {
        self.join_emitted.is_none_or(|e| e == self.output_count)
    }
}

/// The schedule leg: a deliberately skewed bucket mix run under every
/// `intra_reduce_threads` × thread count × budget, byte-diffed against the
/// serial single-thread baseline.
#[derive(Debug, Default)]
struct SchedAudit {
    identical: bool,
    /// The combinations that diverged, as `intra<n>@threads[+budget]`.
    diverged: Vec<String>,
    output_count: u64,
    /// `sched.heavy_buckets` of the 8-thread run with 8 intra threads.
    heavy_buckets: u64,
    /// Largest per-bucket thread grant of that run (the
    /// `sched.grant_threads` histogram's max).
    max_grant: u64,
}

/// The full audit result.
#[derive(Debug, Default)]
struct AuditReport {
    cases: Vec<AuditCase>,
    sched: Option<SchedAudit>,
    /// Every counter, series and histogram name any audited run recorded.
    recorded: BTreeSet<String>,
}

impl AuditReport {
    /// Whether every family was byte-identical across all thread counts,
    /// budgets and grant settings — including the sched leg, which must
    /// additionally prove a multi-thread grant landed on the heavy bucket.
    fn deterministic(&self) -> bool {
        !self.cases.is_empty()
            && self.cases.iter().all(|c| c.identical && c.join_counted())
            && self
                .sched
                .as_ref()
                .is_some_and(|s| s.identical && s.heavy_buckets > 0 && s.max_grant > 1)
    }
}

/// A splitmix-style LCG: deterministic, dependency-free workload seeds.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A seeded workload of `n` tuples per relation over a dense time domain
/// (plenty of overlap, so every family produces output and heavy buckets
/// engage the parallel kernels): an interval, then one point from a small
/// domain per further attribute, so equalities match.
fn workload(q: &JoinQuery, seed: u64, n: usize) -> JoinInput {
    let mut rng = Lcg(seed);
    let rels: Vec<Relation> = (q.relations().iter().enumerate())
        .map(|(r, meta)| {
            Relation::from_rows(
                format!("R{r}"),
                (0..n).map(|_| {
                    let s = (rng.next() % 400) as i64;
                    let len = (rng.next() % 50) as i64;
                    let mut row = vec![Interval::new(s, s + len).expect("len >= 0")];
                    row.resize_with(meta.attr_names.len(), || {
                        Interval::point((rng.next() % 5) as i64)
                    });
                    row
                }),
            )
        })
        .collect();
    JoinInput::bind_owned(q, rels).expect("relation count matches query")
}

/// A skewed workload for the sched leg: 7/8 of the intervals crowd a hot
/// region at the start of the time domain, so one reducer bucket
/// dominates the reduce phase.
fn skewed_workload(q: &JoinQuery, seed: u64, n: usize) -> JoinInput {
    let mut rng = Lcg(seed);
    let rels: Vec<Relation> = (0..q.num_relations())
        .map(|r| {
            Relation::from_intervals(
                format!("R{r}"),
                (0..n).map(|_| {
                    let hot = !rng.next().is_multiple_of(8);
                    let span = if hot { 40 } else { 400 };
                    let s = (rng.next() % span) as i64;
                    let len = (rng.next() % 50) as i64;
                    Interval::new(s, s + len).expect("len >= 0")
                }),
            )
        })
        .collect();
    JoinInput::bind_owned(q, rels).expect("relation count matches query")
}

/// The audited engine: `threads` workers, up to `intra` threads per heavy
/// bucket. The serial anchor is `threads = intra = 1`.
fn engine_with_threads(threads: usize, intra: usize, budget: Option<u64>) -> Engine {
    Engine::new(ClusterConfig {
        reducer_slots: 4,
        worker_threads: threads,
        intra_reduce_threads: intra,
        // Low threshold so the intra-reducer parallel kernels engage.
        heavy_bucket_threshold: 64,
        reduce_memory_budget: budget,
    })
}

/// A satisfiable colocation *clique* — every pair directly conditioned,
/// so reducers route to the event-list sweep (the `[Overlaps, Overlaps]`
/// chain takes the window scan; both colocation kernel paths are
/// audited). Shared by the suite and the sched leg.
fn clique_query() -> JoinQuery {
    JoinQuery::new(
        3,
        vec![
            ij_query::Condition::whole(0, Overlaps, 1),
            ij_query::Condition::whole(1, Contains, 2),
            ij_query::Condition::whole(0, Overlaps, 2),
        ],
    )
    .expect("colocation clique")
}

/// Q5 (Section 9.1): `R1.I before R2.I and R1.I overlaps R3.I and
/// R1.A = R3.A and R2.B = R3.B` — the General class.
fn q5() -> JoinQuery {
    use ij_interval::AllenPredicate::Equals;
    use ij_query::query::RelationMeta;
    use ij_query::{AttrRef, Condition};
    let meta = |name: &str, attrs: &[&str]| RelationMeta {
        name: name.into(),
        attr_names: attrs.iter().map(|a| a.to_string()).collect(),
    };
    JoinQuery::with_relations(
        vec![
            meta("R1", &["I", "A"]),
            meta("R2", &["I", "B"]),
            meta("R3", &["I", "A", "B"]),
        ],
        vec![
            Condition::new(AttrRef::new(0, 0), Before, AttrRef::new(1, 0)),
            Condition::new(AttrRef::new(0, 0), Overlaps, AttrRef::new(2, 0)),
            Condition::new(AttrRef::new(0, 1), Equals, AttrRef::new(2, 1)),
            Condition::new(AttrRef::new(1, 1), Equals, AttrRef::new(2, 2)),
        ],
    )
    .expect("Q5")
}

/// The audited suite: every algorithm family with a query class it
/// supports (colocation for RCCIS/All-Rep, hybrid for the cascade and
/// matrix family, sequence for All-Matrix, two-way for 1-Bucket, and Q5
/// for Gen-Matrix, the one family that takes the General class). The flag
/// marks families whose output comes from one join cycle — a
/// `kernel::reduce_join` cycle, or Gen-Matrix's composite join: their
/// `join.emitted` must equal the output count. The cascade and FCTS/FSTC
/// also write the counters but sum them over intermediate joins.
fn suite() -> Vec<(Box<dyn Algorithm>, JoinQuery, bool)> {
    let colo = JoinQuery::chain(&[Overlaps, Overlaps]).expect("colocation chain");
    let hybrid = JoinQuery::chain(&[Overlaps, Before]).expect("hybrid chain");
    let seq = JoinQuery::chain(&[Before, Before]).expect("sequence chain");
    let pair = JoinQuery::chain(&[Overlaps]).expect("two-way chain");
    let clique = clique_query();
    vec![
        (
            Box::new(Rccis::new(6)) as Box<dyn Algorithm>,
            colo.clone(),
            true,
        ),
        (Box::new(AllReplicate::new(4)), colo.clone(), true),
        (Box::new(AllReplicate::new(4)), clique, true),
        (Box::new(TwoWayCascade::new(4)), hybrid.clone(), false),
        (Box::new(AllMatrix::new(3)), seq.clone(), true),
        (Box::new(AllSeqMatrix::new(3)), hybrid.clone(), true),
        (Box::new(Pasm::new(3)), hybrid.clone(), true),
        (Box::new(GenMatrix::new(3)), hybrid.clone(), true),
        (Box::new(GenMatrix::new(3)), q5(), true),
        (Box::new(Fcts::new(4, 3)), hybrid.clone(), false),
        (Box::new(Fstc::new(4, 3)), hybrid, false),
        (Box::new(OneBucketTheta::new(4, 4)), pair.clone(), true),
        (Box::new(TwoWayJoin::new(4)), pair, true),
    ]
}

/// One run's observations: the byte snapshot that joins the determinism
/// diff, plus the execution-shape signals the audit asserts on separately.
struct Snapshot {
    /// Output tuples, data-plane counters and data-plane telemetry,
    /// written through and read back from a fresh [`Dfs`].
    bytes: Vec<u8>,
    count: u64,
    spilled_buckets: u64,
    join_emitted: u64,
    parallel_buckets: u64,
    heavy_buckets: u64,
    /// Largest per-bucket thread grant (`sched.grant_threads` histogram).
    max_grant: u64,
    /// Every counter, series and histogram name the run recorded.
    recorded: BTreeSet<String>,
}

/// Runs one threads/intra/budget combination and captures a [`Snapshot`].
fn snapshot(
    algo: &dyn Algorithm,
    q: &JoinQuery,
    input: &JoinInput,
    (threads, intra): (usize, usize),
    budget: Option<u64>,
) -> Result<Snapshot, String> {
    // A virtual clock keeps every timestamp at zero, and a small
    // heartbeat quantum makes reduce-side heartbeats fire at audit scale —
    // the data-plane telemetry joins the byte-diff below, so heartbeat/
    // gauge/histogram drift fails the audit exactly like output drift.
    let observer = Arc::new(Observer::with_clock(Arc::new(VirtualClock::new()), 8));
    let engine = engine_with_threads(threads, intra, budget).with_observer(Arc::clone(&observer));
    let out = algo
        .run(q, input, &engine)
        .map_err(|e| format!("{} failed under {threads} threads: {e}", algo.name()))?;
    let mut lines = Vec::with_capacity(out.tuples.len() + 8);
    lines.push(format!("algorithm={}", algo.name()));
    lines.push(format!("count={}", out.count));
    for t in &out.tuples {
        lines.push(format!("{t:?}"));
    }
    let counters = out.chain.total_counters();
    for (k, v) in counters.iter() {
        // Execution-shape counters (`kernel.parallel_buckets`, `spill.*`,
        // `sched.*`) describe how the run was physically scheduled — they
        // legitimately vary with threads and budget, so like wall times
        // they stay out of the byte-diff. Every data-plane counter stays.
        if is_execution_shape(k) {
            continue;
        }
        lines.push(format!("counter {k}={v}"));
    }
    let tel = observer.snapshot();
    for line in tel.data_plane().to_prometheus().lines() {
        lines.push(format!("telemetry {line}"));
    }
    let recorded = (counters.iter().map(|(k, _)| k))
        .chain(tel.series.keys().map(String::as_str))
        .chain(tel.histograms.keys().map(String::as_str))
        .map(str::to_string)
        .collect();
    let dfs = Dfs::new();
    let path = format!("audit/{}", algo.name());
    dfs.write(&path, lines)
        .map_err(|e| format!("dfs write failed: {e}"))?;
    let stored = dfs
        .read::<String>(&path)
        .map_err(|e| format!("dfs read failed: {e}"))?;
    Ok(Snapshot {
        bytes: stored.join("\n").into_bytes(),
        count: out.count,
        spilled_buckets: counters.get(names::SPILL_BUCKETS),
        join_emitted: counters.get(names::JOIN_EMITTED),
        parallel_buckets: counters.get(names::KERNEL_PARALLEL_BUCKETS),
        heavy_buckets: counters.get(names::SCHED_HEAVY_BUCKETS),
        max_grant: tel
            .histograms
            .get(&**names::SCHED_GRANT_THREADS)
            .and_then(|h| h.max())
            .unwrap_or(0),
        recorded,
    })
}

/// Runs the audit at `scale` intervals per relation.
///
/// Each family is audited twice per thread count: with an unlimited
/// reduce-memory budget (the in-memory merge path) and with the pinned
/// [`SPILL_BUDGET`] (the spill-to-Dfs path), plus one serial-grant leg
/// at the highest thread count (`intra_reduce_threads: 1`, budgeted —
/// where grants differ most from the default). Every run must byte-match
/// the serial single-thread unlimited baseline. The skewed-mix sched leg
/// ([`run_sched_audit`]) then covers the full intra × thread × budget
/// matrix.
fn run_audit(scale: usize) -> Result<AuditReport, String> {
    let mut report = AuditReport::default();
    let top_threads = THREAD_COUNTS[THREAD_COUNTS.len() - 1];
    for (algo, q, single_join) in suite() {
        let input = workload(&q, 0x5eed + q.num_relations() as u64, scale);
        let mut run = |threads, budget| -> Result<Snapshot, String> {
            let s = snapshot(algo.as_ref(), &q, &input, threads, budget)?;
            report.recorded.extend(s.recorded.iter().cloned());
            Ok(s)
        };
        let base = run((1, 1), None)?;
        let mut diverged = Vec::new();
        let mut parallel_buckets = 0;
        for &t in &THREAD_COUNTS[1..] {
            let s = run((t, t), None)?;
            if s.bytes != base.bytes {
                diverged.push(t);
            }
            if t == top_threads {
                parallel_buckets = s.parallel_buckets;
            }
        }
        let mut budget_diverged = Vec::new();
        let mut spilled_buckets = 0;
        for (i, &t) in THREAD_COUNTS.iter().enumerate() {
            let s = run((t, t), Some(SPILL_BUDGET))?;
            if i == 0 {
                spilled_buckets = s.spilled_buckets;
            }
            if s.bytes != base.bytes {
                budget_diverged.push(t);
            }
        }
        let serial_diverged = run((top_threads, 1), Some(SPILL_BUDGET))?.bytes != base.bytes;
        report.cases.push(AuditCase {
            algorithm: algo.name(),
            identical: diverged.is_empty() && budget_diverged.is_empty() && !serial_diverged,
            output_count: base.count,
            diverged,
            budget_diverged,
            serial_diverged,
            spilled_buckets,
            join_emitted: single_join.then_some(base.join_emitted),
            parallel_buckets,
        });
    }
    let (sched, recorded) = run_sched_audit(scale)?;
    report.sched = Some(sched);
    report.recorded.extend(recorded);
    Ok(report)
}

/// The schedule leg: All-Replicate on the colocation clique over the
/// hot-region [`skewed_workload`], run under the full
/// `intra_reduce_threads` {1, threads} × [`THREAD_COUNTS`] × {unbudgeted,
/// [`SPILL_BUDGET`]} matrix and byte-diffed against the serial
/// single-thread unbudgeted baseline. The top-thread unbudgeted run with
/// as many intra threads also reports the schedule's execution shape
/// (heavy buckets, max grant). Returns the names the leg recorded beside
/// its verdict.
fn run_sched_audit(scale: usize) -> Result<(SchedAudit, BTreeSet<String>), String> {
    let q = clique_query();
    let algo = AllReplicate::new(4);
    let input = skewed_workload(&q, 0x5ca1ed, scale);
    let top_threads = THREAD_COUNTS[THREAD_COUNTS.len() - 1];
    let base = snapshot(&algo, &q, &input, (1, 1), None)?;
    let mut sched = SchedAudit {
        output_count: base.count,
        ..SchedAudit::default()
    };
    let mut recorded = base.recorded.clone();
    for &t in &THREAD_COUNTS {
        for intra in [1, t] {
            for budget in [None, Some(SPILL_BUDGET)] {
                let s = snapshot(&algo, &q, &input, (t, intra), budget)?;
                if s.bytes != base.bytes {
                    let leg = match budget {
                        None => format!("intra{intra}@{t}"),
                        Some(b) => format!("intra{intra}@{t}+{b}B"),
                    };
                    sched.diverged.push(leg);
                }
                if intra == top_threads && t == top_threads && budget.is_none() {
                    sched.heavy_buckets = s.heavy_buckets;
                    sched.max_grant = s.max_grant;
                }
                recorded.extend(s.recorded);
            }
        }
    }
    sched.identical = sched.diverged.is_empty();
    Ok((sched, recorded))
}

/// The audit at [`AUDIT_SCALE`], run once and shared by the tests below.
fn report() -> &'static AuditReport {
    static REPORT: OnceLock<AuditReport> = OnceLock::new();
    REPORT.get_or_init(|| run_audit(AUDIT_SCALE).expect("audit suite runs"))
}

#[test]
fn all_algorithm_families_are_byte_identical_across_thread_counts() {
    let report = report();
    assert_eq!(
        report.cases.len(),
        13,
        "expected every algorithm family to be audited"
    );
    for case in &report.cases {
        assert!(
            case.identical,
            "{} diverged from the single-thread baseline at threads {:?} \
             (budget {SPILL_BUDGET}B at {:?}, serial grants: {}) (of {THREAD_COUNTS:?})",
            case.algorithm, case.diverged, case.budget_diverged, case.serial_diverged
        );
        // The workload must actually exercise the join — a zero-output
        // run would pass the diff vacuously.
        assert!(
            case.output_count > 0,
            "{} produced no output tuples",
            case.algorithm
        );
    }
    // The pinned budget must actually drive at least one family through
    // the spill path, or the budgeted re-audit is vacuous.
    assert!(
        report.cases.iter().any(|c| c.spilled_buckets > 0),
        "no family spilled under the pinned {SPILL_BUDGET}B budget:\n{report:#?}"
    );
    // The schedule leg: byte-identical across the full grant matrix, and
    // the heavy bucket of the skewed mix must really have run with a
    // multi-thread grant — an inert schedule fails the audit.
    let sched = report.sched.as_ref().expect("sched leg present");
    assert!(
        sched.identical,
        "grant settings changed output bytes at {:?}:\n{report:#?}",
        sched.diverged,
    );
    assert!(sched.output_count > 0, "sched leg produced no output");
    assert!(
        sched.heavy_buckets > 0 && sched.max_grant > 1,
        "skewed mix never landed a multi-thread grant \
         ({} heavy buckets, max grant {}):\n{report:#?}",
        sched.heavy_buckets,
        sched.max_grant,
    );
    assert!(report.deterministic());
}

#[test]
fn composite_joins_cut_heavy_buckets_into_chunks() {
    // The cascade, FCTS and Gen-Matrix join through the composite join,
    // which takes the kernels' chunk runner: at 8 threads and a heavy
    // threshold of 64 some bucket must really run in chunks, or the
    // byte-diff above never sees a chunked composite join.
    let report = report();
    for name in ["2-way Cd", "FCTS", "Gen-Matrix"] {
        let legs: Vec<&AuditCase> = (report.cases.iter())
            .filter(|c| c.algorithm == name)
            .collect();
        assert!(!legs.is_empty(), "{name} is not audited");
        for case in legs {
            assert!(
                case.parallel_buckets > 0,
                "{name} ran no bucket in chunks at {} threads:\n{case:#?}",
                THREAD_COUNTS[THREAD_COUNTS.len() - 1]
            );
        }
    }
}

#[test]
fn single_join_families_count_their_output() {
    // `deterministic()` holds `join.emitted == output_count` for every
    // flagged family; the expectation must not be vacuous.
    assert!(
        report()
            .cases
            .iter()
            .any(|c| c.join_emitted.is_some_and(|e| e > 0)),
        "no single-join family emitted anything"
    );
}

#[test]
fn every_recorded_name_is_registered() {
    // A recording call only accepts a `names::Counter`, but nothing in
    // the type makes a declared constant part of `names::ALL`; the
    // classifiers and the registry tests read `ALL`.
    let report = report();
    let registered: BTreeSet<&str> = names::ALL.iter().map(|c| &***c).collect();
    let unregistered: Vec<&String> = (report.recorded.iter())
        .filter(|n| !registered.contains(n.as_str()))
        .collect();
    assert!(
        unregistered.is_empty(),
        "recorded but missing from names::ALL: {unregistered:?}"
    );
    // Not vacuous: the audit records counters, series and histograms of
    // the data plane and of every execution-shape family.
    for name in [
        names::JOIN_EMITTED,
        names::SPILL_BUCKETS,
        names::SCHED_GRANTS,
        names::HEARTBEATS_REDUCE,
        names::REDUCE_BUCKET_PAIRS,
        names::SCHED_GRANT_THREADS,
    ] {
        assert!(report.recorded.contains(&**name), "{name} never recorded");
    }
}

#[test]
fn audit_snapshots_embed_data_plane_telemetry() {
    let (algo, q, _) = suite().remove(0);
    let input = workload(&q, 0x5eed + q.num_relations() as u64, 40);
    let s = snapshot(algo.as_ref(), &q, &input, (1, 1), None).expect("snapshot");
    let text = String::from_utf8(s.bytes).expect("utf8");
    assert!(
        text.contains("telemetry # TYPE ij_progress_jobs_started gauge"),
        "telemetry lines missing from audit snapshot"
    );
    assert!(text.contains("telemetry # TYPE ij_reduce_bucket_pairs histogram"));
    let heartbeats = text
        .lines()
        .find_map(|l| l.strip_prefix("telemetry ij_telemetry_heartbeats_reduce "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("reduce heartbeat series present");
    assert!(
        heartbeats > 0,
        "heartbeat quantum of 8 never fired:\n{text}"
    );
    // Execution-shape telemetry must NOT be in the byte-diffed bytes.
    assert!(!text.contains("ij_telemetry_stragglers"));
    assert!(!text.contains("ij_reduce_service_ns"));
    assert!(!text.contains("ij_spill_run_bytes"));
    // The grant histogram varies with the thread settings — it must stay
    // out of the diff, or every serial-grant leg would diverge.
    assert!(!text.contains("ij_sched_grant_threads"));
    assert!(!text.contains("counter sched."));
}

#[test]
fn clique_family_routes_to_event_sweep() {
    // The third suite entry is the colocation clique; its reducers must
    // dispatch to the event-list sweep, and the routing counter — a
    // data-plane counter — must land in the byte-diffed snapshot.
    let (algo, q, _) = suite().remove(2);
    assert_eq!(q.conditions().len(), 3, "clique has all three pairs");
    let input = workload(&q, 0x5eed + q.num_relations() as u64, 40);
    let s = snapshot(algo.as_ref(), &q, &input, (1, 1), None).expect("snapshot");
    let text = String::from_utf8(s.bytes).expect("utf8");
    let buckets = text
        .lines()
        .find_map(|l| l.strip_prefix(&format!("counter {}=", names::KERNEL_EVENT_SWEEP_BUCKETS)))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("event sweep routing counter present in snapshot");
    assert!(buckets > 0, "clique reducers never took the event sweep");
}
