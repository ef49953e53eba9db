//! Whole-suite determinism: every algorithm family, threads 1/2/8,
//! budgets unlimited and pinned-low.
//!
//! PR 3's kernel tests proved chunked intra-bucket execution is
//! order-preserving; `tests/determinism.rs` checks two families
//! end-to-end. This test closes the gap by driving `repolint`'s dynamic
//! auditor, which runs *all twelve* audited family/query cases on a seeded
//! workload under `worker_threads`/`intra_reduce_threads` 1, 2 and 8
//! with a low heavy-bucket threshold (so the parallel kernels engage),
//! serializes each run's output tuples and chain `total_counters`
//! through the Dfs, and byte-diffs the snapshots across thread counts.
//! Every family is additionally re-run with `reduce_memory_budget`
//! pinned to the auditor's `SPILL_BUDGET`, so the spill-to-Dfs reduce
//! path is byte-diffed against the in-memory baseline too, and under the
//! alternate intra-reduce grant policy (all-serial), so the
//! skew-driven scheduler can never change output bytes. The dedicated
//! sched leg re-runs the clique family on a skewed hot-region mix across
//! the full policy × thread × budget matrix and asserts the heavy bucket
//! actually received a multi-thread grant.

use repolint::audit::{run_audit, SCHED_POLICIES, SPILL_BUDGET, THREAD_COUNTS};

#[test]
fn all_algorithm_families_are_byte_identical_across_thread_counts() {
    let report = run_audit(80).expect("audit suite runs");
    assert_eq!(
        report.cases.len(),
        12,
        "expected every algorithm family to be audited"
    );
    for case in &report.cases {
        assert!(
            case.identical,
            "{} diverged from the single-thread baseline at threads {:?} \
             (budget {SPILL_BUDGET}B at {:?}, policies {:?}) (of {THREAD_COUNTS:?})",
            case.algorithm, case.diverged, case.budget_diverged, case.policy_diverged
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
        "no family spilled under the pinned {SPILL_BUDGET}B budget:\n{}",
        report.render()
    );
    // The skew-scheduler leg: byte-identical across the full grant-policy
    // matrix, and the heavy bucket of the skewed mix must really have run
    // with a multi-thread grant — an inert scheduler fails the audit.
    let sched = report.sched.as_ref().expect("sched leg present");
    assert!(
        sched.identical,
        "grant policies {:?} changed output bytes at {:?}:\n{}",
        SCHED_POLICIES.map(|p| p.name()),
        sched.diverged,
        report.render()
    );
    assert!(sched.output_count > 0, "sched leg produced no output");
    assert!(
        sched.heavy_buckets > 0 && sched.max_grant > 1,
        "skewed mix never landed a multi-thread grant \
         ({} heavy buckets, max grant {}):\n{}",
        sched.heavy_buckets,
        sched.max_grant,
        report.render()
    );
    assert!(report.deterministic());
}
