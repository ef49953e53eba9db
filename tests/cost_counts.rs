//! Exact cost counts of the six `ij-perf` workloads at test scale.
//!
//! A counting global allocator (std only) wraps the system allocator, so
//! memory is a count, not a sample: for each workload this binary records
//! the bound input's live bytes and the allocations that built it, and for
//! one run of the workload's planned family the allocations, the bytes
//! allocated, the peak live bytes above the bound input, and the engine's
//! exact counts (pairs and bytes shuffled, reducer work,
//! `join.candidates`). With one worker thread and one intra-reduce thread
//! every number repeats exactly, so the run is compared line for line with
//! `results/pr47/cost_counts.txt`, one section per build profile (debug
//! builds allocate for their extra checks).
//!
//! The contract is `crates/core/tests/family_pins.rs`'s: a change that
//! moves a count re-captures the file and explains each moved count. To
//! re-capture, run `cargo test --test cost_counts` and `cargo test
//! --release --test cost_counts`; a failure prints the section to paste.
//! With one worker thread the engine runs every phase on the calling
//! thread, so `--nocapture` does not move a count.
//!
//! The workloads mirror `perf/src/workloads.rs` at its smoke scale (0.02):
//! every relation's size and time range shrink by that factor, and the
//! spill budget with them, so `q1_sparse_spill` still spills. This file is
//! its own test binary with one `#[test]`, and each run's window opens
//! only once no thread has allocated for a while ([`quiesce`]), so nothing
//! else allocates while a workload runs.

use ij_core::planner::{plan, PlanConfig};
use ij_core::{JoinInput, OutputMode};
use ij_datagen::{Distribution, SynthConfig};
use ij_interval::AllenPredicate::{Before, Contains, Overlaps};
use ij_mapreduce::metrics::names;
use ij_mapreduce::{ClusterConfig, Engine};
use ij_query::{Condition, JoinQuery};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// The system allocator, counting. A `realloc` counts as an allocation of
/// its new size.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn allocated(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain atomics, so the wrapper upholds `System`'s contract.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        allocated(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Waits until no thread has allocated or freed for 20 ms. The harness's
/// own thread may still allocate after it starts the test's, and a run's
/// threads free as they exit; a window opened after this counts the run
/// alone.
fn quiesce() {
    let counts = || (ALLOCS.load(Relaxed), LIVE.load(Relaxed));
    loop {
        let before = counts();
        std::thread::sleep(Duration::from_millis(20));
        if counts() == before {
            return;
        }
    }
}

/// The smoke scale of `perf/`.
const SCALE: f64 = 0.02;

/// One workload: name, query, full-size generator settings per relation,
/// output mode, whether a hybrid query is pruned, and the full-size reduce
/// memory budget.
struct Workload {
    name: &'static str,
    query: JoinQuery,
    relations: Vec<SynthConfig>,
    mode: OutputMode,
    prune_hybrid: bool,
    budget: Option<u64>,
}

fn workloads(seed: u64) -> Vec<Workload> {
    let q1 = || JoinQuery::chain(&[Overlaps, Overlaps]).unwrap();
    let q0 = JoinQuery::chain(&[Overlaps, Contains, Overlaps]).unwrap();
    let clique = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Overlaps, 1),
            Condition::whole(1, Contains, 2),
            Condition::whole(0, Overlaps, 2),
        ],
    )
    .unwrap();
    let q4 = JoinQuery::new(
        3,
        vec![
            Condition::whole(0, Before, 1),
            Condition::whole(0, Overlaps, 2),
        ],
    )
    .unwrap();
    let table1 = |n: usize, r: u64| SynthConfig::table1(n, seed + r);
    let sparse = |r: u64| SynthConfig {
        t_max: 20_000_000,
        ..table1(300_000, r)
    };
    let zipf = |i_max: i64, r: u64| SynthConfig {
        ds: Distribution::Zipf { theta: 2.0 },
        i_max,
        ..table1(26_000, r)
    };
    let q4_rel = |n: usize, i_max: i64, r: u64| SynthConfig {
        t_max: 200_000,
        i_max,
        ..table1(n, r)
    };
    let (count, materialize) = (OutputMode::Count, OutputMode::Materialize);
    let workload = |name, query, relations, mode, prune_hybrid, budget| Workload {
        name,
        query,
        relations,
        mode,
        prune_hybrid,
        budget,
    };
    vec![
        workload(
            "q1_dense_count",
            q1(),
            (0..3).map(|r| table1(50_000, r)).collect(),
            count,
            false,
            None,
        ),
        workload(
            "q1_sparse_shuffle",
            q1(),
            (0..3).map(sparse).collect(),
            materialize,
            false,
            None,
        ),
        workload(
            "q1_sparse_spill",
            q1(),
            (0..3).map(sparse).collect(),
            materialize,
            false,
            Some(262_144),
        ),
        workload(
            "q0_dense_materialize",
            q0,
            (0..4).map(|r| table1(22_000, r)).collect(),
            materialize,
            false,
            None,
        ),
        workload(
            "clique_zipf_count",
            clique,
            vec![zipf(90, 0), zipf(60, 1), zipf(25, 2)],
            count,
            false,
            None,
        ),
        workload(
            "q4_hybrid_pasm",
            q4,
            vec![
                q4_rel(80_000, 100, 0),
                q4_rel(2_000, 100, 1),
                q4_rel(1_000, 600, 2),
            ],
            count,
            true,
            None,
        ),
    ]
}

/// `perf/`'s scaling: the interval count and the time range shrink
/// together (the range no shorter than four of the longest intervals), so
/// a scaled instance keeps the workload's density.
fn scaled(relations: &[SynthConfig]) -> Vec<SynthConfig> {
    let max_len = relations.iter().map(|c| c.i_max).max().unwrap_or(1);
    (relations.iter())
        .map(|c| SynthConfig {
            n: ((c.n as f64 * SCALE).round() as usize).max(1),
            t_max: ((c.t_max as f64 * SCALE).round() as i64).max(4 * max_len),
            ..*c
        })
        .collect()
}

/// Runs every workload once and renders one line of counts each.
fn render(seed: u64) -> String {
    let mut lines = Vec::new();
    for w in workloads(seed) {
        let configs = scaled(&w.relations);
        quiesce();
        let (allocs, live) = (ALLOCS.load(Relaxed), LIVE.load(Relaxed));
        let rels = (configs.iter().enumerate())
            .map(|(r, c)| c.generate(format!("R{}", r + 1)))
            .collect();
        let input = JoinInput::bind_owned(&w.query, rels).unwrap();
        let input_allocs = ALLOCS.load(Relaxed) - allocs;
        let input_bytes = LIVE.load(Relaxed) - live;
        let engine = Engine::new(ClusterConfig {
            reducer_slots: 16,
            worker_threads: 1,
            intra_reduce_threads: 1,
            reduce_memory_budget: w.budget.map(|b| (b as f64 * SCALE) as u64),
            ..ClusterConfig::default()
        });
        let cfg = PlanConfig {
            partitions: 16,
            per_dim: 6,
            mode: w.mode,
            prune_hybrid: w.prune_hybrid,
        };
        let family = plan(&w.query, cfg);
        quiesce();
        let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
        let input_live = LIVE.load(Relaxed);
        PEAK.store(input_live, Relaxed);
        let out = family.run(&w.query, &input, &engine).unwrap();
        let (allocs, bytes) = (ALLOCS.load(Relaxed) - allocs, BYTES.load(Relaxed) - bytes);
        let peak = PEAK.load(Relaxed) - input_live;
        let pairs: u64 = out.chain.cycles.iter().map(|c| c.intermediate_pairs).sum();
        let shuffled: u64 = out.chain.cycles.iter().map(|c| c.shuffle_bytes).sum();
        let work: u64 = out.chain.cycles.iter().map(|c| c.total_work()).sum();
        let candidates = out.chain.total_counters().get(names::JOIN_CANDIDATES);
        lines.push(format!(
            "{} {} count={} cycles={} input_allocs={input_allocs} input_bytes={input_bytes} \
             allocs={allocs} alloc_bytes={bytes} peak_above_input={peak} \
             shuffle_pairs={pairs} shuffle_bytes={shuffled} work={work} candidates={candidates}",
            w.name,
            family.name(),
            out.count,
            out.chain.num_cycles(),
        ));
    }
    lines.join("\n")
}

/// The captured section of the running build's profile.
fn captured(profile: &str) -> String {
    let file = include_str!("../results/pr47/cost_counts.txt");
    let header = format!("[{profile}]");
    let section = (file.lines())
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['));
    section.collect::<Vec<_>>().join("\n")
}

#[test]
fn exact_costs_of_the_ledger_workloads() {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let got = render(42);
    assert!(
        got == captured(profile),
        "cost counts moved ({profile} build); the run's section:\n[{profile}]\n{got}"
    );
}
