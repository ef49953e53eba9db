//! One workload run: set-up with its correctness gates, the timed closed
//! loop, the single-threaded child, and the end-to-end metrics.

use crate::json::Value;
use crate::procfs::{self, CpuTime};
use crate::stats::{median, quartiles, Quartiles};
use crate::workloads::{Reference, Workload, PARTITIONS, PER_DIM, THREADS};
use ij_core::all_replicate::AllReplicate;
use ij_core::hybrid::AllSeqMatrix;
use ij_core::oracle::oracle_join;
use ij_core::{plan, Algorithm, JoinInput, JoinOutput, OutputMode};
use ij_datagen::SynthConfig;
use ij_interval::Relation;
use ij_mapreduce::Engine;
use ij_query::JoinQuery;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Untimed ops at the end of every set-up; the first one is the
/// full-size correctness gate.
pub const WARMUP_OPS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// The timed loop never stops before this many ops, whatever `--seconds`.
pub const MIN_TIMED_OPS: usize = 5;
/// Ops of the single-threaded child.
pub const SERIAL_OPS: usize = 3;

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of relation 0; relation `r` uses `seed + r`.
    pub seed: u64,
    /// Size multiplier (1.0 except under `--smoke`).
    pub scale: f64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Exact op count, overriding `seconds` (smoke mode).
    pub ops: Option<usize>,
}

/// Everything a timed op needs, built by [`set_up`].
pub struct Prepared {
    /// The query.
    pub query: JoinQuery,
    /// The generated relations, bound to the query.
    pub input: JoinInput,
    /// The two-thread engine of the timed ops.
    pub engine: Engine,
    /// Join size at full scale, agreed on by two independent algorithms.
    pub reference_count: u64,
    /// Seconds spent in `SynthConfig::generate`.
    pub datagen_s: f64,
}

/// Generates one relation per generator setting, named `R1`, `R2`, ….
pub fn generate(settings: &[SynthConfig]) -> Vec<Relation> {
    settings
        .iter()
        .enumerate()
        .map(|(r, cfg)| cfg.generate(format!("R{}", r + 1)))
        .collect()
}

impl Prepared {
    /// Datagen, bind and an engine of `threads` worker and intra-reduce
    /// threads; the reference count is still unknown (0).
    fn bind(spec: &RunSpec, threads: usize) -> Result<Prepared, String> {
        let w = spec.workload;
        let query = (w.query)();
        let gen_start = Instant::now();
        let rels = generate(&w.relations(spec.scale, spec.seed));
        let datagen_s = gen_start.elapsed().as_secs_f64();
        let input = JoinInput::bind_owned(&query, rels).map_err(|e| e.to_string())?;
        Ok(Prepared {
            query,
            input,
            engine: Engine::new(w.cluster_config(threads)),
            reference_count: 0,
            datagen_s,
        })
    }
}

/// One op: plan the query and run the planned algorithm to a complete
/// result. Returns the op's wall seconds and its outcome.
pub fn run_op(w: &Workload, p: &Prepared) -> (f64, Result<JoinOutput, String>) {
    let start = Instant::now();
    let alg = plan(black_box(&p.query), w.plan_config());
    let out = alg.run(&p.query, black_box(&p.input), &p.engine);
    let wall_s = start.elapsed().as_secs_f64();
    (wall_s, black_box(out).map_err(|e| e.to_string()))
}

/// Whether an op's output is the reference join: the count matches and,
/// when materializing, every counted tuple is present.
pub fn output_is_correct(w: &Workload, out: &JoinOutput, reference_count: u64) -> bool {
    out.count == reference_count
        && (w.mode == OutputMode::Count || out.tuples.len() as u64 == out.count)
}

/// Gate (a): on a 300-intervals-per-relation instance of the same query
/// and generator, the planned algorithm's materialized tuples equal the
/// single-node oracle's.
fn oracle_gate(w: &Workload, seed: u64, engine: &Engine) -> Result<(), String> {
    let query = (w.query)();
    let input = JoinInput::bind_owned(&query, generate(&w.gate_relations(seed)))
        .map_err(|e| e.to_string())?;
    let cfg = ij_core::PlanConfig {
        mode: OutputMode::Materialize,
        ..w.plan_config()
    };
    let got = plan(&query, cfg)
        .run(&query, &input, engine)
        .map_err(|e| format!("oracle gate: {e}"))?
        .sorted_tuples();
    let want = oracle_join(&query, &input);
    if want.is_empty() {
        return Err("oracle gate is vacuous: the small instance has no output".into());
    }
    if got != want {
        return Err(format!(
            "oracle gate: {} produced {} tuples, the oracle {}",
            w.algorithm,
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Gate (b)'s second opinion: the join size by an independent algorithm.
fn reference_count(w: &Workload, p: &Prepared) -> Result<u64, String> {
    let second: Box<dyn Algorithm> = match w.reference {
        Reference::AllReplicate => Box::new(AllReplicate {
            partitions: PARTITIONS,
            mode: OutputMode::Count,
        }),
        Reference::AllSeqMatrix => Box::new(AllSeqMatrix {
            per_dim: PER_DIM,
            mode: OutputMode::Count,
        }),
    };
    second
        .run(&p.query, &p.input, &p.engine)
        .map(|out| out.count)
        .map_err(|e| format!("reference {}: {e}", second.name()))
}

/// Everything before the first timed op: datagen, bind, the oracle gate,
/// the reference join size and the warm-up ops (the first of which is the
/// full-size gate). A failed gate is an error, not a failed op: nothing
/// measured after it would mean anything.
pub fn set_up(spec: &RunSpec) -> Result<Prepared, String> {
    let w = spec.workload;
    let mut p = Prepared::bind(spec, THREADS)?;
    let planned = plan(&p.query, w.plan_config()).name();
    if planned != w.algorithm {
        return Err(format!(
            "{}: the planner chose {planned}, the workload is defined on {}",
            w.name, w.algorithm
        ));
    }
    oracle_gate(w, spec.seed, &p.engine)?;
    p.reference_count = reference_count(w, &p)?;
    if p.reference_count == 0 {
        return Err(format!("{}: the join is empty, nothing to measure", w.name));
    }
    for i in 0..WARMUP_OPS {
        let out = run_op(w, &p).1?;
        if !output_is_correct(w, &out, p.reference_count) {
            return Err(format!(
                "{}: warm-up op {i} counted {} ({} tuples), the reference algorithm {}",
                w.name,
                out.count,
                out.tuples.len(),
                p.reference_count
            ));
        }
    }
    Ok(p)
}

/// The timed closed loop's samples.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall seconds of every op, failed ones included.
    pub wall_s: Vec<f64>,
    /// Process CPU summed over the ops.
    pub cpu: CpuTime,
    /// Ops that returned `Err` or a wrong output.
    pub failed: u64,
    /// `JobChain::total_pairs()` of the last good op.
    pub shuffle_pairs: u64,
    /// `JobChain::total_shuffle_bytes()` of the last good op.
    pub shuffle_bytes: u64,
    /// Max over cycles of `JobMetrics::max_reducer_pairs()`.
    pub max_reducer_pairs: u64,
}

/// Runs ops back to back (one client, closed loop) until `seconds` have
/// passed and at least [`MIN_TIMED_OPS`] are done, or exactly `spec.ops`.
pub fn timed_loop(spec: &RunSpec, p: &Prepared, seconds: f64) -> Timed {
    let w = spec.workload;
    let mut t = Timed::default();
    let loop_start = Instant::now();
    loop {
        let done = t.wall_s.len();
        let stop = match spec.ops {
            Some(n) => done >= n,
            None => done >= MIN_TIMED_OPS && loop_start.elapsed().as_secs_f64() >= seconds,
        };
        if stop {
            return t;
        }
        // /proc CPU ticks are 10 ms, so per-op CPU is summed rather than
        // kept as samples: the rounding of single ops averages out over
        // the loop, whereas a median of tick-rounded values would not.
        let cpu0 = procfs::cpu_time();
        let (wall_s, out) = run_op(w, p);
        let cpu = procfs::cpu_time().since(cpu0);
        t.cpu.user_s += cpu.user_s;
        t.cpu.sys_s += cpu.sys_s;
        t.wall_s.push(wall_s);
        match out {
            Ok(out) if output_is_correct(w, &out, p.reference_count) => {
                t.shuffle_pairs = out.chain.total_pairs();
                t.shuffle_bytes = out.chain.total_shuffle_bytes();
                t.max_reducer_pairs = out
                    .chain
                    .cycles
                    .iter()
                    .map(|c| c.max_reducer_pairs())
                    .max()
                    .unwrap_or(0);
            }
            Ok(out) => {
                eprintln!(
                    "{}: op {done} counted {}, the reference is {}",
                    w.name, out.count, p.reference_count
                );
                t.failed += 1;
            }
            Err(e) => {
                eprintln!("{}: op {done} failed: {e}", w.name);
                t.failed += 1;
            }
        }
    }
}

/// What the single-threaded child reports.
#[derive(Debug, Clone, Copy)]
pub struct SerialChild {
    /// `VmHWM` of the child.
    pub peak_rss_mb: f64,
    /// Median op wall in the child.
    pub serial_run_s: f64,
}

/// The body of the child process: the same workload, one worker thread
/// and one intra-reduce thread, a few ops. Prints one JSON line.
pub fn serial_child_main(spec: &RunSpec) -> Result<(), String> {
    let w = spec.workload;
    let p = Prepared::bind(spec, 1)?;
    let mut walls = Vec::new();
    let mut count = 0;
    for _ in 0..spec.ops.unwrap_or(SERIAL_OPS) {
        let (wall_s, out) = run_op(w, &p);
        count = out?.count;
        walls.push(wall_s);
    }
    let line = Value::obj([
        ("peak_rss_mb", Value::from(procfs::peak_rss_mb())),
        ("serial_run_s", Value::from(median(&walls))),
        ("count", Value::from(count)),
    ]);
    println!("{line}");
    Ok(())
}

/// Spawns this executable as the single-threaded child, waits for it and
/// checks that it computed the reference join.
pub fn run_serial_child(spec: &RunSpec, reference_count: u64) -> Result<SerialChild, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("serial-child")
        .args(["--workload", spec.workload.name])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--scale", &spec.scale.to_string()]);
    if let Some(ops) = spec.ops {
        cmd.args(["--ops", &ops.to_string()]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the serial child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the serial child ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    let v = crate::json::parse(line).map_err(|e| format!("serial child output: {e}"))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("serial child output lacks {k}"))
    };
    if num("count")? != reference_count as f64 {
        return Err(format!(
            "the serial child counted {}, the reference is {reference_count}",
            num("count")?
        ));
    }
    Ok(SerialChild {
        peak_rss_mb: num("peak_rss_mb")?,
        serial_run_s: num("serial_run_s")?,
    })
}

/// One reported number with its spread.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    /// The value (a median for timings).
    pub q: Quartiles,
    /// Samples behind it.
    pub n: usize,
}

impl Reported {
    /// A single measurement or an exact count.
    pub fn single(v: f64) -> Reported {
        Reported {
            q: Quartiles::flat(v),
            n: 1,
        }
    }

    /// The quartiles of `samples`.
    pub fn of(samples: &[f64]) -> Reported {
        Reported {
            q: quartiles(samples),
            n: samples.len(),
        }
    }
}

/// The result of an untraced run.
pub struct EndToEndRun {
    /// `(metric name, value)` for every end-to-end metric.
    pub metrics: Vec<(&'static str, Reported)>,
    /// Ops attempted (warm-ups of the last set-up plus timed ops).
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Information printed beside the metrics, not gated.
    pub info: Vec<(&'static str, f64)>,
    /// Wall seconds of every timed op, in order (kept in the detail file).
    pub op_wall_s: Vec<f64>,
}

/// The whole untraced run: set-ups, timed loop, serial child.
pub fn end_to_end(spec: &RunSpec) -> Result<EndToEndRun, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous set-up's relations first: peak memory must not
        // depend on how many times set-up is repeated.
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(set_up(spec)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let p = prepared.expect("SETUP_REPEATS is at least 1");
    let timed = timed_loop(spec, &p, spec.seconds);
    let peak_rss_2t_mb = procfs::peak_rss_mb();
    let child = run_serial_child(spec, p.reference_count)?;

    let n = timed.wall_s.len();
    let wall = Reported::of(&timed.wall_s);
    let intervals = p.input.total_tuples() as f64;
    let rate = Reported {
        // A rate's quartiles come from the opposite wall quartiles.
        q: Quartiles {
            p25: intervals / wall.q.p75,
            median: intervals / wall.q.median,
            p75: intervals / wall.q.p25,
        },
        n,
    };
    let metrics = vec![
        ("join_wall_s", wall),
        ("intervals_per_s", rate),
        (
            "join_cpu_s",
            Reported::single(timed.cpu.total_s() / n as f64),
        ),
        ("peak_rss_mb", Reported::single(child.peak_rss_mb)),
        (
            "shuffle_pairs",
            Reported::single(timed.shuffle_pairs as f64),
        ),
        (
            "shuffle_bytes",
            Reported::single(timed.shuffle_bytes as f64),
        ),
        (
            "max_reducer_pairs",
            Reported::single(timed.max_reducer_pairs as f64),
        ),
        ("setup_s", Reported::of(&setups)),
    ];
    let attempted = (WARMUP_OPS + n) as u64;
    let info = vec![
        ("failed_frac", timed.failed as f64 / attempted as f64),
        ("timed_ops", n as f64),
        ("input_intervals", intervals),
        ("output_tuples", p.reference_count as f64),
        ("join_cpu_user_s", timed.cpu.user_s / n as f64),
        ("join_cpu_sys_s", timed.cpu.sys_s / n as f64),
        ("peak_rss_2t_mb", peak_rss_2t_mb),
        ("serial_run_s", child.serial_run_s),
        ("datagen_s", p.datagen_s),
    ];
    Ok(EndToEndRun {
        metrics,
        attempted,
        failed: timed.failed,
        info,
        op_wall_s: timed.wall_s,
    })
}
