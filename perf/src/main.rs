//! `ij-perf` — the repository's standing benchmark.
//!
//! ```text
//! ij-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON line
//! ij-perf all [--seed N] [--seconds S] [--traced] [--smoke] [--out path]
//! ij-perf compare <a.json> <b.json>
//! ```
//!
//! See `perf/README.md` for the workloads, the metrics and the public API
//! surface this package is allowed to call.

mod all;
mod compare;
mod json;
mod layers;
mod metrics;
mod procfs;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Value;
use metrics::{END_TO_END, PER_LAYER};
use run::RunSpec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Length of the timed loop when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 8.0;

const USAGE: &str = "usage:
  ij-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale f] [--ops n] [--detail-out path]
  ij-perf all [--seed n] [--seconds s] [--traced] [--smoke] [--out path]
  ij-perf compare <a.json> <b.json>
workloads: q1_dense_count q1_sparse_shuffle q1_sparse_spill q0_dense_materialize clique_zipf_count q4_hybrid_pasm";

/// Where result and span files go unless `--out` says otherwise: `out/`
/// beside this package's manifest, so it is inside the checkout whatever
/// the working directory.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--key value` pairs and bare `--switch`es after the subcommand.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => flags.switches.push(name.to_string()),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.pairs.push((name.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn run_spec(flags: &Flags) -> Result<RunSpec, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = flags.num("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let scale = flags.num("scale")?.unwrap_or(1.0);
    let in_range = |v: f64, max: f64| v > 0.0 && v <= max;
    if !in_range(seconds, 3600.0) || !in_range(scale, 1.0) {
        return Err("--seconds must be in (0, 3600] and --scale in (0, 1]".into());
    }
    Ok(RunSpec {
        workload,
        seed: flags.num("seed")?.unwrap_or(DEFAULT_SEED),
        scale,
        seconds,
        ops: flags.num("ops")?.filter(|&n: &usize| n > 0),
    })
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::from(value)), ("unit", Value::from(unit))])
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: Vec<(String, Value)>) -> Value {
    Value::obj([
        ("correct", Value::from(failed == 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// One workload, one process: the mode the driver (and `all`) runs.
fn workload_main(flags: &Flags) -> Result<(), String> {
    flags.only(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "scale",
        "ops",
        "detail-out",
    ])?;
    let spec = run_spec(flags)?;
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < workloads::THREADS {
        eprintln!(
            "warning: {nproc} CPU available, the workloads run {} threads: timings will not compare with a 2-core host",
            workloads::THREADS
        );
    }
    let w = spec.workload;
    let mut detail = vec![
        ("workload".to_string(), Value::from(w.name)),
        ("why".to_string(), Value::from(w.why)),
        ("seed".to_string(), Value::from(spec.seed)),
        ("scale".to_string(), Value::from(spec.scale)),
        ("seconds".to_string(), Value::from(spec.seconds)),
        ("nproc".to_string(), Value::from(nproc as u64)),
    ];
    let line = if traced {
        let run = layers::per_layer(&spec)?;
        println!("{} (traced, seed {}):", w.name, spec.seed);
        let mut metrics = Vec::new();
        for (name, unit, _) in PER_LAYER {
            let value = run
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            println!("  {name:<36} {value:>16.6} {unit}");
            metrics.push((name.to_string(), metric_value(value, unit)));
        }
        let spans_path = default_out_dir().join(format!("spans-{}.json", w.name));
        write_file(&spans_path, &run.tracer.to_json(w.name).to_string())?;
        println!(
            "  spans: {} -> {}",
            run.tracer.spans().len(),
            spans_path.display()
        );
        detail.push(("per_layer".to_string(), Value::Obj(metrics.clone())));
        detail.push(("traced_attempted".to_string(), Value::from(run.attempted)));
        detail.push(("traced_failed".to_string(), Value::from(run.failed)));
        result_line(run.attempted, run.failed, metrics)
    } else {
        let run = run::end_to_end(&spec)?;
        println!("{} (seed {}):", w.name, spec.seed);
        let mut metrics = Vec::new();
        let mut detailed = Vec::new();
        for m in END_TO_END {
            let r = run
                .metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, r)| *r)
                .ok_or_else(|| format!("end-to-end metric {} was not measured", m.name))?;
            println!(
                "  {:<20} {:>18.6} {:<6} p25 {:.6} p75 {:.6} n={}",
                m.name, r.q.median, m.unit, r.q.p25, r.q.p75, r.n
            );
            metrics.push((m.name.to_string(), metric_value(r.q.median, m.unit)));
            detailed.push((
                m.name.to_string(),
                Value::obj([
                    ("value", Value::from(r.q.median)),
                    ("unit", Value::from(m.unit)),
                    ("p25", Value::from(r.q.p25)),
                    ("p75", Value::from(r.q.p75)),
                    ("n", Value::from(r.n as u64)),
                ]),
            ));
        }
        for (name, value) in &run.info {
            println!("  {name:<20} {value:>18.6}  (information)");
        }
        detail.push(("metrics".to_string(), Value::Obj(detailed)));
        detail.push(("attempted".to_string(), Value::from(run.attempted)));
        detail.push(("failed".to_string(), Value::from(run.failed)));
        detail.push((
            "op_wall_s".to_string(),
            Value::Arr(run.op_wall_s.iter().map(|&s| Value::from(s)).collect()),
        ));
        detail.push((
            "info".to_string(),
            Value::obj(run.info.iter().map(|(k, v)| (*k, Value::from(*v)))),
        ));
        result_line(run.attempted, run.failed, metrics)
    };
    if let Some(path) = flags.get("detail-out") {
        write_file(Path::new(path), &Value::Obj(detail).to_pretty())?;
    }
    println!("{line}");
    Ok(())
}

/// Writes `text` to `path`, creating the directory first.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = Flags::parse(&args[1..], &["traced", "smoke"])?;
            flags.only(&["seed", "seconds", "out"])?;
            all::main(&all::AllSpec {
                seed: flags.num("seed")?.unwrap_or(DEFAULT_SEED),
                seconds: flags.num("seconds")?.unwrap_or(DEFAULT_SECONDS),
                traced: flags.has("traced"),
                smoke: flags.has("smoke"),
                out: flags.get("out").map(PathBuf::from),
            })
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files".into()),
        },
        Some("serial-child") => {
            let flags = Flags::parse(&args[1..], &[])?;
            flags.only(&["workload", "seed", "scale", "ops"])?;
            run::serial_child_main(&run_spec(&flags)?).map(|()| ExitCode::SUCCESS)
        }
        Some(first) if first.starts_with("--") && first != "--help" => {
            workload_main(&Flags::parse(args, &[])?).map(|()| ExitCode::SUCCESS)
        }
        _ => {
            eprintln!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ij-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_split_pairs_switches_and_positionals() {
        let f = Flags::parse(
            &strings(&["--seed", "7", "--traced", "a.json", "--seed", "9"]),
            &["traced"],
        )
        .unwrap();
        assert_eq!(f.num::<u64>("seed").unwrap(), Some(9));
        assert!(f.has("traced"));
        assert!(!f.has("smoke"));
        assert_eq!(f.positional, vec!["a.json"]);
        assert!(f.only(&["seed"]).is_ok());
        assert!(f.only(&["out"]).unwrap_err().contains("--seed"));
        assert!(Flags::parse(&strings(&["--seed"]), &[]).is_err());
        assert!(f.num::<u64>("missing").unwrap().is_none());
    }

    #[test]
    fn run_spec_validates_its_input() {
        let ok = Flags::parse(
            &strings(&[
                "--workload",
                "q4_hybrid_pasm",
                "--seed",
                "3",
                "--seconds",
                "2.5",
            ]),
            &[],
        )
        .unwrap();
        let spec = run_spec(&ok).unwrap();
        assert_eq!(
            (spec.workload.name, spec.seed, spec.seconds),
            ("q4_hybrid_pasm", 3, 2.5)
        );
        assert_eq!((spec.scale, spec.ops), (1.0, None));
        for bad in [
            vec!["--workload", "nope"],
            vec!["--seed", "1"],
            vec!["--workload", "q1_dense_count", "--seconds", "0"],
            vec!["--workload", "q1_dense_count", "--scale", "2"],
            vec!["--workload", "q1_dense_count", "--seed", "x"],
        ] {
            assert!(
                run_spec(&Flags::parse(&strings(&bad), &[]).unwrap()).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(22, 0, vec![("join_wall_s".into(), metric_value(0.25, "s"))]);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.to_string(),
            r#"{"correct":true,"attempted":22,"failed":0,"metrics":{"join_wall_s":{"value":0.25,"unit":"s"}}}"#
        );
        assert_eq!(
            result_line(5, 1, vec![]).get("correct"),
            Some(&Value::Bool(false))
        );
    }

    /// `BENCHMARK.json` and the catalogue in `metrics.rs` / `workloads.rs`
    /// name the same things. Skipped when the file is not there (the
    /// package can be tested outside the repository).
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let b = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            b.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let ours: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), ours);
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0));
        for (m, j) in END_TO_END
            .iter()
            .zip(b.get("end_to_end").and_then(Value::as_arr).unwrap())
        {
            assert_eq!(
                j.get("unit").and_then(Value::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(
                j.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        for (m, j) in PER_LAYER
            .iter()
            .zip(b.get("per_layer").and_then(Value::as_arr).unwrap())
        {
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.1), "{}", m.0);
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.2.as_str()),
                "{}",
                m.0
            );
        }
        assert_eq!(
            b.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
