//! `ij-perf all`: every workload, each in its own child process, one
//! after another; collects the children's results into one JSON file.

use crate::json::{self, Value};
use crate::workloads::{Workload, WORKLOADS};
use crate::{default_out_dir, write_file};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Size multiplier and op count of `--smoke`.
const SMOKE_SCALE: &str = "0.02";
const SMOKE_OPS: &str = "2";

/// What `all` was asked to do.
pub struct AllSpec {
    /// Seed passed to every workload.
    pub seed: u64,
    /// Length of every timed loop.
    pub seconds: f64,
    /// Run the traced set instead of the untraced one.
    pub traced: bool,
    /// Tiny sizes, two ops, traced and untraced.
    pub smoke: bool,
    /// Result file; `out/result[-traced|-smoke].json` by default.
    pub out: Option<PathBuf>,
}

/// Runs one workload in a child process and returns its detail object.
fn run_child(spec: &AllSpec, w: &Workload, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let detail = default_out_dir().join(format!(
        "{}-{}.json",
        w.name,
        if traced { "traced" } else { "untraced" }
    ));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail-out")
        .arg(&detail);
    if spec.smoke {
        cmd.args(["--scale", SMOKE_SCALE, "--ops", SMOKE_OPS]);
    }
    let status = cmd
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", w.name))?;
    if !status.success() {
        return Err(format!("{} ended with {status}", w.name));
    }
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("cannot read {}: {e}", detail.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", detail.display()))
}

/// Looks a per-layer metric up by name.
type Lookup<'a> = &'a dyn Fn(&str) -> f64;

/// A prediction of the form "this layer does not matter on this workload",
/// checked against the traced numbers and printed — never failed on: a
/// later change may legitimately move a layer's share.
struct Prediction {
    workloads: &'static [&'static str],
    what: &'static str,
    /// The measured quantity, from a lookup of per-layer metrics.
    measured: fn(Lookup) -> f64,
    /// Whether the measured quantity satisfies the prediction.
    holds: fn(f64) -> bool,
}

const SPARSE: &[&str] = &["q1_sparse_shuffle", "q1_sparse_spill"];
const DENSE: &[&str] = &[
    "q1_dense_count",
    "q0_dense_materialize",
    "clique_zipf_count",
    "q4_hybrid_pasm",
];
const NO_SPILL: &[&str] = &[
    "q1_dense_count",
    "q1_sparse_shuffle",
    "q0_dense_materialize",
    "clique_zipf_count",
    "q4_hybrid_pasm",
];

const PREDICTIONS: [Prediction; 5] = [
    Prediction {
        workloads: SPARSE,
        what: "core.kernel.replay_serial_s / core.run_s < 0.05",
        measured: |m| m("core.kernel.replay_serial_s") / m("core.run_s"),
        holds: |share| share < 0.05,
    },
    Prediction {
        workloads: &["q1_dense_count"],
        what: "(mapreduce.map_s + mapreduce.shuffle_s) / core.run_s < 0.05",
        measured: |m| (m("mapreduce.map_s") + m("mapreduce.shuffle_s")) / m("core.run_s"),
        holds: |share| share < 0.05,
    },
    Prediction {
        workloads: DENSE,
        what: "interval.ops_s / core.run_s < 0.05",
        measured: |m| m("interval.ops_s") / m("core.run_s"),
        holds: |share| share < 0.05,
    },
    Prediction {
        workloads: NO_SPILL,
        what: "every mapreduce.spill.* metric is 0 (their sum)",
        measured: |m| {
            m("mapreduce.spill_s")
                + m("mapreduce.spill.buckets")
                + m("mapreduce.spill.runs")
                + m("mapreduce.spill.bytes")
                + m("mapreduce.passthrough_spill_s")
        },
        holds: |sum| sum == 0.0,
    },
    Prediction {
        workloads: &["q1_sparse_spill"],
        what: "buckets spill: mapreduce.spill.bytes > 0",
        measured: |m| m("mapreduce.spill.bytes"),
        holds: |bytes| bytes > 0.0,
    },
];

/// Prints, for one traced workload, whether each prediction about it holds.
fn print_predictions(name: &str, detail: &Value) {
    let lookup = |metric: &str| {
        detail
            .get("per_layer")
            .and_then(|p| p.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    for p in PREDICTIONS.iter().filter(|p| p.workloads.contains(&name)) {
        let measured = (p.measured)(&lookup);
        let verdict = if (p.holds)(measured) {
            "holds"
        } else {
            "DOES NOT HOLD"
        };
        println!(
            "  prediction on {name}: {} — measured {measured:.4}, {verdict}",
            p.what
        );
    }
}

/// Merges the traced child's fields into the untraced child's object.
fn merge(into: &mut Value, other: Value) {
    if let (Value::Obj(dst), Value::Obj(src)) = (into, other) {
        for (k, v) in src {
            if !dst.iter().any(|(have, _)| *have == k) {
                dst.push((k, v));
            }
        }
    }
}

/// Runs the set and writes the result file.
pub fn main(spec: &AllSpec) -> Result<ExitCode, String> {
    // Which children run per workload (`true` = traced).
    let (kind, modes): (&str, &[bool]) = match (spec.smoke, spec.traced) {
        (true, _) => ("smoke", &[false, true]),
        (false, true) => ("traced", &[true]),
        (false, false) => ("untraced", &[false]),
    };
    let start = Instant::now();
    let mut results = Vec::new();
    let mut errors = Vec::new();
    for w in &WORKLOADS {
        let mut entry: Option<Value> = None;
        for &traced in modes {
            match run_child(spec, w, traced) {
                Ok(detail) => {
                    if traced && !spec.smoke {
                        print_predictions(w.name, &detail);
                    }
                    match &mut entry {
                        Some(e) => merge(e, detail),
                        None => entry = Some(detail),
                    }
                }
                Err(e) => {
                    eprintln!("ij-perf: {e}");
                    errors.push(e);
                }
            }
        }
        results.extend(entry);
    }
    let result = Value::obj([
        ("benchmark", Value::from("ij-perf")),
        ("kind", Value::from(kind)),
        ("seed", Value::from(spec.seed)),
        ("seconds", Value::from(spec.seconds)),
        ("wall_s", Value::from(start.elapsed().as_secs_f64())),
        (
            "errors",
            Value::Arr(errors.iter().map(|e| Value::from(e.as_str())).collect()),
        ),
        ("workloads", Value::Arr(results)),
    ]);
    let out = spec
        .out
        .clone()
        .unwrap_or_else(|| default_out_dir().join(format!("result-{kind}.json")));
    write_file(&out, &result.to_pretty())?;
    println!(
        "{kind} set: {} workloads in {:.1} s, {} failed -> {}",
        WORKLOADS.len(),
        start.elapsed().as_secs_f64(),
        errors.len(),
        out.display()
    );
    Ok(if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_prediction_names_real_workloads_and_metrics() {
        for p in &PREDICTIONS {
            for w in p.workloads {
                assert!(Workload::by_name(w).is_some(), "{w}");
            }
            // A lookup that panics on an unknown metric name.
            let strict = |name: &str| {
                assert!(
                    crate::metrics::PER_LAYER.iter().any(|m| m.0 == name),
                    "prediction reads unknown metric {name}"
                );
                0.0
            };
            (p.measured)(&strict);
        }
    }

    #[test]
    fn merge_keeps_existing_members() {
        let mut a = Value::obj([("workload", Value::from("w")), ("metrics", Value::Null)]);
        let b = Value::obj([
            ("workload", Value::from("other")),
            ("per_layer", Value::from(1.0)),
        ]);
        merge(&mut a, b);
        assert_eq!(a.get("workload"), Some(&Value::from("w")));
        assert_eq!(a.get("per_layer"), Some(&Value::from(1.0)));
        assert_eq!(a.as_obj().unwrap().len(), 3);
    }
}
