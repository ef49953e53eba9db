//! Scaling the paper's workload sizes to the host machine.
//!
//! The paper's experiments run at cluster scale (up to 5M intervals and 3M
//! packet trains). Every bench binary accepts `--scale f` (default: a
//! binary-specific laptop-friendly value) and multiplies the paper's counts
//! by `f`; `--scale 1.0` reproduces the paper's sizes exactly. The quantity
//! being reproduced is the *shape* of each table — which algorithm wins and
//! by roughly what factor — which is preserved under scaling because the
//! compared costs (communication volume, straggler load, intermediate
//! result size) scale together.

use ij_mapreduce::SchedPolicy;
use std::fmt;

/// A scale factor with helpers for applying it to the paper's counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Applies the factor to a count, keeping at least 1.
    pub fn apply(&self, paper_count: u64) -> usize {
        ((paper_count as f64 * self.0).round() as usize).max(1)
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Minimal CLI argument parser shared by the bench binaries.
///
/// Recognized flags: `--scale <f64>`, `--seed <u64>`, `--json <path>`,
/// `--slots <usize>`, `--trace <path>`, `--budget <bytes>`,
/// `--metrics-out <path>`, `--sched <policy>`, `--help`.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Workload scale relative to the paper.
    pub scale: Scale,
    /// RNG seed.
    pub seed: u64,
    /// Where to write the machine-readable results (JSON), if anywhere.
    pub json: Option<String>,
    /// Reduce slots of the simulated cluster (paper: 16).
    pub slots: usize,
    /// Where to write a Chrome trace-event JSON of every job run (open in
    /// `chrome://tracing` or Perfetto), if anywhere. Setting this or
    /// `metrics_out` attaches one observer to the engine.
    pub trace: Option<String>,
    /// Reduce-memory budget in approx bytes per reducer bucket; buckets
    /// exceeding it spill to the Dfs. `None` (the default) keeps every
    /// bucket in memory.
    pub budget: Option<u64>,
    /// Where to write the telemetry snapshot in Prometheus text
    /// exposition format after the run, if anywhere.
    pub metrics_out: Option<String>,
    /// Intra-reduce thread-grant policy (`skew` | `serial`);
    /// defaults to the engine's skew-driven scheduler. Output bytes are
    /// policy-invariant — only wall-clock and the `sched.*` counters move.
    pub sched: SchedPolicy,
}

impl BenchArgs {
    /// Parses `std::env::args`, with a binary-specific default scale.
    /// Prints usage and exits on `--help` or parse errors.
    pub fn parse(default_scale: f64, about: &str) -> BenchArgs {
        Self::parse_from(std::env::args().skip(1), default_scale, about)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}\n");
                eprintln!("{about}");
                eprintln!(
                    "flags: --scale <f64>  (default {default_scale}; 1.0 = paper scale)\n       --seed <u64>   (default 42)\n       --json <path>  (write results as JSON)\n       --slots <n>    (reduce slots, default 16)\n       --trace <path> (write a Chrome trace of every job)\n       --budget <u64> (reduce-memory budget in bytes; oversized buckets spill)\n       --metrics-out <path> (write a Prometheus text snapshot of the run's telemetry)\n       --sched <skew|serial> (intra-reduce grant policy, default skew)"
                );
                std::process::exit(2);
            })
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_scale: f64,
        about: &str,
    ) -> Result<BenchArgs, String> {
        let mut out = BenchArgs {
            scale: Scale(default_scale),
            seed: 42,
            json: None,
            slots: 16,
            trace: None,
            budget: None,
            metrics_out: None,
            sched: SchedPolicy::default(),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    out.scale = Scale(
                        value("--scale")?
                            .parse::<f64>()
                            .map_err(|e| format!("--scale: {e}"))?,
                    );
                    if out.scale.0 <= 0.0 {
                        return Err("--scale must be positive".into());
                    }
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--json" => out.json = Some(value("--json")?),
                "--budget" => {
                    out.budget = Some(
                        value("--budget")?
                            .parse()
                            .map_err(|e| format!("--budget: {e}"))?,
                    )
                }
                "--trace" => out.trace = Some(value("--trace")?),
                "--metrics-out" => out.metrics_out = Some(value("--metrics-out")?),
                "--sched" => {
                    out.sched = value("--sched")?
                        .parse()
                        .map_err(|e| format!("--sched: {e}"))?
                }
                "--slots" => {
                    out.slots = value("--slots")?
                        .parse()
                        .map_err(|e| format!("--slots: {e}"))?
                }
                "--help" | "-h" => return Err(about.to_string()),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let a = BenchArgs::parse_from(sv(&[]), 0.05, "t").unwrap();
        assert_eq!(a.scale.0, 0.05);
        assert_eq!(a.seed, 42);
        assert_eq!(a.slots, 16);
        assert!(a.json.is_none());
        assert!(a.trace.is_none());
        assert!(a.budget.is_none());
        assert!(a.metrics_out.is_none());
        assert_eq!(a.sched, SchedPolicy::SkewDriven);
    }

    #[test]
    fn parses_flags() {
        let a = BenchArgs::parse_from(
            sv(&[
                "--scale",
                "0.5",
                "--seed",
                "7",
                "--json",
                "out.json",
                "--slots",
                "4",
                "--trace",
                "t.json",
                "--budget",
                "4096",
                "--metrics-out",
                "m.prom",
                "--sched",
                "serial",
            ]),
            0.05,
            "t",
        )
        .unwrap();
        assert_eq!(a.scale.0, 0.5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.slots, 4);
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert_eq!(a.budget, Some(4096));
        assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(a.sched, SchedPolicy::AllSerial);
    }

    #[test]
    fn sched_parses_every_policy_and_rejects_unknown() {
        for (flag, want) in [
            ("skew", SchedPolicy::SkewDriven),
            ("serial", SchedPolicy::AllSerial),
        ] {
            let a = BenchArgs::parse_from(sv(&["--sched", flag]), 0.1, "t").unwrap();
            assert_eq!(a.sched, want);
        }
        assert!(BenchArgs::parse_from(sv(&["--sched"]), 0.1, "t").is_err());
        assert!(BenchArgs::parse_from(sv(&["--sched", "greedy"]), 0.1, "t").is_err());
        assert!(BenchArgs::parse_from(sv(&["--sched", "uniform"]), 0.1, "t").is_err());
    }

    #[test]
    fn metrics_out_needs_a_value() {
        assert!(BenchArgs::parse_from(sv(&["--metrics-out"]), 0.1, "t").is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(BenchArgs::parse_from(sv(&["--scale"]), 0.1, "t").is_err());
        assert!(BenchArgs::parse_from(sv(&["--scale", "-1"]), 0.1, "t").is_err());
        assert!(BenchArgs::parse_from(sv(&["--wat"]), 0.1, "t").is_err());
        assert!(BenchArgs::parse_from(sv(&["--budget", "x"]), 0.1, "t").is_err());
    }

    #[test]
    fn scale_applies_with_floor() {
        assert_eq!(Scale(0.01).apply(500_000), 5000);
        assert_eq!(Scale(1e-9).apply(10), 1);
    }
}
