//! `ij-perf compare a.json b.json`: one row per workload × end-to-end
//! metric, `b` judged against `a` by the benchmark's own bounds.

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END, FAILED_FRAC};
use crate::stats::Quartiles;
use std::path::Path;
use std::process::ExitCode;

/// How `b` stands against `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// Better by more than the bound.
    Better,
    /// Within the bound, but a side's own spread is wider than the bound,
    /// so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of `a`'s median by which `b` is worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

/// The bound `compare` applies: the tighter one when both files come from
/// one seed (0 for the counts the program makes: they repeat exactly).
pub fn bound_for(m: &EndToEnd, same_seed: bool) -> f64 {
    if same_seed {
        m.same_seed_bound
    } else {
        m.bound
    }
}

/// Judges one metric.
pub fn judge(m: &EndToEnd, a: &Quartiles, b: &Quartiles, same_seed: bool) -> Verdict {
    let bound = bound_for(m, same_seed);
    let w = worse_by(m.better, a.median, b.median);
    if w > bound {
        Verdict::Worse
    } else if -w > bound {
        Verdict::Better
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads(v: &Value) -> Result<&[Value], String> {
    v.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "not an ij-perf result file: no \"workloads\" array".to_string())
}

/// The quartiles of metric `m` in one workload entry. `failed_frac` lives
/// under `info` and has no spread.
fn quartiles_of(entry: &Value, m: &EndToEnd) -> Option<Quartiles> {
    if m.name == FAILED_FRAC.name {
        let v = entry.get("info")?.get(m.name)?.as_f64()?;
        return Some(Quartiles::flat(v));
    }
    let metric = entry.get("metrics")?.get(m.name)?;
    let num = |k: &str| metric.get(k).and_then(Value::as_f64);
    let median = num("value")?;
    Some(Quartiles {
        p25: num("p25").unwrap_or(median),
        median,
        p75: num("p75").unwrap_or(median),
    })
}

/// Compares two result files; the exit code is non-zero on any `worse`.
pub fn main(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut worse = 0usize;
    let mut rows = 0usize;
    println!(
        "{:<22} {:<18} {:>14} {:>22} {:>14} {:>22} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "a p25..p75", "b", "b p25..p75", "delta", "bound"
    );
    for ea in workloads(&a)? {
        let name = ea.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(eb) = workloads(&b)?
            .iter()
            .find(|e| e.get("workload").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<22} missing from {}", b_path.display());
            worse += 1;
            continue;
        };
        let same_seed = ea.get("seed").is_some() && ea.get("seed") == eb.get("seed");
        for m in END_TO_END.iter().chain([&FAILED_FRAC]) {
            let (Some(qa), Some(qb)) = (quartiles_of(ea, m), quartiles_of(eb, m)) else {
                continue;
            };
            let verdict = judge(m, &qa, &qb, same_seed);
            worse += usize::from(verdict == Verdict::Worse);
            rows += 1;
            println!(
                "{:<22} {:<18} {:>14.6} {:>10.4}..{:<10.4} {:>14.6} {:>10.4}..{:<10.4} {:>+8.2}% {:>5.0}%  {}",
                name,
                m.name,
                qa.median,
                qa.p25,
                qa.p75,
                qb.median,
                qb.p25,
                qb.p75,
                // Signed so that positive is worse, whatever the direction.
                100.0 * worse_by(m.better, qa.median, qb.median),
                100.0 * bound_for(m, same_seed),
                verdict.as_str()
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload with end-to-end metrics".into());
    }
    println!("{rows} rows, {worse} worse (delta: positive is worse)");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Quartiles {
        Quartiles::flat(v)
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(Better::Lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 1.0, 0.9) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.1), f64::INFINITY);
    }

    #[test]
    fn timings_are_judged_by_their_bound() {
        let wall = metric("join_wall_s");
        assert_eq!(judge(wall, &flat(1.0), &flat(1.05), true), Verdict::Same);
        assert_eq!(judge(wall, &flat(1.0), &flat(1.11), true), Verdict::Worse);
        assert_eq!(judge(wall, &flat(1.0), &flat(0.85), true), Verdict::Better);
        let rate = metric("intervals_per_s");
        assert_eq!(
            judge(rate, &flat(1000.0), &flat(850.0), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, &flat(1000.0), &flat(1200.0), true),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        let wall = metric("join_wall_s");
        let noisy = Quartiles {
            p25: 0.9,
            median: 1.0,
            p75: 1.1,
        };
        assert_eq!(judge(wall, &noisy, &flat(1.02), true), Verdict::Unresolved);
        assert_eq!(judge(wall, &flat(1.0), &noisy, true), Verdict::Unresolved);
        // A clear regression stays a regression however noisy a side is.
        assert_eq!(judge(wall, &noisy, &flat(1.3), true), Verdict::Worse);
    }

    #[test]
    fn counts_are_exact_for_one_seed_and_bounded_across_seeds() {
        let pairs = metric("shuffle_pairs");
        assert_eq!(
            judge(pairs, &flat(380_206.0), &flat(380_206.0), true),
            Verdict::Same
        );
        assert_eq!(
            judge(pairs, &flat(380_206.0), &flat(380_207.0), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(pairs, &flat(380_206.0), &flat(380_205.0), true),
            Verdict::Better
        );
        assert_eq!(
            judge(pairs, &flat(380_206.0), &flat(380_900.0), false),
            Verdict::Same
        );
        assert_eq!(
            judge(&FAILED_FRAC, &flat(0.0), &flat(0.0), false),
            Verdict::Same
        );
        assert_eq!(
            judge(&FAILED_FRAC, &flat(0.0), &flat(0.05), false),
            Verdict::Worse
        );
    }

    #[test]
    fn quartiles_come_from_metrics_and_failed_frac_from_info() {
        let entry = json::parse(
            r#"{"workload":"w","metrics":{"join_wall_s":{"value":1.0,"unit":"s","p25":0.9,"p75":1.2,"n":20},
                "shuffle_pairs":{"value":10,"unit":"count"}},"info":{"failed_frac":0.5}}"#,
        )
        .unwrap();
        let q = quartiles_of(&entry, metric("join_wall_s")).unwrap();
        assert_eq!((q.p25, q.median, q.p75), (0.9, 1.0, 1.2));
        assert_eq!(
            quartiles_of(&entry, metric("shuffle_pairs")).unwrap(),
            flat(10.0)
        );
        assert_eq!(quartiles_of(&entry, &FAILED_FRAC).unwrap(), flat(0.5));
        assert_eq!(quartiles_of(&entry, metric("setup_s")), None);
    }
}
