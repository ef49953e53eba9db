//! Bench trend gate: compares a fresh `BENCH_kernel.json` (or
//! `BENCH_shuffle.json`) against the previous CI run's artifact and fails
//! on regressions.
//!
//! The vendored criterion stub appends one JSON line per benchmark when
//! `BENCH_JSON` is set — `{"id":"<group>/<bench>","mean_ns":N,"iters":N}`.
//! This binary hand-parses that JSONL (the vendored serde_json has no
//! deserializer), matches benchmark ids between the two files, aggregates
//! per-id speed ratios into a geometric mean per kernel *group* (the id
//! prefix before `/`), and exits non-zero when any group regressed past
//! the threshold. A missing baseline (first run, expired artifact) is a
//! clean skip — exit 0 — so the CI step degrades gracefully.
//!
//! Run: `bench_trend --baseline prev/BENCH_kernel.json --current BENCH_kernel.json
//!       [--threshold 25]`

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed benchmark line.
#[derive(Debug, Clone, PartialEq)]
struct BenchLine {
    id: String,
    mean_ns: u64,
}

/// Extracts the JSON string value of `"id"` from one JSONL line,
/// un-escaping `\"` and `\\` (the only escapes the stub emits besides
/// control-character `\u` sequences, which kernel bench ids never use).
fn parse_id(line: &str) -> Option<String> {
    let start = line.find("\"id\":\"")? + 6;
    let bytes = line.as_bytes();
    let mut out = String::new();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if i + 1 < bytes.len() => {
                out.push(bytes[i + 1] as char);
                i += 2;
            }
            b'"' => return Some(out),
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    None
}

/// Extracts the integer value of `"mean_ns"` from one JSONL line.
fn parse_mean_ns(line: &str) -> Option<u64> {
    let start = line.find("\"mean_ns\":")? + 10;
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Parses a whole JSONL summary; malformed lines are skipped.
fn parse_summary(src: &str) -> Vec<BenchLine> {
    src.lines()
        .filter_map(|l| {
            Some(BenchLine {
                id: parse_id(l)?,
                mean_ns: parse_mean_ns(l)?,
            })
        })
        .collect()
}

/// The group of a benchmark id: the prefix before the first `/` (ids
/// without one form their own group).
fn group_of(id: &str) -> &str {
    id.split('/').next().unwrap_or(id)
}

/// Per-group geometric-mean ratio current/baseline over ids present in
/// both files, with the number of matched benchmarks.
fn group_ratios(baseline: &[BenchLine], current: &[BenchLine]) -> BTreeMap<String, (f64, usize)> {
    let base: BTreeMap<&str, u64> = baseline
        .iter()
        .map(|b| (b.id.as_str(), b.mean_ns))
        .collect();
    let mut log_sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for c in current {
        let Some(&b) = base.get(c.id.as_str()) else {
            continue;
        };
        if b == 0 || c.mean_ns == 0 {
            continue;
        }
        let entry = log_sums
            .entry(group_of(&c.id).to_string())
            .or_insert((0.0, 0));
        entry.0 += (c.mean_ns as f64 / b as f64).ln();
        entry.1 += 1;
    }
    log_sums
        .into_iter()
        .map(|(g, (sum, n))| (g, ((sum / n as f64).exp(), n)))
        .collect()
}

struct TrendArgs {
    baseline: String,
    current: String,
    threshold_pct: f64,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<TrendArgs, String> {
    let mut baseline = None;
    let mut current = None;
    let mut threshold_pct = 25.0;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--current" => current = Some(value("--current")?),
            "--threshold" => {
                threshold_pct = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
                if threshold_pct <= 0.0 {
                    return Err("--threshold must be positive".into());
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(TrendArgs {
        baseline: baseline.ok_or("--baseline is required")?,
        current: current.ok_or("--current is required")?,
        threshold_pct,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: bench_trend --baseline <prev.json> --current <new.json> \
                 [--threshold <pct, default 25>]"
            );
            return ExitCode::from(2);
        }
    };
    let Ok(base_src) = std::fs::read_to_string(&args.baseline) else {
        println!(
            "bench-trend: no baseline at {} — first run or expired artifact, skipping",
            args.baseline
        );
        return ExitCode::SUCCESS;
    };
    let cur_src = match std::fs::read_to_string(&args.current) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read current summary {}: {e}", args.current);
            return ExitCode::from(2);
        }
    };
    let baseline = parse_summary(&base_src);
    let current = parse_summary(&cur_src);
    if baseline.is_empty() || current.is_empty() {
        println!(
            "bench-trend: empty summary (baseline {} lines, current {} lines) — skipping",
            baseline.len(),
            current.len()
        );
        return ExitCode::SUCCESS;
    }
    let ratios = group_ratios(&baseline, &current);
    if ratios.is_empty() {
        println!("bench-trend: no benchmark ids in common — skipping");
        return ExitCode::SUCCESS;
    }
    let limit = 1.0 + args.threshold_pct / 100.0;
    let mut regressed = Vec::new();
    println!("bench-trend: geometric-mean time ratio per kernel group (current/baseline):");
    for (group, (ratio, n)) in &ratios {
        let verdict = if *ratio > limit { "REGRESSED" } else { "ok" };
        println!("  {group:24} {ratio:6.3}x over {n:3} benches  {verdict}");
        if *ratio > limit {
            regressed.push(group.clone());
        }
    }
    if regressed.is_empty() {
        println!(
            "bench-trend: PASS — no group slower than {:.0}% over baseline",
            args.threshold_pct
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench-trend: FAIL — groups {:?} regressed more than {:.0}%",
            regressed, args.threshold_pct
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "{\"id\":\"sweep/n1000\",\"mean_ns\":1000,\"iters\":10}\n\
                        {\"id\":\"sweep/n4000\",\"mean_ns\":4000,\"iters\":10}\n\
                        {\"id\":\"merge/n1000\",\"mean_ns\":2000,\"iters\":10}\n";

    #[test]
    fn parses_ids_and_means() {
        let lines = parse_summary(BASE);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].id, "sweep/n1000");
        assert_eq!(lines[0].mean_ns, 1000);
        assert_eq!(group_of(&lines[2].id), "merge");
    }

    #[test]
    fn unescapes_quoted_ids() {
        let l = "{\"id\":\"group/with \\\"quote\\\"\",\"mean_ns\":1500,\"iters\":42}";
        assert_eq!(parse_id(l).as_deref(), Some("group/with \"quote\""));
        assert_eq!(parse_mean_ns(l), Some(1500));
    }

    #[test]
    fn ratios_are_per_group_geomeans() {
        let base = parse_summary(BASE);
        // sweep regressed 2x on one bench, unchanged on the other; merge
        // improved 2x.
        let cur = parse_summary(
            "{\"id\":\"sweep/n1000\",\"mean_ns\":2000,\"iters\":10}\n\
             {\"id\":\"sweep/n4000\",\"mean_ns\":4000,\"iters\":10}\n\
             {\"id\":\"merge/n1000\",\"mean_ns\":1000,\"iters\":10}\n\
             {\"id\":\"new/only_in_current\",\"mean_ns\":5,\"iters\":1}\n",
        );
        let r = group_ratios(&base, &cur);
        assert_eq!(r.len(), 2, "{r:?}");
        let (sweep, n) = r["sweep"];
        assert_eq!(n, 2);
        assert!((sweep - std::f64::consts::SQRT_2).abs() < 1e-9, "{sweep}");
        let (merge, _) = r["merge"];
        assert!((merge - 0.5).abs() < 1e-9, "{merge}");
    }

    /// A whole group present only in the current summary — e.g.
    /// `kernel_event_sweep` on the first run after the bench lands —
    /// contributes no ratio and cannot fail the gate; existing groups are
    /// still checked.
    #[test]
    fn new_group_missing_from_baseline_is_skipped() {
        let base = parse_summary(BASE);
        let cur = parse_summary(
            "{\"id\":\"sweep/n1000\",\"mean_ns\":1000,\"iters\":10}\n\
             {\"id\":\"kernel_event_sweep/event_sweep\",\"mean_ns\":4790000,\"iters\":42}\n\
             {\"id\":\"kernel_event_sweep/dual_window_sweep\",\"mean_ns\":13650000,\"iters\":15}\n",
        );
        let r = group_ratios(&base, &cur);
        assert!(
            !r.contains_key("kernel_event_sweep"),
            "unmatched group must not be gated: {r:?}"
        );
        let (sweep, n) = r["sweep"];
        assert_eq!((n, sweep), (1, 1.0), "matched group still compared");
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let src = "not json at all\n\
                   {\"id\":\"sweep/ok\",\"mean_ns\":100,\"iters\":1}\n\
                   {\"id\":\"sweep/no_mean\",\"iters\":1}\n\
                   {\"mean_ns\":500,\"iters\":1}\n\
                   {\"id\":\"sweep/bad_mean\",\"mean_ns\":\"fast\",\"iters\":1}\n\
                   {\"id\":\"unterminated\n";
        let lines = parse_summary(src);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert_eq!(
            lines[0],
            BenchLine {
                id: "sweep/ok".into(),
                mean_ns: 100
            }
        );
    }

    #[test]
    fn ids_without_group_separator_form_their_own_group() {
        let base = parse_summary("{\"id\":\"loner\",\"mean_ns\":100,\"iters\":1}\n");
        assert_eq!(group_of(&base[0].id), "loner");
        let cur = parse_summary("{\"id\":\"loner\",\"mean_ns\":200,\"iters\":1}\n");
        let r = group_ratios(&base, &cur);
        assert_eq!(r.len(), 1);
        let (ratio, n) = r["loner"];
        assert_eq!(n, 1);
        assert!((ratio - 2.0).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn empty_baseline_yields_no_ratios() {
        let cur = parse_summary(BASE);
        assert!(group_ratios(&[], &cur).is_empty());
        assert!(group_ratios(&cur, &[]).is_empty());
        assert!(parse_summary("").is_empty());
        // Zero means never divide: the pair is dropped, not Inf/NaN.
        let zero = parse_summary("{\"id\":\"sweep/n1000\",\"mean_ns\":0,\"iters\":1}\n");
        let base = parse_summary(BASE);
        assert!(group_ratios(&base, &zero).is_empty());
        assert!(group_ratios(&zero, &base).is_empty());
    }

    #[test]
    fn arg_parsing_requires_paths() {
        assert!(parse_args(Vec::<String>::new()).is_err());
        let ok = parse_args(
            ["--baseline", "a", "--current", "b", "--threshold", "10"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(ok.baseline, "a");
        assert_eq!(ok.threshold_pct, 10.0);
        assert!(parse_args(
            ["--baseline", "a", "--current", "b", "--threshold", "-1"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
    }
}
