#!/usr/bin/env python3
"""Folds pairs-<workload>-<seed>.log into per-side result files (median, p25, p75 per
metric, the `ij-perf all --out` shape `ij-perf compare` reads) and prints a markdown table.
The count columns print both sides: the change moves them, and each must repeat exactly
across one side's runs."""
import json, sys, os, statistics
d, seed = sys.argv[1], int(sys.argv[2])
suffix = sys.argv[3] if len(sys.argv) > 3 else ""
W = ["q1_dense_count", "q1_sparse_shuffle", "q1_sparse_spill", "q0_dense_materialize", "clique_zipf_count", "q4_hybrid_pasm"]
E2E = ["join_wall_s", "intervals_per_s", "join_cpu_s", "peak_rss_mb", "shuffle_pairs", "shuffle_bytes", "max_reducer_pairs", "setup_s"]
def q(xs, p):
    xs = sorted(xs); k = (len(xs) - 1) * p; lo = int(k); hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
files = {"parent": [], "change": []}
rows = []
for w in W:
    path = os.path.join(d, f"pairs-{w}-{seed}{suffix}.log")
    if not os.path.exists(path): continue
    runs = {"parent": {}, "change": {}}
    for line in open(path):
        side, i, js = line.split(" ", 2)
        runs[side][int(i)] = json.loads(js)
    n = min(len(runs["parent"]), len(runs["change"]))
    if n == 0: continue
    agg = {}
    for side in runs:
        rs = [runs[side][i] for i in sorted(runs[side])][:n]
        ms = {}
        for m in E2E:
            vals = [r["metrics"][m]["value"] for r in rs]
            ms[m] = {"value": statistics.median(vals), "unit": rs[0]["metrics"][m]["unit"], "p25": q(vals, .25), "p75": q(vals, .75), "n": len(vals)}
        att = sum(r["attempted"] for r in rs); fail = sum(r["failed"] for r in rs)
        ok = all(r["correct"] for r in rs)
        files[side].append({"workload": w, "seed": seed, "metrics": ms, "attempted": att, "failed": fail, "info": {"failed_frac": fail / max(att, 1)}})
        agg[side] = (ms, rs, ok, fail)
    P, C = agg["parent"], agg["change"]
    wins = sum(1 for i in range(1, n + 1) if runs["change"][i]["metrics"]["join_wall_s"]["value"] < runs["parent"][i]["metrics"]["join_wall_s"]["value"])
    # Each side's counts repeat exactly across its runs; the sides differ.
    counts_repeat = all(len({r["metrics"][m]["value"] for r in rs}) == 1 for rs in (P[1], C[1]) for m in ["shuffle_pairs", "shuffle_bytes", "max_reducer_pairs"])
    count = lambda side, m: f"{side[0][m]['value']:.0f}"
    pj, cj = P[0]["join_wall_s"], C[0]["join_wall_s"]
    iqr = pj["p75"] - pj["p25"]; delta = cj["value"] - pj["value"]
    spread = max(iqr / pj["value"], (cj["p75"] - cj["p25"]) / cj["value"])
    all_c_better = max(r["metrics"]["join_wall_s"]["value"] for r in C[1]) < min(r["metrics"]["join_wall_s"]["value"] for r in P[1])
    if abs(delta) <= iqr: verdict = "same"
    elif delta < 0: verdict = "better" if wins >= 0.9 * n else "same (faster median, < 9/10 pairs)"
    else: verdict = "worse" if delta / pj["value"] > 0.25 else "slower median, inside the 25 % bound"
    if spread > 0.25 and not all_c_better: verdict = "unresolved"
    f = lambda m, k="value", fmt="{:.4f}": fmt.format(m[k])
    rows.append(f"| `{w}` | {f(pj,'p25')} / {f(pj)} / {f(pj,'p75')} | {f(cj,'p25')} / {f(cj)} / {f(cj,'p75')} | {cj['value']/pj['value']:.3f} | {wins}/{n} | "
                f"{P[0]['join_cpu_s']['value']:.3f} → {C[0]['join_cpu_s']['value']:.3f} | {P[0]['intervals_per_s']['value']:.0f} → {C[0]['intervals_per_s']['value']:.0f} | "
                f"{P[0]['peak_rss_mb']['value']:.1f} → {C[0]['peak_rss_mb']['value']:.1f} | {P[0]['setup_s']['value']:.3f} → {C[0]['setup_s']['value']:.3f} | "
                f"{count(P,'shuffle_pairs')} → {count(C,'shuffle_pairs')} | {count(P,'shuffle_bytes')} → {count(C,'shuffle_bytes')} | {count(P,'max_reducer_pairs')} → {count(C,'max_reducer_pairs')} | "
                f"{'yes' if counts_repeat else 'NO'} | {P[3] + C[3]} | {verdict} |")
for side in files:
    out = {"benchmark": "ij-perf", "kind": "ten alternating pairs, aggregated", "seed": seed, "workloads": files[side]}
    json.dump(out, open(os.path.join(d, f"pairs-{side}-{seed}{suffix}.json"), "w"), indent=1)
print("| workload | `join_wall_s` parent p25 / med / p75 | change p25 / med / p75 | ratio of medians | pairs change faster | `join_cpu_s` med P → C | `intervals_per_s` med P → C | `peak_rss_mb` med P → C | `setup_s` med P → C | `shuffle_pairs` P → C | `shuffle_bytes` P → C | `max_reducer_pairs` P → C | counts repeat per side | failed ops | verdict (`join_wall_s`) |")
print("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|")
print("\n".join(rows))
