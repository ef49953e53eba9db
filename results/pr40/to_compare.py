#!/usr/bin/env python3
"""Folds a rounds.py log into one `ij-perf compare` result file per
(build, seed): per workload, each end-to-end metric's median, p25 and p75
over the build's runs, and the share of failed operations.

Usage: to_compare.py LOG OUT_DIR   (writes OUT_DIR/<build>-<seed>.json)
"""
import json
import statistics
import sys


def q(xs, p):
    xs = sorted(xs)
    k = (len(xs) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


runs = {}
for line in open(sys.argv[1]):
    name, seed, workload, _, js = line.split(' ', 4)
    runs.setdefault((name, seed), {}).setdefault(workload, []).append(json.loads(js))
for (name, seed), workloads in sorted(runs.items()):
    entries = []
    for workload, rs in workloads.items():
        metrics = {}
        for m in rs[0]['metrics']:
            xs = [r['metrics'][m]['value'] for r in rs]
            metrics[m] = {'value': statistics.median(xs), 'p25': q(xs, .25), 'p75': q(xs, .75),
                          'unit': rs[0]['metrics'][m]['unit']}
        attempted = sum(r['attempted'] for r in rs)
        failed = sum(r['failed'] for r in rs)
        entries.append({'workload': workload, 'seed': int(seed), 'metrics': metrics,
                        'info': {'failed_frac': failed / attempted if attempted else 0.0}})
    with open(f'{sys.argv[2]}/{name}-{seed}.json', 'w') as f:
        json.dump({'workloads': entries}, f, indent=1)
