#!/usr/bin/env python3
"""Alternating traced runs (`--trace 1`) of one workload per side; prints the median
of every per-layer metric, parent → change.

Usage: traced.py RUNS WORKLOAD SEED PARENT_DIR PARENT_EXE CHANGE_DIR CHANGE_EXE
"""
import json, statistics, subprocess, sys
runs, w, seed = int(sys.argv[1]), sys.argv[2], sys.argv[3]
sides = {"parent": (sys.argv[4], sys.argv[5]), "change": (sys.argv[6], sys.argv[7])}
got = {"parent": [], "change": []}
for i in range(runs):
    for side in (["parent", "change"] if i % 2 == 0 else ["change", "parent"]):
        cwd, exe = sides[side]
        r = subprocess.run([exe, "--workload", w, "--seed", seed, "--seconds", "4", "--trace", "1"],
                           cwd=cwd, capture_output=True, text=True)
        got[side].append(json.loads(r.stdout.strip().splitlines()[-1])["metrics"])
print(f"== {w} seed {seed}: medians of {runs} traced runs per side")
for k in got["parent"][0]:
    p = statistics.median(m[k]["value"] for m in got["parent"])
    c = statistics.median(m[k]["value"] for m in got["change"])
    print(f"  {k:40s} {p:>16.4f} {c:>16.4f}")
