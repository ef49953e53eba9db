#!/usr/bin/env python3
"""Rotating rounds of `ij-perf --workload W --seed S --seconds T --trace 0` over several builds.

Usage: rounds.py OUT_FILE ROUNDS SECONDS SEEDS WORKLOADS NAME=DIR:EXE [NAME=DIR:EXE ...]

Round i runs the builds in the given order rotated left by i, each from its
own checkout directory. Writes one line per run: name, seed, workload,
round, the run's JSON line; then prints per (workload, seed, build) the
median, p25 and p75 of `join_wall_s` and the median `join_cpu_s`.
"""
import json
import statistics
import subprocess
import sys

out, rounds, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
seeds = [int(s) for s in sys.argv[4].split(",")]
workloads = sys.argv[5].split(",")
builds = []
for arg in sys.argv[6:]:
    name, rest = arg.split("=", 1)
    cwd, exe = rest.split(":", 1)
    builds.append((name, cwd, exe))


def q(xs, p):
    xs = sorted(xs)
    k = (len(xs) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


runs = {}
with open(out, "w") as log:
    for seed in seeds:
        for w in workloads:
            for i in range(rounds):
                order = builds[i % len(builds):] + builds[:i % len(builds)]
                for name, cwd, exe in order:
                    r = subprocess.run([exe, "--workload", w, "--seed", str(seed), "--seconds", seconds,
                                        "--trace", "0"], cwd=cwd, capture_output=True, text=True)
                    last = r.stdout.strip().splitlines()[-1]
                    log.write(f"{name} {seed} {w} {i + 1} {last}\n")
                    log.flush()
                    m = json.loads(last)["metrics"]
                    runs.setdefault((w, seed, name), []).append(
                        (m["join_wall_s"]["value"], m["join_cpu_s"]["value"]))
for (w, seed, name), rs in runs.items():
    wall = [r[0] for r in rs]
    cpu = [r[1] for r in rs]
    print(f"{w} {seed} {name}: join_wall_s p25 {q(wall, .25):.4f} med {statistics.median(wall):.4f} "
          f"p75 {q(wall, .75):.4f}  join_cpu_s med {statistics.median(cpu):.4f}  n {len(rs)}")
