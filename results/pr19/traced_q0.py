#!/usr/bin/env python3
"""Three alternating traced runs per side and seed of `ij-perf --workload q0_dense_materialize
--seconds 8 --trace 1`; logs each run's JSON line, then prints the per-layer timing medians."""
import json, subprocess, sys, statistics
SIDES = {"parent": ("/root/scratch/parent", "/root/scratch/tgt-parent-perf/release/ij-perf"),
         "change": ("/root/scratch/change", "/root/scratch/tgt-change-perf/release/ij-perf")}
KEYS = ["trace.op_wall_s", "trace.untraced_wall_s", "core.run_s", "core.driver_self_s", "mapreduce.map_s", "mapreduce.shuffle_s",
        "mapreduce.reduce_s", "mapreduce.serial_run_s", "mapreduce.thread_speedup", "core.kernel.replay_serial_s",
        "core.kernel.replay_parallel2_s", "core.kernel.replay_work", "core.kernel.replay_outputs", "core.output_tuples",
        "core.join_emitted", "core.kernel.parallel_buckets"]
log = open(sys.argv[1], "w")
for seed in (42, 1234):
    runs = {"parent": [], "change": []}
    for i in range(1, 4):
        for side in (["parent", "change"] if i % 2 else ["change", "parent"]):
            cwd, exe = SIDES[side]
            r = subprocess.run([exe, "--workload", "q0_dense_materialize", "--seed", str(seed), "--seconds", "8", "--trace", "1"],
                               cwd=cwd, capture_output=True, text=True)
            line = r.stdout.strip().splitlines()[-1]
            log.write(f"{side} {seed} {i} {line}\n"); log.flush()
            runs[side].append(json.loads(line)["metrics"])
    print(f"seed {seed}: median of 3 traced runs per side")
    for k in KEYS:
        p = statistics.median(m[k]["value"] for m in runs["parent"]); c = statistics.median(m[k]["value"] for m in runs["change"])
        print(f"  {k:36s} {p:>14.6f} {c:>14.6f}  {c - p:+.6f}")
