#!/usr/bin/env python3
"""Alternating parent/change pairs of `ij-perf --workload W --seed S --seconds 8 --trace 0`.
Each run is started from its own side's checkout; logs one line per run."""
import json, subprocess, sys, os
SIDES = {"parent": ("/root/scratch/parent", "/root/scratch/tgt-parent-perf/release/ij-perf"),
         "change": ("/root/scratch/change", "/root/scratch/tgt-change-perf/release/ij-perf")}
WORKLOADS = ["q1_dense_count", "q4_hybrid_pasm", "q1_sparse_shuffle", "q1_sparse_spill",
             "q0_dense_materialize", "clique_zipf_count"]
out_dir, pairs = sys.argv[1], int(sys.argv[2])
seeds = [int(s) for s in sys.argv[3].split(",")]
workloads = sys.argv[4].split(",") if len(sys.argv) > 4 else WORKLOADS
suffix = sys.argv[5] if len(sys.argv) > 5 else ""
for seed in seeds:
    for w in workloads:
        path = os.path.join(out_dir, f"pairs-{w}-{seed}{suffix}.log")
        with open(path, "w") as log:
            for i in range(1, pairs + 1):
                order = ["parent", "change"] if i % 2 == 1 else ["change", "parent"]
                for side in order:
                    cwd, exe = SIDES[side]
                    r = subprocess.run([exe, "--workload", w, "--seed", str(seed), "--seconds", "8", "--trace", "0"],
                                       cwd=cwd, capture_output=True, text=True)
                    last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else f"ERROR rc={r.returncode} {r.stderr[-300:]!r}"
                    log.write(f"{side} {i} {last}\n"); log.flush()
print("done")
