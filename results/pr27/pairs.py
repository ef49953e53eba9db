#!/usr/bin/env python3
"""Alternating parent/change pairs of `ij-perf --workload W --seed S --seconds 8 --trace 0`.

Usage: pairs.py OUT_DIR PAIRS SEEDS PARENT_DIR PARENT_EXE CHANGE_DIR CHANGE_EXE [WORKLOADS]

Each run starts from its own side's checkout directory with that side's
`ij-perf` binary; pair i runs the parent first when i is odd, the change
first when it is even. Writes one line per run to
OUT_DIR/pairs-<workload>-<seed>.log: side, pair number, the run's JSON line.
"""
import os
import subprocess
import sys

WORKLOADS = ["q1_dense_count", "q4_hybrid_pasm", "q1_sparse_shuffle", "q1_sparse_spill",
             "q0_dense_materialize", "clique_zipf_count"]
out_dir, pairs = sys.argv[1], int(sys.argv[2])
seeds = [int(s) for s in sys.argv[3].split(",")]
sides = {"parent": (sys.argv[4], sys.argv[5]), "change": (sys.argv[6], sys.argv[7])}
workloads = sys.argv[8].split(",") if len(sys.argv) > 8 else WORKLOADS
for seed in seeds:
    for w in workloads:
        with open(os.path.join(out_dir, f"pairs-{w}-{seed}.log"), "w") as log:
            for i in range(1, pairs + 1):
                for side in (["parent", "change"] if i % 2 == 1 else ["change", "parent"]):
                    cwd, exe = sides[side]
                    r = subprocess.run([exe, "--workload", w, "--seed", str(seed), "--seconds", "8",
                                        "--trace", "0"], cwd=cwd, capture_output=True, text=True)
                    out = r.stdout.strip()
                    last = out.splitlines()[-1] if out else f"ERROR rc={r.returncode} {r.stderr[-300:]!r}"
                    log.write(f"{side} {i} {last}\n")
                    log.flush()
print("done")
