#!/usr/bin/env python3
"""One traced `ij-perf` run per side x workload x seed.

Usage: traced.py OUT_FILE PARENT_DIR PARENT_EXE CHANGE_DIR CHANGE_EXE

Writes, per workload and seed, every count-valued metric of both sides
(marked `same` or `DIFFERS`) and the reduce and run seconds.
"""
import json
import subprocess
import sys

out = open(sys.argv[1], "w")
sides = {"parent": (sys.argv[2], sys.argv[3]), "change": (sys.argv[4], sys.argv[5])}
W = ["q1_dense_count", "q1_sparse_shuffle", "q1_sparse_spill", "q0_dense_materialize",
     "clique_zipf_count", "q4_hybrid_pasm"]
for seed in (42, 1234):
    for w in W:
        res = {}
        for side, (cwd, exe) in sides.items():
            r = subprocess.run([exe, "--workload", w, "--seed", str(seed), "--seconds", "1",
                                "--trace", "1"], cwd=cwd, capture_output=True, text=True)
            res[side] = json.loads(r.stdout.strip().splitlines()[-1])
        p, c = res["parent"]["metrics"], res["change"]["metrics"]
        out.write(f"== {w} seed {seed} correct P/C {res['parent']['correct']}/{res['change']['correct']}"
                  f" failed {res['parent']['failed']}/{res['change']['failed']}\n")
        for k in p:
            if p[k]["unit"] in ("count", "bytes"):
                mark = "same" if p[k]["value"] == c[k]["value"] else "DIFFERS"
                out.write(f"  {k:40s} {p[k]['value']:>16.0f} {c[k]['value']:>16.0f}  {mark}\n")
        for k in ("mapreduce.reduce_s", "core.run_s", "core.kernel.replay_serial_s"):
            if k in p:
                out.write(f"  {k:40s} {p[k]['value']:>16.4f} {c[k]['value']:>16.4f}\n")
        out.flush()
