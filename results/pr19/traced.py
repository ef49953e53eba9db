#!/usr/bin/env python3
"""One traced run per side x workload x seed; prints every count/ratio-valued metric that differs."""
import json, subprocess, sys
SIDES = {"parent": ("/root/scratch/parent", "/root/scratch/tgt-parent-perf/release/ij-perf"),
         "change": ("/root/scratch/change", "/root/scratch/tgt-change-perf/release/ij-perf")}
W = ["q1_dense_count", "q1_sparse_shuffle", "q1_sparse_spill", "q0_dense_materialize", "clique_zipf_count", "q4_hybrid_pasm"]
out = open(sys.argv[1], "w")
for seed in (42, 1234):
    for w in W:
        res = {}
        for side, (cwd, exe) in SIDES.items():
            r = subprocess.run([exe, "--workload", w, "--seed", str(seed), "--seconds", "2", "--trace", "1"], cwd=cwd, capture_output=True, text=True)
            res[side] = json.loads(r.stdout.strip().splitlines()[-1])
        p, c = res["parent"]["metrics"], res["change"]["metrics"]
        out.write(f"== {w} seed {seed} correct P/C {res['parent']['correct']}/{res['change']['correct']} failed {res['parent']['failed']}/{res['change']['failed']}\n")
        for k in p:
            if p[k]["unit"] in ("count", "bytes"):
                mark = "same" if p[k]["value"] == c[k]["value"] else "DIFFERS"
                out.write(f"  {k:40s} {p[k]['value']:>16.0f} {c[k]['value']:>16.0f}  {mark}\n")
        out.flush()
