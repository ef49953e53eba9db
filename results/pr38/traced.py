#!/usr/bin/env python3
"""Alternating traced runs: per-layer medians of ij-perf --trace 1.
Usage: traced.py OUT ROUNDS SECONDS SEED WORKLOAD NAME=DIR:EXE ..."""
import json, statistics, subprocess, sys
out, rounds, seconds, seed, w = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
builds = [(a.split('=',1)[0],)+tuple(a.split('=',1)[1].split(':',1)) for a in sys.argv[6:]]
keys = ['join_wall_s','core.run_s','mapreduce.map_s','mapreduce.shuffle_s','mapreduce.reduce_s','core.driver_self_s']
vals = {}
with open(out,'w') as log:
    for i in range(rounds):
        order = builds[i % len(builds):] + builds[:i % len(builds)]
        for name, cwd, exe in order:
            r = subprocess.run([exe,'--workload',w,'--seed',seed,'--seconds',seconds,'--trace','1'],cwd=cwd,capture_output=True,text=True)
            last = r.stdout.strip().splitlines()[-1]
            log.write(f"{name} {seed} {w} {i+1} {last}\n"); log.flush()
            m = json.loads(last)['metrics']
            for k in keys:
                if k in m: vals.setdefault((name,k),[]).append(m[k]['value'])
print(f"{w} seed {seed}, medians of {rounds} traced runs (ms)")
print('| layer | ' + ' | '.join(b[0] for b in builds) + ' |')
print('|---|' + '---|'*len(builds))
for k in keys:
    print(f'| `{k}` | ' + ' | '.join(f"{1000*statistics.median(vals[(b[0],k)]):.1f}" if (b[0],k) in vals else '-' for b in builds) + ' |')
