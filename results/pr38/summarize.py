#!/usr/bin/env python3
"""Per (workload, seed): parent -> change medians of the end-to-end metrics
in rounds.py logs, failed ops, and the pairs the change won on join_wall_s.
Usage: summarize.py LOG [LOG ...]"""
import json
import statistics
import sys

runs = {}
for f in sys.argv[1:]:
    for l in open(f):
        n, s, w, i, js = l.split(' ', 4)
        d = json.loads(js)
        m = {k: v['value'] for k, v in d['metrics'].items()}
        runs.setdefault((w, s), {}).setdefault(n, []).append((i, m, d['failed']))
for (w, s), d in sorted(runs.items()):
    line = f'{w} {s}:'
    for k in ['join_wall_s', 'join_cpu_s', 'intervals_per_s', 'peak_rss_mb', 'setup_s',
              'shuffle_pairs', 'shuffle_bytes', 'max_reducer_pairs']:
        p = statistics.median(x[1][k] for x in d['parent'])
        c = statistics.median(x[1][k] for x in d['change'])
        line += f' {k} {p:.4g}->{c:.4g} ({100 * (c - p) / p:+.1f}%)'
    fails = sum(x[2] for x in d['change'] + d['parent'])
    pw = {x[0]: x[1]['join_wall_s'] for x in d['parent']}
    cw = {x[0]: x[1]['join_wall_s'] for x in d['change']}
    wins = sum(1 for i in pw if i in cw and cw[i] < pw[i])
    print(f'{line} failed {fails} faster {wins}/{len(pw)}')
