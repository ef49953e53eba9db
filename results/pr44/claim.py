#!/usr/bin/env python3
"""Per (workload, seed) and end-to-end metric of a rounds.py log: parent and
change medians, the parent's p25..p75, the pairs the change won (round by
round, ties counting for neither side), and the verdict of the gain rule:
better in at least 9 of 10 pairs and a median gain larger than the
parent's interquartile range.

Usage: claim.py LOG [METRIC ...]   (default: every end-to-end metric)
"""
import json
import statistics
import sys

LOWER = {'join_wall_s', 'join_cpu_s', 'peak_rss_mb', 'shuffle_pairs', 'shuffle_bytes',
         'max_reducer_pairs', 'setup_s'}
HIGHER = {'intervals_per_s'}


def q(xs, p):
    xs = sorted(xs)
    k = (len(xs) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


runs = {}
for line in open(sys.argv[1]):
    name, seed, workload, rnd, js = line.split(' ', 4)
    metrics = {k: v['value'] for k, v in json.loads(js)['metrics'].items()}
    runs.setdefault((workload, seed), {}).setdefault(name, {})[rnd] = metrics
wanted = sys.argv[2:] or sorted(LOWER | HIGHER)
for (workload, seed), sides in runs.items():
    for m in wanted:
        par = sides['parent']
        chg = sides['change']
        p = [r[m] for r in par.values()]
        c = [r[m] for r in chg.values()]
        sign = 1 if m in LOWER else -1
        rounds = [i for i in par if i in chg]
        won = sum(1 for i in rounds if sign * (chg[i][m] - par[i][m]) < 0)
        pm, cm = statistics.median(p), statistics.median(c)
        iqr = q(p, .75) - q(p, .25)
        gain = sign * (pm - cm)
        verdict = 'gain' if won * 10 >= 9 * len(rounds) and gain > iqr else 'no-gain'
        delta = 100 * (cm - pm) / pm if pm else 0.0
        print(f'{workload:21} {seed:>4} {m:17} {pm:>14.6g} -> {cm:<14.6g} {delta:+7.2f}% '
              f'parent p25..p75 {q(p, .25):.6g}..{q(p, .75):.6g} '
              f'change {q(c, .25):.6g}..{q(c, .75):.6g} won {won}/{len(rounds)} {verdict}')
