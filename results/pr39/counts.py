#!/usr/bin/env python3
"""Count metrics of traced ij-perf runs, parent against change: every
metric whose unit is `count` (plus the replication rate and the hit
ratio) must read the same on both sides at equal seed.
Usage: counts.py LOG [LOG ...]   (logs of results/pr38/traced.py)"""
import json
import sys

for f in sys.argv[1:]:
    sides = {}
    for line in open(f):
        name, seed, w, _, js = line.split(' ', 4)
        m = json.loads(js)['metrics']
        keys = sorted(k for k, v in m.items() if v['unit'] == 'count' or k in (
            'core.replication_rate', 'core.candidate_hit_ratio'))
        sides.setdefault(name, {k: m[k]['value'] for k in keys})
    p, c = sides['parent'], sides['change']
    diff = [k for k in p if p[k] != c.get(k)]
    shown = ' '.join(f"{k.split('.')[-1]}={p[k]:g}" for k in
                     ['core.join_candidates', 'core.join_emitted', 'core.output_tuples',
                      'core.kernel.replay_work', 'core.kernel.replay_outputs', 'shuffle_pairs']
                     if k in p)
    print(f"{w} {seed}: {len(p)} count metrics, {'equal' if not diff else 'DIFFER ' + str(diff)}; {shown}")
