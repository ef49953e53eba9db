#!/usr/bin/env python3
"""Compares two `family_pins` captures block by block.

Usage: pins_diff.py OLD NEW

Prints the number of blocks, of blocks that differ and of blocks whose run
line (count, emission hash, first and last tuple) differs; then, per block
that differs, its header, whether its emission order changed, and every
reducer whose `work` rose (`cycle-name key old -> new`) or fell, and the
`candidates=` count before and after.
"""
import sys


def blocks(path):
    out = []
    for line in open(path).read().splitlines():
        if line.startswith("== "):
            out.append((line[3:], []))
        else:
            out[-1][1].append(line)
    return out


def loads(line):
    name = line.split(" ")[1].split("=", 1)[1]
    body = line.split("=[", 1)[1].rstrip("]")
    works = {}
    for load in body.split(" ") if body else []:
        key, pairs, work, out = load.split(":")
        works[key] = int(work)
    return name, works


def field(line, name):
    for tok in line.split(" "):
        if tok.startswith(name + "="):
            return tok.split("=", 1)[1]
    return None


old, new = blocks(sys.argv[1]), blocks(sys.argv[2])
assert [h for h, _ in old] == [h for h, _ in new], "same blocks in the same order"
changed = emission = 0
report = []
for (header, o), (_, n) in zip(old, new):
    if o == n:
        continue
    changed += 1
    order = o[0] != n[0]
    emission += order
    rose, fell = [], []
    for lo, ln in zip(o, n):
        if lo.startswith("cycle ") and ln.startswith("cycle "):
            name, wo = loads(lo)
            _, wn = loads(ln)
            for key in wo:
                if wn[key] > wo[key]:
                    rose.append(f"{name} {key} {wo[key]}->{wn[key]}")
                elif wn[key] < wo[key]:
                    fell.append(f"{name} {key} {wo[key]}->{wn[key]}")
        if lo.startswith("counters split="):
            cand = (field(lo, "candidates"), field(ln, "candidates"))
    report.append((header, order, rose, fell, cand))
print(f"blocks {len(old)} changed {changed} emission-line changed {emission}")
for header, order, rose, fell, cand in report:
    print(f"== {header}: order {'changed' if order else 'same'}; candidates {cand[0]} -> {cand[1]};"
          f" reducers rose {len(rose)} fell {len(fell)}")
    for r in rose:
        print(f"   rose {r}")
