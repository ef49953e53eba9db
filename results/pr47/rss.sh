#!/bin/sh
# Peak RSS of two ij-perf builds, alternating: the serial child
# (`ij-perf serial-child`, one worker thread, three ops) of every workload
# at seeds 42 and 1234, PAIRS pairs each, the side that runs first
# alternating pair by pair. Every pair runs twice: under glibc's default
# malloc settings, and with MALLOC_MMAP_THRESHOLD_=65536, which puts every
# block of 64 KiB or more in its own mapping, freed at once. A drop in live
# data shows under both; a drop from where glibc happens to place large
# blocks in its heap shows under the first alone.
#
# Usage: sh results/pr47/rss.sh PARENT_EXE CHANGE_EXE [PAIRS]   (PAIRS: 10)
#
# Prints one line per run, `env workload seed pair side peak_rss_mb`,
# then per env, workload and seed the median of each side, the change's
# ratio to the parent and in how many pairs the change read lower.
set -eu
parent=$1
change=$2
pairs=${3:-10}
workloads="q1_dense_count q1_sparse_shuffle q1_sparse_spill q0_dense_materialize clique_zipf_count q4_hybrid_pasm"

peak() {
    # $1 exe, $2 workload, $3 seed; the child's JSON line holds peak_rss_mb.
    "$1" serial-child --workload "$2" --seed "$3" --scale 1 |
        sed -n 's/.*"peak_rss_mb":\([0-9.]*\).*/\1/p'
}

run() {
    # $1 env label, then the pairs; MMAP set or unset by the caller.
    for w in $workloads; do
        for seed in 42 1234; do
            i=1
            while [ "$i" -le "$pairs" ]; do
                if [ $((i % 2)) -eq 1 ]; then
                    order="parent change"
                else
                    order="change parent"
                fi
                for side in $order; do
                    if [ "$side" = parent ]; then exe=$parent; else exe=$change; fi
                    echo "$1 $w $seed $i $side $(peak "$exe" "$w" "$seed")"
                done
                i=$((i + 1))
            done
        done
    done
}

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
run default >"$runs"
(export MALLOC_MMAP_THRESHOLD_=65536; run mmap64k) >>"$runs"
cat "$runs"
echo "env workload seed parent_median_mb change_median_mb change/parent change_lower"
awk '
    { k = $1 " " $2 " " $3; v[k " " $5, ++n[k " " $5]] = $6; keys[k] = 1
      if ($5 == "parent") p[k, $4] = $6; else c[k, $4] = $6 }
    function median(k,   m, i, j, t, a) {
        m = n[k]
        for (i = 1; i <= m; i++) a[i] = v[k, i]
        for (i = 1; i <= m; i++) for (j = i + 1; j <= m; j++) if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
        return m % 2 ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2
    }
    END {
        for (k in keys) {
            pm = median(k " parent"); cm = median(k " change"); lower = 0
            for (i = 1; i <= n[k " parent"]; i++) if (c[k, i] < p[k, i]) lower++
            printf "%s %.1f %.1f %.3f %d/%d\n", k, pm, cm, cm / pm, lower, n[k " parent"]
        }
    }' "$runs" | sort
