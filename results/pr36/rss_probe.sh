#!/bin/sh
# Peak RSS of the single-threaded `ij-perf serial-child` of three workloads,
# per build, with glibc's default allocator settings and with every
# allocation of 64 KiB or more served by its own mmap (freed blocks go
# straight back to the kernel, so heap placement cannot hold pages).
# Usage: rss_probe.sh NAME=DIR:EXE ...
for w in q1_dense_count q1_sparse_shuffle q1_sparse_spill; do
  for spec in "$@"; do
    name=${spec%%=*}; rest=${spec#*=}; dir=${rest%%:*}; exe=${rest#*:}
    for env in default mmap64k; do
      for i in 1 2; do
        if [ $env = mmap64k ]; then
          out=$(cd "$dir" && MALLOC_MMAP_THRESHOLD_=65536 "$exe" serial-child --workload $w --seed 42 --scale 1 2>/dev/null)
        else
          out=$(cd "$dir" && "$exe" serial-child --workload $w --seed 42 --scale 1 2>/dev/null)
        fi
        echo "$w $name $env $i $out"
      done
    done
  done
done
