#!/bin/sh
# Non-test lines per crate: for each tracked `.rs` file under
# `crates/<crate>/src`, the lines before the file's first `#[cfg(test)]`
# (all of its lines when it has none).
#
# Caveat: `crates/mapreduce/src/metrics.rs` gates a thread-local with
# `#[cfg(test)]` at its line 19, so this count stops that file at 18
# lines. The convention is kept as it is so that counts stay comparable
# across changes.
#
# Usage: sh results/lines.sh   (from the repository root)
awk '
FNR == 1 { split(FILENAME, p, "/"); crate = p[2]; seen[crate] = 1; stop = 0 }
/^[[:space:]]*#\[cfg\(test\)\]/ { stop = 1 }
!stop { n[crate]++ }
END { for (c in seen) printf "%-10s %6d\n", c, n[c] }
' $(git ls-files 'crates/*/src/*.rs') | sort
