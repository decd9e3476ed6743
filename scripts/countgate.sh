#!/usr/bin/env bash
# countgate: fail unless a traced benchmark run was correct and
# reproduced the counts in scripts/counts.txt.
#
#   bash bench/run.sh -workload replica-frame-direct -seconds 3 -trace 1 > trace.txt
#   scripts/countgate.sh trace.txt
#
# Reads the run's output (file argument, or stdin): its
# `metric <name> <value> <unit>` lines and the final result JSON, which
# must say "correct":true. Nothing here is a time, so the gate gives the
# same answer on any machine.
set -euo pipefail

counts="$(dirname "$0")/counts.txt"
out="$(cat "${1:-/dev/stdin}")"

if ! grep -q '^{"correct":true,' <<<"$out"; then
  echo "countgate: the run's result line does not say \"correct\":true" >&2
  exit 1
fi

awk '
  NR == FNR { if ($0 !~ /^#/ && NF == 3) { want[$1] = $2; dec[$1] = $3 }; next }
  $1 == "metric" && ($2 in want) {
    seen[$2] = 1
    got = sprintf("%.*f", dec[$2], $3)
    if (got != sprintf("%.*f", dec[$2], want[$2])) {
      printf "countgate: %s = %s (rounds to %s), want %s\n", $2, $3, got, want[$2]
      bad = 1
    } else {
      printf "countgate: %s = %s ok\n", $2, $3
    }
  }
  END {
    for (m in want) if (!(m in seen)) { printf "countgate: %s missing from the run\n", m; bad = 1 }
    exit bad
  }
' "$counts" - <<<"$out" >&2
