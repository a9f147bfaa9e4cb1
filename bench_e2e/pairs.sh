#!/usr/bin/env bash
# Ten alternating pairs of parent and change (choosing-metrics §8), then
# `bench_e2e compare`, which prints each side's median and quartiles and
# one ok / regressed / unresolved row per (workload, end-to-end metric).
#
#   bash bench_e2e/pairs.sh <parent-checkout> <change-checkout> [seconds]
#
# Both arguments are checkout roots holding the same bench_e2e/ directory:
# a change that is measured may not edit the benchmark. Each side builds
# into its own .bench_build. Results land in the current directory as
# pairs.parent.jsonl and pairs.change.jsonl.
set -euo pipefail

parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
seconds="${3:-20}"
out="$PWD"
rm -f "$out/pairs.parent.jsonl" "$out/pairs.change.jsonl"

if ! diff -r -x target "$parent/bench_e2e" "$change/bench_e2e" >/dev/null; then
  echo "pairs.sh: the two checkouts hold different bench_e2e/ directories" >&2
  exit 2
fi

side() { # <checkout> <label> <args...>
  local root="$1" label="$2"
  shift 2
  (cd "$root" && CARGO_TARGET_DIR=.bench_build bash bench_e2e/run.sh run --all \
    --seconds "$seconds" --out "$out/pairs.$label.jsonl" "$@") >/dev/null
}

for pair in 1 2 3 4 5 6 7 8 9 10; do
  seed=$((pair))
  if ((pair % 2)); then
    side "$parent" parent --seed "$seed" --trace 0
    side "$change" change --seed "$seed" --trace 0
  else
    side "$change" change --seed "$seed" --trace 0
    side "$parent" parent --seed "$seed" --trace 0
  fi
  echo "pair $pair done" >&2
done
# One traced run a side, for the exact counts.
side "$parent" parent --seed 1 --trace 1
side "$change" change --seed 1 --trace 1

cd "$change"
CARGO_TARGET_DIR=.bench_build bash bench_e2e/run.sh compare \
  "$out/pairs.parent.jsonl" "$out/pairs.change.jsonl" --bounds BENCHMARK.json
