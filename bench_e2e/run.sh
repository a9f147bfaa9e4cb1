#!/usr/bin/env bash
# Builds bench_e2e from source and runs it with the given arguments.
# This is the command BENCHMARK.json names; run it from the checkout root:
#
#   bash bench_e2e/run.sh --workload collect-mix --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), traces to
# $CARGO_TARGET_DIR/bench_e2e. Nothing outside the checkout is touched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
export BENCH_E2E_OUT="${BENCH_E2E_OUT:-$target/bench_e2e}"

# The build log goes to stderr so that stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/bench_e2e" "$@"
