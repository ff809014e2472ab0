#!/usr/bin/env bash
# The repo benchmark. Builds the runner offline, then hands it every
# argument. From the repository root:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--trace] [--check-repeat]
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR means "relative to the repository root".
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr; stdout carries only the runner's output.
(cd "$here" && cargo build --release --offline --quiet) >&2

cd "$root"
exec "$target/release/hpf-benchmark" \
    --spec "$root/BENCHMARK.json" --out-dir "$here/out" "$@"
