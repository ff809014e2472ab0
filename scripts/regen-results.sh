#!/usr/bin/env bash
# Regenerate results/: the ten paper artefacts, the perf report and its
# critical paths. Every byte is a function of the tree, so a second run
# changes nothing and `git status` says whether behaviour moved.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run -p hpf-bench --release --bin repro -- --all --out-dir results
