#!/usr/bin/env bash
# Regenerate every canonical experiment output in results/.
set -euo pipefail
cd "$(dirname "$0")/.."
for b in table1 table2 fig3 fig4 fig5 prs scaling ablations balance; do
  echo "== $b =="
  cargo run -p hpf-bench --release --bin "$b" > "results/$b.txt"
done

echo "== timeline (+ Perfetto trace) =="
cargo run -p hpf-bench --release --bin timeline -- --trace-out results/timeline-trace.json \
  > results/timeline.txt

echo "== perf (machine-readable BENCH_<rev>.json) =="
# Prune per-revision reports from older revisions: only the committed
# baseline plus the current revision's report belong in results/.
rev="$(git rev-parse --short HEAD)"
for f in results/BENCH_*.json; do
  case "$f" in
    results/BENCH_baseline.json | "results/BENCH_$rev.json") ;;
    *) echo "pruning stale $f"; rm -f "$f" ;;
  esac
done
cargo run -p hpf-bench --release --bin perf

echo "== perf smoke baseline (perfdiff reference) + critical-path report =="
# The committed baseline must be a --smoke run: that is what ci.sh compares
# against, and smoke workloads are small enough to keep CI fast while still
# covering every scheme. Simulated costs are seed-deterministic, so the
# baseline only changes when the cost model or algorithms change.
cargo run -p hpf-bench --release --bin perf -- --smoke \
  --out results/BENCH_baseline.json --critpath-out results/critpath.txt

echo "== bench history (simulated trend table) =="
# Tabulates the simulated headline of every committed BENCH_*.json revision
# plus the two reports regenerated above into a markdown trend table.
python3 scripts/bench-history.py --out results/bench-history.md

echo "done; outputs in results/"
