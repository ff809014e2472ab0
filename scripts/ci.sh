#!/usr/bin/env bash
# Full CI gate: formatting, lints, tests, the smoke drills, and results/
# proved to be what this tree prints.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== repo benchmark smoke (benchmark/ is a package the root workspace does not build) =="
# One short round of each of the six BENCHMARK.json workloads. The runner
# exits non-zero on a failed op, a result that differs from the sequential
# oracle, a simulated time that differs between rounds, or a metric name
# that BENCHMARK.json and the runner do not share; its own unit tests run
# from the package directory. Timings of a smoke round are not gated.
benchmark/run.sh --smoke
(cd benchmark && cargo test --offline -q)

echo "== scheduler pool-identity gate (pool size 1 vs N, P=1024 smoke) =="
# The cooperative scheduler's contract: results, simulated clocks, event
# streams, and comm matrices are bit-identical for any worker-pool size.
# Release mode so the P=1024 virtual-processor smoke inside the machine
# suite runs at full speed; the core suite replays the contract through
# the paper's actual PACK/UNPACK algorithms.
cargo test -p hpf-machine --release -q --test sched
cargo test -p hpf-core --release -q --test sched_determinism

echo "== stack-switched carriers, both profiles =="
# The switch must be right with and without frame pointers, and with debug
# assertions on the scheduler's state machine, so the scheduler and failure
# suites run unoptimised and optimised (sched just ran in release). The
# stacks-are-returned test runs one machine 2 000 times on the stacks of its
# first run and drops 200 more; it has a test binary to itself because it
# reads /proc/self.
cargo test -p hpf-machine -q --test sched --test failures
cargo test -p hpf-machine --release -q --test failures --test stacks_returned

echo "== plan-footprint gate (planning bytes per processor, P=64 vs P=512) =="
# Release mode for the same reason: the P=512 leg plans on 512 carriers.
cargo test -p hpf-core --release -q --test plan_footprint

echo "== one-shot footprint gate (200 one-shot roundtrips leave gauges, heap and allocation rate flat) =="
# Release mode runs the full 200 ops per run (an unoptimised build does 50):
# every mem.<account>.cur after op k equals its value after op 1, live heap
# bytes and per-processor allocated bytes are flat from op 10 on, and a
# mid-sequence crash under run_recoverable recovers bit-identically.
cargo test -p hpf-core --release -q --test oneshot_footprint

echo "== one execute path (no mode fork, no build fork) =="
if grep -rnE 'recovery_enabled|scalar-ref|feature = "simd"|(gather|decode)_[a-z]+_owned|exchange_owned|CopyOp::Strided' crates/ README.md; then
  echo "ci: a second execute path is back (see DESIGN.md sections 11 and 16)"; exit 1
fi
if grep -rnE 'perf.*--smoke|BENCH_<rev>|BENCH_baseline' crates/ README.md DESIGN.md .claude/ scripts/regen-results.sh; then
  echo "ci: a second perf report is back (results/BENCH.json is the only one)"; exit 1
fi
# "Lost" and "stuck" are told by quiescence (DESIGN.md section 15); only the
# wall profiler reads a clock. Unit-test modules close their files.
for src in $(find crates/machine/src -name '*.rs' ! -name obs.rs); do
  if sed '/^#\[cfg(test)\]/,$d' "$src" |
    grep --label="$src" -HnE 'Instant::now|recv_timeout|RTO_|with_test_preset|wait_timeout'; then
    echo "ci: a second clock is back"; exit 1
  fi
done
# Stacks, the switch and the syscalls under them are carrier.rs's alone; the
# allocator shim is the other file that may say `unsafe` (DESIGN.md section 15).
if grep -rnE 'unsafe|extern "C"|mmap|mprotect|munmap' crates/machine/src \
  --exclude=carrier.rs --exclude=alloc_counter.rs; then
  echo "ci: unsafe code or a mapping call outside carrier.rs"; exit 1
fi

echo "== the examples run (README's quick tour) =="
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "== fuzz smoke via the plan-then-execute path =="
cargo run -p hpf-bench --release --bin fuzz -- --cases 40 --seed 1 --reuse-plans

echo "== chaos smoke (fault-injected PACK/UNPACK roundtrips; the trace export parses) =="
# chaos reads the trace it wrote back and exits 1 unless it is Chrome
# trace_event JSON with span events and send / recv / retransmit / dup-drop /
# fault-verdict annotations.
chaos_trace="$(mktemp)"
cargo run -p hpf-bench --release --bin chaos -- --seed 1 --iters 5 --trace-out "$chaos_trace"
rm -f "$chaos_trace"

echo "== chaos smoke with cached-plan execution =="
cargo run -p hpf-bench --release --bin chaos -- --seed 2 --iters 3 --reuse-plans

echo "== chaos smoke with crash-recovery drills =="
cargo run -p hpf-bench --release --bin chaos -- --seed 3 --iters 6 --recover

echo "== chaos smoke with crash recovery over cached plans =="
cargo run -p hpf-bench --release --bin chaos -- --seed 4 --iters 4 --recover --reuse-plans

echo "== chaos smoke under a pinned two-worker pool =="
# Fault injection + crash recovery with the pool artificially constrained:
# parks, respawn re-enrollment, and replay all have to coexist with pool
# backpressure without deadlocking or perturbing the simulated run.
cargo run -p hpf-bench --release --bin chaos -- --seed 5 --iters 4 --recover --workers 2

echo "== longer crash-recovery drill (retire barrier: no peer leaves before the victim is back) =="
# Twelve iterations draw enough crash points that some victim crashes after
# a peer has nothing left to receive; that peer must still be there to
# acknowledge the respawned victim's re-sent frames.
cargo run -p hpf-bench --release --bin chaos -- --seed 9 --iters 12 --recover

echo "== results/*.txt are what this tree prints =="
# All ten paper artefacts (~40 s); a failure names the artefact and its first
# differing line, a deliberate change runs scripts/regen-results.sh.
cargo run -p hpf-bench --release --bin repro -- --check results

echo "== perf (simulated report; its own gates, then byte-identity with results/BENCH.json) =="
# The binary checks its own report before it exits (hpf_bench::report::GATES):
# Section 6.4 conformance exact, zero steady-state allocations, predicted
# peak memory bounding the measured one within 1.25x, bit-identical results
# under worker-pool sizes 1 and 2 at P up to 4096, a crash actually
# recovered, plan reuse amortizing. The report holds no wall number and names
# no commit, so the committed copy is compared byte for byte; on a mismatch
# perfdiff names what moved (at threshold 0 it would flag every row: 0 >= 0).
perf_json="$(mktemp)"
cargo run -p hpf-bench --release --bin perf -- --out "$perf_json"
if ! cmp -s results/BENCH.json "$perf_json"; then
  cargo run -p hpf-bench --release --bin perfdiff -- \
    results/BENCH.json "$perf_json" --warn-above 0.0001 --fail-above 0.001 || true
  echo "ci: results/BENCH.json is not what perf writes at this tree (scripts/regen-results.sh)"
  exit 1
fi
rm -f "$perf_json"

echo "ci: all gates passed"
