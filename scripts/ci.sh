#!/usr/bin/env bash
# Full CI gate: formatting, lints, tests, the smoke drills, and results/
# proved to be what this tree prints.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
# Every intra-doc link resolves and no public doc links a private item. The
# offline proptest shim in third_party/ is left out: its warnings are its own.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest

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

echo "== scheduler pool-identity gate (pool size 1 vs N, P up to 4096) =="
# The cooperative scheduler's contract: results, simulated clocks, event
# streams, and comm matrices are bit-identical for any worker-pool size.
# Release mode so the P=1024 virtual-processor smoke inside the machine
# suite runs at full speed; the core suite replays the contract through
# the paper's actual PACK/UNPACK algorithms, and through the perf report's
# scale.roundtrip program at P = 64 ... 4096 (an unoptimised build stops at
# 256).
cargo test -p hpf-machine --release -q --test sched
cargo test -p hpf-core --release -q --test sched_determinism

echo "== zero-allocation gate, release profile =="
# cargo test above ran it unoptimised; steady-state executes must allocate
# nothing in the profile the benchmark and repro run in, too.
cargo test -p hpf-core --release -q --test zero_alloc

echo "== pool slot state machine, release profile =="
# Misuse of a slot (a step from a state it does not accept, or any step
# after a panic left it busy) must panic with debug assertions off too.
cargo test -p hpf-machine --release -q --lib pool::

echo "== pool slots and loans under AddressSanitizer (nightly) =="
# A loan hands a borrowed slice to another carrier, maybe another OS thread
# (DESIGN.md section 11): the slot state machine, 30 000 lent hand-offs at
# pool sizes 1-3, a loan nobody reads and a lender that unwinds with a loan
# out run instrumented. Removing the revocation or the rendezvous from
# pool::lending makes this step report a heap-use-after-free. It needs the
# nightly toolchain and fails without it; stacks_returned.rs is left out
# (its report on reused carrier stacks is ROADMAP "Known" (o)).
if ! cargo +nightly --version >/dev/null 2>&1; then
  echo "ci: the AddressSanitizer step needs the nightly toolchain"; exit 1
fi
RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q -p hpf-machine \
  --target x86_64-unknown-linux-gnu --lib pool::
RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q -p hpf-machine \
  --target x86_64-unknown-linux-gnu --test sched --test failures -- lent loan lender

echo "== stack-switched carriers, both profiles =="
# The switch must be right with and without frame pointers, and with debug
# assertions on the scheduler's state machine, so the scheduler and failure
# suites run unoptimised and optimised (sched just ran in release). The
# stacks-are-returned test runs one machine 2 000 times on the stacks of its
# first run and drops 200 more; it has a test binary to itself because it
# reads /proc/self.
cargo test -p hpf-machine -q --test sched --test failures
cargo test -p hpf-machine --release -q --test failures --test stacks_returned

echo "== plan-footprint gate (planning bytes per processor, P=64 vs P=512; retained bytes vs L; staged bytes vs executes; the scale roundtrip's deepest carrier stack at P=512 within two pages) =="
# Release mode for the same reason: the P=512 leg plans on 512 carriers.
# bulk_rows_retain_no_index_list: a full mask's mem.plan charge is the same
# at L = 2^12 and 2^16, and under a Bernoulli-0.5 mask it is the plans' ops,
# offsets and peers plus exactly 1 B per index a Scatter op walks and 3 B
# per Scatter op (a walk is its first index in 4 B, then a byte per step).
# the_first_execute_sets_the_pool_high_water: for all five schemes, four
# executes of a held plan leave mem.pool's high water where the first
# left it (one slot per route row); a_lending_plan_stages_nothing: a plan
# that lends its source leaves it at zero.
# the_scale_roundtrip_stack_fits_two_pages: the benchmark's scale_p512
# roundtrip leaves no carrier stack with more than 8 KiB resident
# (Machine::stack_resident_bytes); each page over is 2 MB at P = 512, and
# an unoptimised build only prints the figure.
cargo test -p hpf-core --release -q --test plan_footprint

echo "== one-shot footprint gate (200 one-shot roundtrips leave gauges, heap and allocation rate flat) =="
# Release mode runs the full 200 ops per run (an unoptimised build does 50):
# every mem.<account>.cur after op k equals its value after op 1, live heap
# bytes and per-processor allocated bytes are flat from op 10 on, and a
# mid-sequence crash under run_recoverable recovers bit-identically.
cargo test -p hpf-core --release -q --test oneshot_footprint

echo "== crash-recovery sweeps, release profile =="
# cargo test above ran them unoptimised, and the benchmark's recover_crash
# runs optimised: every crash step of either kind, on one and two victims,
# must recover bit-identically there too, with only a victim's links
# sequenced, logged and frozen (DESIGN.md sections 7 and 12). The roundtrip
# suite is the 144-case sweep.
cargo test -p hpf-machine --release -q --test recovery
cargo test -p hpf-core --release -q --test recovery_roundtrip

echo "== one execute path (no mode fork, no build fork) =="
if grep -rnE 'recovery_enabled|scalar-ref|feature = "simd"|(gather|decode)_[a-z]+_owned|exchange_owned|CopyOp::(Strided|Masked|Delta)' crates/ README.md; then
  echo "ci: a second execute path is back (see DESIGN.md sections 11 and 16)"; exit 1
fi
# A Scatter op's indices are one walk, its first index and a byte per step
# (DESIGN.md section 16): no u32 index list in the copy programs (the unit
# tests' reference lists are theirs).
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/plan/copyprog.rs |
  grep --label=crates/core/src/plan/copyprog.rs -HnE 'idx: Vec<u32>'; then
  echo "ci: a u32 index list is back in the copy programs"; exit 1
fi
if grep -rnE 'perf.*--smoke|BENCH_<rev>|BENCH_baseline' crates/ README.md DESIGN.md .claude/ scripts/regen-results.sh; then
  echo "ci: a second perf report is back (results/BENCH.json is the only one)"; exit 1
fi
# One driver per job: repro renders every file of results/, chaos runs every
# randomised drill (DESIGN.md section 3).
if grep -rnE -e '--bin (perf(diff)?|fuzz)\b' crates/ scripts/ README.md DESIGN.md .claude/; then
  echo "ci: a second driver is back (repro and chaos are the bench binaries)"; exit 1
fi
# "Lost" and "stuck" are told by quiescence (DESIGN.md section 15); only the
# recorder's wall stamps (obs.rs) read a clock. Unit-test modules close their
# files.
for src in $(find crates/machine/src -name '*.rs' ! -name obs.rs); do
  if sed '/^#\[cfg(test)\]/,$d' "$src" |
    grep --label="$src" -HnE 'Instant::now|recv_timeout|RTO_|with_test_preset|wait_timeout'; then
    echo "ci: a second clock is back"; exit 1
  fi
done
# Stacks, the switch and the syscalls under them are carrier.rs's alone; the
# allocator shim and the pool slot's cell (its buffer and its loan) are the
# other two files that may say `unsafe` (DESIGN.md sections 11 and 15), in
# every crate of the workspace: a loan's borrow must not leak into hpf-core.
if grep -rnE 'unsafe|extern "C"|mmap|mprotect|munmap' crates/*/src src \
  --exclude=carrier.rs --exclude=alloc_counter.rs --exclude=pool.rs; then
  echo "ci: unsafe code or a mapping call outside carrier.rs, alloc_counter.rs and pool.rs"; exit 1
fi
# In pool.rs every line of code that says `unsafe` sits directly under a
# comment block holding a `// SAFETY:` argument (DESIGN.md section 11).
if ! awk '
  /^[[:space:]]*\/\// { if ($0 ~ /\/\/ SAFETY:/) safety = 1; next }
  /(^|[^A-Za-z_])unsafe([^A-Za-z_]|$)/ && !safety { print FILENAME ":" FNR ": " $0; bad = 1 }
  { safety = 0 }
  END { exit bad }
' crates/machine/src/pool.rs; then
  echo "ci: an unsafe block in pool.rs without a // SAFETY: comment directly above"; exit 1
fi
# One harness per property: allocation counting belongs to the test suites
# that install the counting allocator, so no library or binary does.
if grep -rn 'global_allocator' crates/*/src --exclude=alloc_counter.rs; then
  echo "ci: a global allocator outside the test suites"; exit 1
fi
# The reliable transport keeps its own books (DESIGN.md section 7): it records
# its own observations, owns its counters, and is the replay log's one writer.
if grep -rnE 'TransportEvent|drain_transport_events|next_seq_for|note_transport' crates/machine/src; then
  echo "ci: transport bookkeeping outside the transport"; exit 1
fi
if grep -rn 'log_frame(' crates/ --exclude=reliable.rs | grep -v 'recovery.rs:[0-9]*: *pub(crate) fn log_frame('; then
  echo "ci: a replay-log append outside Transport::send"; exit 1
fi
# One transport on every machine: a machine without a fault plan runs the
# empty one, and its transport sends raw (DESIGN.md section 7).
if grep -rnE 'Option<Transport|Option<TransportSnapshot>|transport\.as_(ref|mut)\(\)|transport\.is_(some|none)\(\)' crates/machine/src; then
  echo "ci: a processor without a transport is back"; exit 1
fi
# A checkpoint holds what a respawn reads, once (DESIGN.md section 12): no
# pool rotation, no checkpoint trait, no per-processor recovery counter.
if grep -rnE 'PoolSnapshot|Checkpoint\b|"recovery\.(epochs|replays|replayed_frames|replay_ms)"' crates/machine/src; then
  echo "ci: a second copy of recovery state is back"; exit 1
fi

# Public items and knobs that no caller used stay gone: the index-pair
# redistribution mode, chaos's mode flags, the machine's unused accessors
# and re-exports, the Fortran 90 sibling intrinsics crate, and the scan,
# gather, scatter and index helpers only it or their own tests called; the
# plan cache, its fingerprints and the named-counter registry (a caller
# holds its plan, DESIGN.md section 10); the PACK message types that kept a
# copy of their rank part beside the sender's route row, and their fill
# kernels (a staged message holds values only, DESIGN.md section 11); the
# rank lists that were not a route row — UNPACK's own request type and the
# rows cut for it, and the pair decode of PACK(A, M, VECTOR) off the plan;
# the second send half and message type, the composer trait objects, and
# distarray's per-processor array and index helpers that only their own
# tests called (one Sender and one pooled message serve both directions,
# DESIGN.md section 10); the pool's ownership of a plan's slots, the plans'
# pool keys and the retire that gave their slots back by key, the type-erased
# list of lent slots, and the payload copy hook that every Clone made
# redundant (a plan owns its slot table, DESIGN.md section 11).
if grep -rnE -e 'RedistMode|Machine::line|--reuse-plans|--recover\b' \
  -e 'hpf_intrinsics|hpf-intrinsics|prefix_scan_with|gather_to_root|scatter_from_root|global_index_of_linear|index::assert_u32_indexable' \
  -e 'PlanCache|plan\.cache\.|inc_counter|\.fingerprint\(' \
  -e 'PairMsg|CmsMessage|ensure_shape|gather_pairs_(re)?fill' \
  -e 'RankRequest|into_rows|decode_pairs' \
  -e 'FlatMsg|ValueMsg|Outbox|SimpleComposer|CompactComposer|dyn Composer|LocalArray|delinearize_into|get_linear' \
  -e '\bpool_slot|pool_retire|Waitable|lent_scratch|\bpool_key|clone_payload' \
  crates/ src/ tests/ examples/ Cargo.toml README.md DESIGN.md .claude/; then
  echo "ci: a removed public item or chaos flag is back"; exit 1
fi
# A pool entry holds one slot, one message in flight per (plan, destination)
# (DESIGN.md section 11): the two-slot array and its rotation bit stay gone.
if grep -nE '\bflip\b|; 2\]' crates/machine/src/pool.rs; then
  echo "ci: the pool's two-slot rotation is back"; exit 1
fi
# A plan owns its slot table (DESIGN.md section 11): nothing under crates/
# reaches a slot by key. The keyed adapter stays for benchmark/src/probes.rs
# only; its definitions (and fresh_pool_key's unit test) and its one machine
# test are the only functions that may name it. Comments, and the `use`
# lines above a file's first function, call nothing.
if awk '
  FNR == 1 { cur = "" }
  /^[[:space:]]*\/\// { next }
  match($0, /fn [A-Za-z_0-9]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
  /(^|[^A-Za-z_0-9])(fresh_pool_key|pool_checkout|pool_current|alltoallv_pooled)([^A-Za-z_0-9]|$)/ &&
    cur != "" &&
    cur !~ /^(fresh_pool_key|pool_checkout|pool_current|alltoallv_pooled|fresh_keys_are_unique|unevenly_executed_plan_is_a_pool_stall)$/ {
    print FILENAME ":" FNR ": " $0; bad = 1
  }
  END { exit !bad }
' $(find crates -name '*.rs'); then
  echo "ci: a slot is reached by key outside the adapter the benchmark probes use"; exit 1
fi
if grep -nE '^pub use .*\b(Mailbox|WallProfiler)\b' crates/machine/src/lib.rs; then
  echo "ci: hpf_machine re-exports its mailbox or wall profiler again"; exit 1
fi
# One recorder per processor (DESIGN.md section 8): events, category spans and
# wall spans are one stream, and a checkpoint keeps its length, not a copy.
if grep -rnE 'WallProfiler|enable_trace|take_trace|events: self\.events\.clone' crates/machine/src; then
  echo "ci: a second recorder or a checkpoint copy of the event log is back"; exit 1
fi

echo "== the examples run (README's quick tour) =="
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "== chaos smoke (random PACK/UNPACK roundtrips vs the oracle, clean, faulted and recovered; the trace export parses) =="
# The 36 iterations cover every mode chaos's pure mode(iter) picks: each PACK
# scheme under each many-to-many schedule, one-shot and through plans; Red.1
# and Red.2; pool sizes 1 and 2; lossy and lossless fault plans. Every
# iteration runs a crash-recovery drill, and every third a fail-fast crash
# drill. chaos reads the trace it wrote back and exits 1 unless it is Chrome
# trace_event JSON with span events and send / recv / retransmit / dup-drop /
# fault-verdict annotations.
chaos_trace="$(mktemp)"
cargo run -p hpf-bench --release --bin chaos -- --seed 1 --iters 36 --trace-out "$chaos_trace"
rm -f "$chaos_trace"
# Same seed, same output: twelve iterations (2, 3, 6, 7, 10 and 11 on two
# workers) run twice must print the same bytes.
chaos_a="$(mktemp)" chaos_b="$(mktemp)"
cargo run -p hpf-bench --release -q --bin chaos -- --seed 1 --iters 12 >"$chaos_a"
cargo run -p hpf-bench --release -q --bin chaos -- --seed 1 --iters 12 >"$chaos_b"
if ! diff "$chaos_a" "$chaos_b"; then
  echo "ci: chaos printed two outputs for one seed"; rm -f "$chaos_a" "$chaos_b"; exit 1
fi
rm -f "$chaos_a" "$chaos_b"

echo "== results/ is what this tree prints (the ten artefacts, BENCH.json, critpath.txt) =="
# ~40 s. The perf report renders only if its gates hold
# (hpf_bench::report::GATES): Section 6.4 conformance exact, predicted peak
# memory bounding the measured one within 1.25x, a crash actually
# recovered, plan reuse amortizing. Zero steady-state allocations are
# zero_alloc's to prove, a dense mask lowering to bulk copies
# copy_lowering's, and pool identity at P up to 4096 sched_determinism's
# (all above). A failure names the file and its first differing line (in
# BENCH.json also the workload) or the workload and the broken gate; a
# deliberate change runs scripts/regen-results.sh.
cargo run -p hpf-bench --release --bin repro -- --check results

echo "ci: all gates passed"
