//! Chaos harness: PACK→UNPACK roundtrips of random configurations against
//! the sequential Fortran 90 oracle, under randomized fault schedules.
//!
//! Each iteration draws a random array configuration (rank 1–3, per
//! dimension 1–3 processors, block size and tiles), a random mask, an
//! optional result-vector block size `W'` and a random [`FaultPlan`]
//! (per-link drop / duplicate / delay / reorder, all ≤ 20 %), runs the full
//! pipeline on a clean machine and on a faulted machine, and asserts that
//!
//! * both runs agree bit-exactly with [`hpf_core::seq`], the oracle,
//! * drop/duplicate/reorder faults leave the *simulated* clocks bit-identical
//!   to the clean run (the reliable transport hides them completely),
//! * injected delays change simulated time deterministically (two faulted
//!   runs agree with each other),
//! * a scheduled crash is absorbed by
//!   [`hpf_machine::Machine::run_recoverable`], with results bit-identical to
//!   the clean run, clocks bit-identical between two recovered runs and every
//!   replay log empty at the end, and
//! * on every third iteration, a scheduled crash under
//!   [`hpf_machine::Machine::try_run`] surfaces as a typed
//!   [`hpf_machine::MachineError`] naming the crashed processor, never as a
//!   hang.
//!
//! What else an iteration runs is a pure function of its number, [`mode`]:
//! the PACK scheme × many-to-many schedule, one-shot or through plans
//! executed three times, Red.1 / Red.2, the UNPACK scheme, a worker pool of
//! one or two, and a lossy or lossless fault plan. The first 36 iterations
//! cover every value of each. The transport's retry/latency overhead is
//! reported at the end. The output is a function of the seed: the frames
//! the recoveries replayed are summed over one-worker iterations only, since
//! on two workers what a victim had consumed when it crashed follows the
//! interleaving.
//!
//! Usage:
//! ```sh
//! cargo run -p hpf-bench --release --bin chaos -- [--seed N] [--iters N] [--trace-out FILE]
//! # defaults: seed 1, 36 iterations
//! # --trace-out additionally runs one traced fault-injected PACK and writes
//! # it as Chrome trace_event JSON (open in Perfetto / chrome://tracing);
//! # the trace carries send/recv, retransmit, dup-drop, and fault-verdict
//! # annotations, and chaos reads the file back and exits 1 unless it
//! # parses and holds them.
//! ```

use hpf_analysis::Json;
use hpf_bench::cases::{assemble_packed, random_array, random_vector, Rng};
use hpf_bench::cli::Args;
use hpf_core::seq::{count_seq, pack_seq, unpack_seq};
use hpf_core::{
    pack, pack_redistributed, plan_pack, plan_unpack, unpack, PackOptions, PackScheme,
    RedistScheme, UnpackOptions, UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, Dist, GlobalArray};
use hpf_machine::collectives::A2aSchedule;
use hpf_machine::{CostModel, FaultPlan, Machine, MachineError, ProcGrid, RunOutput};

/// The many-to-many schedules the sweep runs each PACK scheme under.
const SCHEDULES: [A2aSchedule; 3] = [
    A2aSchedule::LinearPermutation,
    A2aSchedule::NaivePush,
    A2aSchedule::PairwiseExchange,
];

/// What one iteration runs, beside its random draws.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Mode {
    pscheme: PackScheme,
    schedule: A2aSchedule,
    uscheme: UnpackScheme,
    /// PACK and UNPACK go through plans, each executed three times.
    planned: bool,
    /// A preliminary redistribution before a one-shot PACK.
    redist: Option<RedistScheme>,
    /// Worker-pool size of every machine in the iteration.
    workers: usize,
    /// The fault plan neither drops nor reorders, so its links carry no
    /// acknowledgement.
    lossless: bool,
    /// Also run the fail-fast crash drill.
    fail_fast: bool,
}

/// The mode of iteration `iter`. Nine iterations cover PACK scheme ×
/// schedule; of each four blocks of nine, the first runs them one-shot, the
/// second and fourth through plans, and the third one-shot after Red.1 or
/// Red.2.
fn mode(iter: usize) -> Mode {
    let block = iter / 9;
    Mode {
        pscheme: PackScheme::ALL[iter % 3],
        schedule: SCHEDULES[iter / 3 % 3],
        uscheme: UnpackScheme::ALL[iter % 2],
        planned: block % 2 == 1,
        redist: (block % 4 == 2).then_some(if iter.is_multiple_of(2) {
            RedistScheme::SelectedData
        } else {
            RedistScheme::WholeArrays
        }),
        workers: 1 + iter / 2 % 2,
        lossless: iter % 3 == 2,
        fail_fast: iter.is_multiple_of(3),
    }
}

fn main() {
    let mut args = Args::from_env("usage: chaos [--seed N] [--iters N] [--trace-out FILE]");
    let seed: u64 = args.value("--seed").unwrap_or(1);
    let iters: usize = args.value("--iters").unwrap_or(36);
    let trace_out: Option<String> = args.value("--trace-out");
    args.positionals(0);

    let mut rng = Rng(seed);
    let mut stats = Stats::default();
    for iter in 0..iters {
        // On any panic the iteration context is printed first, so a failure
        // is reproducible with `--seed`.
        println!("iter {iter} (seed {seed}):");
        run_iteration(&mut rng, seed, iter, &mut stats);
    }
    if let Some(path) = &trace_out {
        write_trace(seed, path);
    }
    println!(
        "chaos: {iters} iterations passed (seed {seed}): {} roundtrips, {} crash drills, \
         {} recoveries ({} frames replayed on one worker), {} retransmissions, \
         {} duplicates dropped, \
         mean retry overhead {:.1}%, mean simulated latency overhead {:.1}%",
        stats.roundtrips,
        stats.crash_drills,
        stats.recoveries,
        stats.replayed_frames,
        stats.retransmits,
        stats.dup_drops,
        100.0 * stats.retry_overhead_sum / stats.roundtrips.max(1) as f64,
        100.0 * stats.latency_overhead_sum / stats.roundtrips.max(1) as f64,
    );
}

#[derive(Default)]
struct Stats {
    roundtrips: usize,
    crash_drills: usize,
    recoveries: usize,
    /// Frames replayed by the recoveries of one-worker iterations.
    replayed_frames: u64,
    retransmits: u64,
    dup_drops: u64,
    retry_overhead_sum: f64,
    latency_overhead_sum: f64,
}

fn run_iteration(rng: &mut Rng, seed: u64, iter: usize, stats: &mut Stats) {
    let mode @ Mode {
        pscheme,
        schedule,
        uscheme,
        planned,
        redist,
        ..
    } = mode(iter);
    let (grid, desc) = random_array(rng, 3);
    let (shape, grid_dims) = (desc.shape(), grid.dims());
    let n: usize = shape.iter().product();
    let density = 10 + rng.below(80);
    let mask_bits: Vec<bool> = (0..n).map(|_| rng.below(100) < density).collect();
    let values: Vec<i32> = (0..n).map(|_| rng.below(2000) as i32 - 1000).collect();
    let a = GlobalArray::from_vec(&shape, values);
    let m = GlobalArray::from_vec(&shape, mask_bits);

    let result_block_size = (rng.below(2) == 0).then(|| 1 + rng.below(7));
    let opts = PackOptions {
        schedule,
        result_block_size,
        ..PackOptions::new(pscheme)
    };
    let uopts = UnpackOptions {
        schedule,
        ..UnpackOptions::new(uscheme)
    };

    // A non-crash fault plan: every probability ≤ 20 %. A lossless mode
    // forces drop and reorder to zero (the draws are still taken).
    let has_delay = rng.below(2) == 0;
    let lossy = |p: f64| if mode.lossless { 0.0 } else { p };
    let plan = FaultPlan::new(rng.next_u64())
        .with_drop(lossy(rng.prob(0.2)))
        .with_duplicate(rng.prob(0.2))
        .with_reorder(lossy(rng.prob(0.2)))
        .with_delay(if has_delay { rng.prob(0.2) } else { 0.0 }, 200_000.0);
    let ctx = format!(
        "seed {seed} iter {iter}: shape {shape:?}, grid {grid_dims:?}, density {density}%, \
         W' {result_block_size:?}, {mode:?}, plan {plan:?}"
    );
    println!("  {ctx}");

    let clean = Machine::new(grid.clone(), CostModel::cm5()).with_workers(mode.workers);
    let faulty = clean.clone().with_faults(plan.clone());

    // ---- PACK: clean, faulted, faulted again (determinism), oracle ------
    let want_v = pack_seq(&a, &m, None);
    let (ap, mp) = (a.partition(&desc), m.partition(&desc));
    let (d, apr, mpr, o) = (&desc, &ap, &mp, &opts);
    let pack_prog = move |proc: &mut hpf_machine::Proc<'_>| match redist {
        None if planned => {
            let plan = plan_pack(proc, d, &mpr[proc.id()], o).unwrap();
            let mut out = hpf_core::PackOutput {
                local_v: Vec::new(),
                size: 0,
                v_layout: None,
            };
            plan.execute_into(proc, &apr[proc.id()], &mut out).unwrap();
            let first = out.local_v.clone();
            // Two more executes rotate through both pool slots, so the fault
            // schedule gets to retransmit an Arc-shared pooled payload while
            // its slot is being reused.
            for _ in 0..2 {
                plan.execute_into(proc, &apr[proc.id()], &mut out).unwrap();
                assert_eq!(out.local_v, first, "re-execute diverged under faults");
            }
            out
        }
        None => pack(proc, d, &apr[proc.id()], &mpr[proc.id()], o).unwrap(),
        Some(r) => pack_redistributed(proc, d, &apr[proc.id()], &mpr[proc.id()], r, o).unwrap(),
    };
    let machines = (&clean, &faulty);
    let pack_base = run_clean_and_faulted("PACK", machines, pack_prog, has_delay, &ctx, stats);
    let got = assemble_packed(&pack_base);
    assert_eq!(got, want_v, "clean PACK diverged from oracle\n{ctx}");

    // ---- UNPACK the packed vector back under the same mask --------------
    let size = count_seq(&m);
    let (v, v_layout, v_locals) = random_vector(rng, size, grid.nprocs());
    let want_u = unpack_seq(&v, &m, &a);
    let (vpr, vl, uo) = (&v_locals, &v_layout, &uopts);
    let unpack_prog = move |proc: &mut hpf_machine::Proc<'_>| {
        let (m, f, v) = (&mpr[proc.id()], &apr[proc.id()], &vpr[proc.id()]);
        if planned {
            let plan = plan_unpack(proc, d, m, vl, uo).unwrap();
            let mut out = Vec::new();
            plan.execute_into(proc, f, v, &mut out).unwrap();
            let first = out.clone();
            for _ in 0..2 {
                plan.execute_into(proc, f, v, &mut out).unwrap();
                assert_eq!(out, first, "re-execute diverged under faults");
            }
            out
        } else {
            unpack(proc, d, m, f, v, vl, uo).unwrap()
        }
    };
    let base = run_clean_and_faulted("UNPACK", machines, unpack_prog, has_delay, &ctx, stats);
    assert_eq!(
        GlobalArray::assemble(&desc, &base.results),
        want_u,
        "clean UNPACK diverged from oracle\n{ctx}"
    );
    stats.roundtrips += 1;

    // ---- recovery drill -------------------------------------------------
    // A scheduled crash (send-side on even iterations, receive-side on odd)
    // goes through the recoverable runner. Recovered results must match the
    // clean run bit-exactly; two recovered runs must also agree on their
    // simulated clocks (clocks are not compared against the non-recoverable
    // run because recovery routes sync frames through the sequenced
    // transport, shifting the per-sequence delay draws).
    let victim = rng.below(grid.nprocs());
    let step = 1 + rng.below(3) as u64;
    let crash_plan = if iter.is_multiple_of(2) {
        plan.clone().with_crash(victim, step)
    } else {
        plan.clone().with_crash_at_recv(victim, step)
    };
    // Metrics ride along so the drill can check the replay-log memory floor
    // below; they are bookkeeping only and must not perturb the simulated
    // clocks or results.
    let crashing = clean.clone().with_faults(crash_plan).with_metrics(true);
    let recover = || {
        (crashing.run_recoverable(pack_prog))
            .unwrap_or_else(|e| panic!("recovery drill failed: {e}\n{ctx}"))
    };
    let (ra, rb) = (recover(), recover());
    assert_eq!(
        ra.results, pack_base.results,
        "recovered PACK diverged from the clean run\n{ctx}"
    );
    assert_eq!(ra.results, rb.results, "recovered runs disagree\n{ctx}");
    for (ca, cb) in ra.clocks.iter().zip(&rb.clocks) {
        assert_eq!(
            ca.now_ns, cb.now_ns,
            "recovered runs' simulated clocks diverged\n{ctx}"
        );
    }
    // Post-recovery memory floor: every epoch boundary truncates the replay
    // log down to the frames its fresh checkpoint does not yet cover, so
    // once the run completes — crash or no crash — each processor's
    // `mem.replay_log.cur` gauge must sit at zero. A nonzero residue means a
    // replay re-charged frames it never released (double-counting) or a
    // boundary skipped truncation.
    for (pid, snap) in ra.metrics.iter().enumerate() {
        let g = &snap.gauges["mem.replay_log.cur"];
        assert_eq!(
            g.last, 0,
            "proc {pid}: replay log retains {} bytes past its \
             truncation floor after recovery\n{ctx}",
            g.last
        );
    }
    let rec = ra.recovery.as_ref().expect("recoverable run reports stats");
    if rec.replays > 0 {
        stats.recoveries += 1;
        // A replay re-delivers what the victim consumed since its last
        // boundary, which on two workers follows their interleaving; on one
        // it is a function of the seed, like the rest of the summary.
        if mode.workers == 1 {
            stats.replayed_frames += rec.replayed_frames;
        }
    }

    // ---- fail-fast drill: a scheduled crash must surface as a typed
    // error, never as a hang.
    if mode.fail_fast {
        let victim = rng.below(grid.nprocs());
        let step = 1 + rng.below(3) as u64;
        let crashing = clean.clone().with_faults(plan.with_crash(victim, step));
        match crashing.try_run(pack_prog) {
            // The victim never reached its crash step (few sends): fine,
            // but the results must still be correct.
            Ok(out) => assert_eq!(
                out.results, pack_base.results,
                "crash-free run must still be correct\n{ctx}"
            ),
            Err(e) => match e.root_cause() {
                MachineError::ProcCrashed { proc, step: s } => {
                    assert_eq!(
                        (*proc, *s),
                        (victim, step),
                        "wrong crash attribution\n{ctx}"
                    );
                    stats.crash_drills += 1;
                }
                other => panic!("crash drill produced {other} instead of ProcCrashed\n{ctx}"),
            },
        }
    }
}

/// Run one fault-injected PACK (CMS; 64 elements block-cyclic(2) on four
/// processors, two in three selected) with tracing and metrics on, and write
/// it to `path` as Chrome trace_event JSON (open in Perfetto /
/// chrome://tracing). Drop and duplicate rates are high enough that
/// retransmit, dup-drop and fault-verdict annotations appear beside the
/// send/recv events; the file is read back and checked for them.
fn write_trace(seed: u64, path: &str) {
    let grid = ProcGrid::line(4);
    let desc = ArrayDesc::new(&[64], &grid, &[Dist::BlockCyclic(2)]).expect("4 * 2 divides 64");
    let plan = FaultPlan::new(seed)
        .with_drop(0.3)
        .with_duplicate(0.3)
        .with_reorder(0.2);
    let machine = Machine::new(grid, CostModel::cm5())
        .with_tracing(true)
        .with_metrics(true)
        .with_faults(plan);
    let d = &desc;
    let out = machine.run(move |proc| {
        let a = local_from_fn(d, proc.id(), |g| g[0] as i32 * 3 - 50);
        let m = local_from_fn(d, proc.id(), |g| g[0] % 3 != 0);
        let opts = PackOptions::new(PackScheme::CompactMessage);
        pack(proc, d, &a, &m, &opts).expect("a valid PACK").size
    });
    std::fs::write(path, out.chrome_trace_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let metrics = out.merged_metrics();
    println!(
        "trace written to {path} ({} events, {} retransmits, {} dup drops)",
        out.total_events(),
        metrics.counter("transport.retransmits"),
        metrics.counter("transport.dup_drops"),
    );
    match check_trace(path) {
        Ok(events) => println!("trace check: {events} events OK"),
        Err(why) => {
            eprintln!("chaos: {path}: {why}");
            std::process::exit(1);
        }
    }
}

/// What a viewer needs of the file at `path`: Chrome trace_event JSON with
/// span events and every message and fault annotation by name. Returns the
/// event count.
fn check_trace(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read back: {e}"))?;
    let trace = Json::parse(&text)?;
    let events = (trace.get("traceEvents").and_then(Json::as_arr)).ok_or("no traceEvents array")?;
    let has = |key: &str, want: &str| {
        let field = |e: &Json| e.get(key).and_then(Json::as_str).is_some_and(|v| v == want);
        events.iter().any(field)
    };
    for name in ["send", "recv", "retransmit", "dup-drop", "fault-verdict"] {
        if !has("name", name) {
            return Err(format!("trace is missing {name} events"));
        }
    }
    if !has("ph", "X") {
        return Err("trace has no span events".into());
    }
    Ok(events.len())
}

/// Run `prog` on the clean machine and twice on the faulted one, and return
/// the clean run: faults must not change the results, the two faulted runs
/// must agree on results and simulated clocks, and without an injected delay
/// their clocks must be the clean run's.
fn run_clean_and_faulted<R: Send + PartialEq + std::fmt::Debug>(
    what: &str,
    (clean, faulty): (&Machine, &Machine),
    prog: impl Fn(&mut hpf_machine::Proc<'_>) -> R + Sync,
    has_delay: bool,
    ctx: &str,
    stats: &mut Stats,
) -> RunOutput<R> {
    let run = |machine: &Machine, kind: &str| {
        let out = machine.try_run(&prog);
        out.unwrap_or_else(|e| panic!("{kind} {what} failed: {e}\n{ctx}"))
    };
    let (base, fa, fb) = (
        run(clean, "clean"),
        run(faulty, "faulted"),
        run(faulty, "faulted"),
    );
    assert_eq!(
        fa.results, base.results,
        "faults changed {what} results\n{ctx}"
    );
    assert_eq!(
        fa.results, fb.results,
        "faulted runs disagree with each other\n{ctx}"
    );
    for (ca, cb) in fa.clocks.iter().zip(&fb.clocks) {
        assert_eq!(
            ca.now_ns, cb.now_ns,
            "injected delays are not deterministic\n{ctx}"
        );
    }
    if !has_delay {
        for (cc, cf) in base.clocks.iter().zip(&fa.clocks) {
            assert_eq!(
                cc.now_ns, cf.now_ns,
                "drop/dup/reorder faults must not change simulated time\n{ctx}"
            );
        }
    }
    stats.retransmits += fa.total_retransmits();
    stats.dup_drops += fa.total_dup_drops();
    stats.retry_overhead_sum += fa.retry_overhead();
    let base_ms = base.max_time_ms();
    if base_ms > 0.0 {
        stats.latency_overhead_sum += (fa.max_time_ms() - base_ms) / base_ms;
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The first 36 iterations reach every mode the drill has: PACK scheme
    /// × schedule one-shot and through plans, both Red variants one-shot,
    /// both UNPACK schemes, both pool sizes under recovery, and lossy and
    /// lossless plans, with the fail-fast drill on every third.
    #[test]
    fn thirty_six_iterations_cover_every_mode() {
        let modes: Vec<Mode> = (0..36).map(mode).collect();
        let pack_paths: BTreeSet<_> = (modes.iter().filter(|m| m.redist.is_none()))
            .map(|m| (m.pscheme as usize, m.schedule as usize, m.planned))
            .collect();
        assert_eq!(pack_paths.len(), 3 * 3 * 2);
        let reds: BTreeSet<_> = (modes.iter().filter(|m| !m.planned))
            .filter_map(|m| m.redist.map(|r| r as usize))
            .collect();
        assert_eq!(reds.len(), 2);
        assert!(modes.iter().all(|m| !(m.planned && m.redist.is_some())));
        let unpacks: BTreeSet<_> = modes.iter().map(|m| m.uscheme as usize).collect();
        assert_eq!(unpacks.len(), 2);
        let pools: BTreeSet<_> = modes.iter().map(|m| m.workers).collect();
        assert_eq!(pools, BTreeSet::from([1, 2]));
        let plans: BTreeSet<_> = modes.iter().map(|m| m.lossless).collect();
        assert_eq!(plans, BTreeSet::from([false, true]));
        assert_eq!(modes.iter().filter(|m| m.fail_fast).count(), 12);
    }
}
