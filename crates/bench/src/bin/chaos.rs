//! Chaos harness: PACK→UNPACK roundtrips under randomized fault schedules.
//!
//! Each iteration draws a random array configuration and a random
//! [`FaultPlan`] (per-link drop / duplicate / delay / reorder, all ≤ 20 %),
//! runs the full pipeline on a clean machine and on a faulted machine, and
//! asserts that
//!
//! * both runs agree bit-exactly with the sequential Fortran 90 oracle,
//! * drop/duplicate/reorder faults leave the *simulated* clocks bit-identical
//!   to the clean run (the reliable transport hides them completely),
//! * injected delays change simulated time deterministically (two faulted
//!   runs agree with each other), and
//! * a scheduled processor crash surfaces as a typed
//!   [`hpf_machine::MachineError`] naming the crashed processor, never as a
//!   hang — or, under `--recover`, is absorbed by
//!   [`hpf_machine::Machine::run_recoverable`] with results bit-identical to
//!   the clean run and clocks bit-identical between recovered runs.
//!
//! The sweep cycles through all three PACK schemes (SSS / CSS / CMS), both
//! UNPACK schemes, and both redistribution variants (Red.1 / Red.2), and
//! reports the transport's retry/latency overhead at the end.
//!
//! Usage:
//! ```sh
//! cargo run -p hpf-bench --release --bin chaos -- [--seed N] [--iters N] \
//!     [--reuse-plans] [--recover] [--workers N] [--trace-out FILE]
//! # defaults: seed 1, 20 iterations
//! # --workers pins the cooperative scheduler's pool size for every machine
//! # in the sweep (default: one worker per core); results and simulated
//! # clocks are pool-size-invariant, so running the same seed under
//! # --workers 1 and --workers N is itself a determinism drill
//! # --recover replaces the fail-fast crash drill with a recovery drill on
//! # every iteration: a crash is scheduled (send-side on even iterations,
//! # receive-side on odd), the run goes through run_recoverable, and the
//! # recovered results must match the clean run bit-exactly while two
//! # recovered runs must also agree on their simulated clocks
//! # --reuse-plans routes plain PACK/UNPACK through the explicit
//! # plan-then-execute path, executing each plan three times through the
//! # pooled zero-copy buffers (the redistribution variants keep their
//! # one-shot entry points); every execute must produce bit-identical
//! # results even when the fault schedule forces retransmission of
//! # Arc-shared pooled payloads
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
use hpf_machine::{CostModel, FaultPlan, Machine, MachineError, ProcGrid, RunOutput};

fn main() {
    let mut args = Args::from_env(
        "usage: chaos [--seed N] [--iters N] [--reuse-plans] [--recover] [--workers N] \
         [--trace-out FILE]",
    );
    let seed: u64 = args.value("--seed").unwrap_or(1);
    let iters: usize = args.value("--iters").unwrap_or(20);
    let reuse_plans = args.flag("--reuse-plans");
    let recover = args.flag("--recover");
    let workers: Option<usize> = args.value("--workers");
    let trace_out: Option<String> = args.value("--trace-out");
    args.positionals(0);

    let mut rng = Rng(seed);
    let mut stats = Stats::default();
    for iter in 0..iters {
        // On any panic the iteration context is printed first, so a failure
        // is reproducible with `--seed`.
        println!("iter {iter} (seed {seed}):");
        run_iteration(
            &mut rng,
            seed,
            iter,
            reuse_plans,
            recover,
            workers,
            &mut stats,
        );
    }
    if let Some(path) = &trace_out {
        write_trace(seed, path);
    }
    println!(
        "chaos: {iters} iterations passed (seed {seed}): {} roundtrips, {} crash drills, \
         {} recoveries ({} frames replayed), {} retransmissions, {} duplicates dropped, \
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
    replayed_frames: u64,
    retransmits: u64,
    dup_drops: u64,
    retry_overhead_sum: f64,
    latency_overhead_sum: f64,
}

fn run_iteration(
    rng: &mut Rng,
    seed: u64,
    iter: usize,
    reuse_plans: bool,
    recover: bool,
    workers: Option<usize>,
    stats: &mut Stats,
) {
    let (grid, desc) = random_array(rng, 2);
    let (shape, grid_dims) = (desc.shape(), grid.dims());
    let n: usize = shape.iter().product();
    let density = 10 + rng.below(80);
    let mask_bits: Vec<bool> = (0..n).map(|_| rng.below(100) < density).collect();
    let values: Vec<i32> = (0..n).map(|_| rng.below(2000) as i32 - 1000).collect();
    let a = GlobalArray::from_vec(&shape, values);
    let m = GlobalArray::from_vec(&shape, mask_bits);

    // Sweep the schemes: each iteration exercises one PACK scheme, one
    // UNPACK scheme, and (on redistribution iterations) one Red variant.
    let pscheme = PackScheme::ALL[iter % PackScheme::ALL.len()];
    let uscheme = UnpackScheme::ALL[iter % UnpackScheme::ALL.len()];
    let redist = match iter % 4 {
        1 => Some(RedistScheme::SelectedData),
        3 => Some(RedistScheme::WholeArrays),
        _ => None,
    };
    let opts = PackOptions::new(pscheme);
    let uopts = UnpackOptions::new(uscheme);

    // A non-crash fault plan: every probability ≤ 20 %.
    let has_delay = rng.below(2) == 0;
    let plan = FaultPlan::new(rng.next_u64())
        .with_drop(rng.prob(0.2))
        .with_duplicate(rng.prob(0.2))
        .with_reorder(rng.prob(0.2))
        .with_delay(if has_delay { rng.prob(0.2) } else { 0.0 }, 200_000.0);
    let ctx = format!(
        "seed {seed} iter {iter}: shape {shape:?}, grid {grid_dims:?}, density {density}%, \
         {pscheme:?}/{uscheme:?}, redist {redist:?}, plan {plan:?}"
    );
    println!("  {ctx}");

    let mut clean = Machine::new(grid.clone(), CostModel::cm5());
    if let Some(w) = workers {
        clean = clean.with_workers(w);
    }
    let faulty = clean.clone().with_faults(plan.clone());

    // ---- PACK: clean, faulted, faulted again (determinism), oracle ------
    let want_v = pack_seq(&a, &m, None);
    let (ap, mp) = (a.partition(&desc), m.partition(&desc));
    let (d, apr, mpr, o) = (&desc, &ap, &mp, &opts);
    let pack_prog = move |proc: &mut hpf_machine::Proc<'_>| match redist {
        None if reuse_plans => {
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
        if reuse_plans {
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

    // ---- crash drill ----------------------------------------------------
    if recover {
        // Recovery drill, every iteration: a scheduled crash (send-side on
        // even iterations, receive-side on odd) goes through the
        // recoverable runner. Recovered results must match the clean run
        // bit-exactly; two recovered runs must also agree on their
        // simulated clocks (clocks are not compared against the
        // non-recoverable run because recovery routes sync frames through
        // the sequenced transport, shifting the per-sequence delay draws).
        let victim = rng.below(grid.nprocs());
        let step = 1 + rng.below(3) as u64;
        let crash_plan = if iter.is_multiple_of(2) {
            plan.with_crash(victim, step)
        } else {
            plan.with_crash_at_recv(victim, step)
        };
        // Metrics ride along so the drill can check the replay-log memory
        // floor below; they are bookkeeping only and must not perturb the
        // simulated clocks or results.
        let crashing = clean.clone().with_faults(crash_plan).with_metrics(true);
        let ra = crashing
            .run_recoverable(pack_prog)
            .unwrap_or_else(|e| panic!("recovery drill failed: {e}\n{ctx}"));
        let rb = crashing
            .run_recoverable(pack_prog)
            .unwrap_or_else(|e| panic!("recovery drill failed: {e}\n{ctx}"));
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
        // Post-recovery memory floor: every epoch boundary truncates the
        // replay log down to the frames its fresh checkpoint does not yet
        // cover, so once the run completes — crash or no crash — each
        // processor's `mem.replay_log.cur` gauge must sit at zero. A
        // nonzero residue means a replay re-charged frames it never
        // released (double-counting) or a boundary skipped truncation.
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
            stats.replayed_frames += rec.replayed_frames;
        }
        return;
    }

    // Fail-fast drill: a scheduled crash must surface as a typed error,
    // never as a hang.
    if iter.is_multiple_of(3) {
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
