//! Steady-state allocation gate: from the second execution of a held plan
//! onward (the plan holds one slot per route row, made by the first execute,
//! so warm-up is exactly one iteration), `execute_into` must perform **zero
//! heap allocations** on every worker thread — the whole gather → exchange
//! → decode loop runs out of pooled buffers and reused capacity.
//!
//! The gate is exact and deterministic: the test installs the counting
//! global allocator and asserts the per-thread allocation delta across the
//! steady-state iterations is literally zero, for every PACK scheme and
//! every UNPACK scheme, at both cyclic and wide block sizes, on the index
//! loop and on the bulk `Contig` path — under `Machine::run`, under
//! `Machine::run_recoverable` with no fault plan (a benign recoverable run
//! sends raw, logs nothing and ships the live pool slots, so
//! attaching recovery must cost the hot path nothing), with metrics on
//! (counters and gauges are plain fields: a stage or a message costs an
//! add, never a name), and under a fault plan that duplicates and delays but
//! neither drops nor holds back (every message sequenced by the reliable
//! transport, no link acknowledged: nothing is kept for a retry and the
//! receiver's delivery buffer is reused). The metrics runs also show that
//! fault-free pooled execution never deep-copies a payload:
//! `payload.clone_words` stays zero. A plan large and dense enough to lend
//! its source (DESIGN.md §11) fills no buffer at all; its lending scope,
//! loans and rendezvous allocate nothing from the second execute on either.
//! Traced and wall-profiled, too: each processor records into one stream
//! of fixed-size records whose chunks are reserved whole, so a traced run
//! allocates its first chunk before the window opens; a run longer than
//! one chunk allocates one more per 4 096 records and never moves a record.
//! `scripts/ci.sh` runs this suite in both build profiles.

use hpf_core::{
    plan_pack, plan_unpack, CopyStats, MaskPattern, PackOptions, PackOutput, PackScheme,
    UnpackOptions, UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist};
use hpf_machine::alloc_counter::{thread_totals, CountingAllocator};
use hpf_machine::{CostModel, FaultPlan, Machine, Proc, ProcGrid, RunOutput};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One warm-up execute makes the plan's one slot per route row; the measured
/// window starts at the second.
const WARMUP: usize = 1;
/// Measured steady-state executes.
const STEADY: usize = 4;

/// 256 elements per processor: two whole chunks of the UNPACK field pass,
/// so `Full` skips both and `FirstHalf` one of them.
const N: usize = 1024;
const P: usize = 4;

fn desc(w: usize) -> ArrayDesc {
    ArrayDesc::new(&[N], &ProcGrid::line(P), &[Dist::BlockCyclic(w)]).unwrap()
}

/// How a sweep's machine is built and run.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Plain,
    Recoverable,
    /// `with_metrics(true)`, tracing off.
    Metrics,
    /// `Machine::run` under a lossless fault plan: duplicates and delays,
    /// no drop, no hold-back, no crash.
    Faulted,
    /// `with_tracing(true).with_wall_profiling(true)`: events, category
    /// spans and wall spans, all into the processor's one recorder.
    Traced,
}

const MODES: [Mode; 5] = [
    Mode::Plain,
    Mode::Recoverable,
    Mode::Metrics,
    Mode::Faulted,
    Mode::Traced,
];

/// Block size × run mode of both sweeps.
const CASES: [(usize, Mode); 10] = [
    (1, Mode::Plain),
    (4, Mode::Plain),
    (1, Mode::Recoverable),
    (4, Mode::Recoverable),
    (1, Mode::Metrics),
    (4, Mode::Metrics),
    (1, Mode::Faulted),
    (4, Mode::Faulted),
    (1, Mode::Traced),
    (4, Mode::Traced),
];

/// Fence the measured window of a recoverable run. A recoverable run ends
/// in a retire barrier, and a peer that finishes first would put its barrier
/// frame — a first frame under a new `(source, tag)`, i.e. a new mailbox lane
/// — into a slower processor's window. Two uncharged barriers keep the
/// window clean: the one before it opens the lanes that the one after it
/// reuses, and nobody retires until everybody has left the second.
fn fence(proc: &mut Proc) {
    let world = proc.world();
    proc.clock_sync_max(&world);
}

/// `program` on a machine in `mode`; a metrics run must not have
/// deep-copied a payload word.
fn run<R: Send>(mode: Mode, what: &str, program: impl Fn(&mut Proc) -> R + Sync) -> RunOutput<R> {
    let machine = Machine::new(ProcGrid::line(P), CostModel::cm5());
    match mode {
        Mode::Plain => machine.run(program),
        Mode::Recoverable => machine.run_recoverable(program).expect("benign run"),
        Mode::Metrics => {
            let out = machine.with_metrics(true).run(program);
            let cloned = out.merged_metrics().counter("payload.clone_words");
            assert_eq!(cloned, 0, "{what}: a fault-free run deep-copied a payload");
            out
        }
        Mode::Faulted => {
            let plan = FaultPlan::new(5)
                .with_duplicate(0.2)
                .with_delay(0.3, 40_000.0);
            machine.with_faults(plan).run(program)
        }
        Mode::Traced => machine
            .with_tracing(true)
            .with_wall_profiling(true)
            .run(program),
    }
}

fn mask() -> MaskPattern {
    MaskPattern::Random {
        density: 0.5,
        seed: 7,
    }
}

/// Plan a PACK under `pattern`, warm it up, and return what `STEADY` more
/// executes allocated on this processor, `(count, bytes)`, with the plan's
/// copy-program statistics.
fn steady_pack<'a>(
    d: &'a ArrayDesc,
    opts: &'a PackOptions,
    pattern: MaskPattern,
) -> impl Fn(&mut Proc) -> ((u64, u64), CopyStats) + Sync + 'a {
    move |proc| {
        let m = local_from_fn(d, proc.id(), |g| pattern.value(g, &[N]));
        let a = local_from_fn(d, proc.id(), |g| g[0] as i32);
        let plan = plan_pack(proc, d, &m, opts).unwrap();
        let mut out = PackOutput {
            local_v: Vec::new(),
            size: 0,
            v_layout: None,
        };
        for _ in 0..WARMUP {
            plan.execute_into(proc, &a, &mut out).unwrap();
        }
        let baseline = out.local_v.clone();
        fence(proc);
        let (c0, b0) = thread_totals();
        for _ in 0..STEADY {
            plan.execute_into(proc, &a, &mut out).unwrap();
        }
        let (c1, b1) = thread_totals();
        fence(proc);
        assert_eq!(out.local_v, baseline, "steady-state result drifted");
        ((c1 - c0, b1 - b0), plan.copy_stats())
    }
}

/// The random mask's runs are too short to lower, so its plans walk the
/// index loop; `FirstHalf` in blocks of 64 gives every processor two
/// selected 64-long runs, one per destination, which lower to `Contig` ops
/// — the bulk path, asserted walked.
#[test]
fn pack_execute_is_allocation_free_in_steady_state() {
    let random = CASES.map(|(w, mode)| (mask(), w, mode));
    let bulk = MODES.map(|mode| (MaskPattern::FirstHalf, 64, mode));
    for (pattern, w, mode) in random.into_iter().chain(bulk) {
        for scheme in PackScheme::ALL {
            let (d, opts) = (desc(w), PackOptions::new(scheme));
            let what = format!("{pattern:?} {scheme:?} w={w} {mode:?}");
            let out = run(mode, &what, steady_pack(&d, &opts, pattern));
            for (p, &((allocs, bytes), stats)) in out.results.iter().enumerate() {
                assert_eq!(
                    (allocs, bytes),
                    (0, 0),
                    "{what}: proc {p} allocated \
                     {allocs} times ({bytes} bytes) in {STEADY} steady-state executes"
                );
                if pattern == MaskPattern::FirstHalf {
                    assert!(stats.bulk_elements > 0, "{what}: proc {p} {stats:?}");
                }
            }
        }
    }
}

/// A machine keeps its carriers' stacks between runs, in a pool it hands
/// them back to; that must not cost the caller's thread an allocation per
/// run (a pool that grew, a reservation rebuilt), nor warm or cool anything
/// a processor's execute loop sees.
#[test]
fn a_reused_machine_stays_allocation_quiet() {
    let machine = Machine::new(ProcGrid::line(P), CostModel::cm5()).with_workers(1);
    let (d, opts) = (desc(4), PackOptions::new(PackScheme::CompactMessage));
    // Carriers count their own allocations: the caller's delta is the
    // driver's — fabric, worker loop, result collection.
    let driver_allocs = || {
        let (c0, _) = thread_totals();
        let out = machine.run(steady_pack(&d, &opts, mask()));
        (thread_totals().0 - c0, out.results)
    };
    let (first, _) = driver_allocs();
    for run in 2..=4 {
        let (again, steady) = driver_allocs();
        assert!(
            again <= first,
            "run {run} allocated {again} times on the driver, run 1 {first}"
        );
        let counts: Vec<(u64, u64)> = steady.iter().map(|r| r.0).collect();
        assert_eq!(counts, [(0, 0); P], "run {run}: steady-state executes");
    }
}

/// UNPACK under the random mask (one field span: the whole local array), a
/// full one (no span: the scatter writes everything) and `FirstHalf` (spans
/// and skipped chunks mixed). The field pass runs in place from the second
/// execute on: no allocation, and `out` keeps its pointer and capacity.
#[test]
fn unpack_execute_is_allocation_free_in_steady_state() {
    for pattern in [mask(), MaskPattern::Full, MaskPattern::FirstHalf] {
        for (w, mode) in CASES {
            for scheme in UnpackScheme::ALL {
                let d = desc(w);
                let opts = UnpackOptions::new(scheme);
                let size = {
                    let m = pattern.global(&[N]);
                    m.data().iter().filter(|&&b| b).count()
                };
                let vl = DimLayout::new_general(size, P, size.div_ceil(P)).unwrap();
                let (dr, o, vlr) = (&d, &opts, &vl);
                let what = format!("{pattern:?} {scheme:?} w={w} {mode:?}");
                let out = run(mode, &what, move |proc| {
                    let m = local_from_fn(dr, proc.id(), |g| pattern.value(g, &[N]));
                    let f = local_from_fn(dr, proc.id(), |_| -1i32);
                    let v: Vec<i32> = (0..vlr.local_len(proc.id()))
                        .map(|l| vlr.global_of(proc.id(), l) as i32)
                        .collect();
                    let plan = plan_unpack(proc, dr, &m, vlr, o).unwrap();
                    let mut out = Vec::new();
                    for _ in 0..WARMUP {
                        plan.execute_into(proc, &f, &v, &mut out).unwrap();
                    }
                    let baseline = out.clone();
                    let held = (out.as_ptr(), out.capacity());
                    fence(proc);
                    let (c0, b0) = thread_totals();
                    for _ in 0..STEADY {
                        plan.execute_into(proc, &f, &v, &mut out).unwrap();
                    }
                    let (c1, b1) = thread_totals();
                    fence(proc);
                    assert_eq!(out, baseline, "steady-state result drifted");
                    assert_eq!((out.as_ptr(), out.capacity()), held, "`out` was rebuilt");
                    (c1 - c0, b1 - b0)
                });
                for (p, &(allocs, bytes)) in out.results.iter().enumerate() {
                    assert_eq!(
                        (allocs, bytes),
                        (0, 0),
                        "{what}: proc {p} allocated {allocs} times ({bytes} bytes) \
                         in {STEADY} steady-state executes"
                    );
                }
            }
        }
    }
}

/// Lending: a full mask of 4 096 elements per processor in blocks of 64
/// sends every processor's whole slice, all of it by bulk ops, so every
/// PACK and UNPACK plan lends. From the second execute on, pack and unpack
/// allocate nothing, in every mode — a benign recoverable run logs nothing
/// and lends as a plain one does.
#[test]
fn lending_execute_is_allocation_free_in_steady_state() {
    const L: usize = 4096;
    let d = ArrayDesc::new(&[P * L], &ProcGrid::line(P), &[Dist::BlockCyclic(64)]).unwrap();
    for mode in MODES {
        for (pack, unpack) in PackScheme::ALL
            .into_iter()
            .zip(UnpackScheme::ALL.into_iter().cycle())
        {
            let (popts, uopts) = (PackOptions::new(pack), UnpackOptions::new(unpack));
            let what = format!("{pack:?} + {unpack:?} {mode:?}");
            let (dr, po, uo) = (&d, &popts, &uopts);
            let out = run(mode, &what, move |proc| {
                let m = vec![true; L];
                let a = local_from_fn(dr, proc.id(), |g| g[0] as i32);
                let f = vec![-1i32; L];
                let pplan = plan_pack(proc, dr, &m, po).unwrap();
                let vl = pplan.v_layout().unwrap();
                let uplan = plan_unpack(proc, dr, &m, &vl, uo).unwrap();
                assert!(pplan.lends() && uplan.lends(), "every plan lends");
                let mut v = PackOutput {
                    local_v: Vec::new(),
                    size: 0,
                    v_layout: None,
                };
                let mut back = Vec::new();
                for _ in 0..WARMUP {
                    pplan.execute_into(proc, &a, &mut v).unwrap();
                    uplan.execute_into(proc, &f, &v.local_v, &mut back).unwrap();
                }
                fence(proc);
                let (c0, b0) = thread_totals();
                for _ in 0..STEADY {
                    pplan.execute_into(proc, &a, &mut v).unwrap();
                    uplan.execute_into(proc, &f, &v.local_v, &mut back).unwrap();
                }
                let (c1, b1) = thread_totals();
                fence(proc);
                assert_eq!(back, a, "unpack(pack(a)) under a full mask is a");
                (c1 - c0, b1 - b0)
            });
            for (p, &(allocs, bytes)) in out.results.iter().enumerate() {
                assert_eq!(
                    (allocs, bytes),
                    (0, 0),
                    "{what}: proc {p} allocated {allocs} times ({bytes} bytes) \
                     in {STEADY} steady-state lending executes"
                );
            }
        }
    }
}

/// Enumerating a processor's elements by global linear index — what the
/// redistributions, the ranking oracle and every input generator do per
/// element — allocates a fixed handful of scratch vectors for the walk and
/// nothing per element: `ArrayDesc::global_linear` linearises from the
/// descriptor's own dimensions (it used to build the shape `Vec` per call,
/// 65 664 allocations to enumerate 65 536 elements).
#[test]
fn global_linear_enumeration_allocates_nothing_per_element() {
    let grid = ProcGrid::new(&[2, 2]);
    let dists = [Dist::BlockCyclic(2), Dist::BlockCyclic(3)];
    let enumerate = |shape: &[usize]| {
        let d = ArrayDesc::new(shape, &grid, &dists).unwrap();
        let mut sum = 0usize;
        let (c0, b0) = thread_totals();
        for p in 0..grid.nprocs() {
            d.for_each_local_global(p, |_, g| sum += d.global_linear(g));
        }
        let (c1, b1) = thread_totals();
        let n = d.global_len();
        assert_eq!(sum, n * (n - 1) / 2, "every element visited once");
        (c1 - c0, b1 - b0)
    };
    let small = enumerate(&[8, 12]);
    assert_eq!(
        enumerate(&[64, 96]),
        small,
        "64x the elements, the same allocations"
    );
    let d = ArrayDesc::new(&[8, 12], &grid, &dists).unwrap();
    let (c0, b0) = thread_totals();
    let lin = d.global_linear(&[5, 7]);
    assert_eq!(thread_totals(), (c0, b0), "global_linear itself allocates");
    assert_eq!(lin, 5 + 7 * 8);
}
