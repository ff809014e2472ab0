//! Steady-state allocation gate: from the third execution of a cached plan
//! onward (the two pool slots per destination are warmed alternately, so
//! warm-up is exactly two iterations), `execute_into` must perform **zero
//! heap allocations** on every worker thread — the whole gather → exchange
//! → decode loop runs out of pooled buffers and reused capacity.
//!
//! The gate is exact and deterministic: the test installs the counting
//! global allocator and asserts the per-thread allocation delta across the
//! steady-state iterations is literally zero, for every PACK scheme and
//! every UNPACK scheme, at both cyclic and wide block sizes — under
//! `Machine::run`, under `Machine::run_recoverable` with no fault plan
//! (a benign recoverable run has no transport, logs nothing and ships the
//! live pool slots, so attaching recovery must cost the hot path nothing)
//! and with metrics on (counters and gauges are plain fields: a stage or a
//! message costs an add, never a name).

use hpf_core::{
    plan_pack, plan_unpack, MaskPattern, PackOptions, PackOutput, PackScheme, UnpackOptions,
    UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist};
use hpf_machine::alloc_counter::{thread_totals, CountingAllocator};
use hpf_machine::{CostModel, Machine, Proc, ProcGrid, RunOutput};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Two warm-up executes fill both slots of every pool entry; the measured
/// window starts at the third.
const WARMUP: usize = 2;
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
}

/// Block size × run mode of both sweeps.
const CASES: [(usize, Mode); 6] = [
    (1, Mode::Plain),
    (4, Mode::Plain),
    (1, Mode::Recoverable),
    (4, Mode::Recoverable),
    (1, Mode::Metrics),
    (4, Mode::Metrics),
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

/// `program` on a fault-free machine in `mode`.
fn run<R: Send>(mode: Mode, program: impl Fn(&mut Proc) -> R + Sync) -> RunOutput<R> {
    let machine = Machine::new(ProcGrid::line(P), CostModel::cm5());
    match mode {
        Mode::Plain => machine.run(program),
        Mode::Recoverable => machine.run_recoverable(program).expect("benign run"),
        Mode::Metrics => machine.with_metrics(true).run(program),
    }
}

fn mask() -> MaskPattern {
    MaskPattern::Random {
        density: 0.5,
        seed: 7,
    }
}

/// Plan a PACK, warm it up, and return what `STEADY` more executes
/// allocated on this processor: `(count, bytes)`.
fn steady_pack<'a>(
    d: &'a ArrayDesc,
    opts: &'a PackOptions,
) -> impl Fn(&mut Proc) -> (u64, u64) + Sync + 'a {
    let pattern = mask();
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
        (c1 - c0, b1 - b0)
    }
}

#[test]
fn pack_execute_is_allocation_free_in_steady_state() {
    for (w, mode) in CASES {
        for scheme in PackScheme::ALL {
            let (d, opts) = (desc(w), PackOptions::new(scheme));
            let out = run(mode, steady_pack(&d, &opts));
            for (p, &(allocs, bytes)) in out.results.iter().enumerate() {
                assert_eq!(
                    (allocs, bytes),
                    (0, 0),
                    "{scheme:?} w={w} {mode:?}: proc {p} allocated \
                     {allocs} times ({bytes} bytes) in {STEADY} steady-state executes"
                );
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
        let out = machine.run(steady_pack(&d, &opts));
        (thread_totals().0 - c0, out.results)
    };
    let (first, _) = driver_allocs();
    for run in 2..=4 {
        let (again, steady) = driver_allocs();
        assert!(
            again <= first,
            "run {run} allocated {again} times on the driver, run 1 {first}"
        );
        assert_eq!(steady, [(0, 0); P], "run {run}: steady-state executes");
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
                let out = run(mode, move |proc| {
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
                        "{pattern:?} {scheme:?} w={w} {mode:?}: proc {p} \
                         allocated {allocs} times ({bytes} bytes) in {STEADY} steady-state executes"
                    );
                }
            }
        }
    }
}

/// Fault-free pooled execution never deep-copies a payload: the
/// `payload.clone_words` counter stays zero.
#[test]
fn fault_free_execution_never_clones_payloads() {
    let d = desc(4);
    let opts = PackOptions::new(PackScheme::CompactStorage);
    let (dr, o, pattern) = (&d, &opts, mask());
    let machine = Machine::new(ProcGrid::line(P), CostModel::cm5()).with_metrics(true);
    let out = machine.run(move |proc| {
        let m = local_from_fn(dr, proc.id(), |g| pattern.value(g, &[N]));
        let a = local_from_fn(dr, proc.id(), |g| g[0] as i32);
        let plan = plan_pack(proc, dr, &m, o).unwrap();
        let mut out = PackOutput {
            local_v: Vec::new(),
            size: 0,
            v_layout: None,
        };
        for _ in 0..4 {
            plan.execute_into(proc, &a, &mut out).unwrap();
        }
        out.size
    });
    assert!(out.results[0] > 0);
    assert_eq!(
        out.merged_metrics().counter("payload.clone_words"),
        0,
        "fault-free run deep-copied a payload"
    );
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
