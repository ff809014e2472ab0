//! The perf report's workloads: the paper's headline configurations
//! (Table I / Table II / Figure 5), the plan-reuse, steady-state execute,
//! crash-recovery, peak-memory and scale sweeps, and the four application
//! kernels, measured on the simulated CM-5 cost model. [`report`] runs the
//! registry once per process; `results/BENCH.json` and
//! `results/critpath.txt` are two artefacts of it (`repro`, DESIGN.md §9.3).
//!
//! The report holds **only what is a function of the commit**: simulated
//! stage times and totals, traffic, operation and allocation counts,
//! memory bytes, bit-identity verdicts. Every workload runs once and
//! nothing is read from a clock. The `exec_hot` allocation counts are real
//! only in a binary that installs the counting global allocator, as `repro`
//! does; the `hot_counter_is_live` gate fails everywhere else.

use std::sync::OnceLock;

use hpf_analysis::{
    predict_pack_peak, predict_pack_redist_peak, predict_unpack_peak, Conformance, CritPath,
    PeakMemory,
};
use hpf_apps::{gather_global, run_compaction, sample_sort, SparseMatrix};
use hpf_core::{
    plan_pack, plan_unpack, MaskPattern, MaskStats, PackOptions, PackScheme, RedistScheme,
    UnpackOptions, UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist};
use hpf_machine::collectives::A2aSchedule;
use hpf_machine::{
    tags, Category, CostModel, Event, FaultPlan, Machine, Proc, ProcGrid, RunOutput,
};

use crate::report::{Entry, Report, ScaleReport, Section};
use crate::{
    measure_run, pack_plan_ops, run_pack, run_unpack, time_pack_hot, time_pack_reuse,
    time_unpack_hot, time_unpack_reuse, unpack_plan_ops, ExpConfig, Measurement, Observe,
};

/// Every workload of the registry, run once per process and kept.
pub fn report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| Report {
        entries: registry().iter().map(run).collect(),
    })
}

/// Executes per plan in the `plan_reuse` workloads (plan once, execute N).
const REUSE_EXECUTES: usize = 16;

/// Counted steady-state executes per `exec_hot` workload (after warm-up).
const HOT_EXECUTES: usize = 16;

/// Pool size the `scale` workloads compare a one-worker pool with. A
/// constant, not the host's core count: the report names it, and the report
/// is a function of the tree.
const SCALE_WORKERS: usize = 2;

/// Conformance tolerance: the Section 6.4 formulas are exact, so any
/// drift at all is a model violation.
const CONFORMANCE_TOL: f64 = 0.0;

/// Density of the random mask every masked workload uses (the dense
/// `FirstHalf` mask of the `.dense` rows selects the same fraction).
const DENSITY: f64 = 0.5;
const PATTERN: MaskPattern = MaskPattern::Random {
    density: DENSITY,
    seed: 42,
};

/// Either direction's scheme; the workload's name says which.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    Pack(PackScheme),
    Unpack(UnpackScheme),
}

impl Scheme {
    /// Every scheme of the paper: three PACK, then two UNPACK.
    fn all() -> impl Iterator<Item = Scheme> {
        let pack = PackScheme::ALL.into_iter().map(Scheme::Pack);
        pack.chain(UnpackScheme::ALL.into_iter().map(Scheme::Unpack))
    }

    /// The name fragment, e.g. `"pack.cms"`.
    fn label(self) -> &'static str {
        match self {
            Scheme::Pack(PackScheme::Simple) => "pack.sss",
            Scheme::Pack(PackScheme::CompactStorage) => "pack.css",
            Scheme::Pack(PackScheme::CompactMessage) => "pack.cms",
            Scheme::Unpack(UnpackScheme::Simple) => "unpack.sss",
            Scheme::Unpack(UnpackScheme::CompactStorage) => "unpack.css",
        }
    }
}

/// The preliminary redistributions of Table II, by name fragment.
const REDISTS: [(&str, RedistScheme); 2] = [
    ("pack.red1", RedistScheme::SelectedData),
    ("pack.red2", RedistScheme::WholeArrays),
];

#[derive(Debug, Clone, Copy)]
enum App {
    Compaction { steps: usize },
    Sort,
    Spmv,
    Gather,
}

/// What a workload runs and which [`Section`] comes out of it.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// One traced call, phase-resolved Section 6.4 conformance, critical
    /// path (Table I / Figures 3–5).
    Conform(Scheme),
    /// Traced PACK after a preliminary redistribution (Table II). No
    /// conformance: the formulas do not model the redistribution phase.
    Redist(RedistScheme),
    /// Plan once, execute N, against N full calls.
    Reuse(Scheme),
    /// Steady-state execute loop under the counting allocator.
    Hot(Scheme),
    /// Two-epoch program, fault-free and crashed in the measured epoch.
    Recover(Scheme),
    /// The same program, fault-free and over a lossy network.
    Faulted(Scheme),
    /// Application kernel, traced.
    App(App),
    /// Memory-tracked call, measured peak against the predicted one.
    Memory(Scheme),
    /// Memory-tracked PACK after a preliminary redistribution.
    MemoryRedist(RedistScheme),
    /// PACK → UNPACK roundtrip under worker-pool sizes 1 and N.
    Scale,
}

/// One row of the registry: everything the report knows about a workload
/// before running it.
#[derive(Debug)]
struct Workload {
    name: String,
    group: &'static str,
    shape: Vec<usize>,
    grid: Vec<usize>,
    /// Block size; `None` for the app kernels, which lay out their own data.
    w: Option<usize>,
    pattern: MaskPattern,
    kind: Kind,
}

impl Workload {
    fn cfg(&self) -> ExpConfig {
        let w = self.w.expect("a block-cyclic workload");
        ExpConfig::new(&self.shape, &self.grid, w, self.pattern)
    }
}

/// Every workload of the report, in report order. The sizes mirror the
/// paper's Section 7 setup (local size 1024 on 16 processors); the whole
/// registry runs in about five seconds.
fn registry() -> Vec<Workload> {
    let (n, p, wide) = (16384, 16, 64);
    // The common case: `n` elements block-cyclic(`w`) over a line of `p`
    // processors, under the random mask.
    let line = |name: String, group, w, kind| Workload {
        name,
        group,
        shape: vec![n],
        grid: vec![p],
        w: Some(w),
        pattern: PATTERN,
        kind,
    };
    let is_pack = |s: &Scheme| matches!(s, Scheme::Pack(_));
    let mut all = Vec::new();

    // Cyclic (W = 1, worst ranking overhead) and wide blocks per scheme.
    for (group, pack) in [("pack", true), ("unpack", false)] {
        for w in [1, wide] {
            for s in Scheme::all().filter(|s| is_pack(s) == pack) {
                let name = format!("{}.w{w}", s.label());
                all.push(line(name, group, w, Kind::Conform(s)));
            }
        }
        if pack {
            // Cyclic input, the case redistribution exists for.
            for (label, r) in REDISTS {
                all.push(line(label.into(), "redist", 1, Kind::Redist(r)));
            }
        }
    }
    for w in [1, wide] {
        for s in Scheme::all() {
            let name = format!("plan_reuse.{}.w{w}", s.label());
            all.push(line(name, "plan_reuse", w, Kind::Reuse(s)));
        }
    }
    // Random masks at cyclic and wide-block widths, plus a dense
    // (contiguous-mask) wide-block variant: the `.dense` rows are where the
    // copy-program lowering must reach its bulk-copy fraction.
    for (w, pattern, suffix) in [
        (1, PATTERN, ""),
        (wide, PATTERN, ""),
        (wide, MaskPattern::FirstHalf, ".dense"),
    ] {
        for s in Scheme::all() {
            let name = format!("exec_hot.{}.w{w}{suffix}", s.label());
            all.push(Workload {
                pattern,
                ..line(name, "exec_hot", w, Kind::Hot(s))
            });
        }
    }
    for s in Scheme::all() {
        if ["pack.sss", "pack.cms", "unpack.sss"].contains(&s.label()) {
            let name = format!("recovery.{}", s.label());
            all.push(line(name, "recovery", 4, Kind::Recover(s)));
        }
    }
    // No crash, a lossy network: what the transport retransmitted and
    // discarded is as much a function of the tree as the simulated time.
    let sss = Scheme::Pack(PackScheme::Simple);
    let name = "recovery.pack.sss.faulted".into();
    all.push(line(name, "recovery", 4, Kind::Faulted(sss)));
    for (name, shape, grid, app) in [
        (
            "compaction",
            vec![4096],
            vec![8],
            App::Compaction { steps: 6 },
        ),
        ("sort", vec![16384], vec![8], App::Sort),
        ("spmv", vec![256, 256], vec![4, 2], App::Spmv),
        ("gather", vec![4096], vec![8], App::Gather),
    ] {
        all.push(Workload {
            shape,
            grid,
            w: None,
            ..line(format!("apps.{name}"), "apps", 0, Kind::App(app))
        });
    }
    for s in Scheme::all() {
        let name = format!("memory.{}.w{wide}", s.label());
        all.push(line(name, "memory", wide, Kind::Memory(s)));
    }
    // Red.2's peak footprint is the whole point of tracking this group.
    for (label, r) in REDISTS {
        all.push(line(
            format!("memory.{label}"),
            "memory",
            1,
            Kind::MemoryRedist(r),
        ));
    }
    // Machine shapes the paper could never run; the local extent is fixed,
    // so P itself is the swept variable.
    for sp in [64, 256, 1024, 4096] {
        all.push(Workload {
            shape: vec![sp * 16],
            grid: vec![sp],
            ..line(format!("scale.roundtrip.p{sp}"), "scale", 4, Kind::Scale)
        });
    }
    all
}

type Ran = (Measurement, Option<CritPath>, Section);

/// Run one workload: the one place an [`Entry`] is made.
fn run(wl: &Workload) -> Entry {
    let (m, critpath, section): Ran = match wl.kind {
        Kind::Conform(scheme) => run_conform(wl, scheme),
        Kind::Redist(scheme) => {
            let opts = PackOptions::default();
            let (m, out) = run_pack(&wl.cfg(), Some(scheme), &opts, Observe::Events);
            (m, Some(CritPath::from_run(&out)), Section::None)
        }
        Kind::Reuse(scheme) => {
            let cfg = wl.cfg();
            let r = match scheme {
                Scheme::Pack(s) => time_pack_reuse(&cfg, &PackOptions::new(s), REUSE_EXECUTES),
                Scheme::Unpack(s) => {
                    time_unpack_reuse(&cfg, &UnpackOptions::new(s), REUSE_EXECUTES)
                }
            };
            (r.cached, None, Section::Reuse(r))
        }
        Kind::Hot(scheme) => {
            let cfg = wl.cfg();
            let (hot, m) = match scheme {
                Scheme::Pack(s) => time_pack_hot(&cfg, &PackOptions::new(s), HOT_EXECUTES),
                Scheme::Unpack(s) => time_unpack_hot(&cfg, &UnpackOptions::new(s), HOT_EXECUTES),
            };
            (m, None, Section::Hot(hot))
        }
        Kind::Recover(scheme) => run_recovery(wl, scheme, FaultPlan::new(5).with_crash(1, 4)),
        Kind::Faulted(scheme) => {
            let lossy = FaultPlan::new(5)
                .with_drop(0.2)
                .with_duplicate(0.1)
                .with_reorder(0.1);
            run_recovery(wl, scheme, lossy)
        }
        Kind::App(app) => run_app(wl, app),
        Kind::Memory(scheme) => run_memory(wl, scheme),
        Kind::MemoryRedist(redist) => run_memory_redist(wl, redist),
        Kind::Scale => run_scale(wl),
    };
    Entry {
        name: wl.name.clone(),
        group: wl.group,
        shape: wl.shape.clone(),
        grid: wl.grid.clone(),
        w: wl.w,
        density: wl.w.map(|_| DENSITY),
        m,
        critpath,
        section,
    }
}

/// `MaskStats` of the workload's (1-D) mask under block size `w`.
fn mask_stats(wl: &Workload, w: usize) -> MaskStats {
    let mask = wl.pattern.global(&wl.shape);
    MaskStats::from_mask(mask.data(), wl.grid[0], w, None)
}

/// Measurement, critical path and per-processor `LocalComp` op counts of
/// a traced run.
fn traced<R>((m, out): (Measurement, RunOutput<R>)) -> (Measurement, CritPath, Vec<u64>) {
    let ops = out.cat_ops_per_proc(Category::LocalComp);
    (m, CritPath::from_run(&out), ops)
}

/// One traced call with phase-resolved conformance: planner ops measured
/// alone, the executor's are the full run's minus them (deterministic
/// simulation), each checked against its own split prediction.
fn run_conform(wl: &Workload, scheme: Scheme) -> Ran {
    let cfg = wl.cfg();
    let stats = mask_stats(wl, cfg.w);
    let ((m, critpath, total_ops), plan_ops, predicted) = match scheme {
        Scheme::Pack(s) => {
            let opts = PackOptions::new(s);
            let run = traced(run_pack(&cfg, None, &opts, Observe::Events));
            let predicted = stats.predict_pack_ops_split(s, opts.scan_method);
            (run, pack_plan_ops(&cfg, &opts), predicted)
        }
        Scheme::Unpack(s) => {
            let opts = UnpackOptions::new(s);
            let run = traced(run_unpack(&cfg, &opts, false, Observe::Events));
            (
                run,
                unpack_plan_ops(&cfg, &opts),
                stats.predict_unpack_ops_split(s),
            )
        }
    };
    let exec_ops: Vec<u64> = (total_ops.iter().zip(&plan_ops))
        .map(|(t, p)| t - p)
        .collect();
    let conformance = Conformance::evaluate_split(
        scheme.label(),
        (&predicted.0, &predicted.1),
        (&plan_ops, &exec_ops),
        CONFORMANCE_TOL,
    );
    (m, Some(critpath), Section::Conformance(conformance))
}

/// One `recovery` workload: a two-epoch program (a one-message ring
/// warm-up establishing the checkpoint, then the measured collective) run
/// fault-free and under `hazard`. For the crash rows that is processor 1
/// crashing at its fourth program-level send — the first send is the
/// warm-up message, so the crash always lands inside the measured epoch,
/// deep enough that peers have logged frames to replay, and the respawn
/// exercises snapshot restore plus frame replay. For the `.faulted` row it
/// is a network that drops, duplicates and reorders (never delays: that
/// alone moves simulated time). The entry's simulated measurement comes
/// from the run under hazard; bit-identity with the fault-free run is
/// asserted here, so a recovery bug fails the report run itself. One worker:
/// how many frames the peers had sent — so how many are replayed — when the
/// victim crashes depends on the interleaving, which only a one-worker pool
/// fixes.
fn run_recovery(wl: &Workload, scheme: Scheme, hazard: FaultPlan) -> Ran {
    let name = &wl.name;
    let grid = ProcGrid::line(wl.grid[0]);
    let cfg = wl.cfg();
    let (desc, (_, v_layout)) = (cfg.desc(), cfg.packed_layout());
    let (d, vl, pat) = (&desc, &v_layout, &wl.pattern);
    let program = move |proc: &mut Proc<'_>| {
        // The checkpointed state threads through every epoch (the epoch-0
        // snapshot is restored into the resume epoch's state argument, so
        // all epochs must share one state value).
        let mut st: (i32, Vec<i32>) = (0, Vec::new());
        // Epoch 0: a one-send ring exchange, so a checkpoint exists before
        // the measured collective.
        proc.epoch(&mut st, |p, st| {
            let np = p.nprocs();
            p.send((p.id() + 1) % np, tags::USER, vec![p.id() as i32]);
            let got: Vec<i32> = p.recv((p.id() + np - 1) % np, tags::USER);
            st.0 = got[0];
        });
        // Epoch 1: the measured PACK or UNPACK — the crash fires in here.
        proc.epoch(&mut st, |proc, st| {
            let m = pat.local(d, proc.id());
            match scheme {
                Scheme::Pack(scheme) => {
                    let a = local_from_fn(d, proc.id(), |g| g[0] as i32 * 3 - 50);
                    let plan = plan_pack(proc, d, &m, &PackOptions::new(scheme)).unwrap();
                    st.1 = plan.execute(proc, &a).unwrap().local_v;
                }
                Scheme::Unpack(scheme) => {
                    let f = local_from_fn(d, proc.id(), |g| -(g[0] as i32));
                    let v_local: Vec<i32> = (0..vl.local_len(proc.id()))
                        .map(|l| vl.global_of(proc.id(), l) as i32 + 7000)
                        .collect();
                    let plan = plan_unpack(proc, d, &m, vl, &UnpackOptions::new(scheme)).unwrap();
                    st.1 = plan.execute(proc, &f, &v_local).unwrap();
                }
            }
        });
        st.1
    };
    let machine = Machine::new(grid, CostModel::cm5()).with_workers(1);
    let clean = machine
        .clone()
        .with_faults(FaultPlan::new(5))
        .run_recoverable(program)
        .expect("fault-free recoverable run");
    let crashed = machine
        .with_faults(hazard)
        .run_recoverable(program)
        .expect("the run must come through its hazard");
    assert_eq!(
        crashed.results, clean.results,
        "{name}: recovered results diverged from the fault-free run"
    );
    for (cc, cr) in clean.clocks.iter().zip(&crashed.clocks) {
        assert_eq!(
            cc.now_ns, cr.now_ns,
            "{name}: recovered simulated clocks diverged"
        );
    }
    let stats = crashed
        .recovery
        .clone()
        .expect("recoverable run reports stats");
    let elems = crashed.results.iter().map(|v| v.len()).sum();
    (measure_run(&crashed, elems), None, Section::Recovery(stats))
}

/// A `memory` workload: a traced run with the workload arrays registered
/// against the `user` account; the measured machine-wide high-water mark
/// is gated against the closed-form predicted peak (DESIGN.md §13).
/// Simulated times match the untracked runs bit-exactly — memory
/// accounting is never clock-charged.
fn run_memory(wl: &Workload, scheme: Scheme) -> Ran {
    let cfg = wl.cfg();
    let stats = mask_stats(wl, cfg.w);
    let (m, events, predicted) = match scheme {
        Scheme::Pack(s) => {
            let (m, out) = run_pack(&cfg, None, &PackOptions::new(s), Observe::Memory);
            (m, out.events, predict_pack_peak(&stats, s))
        }
        Scheme::Unpack(s) => {
            let (m, out) = run_unpack(&cfg, &UnpackOptions::new(s), false, Observe::Memory);
            (m, out.events, predict_unpack_peak(&stats, s))
        }
    };
    (
        m,
        None,
        memory_section(wl, scheme.label(), &predicted, &events),
    )
}

/// A `memory` workload with a preliminary redistribution; see [`run_memory`].
fn run_memory_redist(wl: &Workload, redist: RedistScheme) -> Ran {
    let opts = PackOptions::default();
    let (m, out) = run_pack(&wl.cfg(), Some(redist), &opts, Observe::Memory);
    let (src, blk) = (mask_stats(wl, 1), mask_stats(wl, wl.shape[0] / wl.grid[0]));
    let predicted = predict_pack_redist_peak(&src, &blk, opts.scheme, redist);
    let label = wl.name.strip_prefix("memory.").expect("a memory workload");
    (m, None, memory_section(wl, label, &predicted, &out.events))
}

fn memory_section(wl: &Workload, label: &str, predicted: &[u64], events: &[Vec<Event>]) -> Section {
    // Constant per-proc mailbox-ring pre-reserve, asserted byte-exactly (it
    // is excluded from the workload peak the ratio gate covers).
    let ring = hpf_machine::ring_bytes(hpf_machine::default_capacity(wl.grid[0]));
    Section::Memory(PeakMemory::evaluate(label, predicted, events, ring))
}

/// One `scale` workload: a masked PACK → UNPACK roundtrip with a fixed
/// local extent, run under worker-pool sizes 1 and [`SCALE_WORKERS`] and
/// compared bit-exactly — the pool-size-invariance gate. Tracing and
/// metrics stay off, and the dense plan-time exchanges use the push
/// schedule over a `p`-frame ring (same simulated numbers as the
/// round-paced schedules, fewer scheduler hand-offs on one host).
fn run_scale(wl: &Workload) -> Ran {
    let p = wl.grid[0];
    let grid = ProcGrid::line(p);
    let desc = wl.cfg().desc();
    let (d, pattern) = (&desc, wl.pattern);
    let program = move |proc: &mut Proc<'_>| {
        let m = pattern.local(d, proc.id());
        let a = local_from_fn(d, proc.id(), |gi| gi[0] as i32 * 3 - 50);
        let popts = PackOptions {
            schedule: A2aSchedule::NaivePush,
            ..PackOptions::new(PackScheme::Simple)
        };
        let plan = plan_pack(proc, d, &m, &popts).unwrap();
        let out = plan.execute(proc, &a).unwrap();
        let vl = out.v_layout.expect("mask selects elements");
        let f = local_from_fn(d, proc.id(), |gi| -(gi[0] as i32));
        let uopts = UnpackOptions {
            schedule: A2aSchedule::NaivePush,
            ..UnpackOptions::new(UnpackScheme::Simple)
        };
        let uplan = plan_unpack(proc, d, &m, &vl, &uopts).unwrap();
        let unpacked = uplan.execute(proc, &f, &out.local_v).unwrap();
        (out.local_v, unpacked)
    };
    let run = |workers: usize| {
        Machine::new(grid.clone(), CostModel::cm5())
            .with_workers(workers)
            .with_chan_capacity(p)
            .run(program)
    };
    let (low, high) = (run(1), run(SCALE_WORKERS));
    let identical = low.results == high.results
        && low.comm_matrix == high.comm_matrix
        && low.clocks.iter().zip(&high.clocks).all(|(a, b)| {
            a.now_ns == b.now_ns
                && a.ops == b.ops
                && a.words_sent == b.words_sent
                && a.startups == b.startups
                && Category::ALL.iter().all(|c| a.cat_ms(*c) == b.cat_ms(*c))
        });
    let elems: usize = high.results.iter().map(|r| r.0.len()).sum();
    let scale = ScaleReport {
        workers_low: 1,
        workers_high: SCALE_WORKERS,
        identical,
    };
    (measure_run(&high, elems), None, Section::Scale(scale))
}

/// The four application kernels, traced for their critical path.
fn run_app(wl: &Workload, app: App) -> Ran {
    let grid = ProcGrid::new(&wl.grid);
    let p = grid.nprocs();
    let n = wl.shape[0];
    let machine = Machine::new(grid.clone(), CostModel::cm5()).with_tracing(true);
    let measured = |out: &RunOutput<usize>, size: usize| -> Ran {
        let critpath = CritPath::from_run(out);
        (measure_run(out, size), Some(critpath), Section::None)
    };
    match app {
        App::Compaction { steps } => {
            let out = machine.run(move |proc| {
                let advance = |x: i64, _| x.wrapping_mul(31).wrapping_add(17) % 100_000;
                let survive =
                    |x: i64, step: usize| !(x.unsigned_abs() as usize + step).is_multiple_of(4);
                let opts = PackOptions::new(PackScheme::CompactMessage);
                let stats = run_compaction(proc, n, steps, advance, survive, &opts).unwrap();
                stats.last().map(|s| s.alive).unwrap_or(0)
            });
            measured(&out, out.results[0])
        }
        App::Sort => {
            let per_proc = n / p;
            let out = machine.run(move |proc| {
                // Deterministic pseudo-random keys, distinct per processor.
                let mut x = 0x9E37_79B9u64.wrapping_mul(proc.id() as u64 + 1);
                let v: Vec<i64> = (0..per_proc)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (x >> 33) as i64
                    })
                    .collect();
                let (sorted, _) = sample_sort(proc, &v, true, A2aSchedule::LinearPermutation);
                sorted.len()
            });
            measured(&out, out.results.iter().sum())
        }
        App::Spmv => {
            let dists = [Dist::BlockCyclic(2), Dist::BlockCyclic(2)];
            let desc = ArrayDesc::new(&wl.shape, &grid, &dists).unwrap();
            let x_layout = DimLayout::new_general(n, p, n.div_ceil(p)).unwrap();
            let (d, xl) = (&desc, &x_layout);
            // Banded matrix: nonzero iff |row - col| <= 4 — the uneven-density
            // pattern the module documentation motivates.
            let entry = move |col: usize, row: usize| {
                if row.abs_diff(col) <= 4 {
                    (row * n + col + 1) as f64
                } else {
                    0.0
                }
            };
            let out = machine.run(move |proc| {
                let dense = local_from_fn(d, proc.id(), |g| entry(g[0], g[1]));
                let a = SparseMatrix::compress(proc, d, &dense, &PackOptions::default()).unwrap();
                let x_local: Vec<f64> = (0..xl.local_len(proc.id()))
                    .map(|l| xl.global_of(proc.id(), l) as f64 * 0.25)
                    .collect();
                a.spmv(proc, &x_local, xl, A2aSchedule::LinearPermutation);
                a.nnz
            });
            measured(&out, out.results[0])
        }
        App::Gather => {
            let layout = DimLayout::new_general(n, p, n.div_ceil(p)).unwrap();
            let l = &layout;
            let out = machine.run(move |proc| {
                let v_local: Vec<i64> = (0..l.local_len(proc.id()))
                    .map(|k| l.global_of(proc.id(), k) as i64)
                    .collect();
                // Scattered request pattern touching every owner.
                let indices: Vec<usize> = (0..n / p)
                    .map(|k| (k * 2654435761 + proc.id() * 97) % n)
                    .collect();
                let got =
                    gather_global(proc, &v_local, l, &indices, A2aSchedule::LinearPermutation);
                for (k, &g) in indices.iter().enumerate() {
                    assert_eq!(got[k], g as i64, "gather fetched the wrong element");
                }
                got.len()
            });
            measured(&out, out.results.iter().sum())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::GROUPS;

    /// What the deleted Python validator required of a report's names, now
    /// a property of the registry: every paper scheme in every group.
    const REQUIRED: [&str; 35] = [
        "pack.sss",
        "pack.css",
        "pack.cms",
        "pack.red1",
        "pack.red2",
        "unpack.sss",
        "unpack.css",
        "plan_reuse.pack.sss",
        "plan_reuse.pack.css",
        "plan_reuse.pack.cms",
        "plan_reuse.unpack.sss",
        "plan_reuse.unpack.css",
        "exec_hot.pack.sss",
        "exec_hot.pack.css",
        "exec_hot.pack.cms",
        "exec_hot.unpack.sss",
        "exec_hot.unpack.css",
        "recovery.pack.sss",
        "recovery.pack.cms",
        "recovery.unpack.sss",
        "recovery.pack.sss.faulted",
        "apps.compaction",
        "apps.sort",
        "apps.spmv",
        "apps.gather",
        "memory.pack.sss",
        "memory.pack.css",
        "memory.pack.cms",
        "memory.unpack.sss",
        "memory.unpack.css",
        "memory.pack.red1",
        "memory.pack.red2",
        "scale.roundtrip.p64",
        "scale.roundtrip.p1024",
        "scale.roundtrip.p4096",
    ];

    #[test]
    fn registry_names_every_required_workload() {
        let all = registry();
        assert_eq!(all.len(), 56);
        for prefix in REQUIRED {
            let dotted = format!("{prefix}.");
            let named = |wl: &Workload| wl.name == prefix || wl.name.starts_with(&dotted);
            assert!(all.iter().any(named), "no workload named {prefix}[.*]");
        }
        let dense = |wl: &&Workload| wl.group == "exec_hot" && wl.name.ends_with(".dense");
        assert_eq!(
            all.iter().filter(dense).count(),
            5,
            "one .dense row per scheme"
        );
        // Groups appear in GROUPS order, names are unique.
        let order: Vec<usize> = all
            .iter()
            .map(|wl| GROUPS.iter().position(|(g, _)| *g == wl.group).unwrap())
            .collect();
        assert!(order.windows(2).all(|w| w[0] <= w[1]), "{order:?}");
        let mut names: Vec<&str> = all.iter().map(|wl| wl.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    /// The report is a function of the commit: the group whose counters
    /// could follow the thread interleaving (one worker fixes that) renders
    /// the same bytes twice, in any build profile, and passes its gates.
    #[test]
    fn recovery_group_renders_identically_twice() {
        let render = || {
            let registry = registry();
            let recovery = registry.iter().filter(|wl| wl.group == "recovery");
            let report = Report {
                entries: recovery.map(run).collect(),
            };
            assert_eq!(report.violations(), [""; 0]);
            report.render()
        };
        let first = render();
        assert_eq!(first.matches("\"replays\": 1").count(), 3, "{first}");
        assert_eq!(first.matches("\"replays\": 0").count(), 1, "{first}");
        assert_eq!(first, render());
    }
}
