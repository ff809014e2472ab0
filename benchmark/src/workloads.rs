//! The six workloads and what one round of each measures.
//!
//! A round runs in a process of its own (see `main.rs`): it generates its
//! inputs from the seed, sets the machine up, warms up, times ops for about
//! `window`, and checks the last results against the sequential oracle. The
//! program under test only ever sees the generated inputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hpf_core::seq::{pack_seq, unpack_seq};
use hpf_core::{
    pack, plan_pack, plan_unpack, unpack, CopyStats, MaskPattern, PackOptions, PackOutput,
    PackScheme, UnpackOptions, UnpackScheme,
};
use hpf_distarray::{ArrayDesc, DimLayout, Dist, GlobalArray};
use hpf_machine::alloc_counter::thread_totals;
use hpf_machine::collectives::A2aSchedule;
use hpf_machine::{
    tags, CostModel, FaultPlan, Machine, MemAccount, Proc, ProcGrid, RecoveryStats, RunOutput,
};

use crate::procfs::thread_voluntary_ctxsw;
use crate::spans::{Layers, OpTag, Trace, MACHINE_RUN, OP};

/// Untimed ops before anything is measured: the two pool slots per
/// destination alternate, so the third op is the first in steady state.
const WARMUP_OPS: usize = 3;
/// Ops timed by processor 0 to size the window.
const CALIBRATE_OPS: usize = 5;
/// Simulated time is read after this many timed ops, so it does not depend
/// on how many ops the host fits in the window.
pub const SIM_OPS: usize = 8;
/// Ops of a traced round are capped: the library keeps every span in memory.
const TRACED_MAX_OPS: usize = 400;
/// Roundtrip executes inside one `recover_crash` op.
const RECOVER_EXECUTES: usize = 8;
/// `recover_crash` crashes processor 1 at its 60th send.
const CRASH: (usize, u64) = (1, 60);

/// How a workload's op is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Plan once; op = `PackPlan::execute_into` + `UnpackPlan::execute_into`
    /// inside one machine run.
    Exec,
    /// Op = one-shot `pack` + `unpack` inside one machine run; nothing is
    /// cached between ops.
    Oneshot,
    /// Op = one whole `Machine::run`: spawn, plan, execute, unpack, join.
    Scale,
    /// Op = one `Machine::run_recoverable` that survives a crash.
    Recover,
}

/// One workload: a problem shape plus the op run on it. Why each exists is
/// recorded in `BENCHMARK.json` and `README.md`.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub shape: Vec<usize>,
    pub grid: Vec<usize>,
    /// Block size of the block-cyclic distribution, every dimension.
    pub w: usize,
    /// Mask density: 1.0 selects everything, anything else is a seeded
    /// Bernoulli mask.
    pub density: f64,
}

/// The six workloads, in the order they are run and reported.
pub fn all() -> Vec<Workload> {
    let exec = |name, n: usize, w, density| Workload {
        name,
        kind: Kind::Exec,
        shape: vec![n],
        grid: vec![16],
        w,
        density,
    };
    vec![
        exec("exec_small", 8192, 64, 1.0),
        exec("exec_large", 1 << 22, 4096, 1.0),
        exec("exec_sparse", 1 << 21, 64, 0.5),
        Workload {
            name: "oneshot_2d",
            kind: Kind::Oneshot,
            shape: vec![512, 512],
            grid: vec![4, 4],
            w: 2,
            density: 0.5,
        },
        Workload::scale("scale_p512", 512),
        Workload {
            kind: Kind::Recover,
            ..exec("recover_crash", 65536, 64, 0.5)
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The `scale` roundtrip at `p` processors: 16 elements each, the shape
    /// of perf's `scale.roundtrip`.
    pub fn scale(name: &'static str, p: usize) -> Workload {
        Workload {
            name,
            kind: Kind::Scale,
            shape: vec![16 * p],
            grid: vec![p],
            w: 4,
            density: 0.5,
        }
    }

    pub fn nprocs(&self) -> usize {
        self.grid.iter().product()
    }

    pub fn global_len(&self) -> usize {
        self.shape.iter().product()
    }

    pub fn pattern(&self, seed: u64) -> MaskPattern {
        if self.density >= 1.0 {
            MaskPattern::Full
        } else {
            MaskPattern::Random {
                density: self.density,
                seed,
            }
        }
    }

    /// Roundtrip executes one op performs.
    pub fn executes_per_op(&self) -> usize {
        match self.kind {
            Kind::Recover => RECOVER_EXECUTES,
            _ => 1,
        }
    }

    /// Serial machine: one run permit, CM-5 cost model, every observer off
    /// unless the round is traced.
    pub fn machine(&self, traced: bool) -> Machine {
        self.machine_with(traced, Some(1))
    }

    /// `workers: None` leaves the pool at its default, the host's
    /// parallelism.
    fn machine_with(&self, traced: bool, workers: Option<usize>) -> Machine {
        let m = Machine::new(ProcGrid::new(&self.grid), CostModel::cm5())
            .with_wall_profiling(traced)
            .with_metrics(traced);
        let m = match workers {
            Some(n) => m.with_workers(n),
            None => m,
        };
        if self.kind == Kind::Scale {
            m.with_chan_capacity(self.nprocs())
        } else {
            m
        }
    }

    /// The many-to-many schedule the workload's exchanges use.
    pub fn schedule(&self) -> A2aSchedule {
        self.pack_opts().schedule
    }

    fn pack_opts(&self) -> PackOptions {
        match self.kind {
            Kind::Exec | Kind::Recover => PackOptions::new(PackScheme::CompactMessage),
            Kind::Oneshot => PackOptions::new(PackScheme::CompactStorage),
            Kind::Scale => PackOptions {
                schedule: A2aSchedule::NaivePush,
                ..PackOptions::new(PackScheme::Simple)
            },
        }
    }

    fn unpack_opts(&self) -> UnpackOptions {
        match self.kind {
            Kind::Scale => UnpackOptions {
                schedule: A2aSchedule::NaivePush,
                ..UnpackOptions::new(UnpackScheme::Simple)
            },
            _ => UnpackOptions::new(UnpackScheme::CompactStorage),
        }
    }
}

/// SplitMix64, for element values.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The generated inputs of one `(workload, seed)`: array `A`, mask `M` and
/// UNPACK field `F`, each defined pointwise so every processor materialises
/// its own part.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub desc: ArrayDesc,
    shape: Vec<usize>,
    pattern: MaskPattern,
    seed: u64,
}

impl Inputs {
    pub fn new(w: &Workload, seed: u64) -> Inputs {
        Self::with_dist(w, seed, Dist::BlockCyclic(w.w))
    }

    /// The same problem with every dimension distributed by `dist`.
    pub fn with_dist(w: &Workload, seed: u64, dist: Dist) -> Inputs {
        let dists = vec![dist; w.shape.len()];
        Inputs {
            desc: ArrayDesc::new(&w.shape, &ProcGrid::new(&w.grid), &dists)
                .expect("workload shapes divide their grids"),
            shape: w.shape.clone(),
            pattern: w.pattern(seed),
            seed,
        }
    }

    fn value(&self, glin: usize) -> i32 {
        splitmix64(self.seed ^ glin as u64) as i32
    }

    fn field(glin: usize) -> i32 {
        -(glin as i32) - 1
    }

    /// Processor `pid`'s parts of `(A, M, F)`.
    pub fn locals(&self, pid: usize) -> (Vec<i32>, Vec<bool>, Vec<i32>) {
        let n = self.desc.local_len(pid);
        let (mut a, mut m, mut f) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        self.desc.for_each_local_global(pid, |_, g| {
            let glin = self.desc.global_linear(g);
            a.push(self.value(glin));
            m.push(self.pattern.value(g, &self.shape));
            f.push(Self::field(glin));
        });
        (a, m, f)
    }

    /// `(A, M, F)` as whole arrays, for the sequential oracle.
    pub fn globals(&self) -> (GlobalArray<i32>, GlobalArray<bool>, GlobalArray<i32>) {
        let lin = |g: &[usize]| self.desc.global_linear(g);
        (
            GlobalArray::from_fn(&self.shape, |g| self.value(lin(g))),
            self.pattern.global(&self.shape),
            GlobalArray::from_fn(&self.shape, |g| Self::field(lin(g))),
        )
    }

    /// What `hpf_core::seq` says PACK and then UNPACK of these inputs give.
    pub fn oracle(&self) -> (Vec<i32>, GlobalArray<i32>) {
        let (a, m, f) = self.globals();
        let v = pack_seq(&a, &m, None);
        let unpacked = unpack_seq(&v, &m, &f);
        (v, unpacked)
    }

    /// Whether per-processor PACK vectors and UNPACK arrays equal the oracle.
    pub fn matches_oracle(
        &self,
        oracle: &(Vec<i32>, GlobalArray<i32>),
        v_layout: Option<DimLayout>,
        results: &[&(Vec<i32>, Vec<i32>)],
    ) -> bool {
        let (v, unpacked) = oracle;
        let packed: usize = results.iter().map(|r| r.0.len()).sum();
        if packed != v.len() {
            return false;
        }
        for (pid, (local_v, local_a)) in results.iter().enumerate() {
            if let Some(vl) = v_layout {
                if local_v.len() != vl.local_len(pid)
                    || local_v
                        .iter()
                        .enumerate()
                        .any(|(l, x)| v[vl.global_of(pid, l)] != *x)
                {
                    return false;
                }
            }
            if local_a.len() != self.desc.local_len(pid) {
                return false;
            }
            let mut ok = true;
            self.desc.for_each_local_global(pid, |l, g| {
                ok &= unpacked.get(g) == local_a[l];
            });
            if !ok {
                return false;
            }
        }
        true
    }
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Child start to first timed op.
    pub setup_s: f64,
    /// Wall time of each timed op, ns.
    pub op_ns: Vec<u64>,
    /// Ops that returned `Err`, whose results differed from the first op's
    /// or the oracle, or whose simulated time differed from the first op's.
    pub failed: u64,
    /// Elements packed per op.
    pub elements: u64,
    /// Simulated time per op, ns (max over processors).
    pub sim_ns_per_op: f64,
    /// `VmHWM` at the end of set-up (warm-up ops included), so that it does
    /// not depend on how many ops the host fits in the window.
    pub peak_rss_kb: u64,
    /// Charged message start-ups and words per op, all processors (exact).
    pub msgs_per_op: f64,
    pub words_per_op: f64,
    pub retransmits: u64,
    pub dup_drops: u64,
    /// Heap allocations per op, all processors (counting allocator).
    pub allocs_per_op: f64,
    /// Bulk share of the plans' lowered copy programs.
    pub bulk_fraction: f64,
    /// Recovery accounting of the last op (`recover_crash` only).
    pub recovery: RecoveryStats,
    /// Traced rounds only.
    pub traced: Option<Traced>,
}

/// What a traced round adds.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub layers: Layers,
    /// Spans kept for the trace file (all of an in-run round; the first op
    /// of a run-per-op round).
    pub trace: Trace,
    pub ctxsw_per_op: f64,
    pub clone_words: u64,
    /// High-water of each `mem.<account>.cur` gauge, summed over processors.
    pub mem_peak: Vec<(&'static str, u64)>,
}

const MEM_ACCOUNTS: [(&str, MemAccount); 5] = [
    ("pool", MemAccount::Pool),
    ("payload", MemAccount::Payload),
    ("mailbox", MemAccount::Mailbox),
    ("plan", MemAccount::Plan),
    ("replay_log", MemAccount::ReplayLog),
];

fn mem_peaks<R>(out: &RunOutput<R>) -> Vec<(&'static str, u64)> {
    MEM_ACCOUNTS
        .iter()
        .map(|(label, account)| {
            let sum = out
                .metrics
                .iter()
                .filter_map(|m| m.gauges.get(account.gauge_name()))
                .map(|g| g.max)
                .sum();
            (*label, sum)
        })
        .collect()
}

fn max_now_ns<R>(out: &RunOutput<R>) -> f64 {
    out.clocks.iter().map(|c| c.now_ns).fold(0.0, f64::max)
}

/// Run one round of `w`. `t0` is the child's start. `default_pool` swaps
/// the one-permit pool for the library's default (in-run workloads only):
/// the known-bimodal configuration `machine.sched.pool_default_op_us` shows.
pub fn run_round(
    w: &Workload,
    seed: u64,
    window: Duration,
    traced: bool,
    default_pool: bool,
    t0: Instant,
) -> Round {
    match w.kind {
        Kind::Exec | Kind::Oneshot => {
            let workers = if default_pool { None } else { Some(1) };
            round_in_run(w, w.machine_with(traced, workers), seed, window, traced, t0)
        }
        Kind::Scale | Kind::Recover => round_per_run(w, seed, window, traced, t0),
    }
}

/// What one processor of an in-run round hands back.
struct ProcOut {
    peak_rss_kb: u64,
    stamps: Vec<u64>,
    failed: u64,
    sim_ns: f64,
    allocs: u64,
    ctxsw: u64,
    copy: CopyStats,
    v_layout: Option<DimLayout>,
    result: (Vec<i32>, Vec<i32>),
}

fn round_in_run(
    w: &Workload,
    machine: Machine,
    seed: u64,
    window: Duration,
    traced: bool,
    t0: Instant,
) -> Round {
    let inputs = Inputs::new(w, seed);
    let (popts, uopts) = (w.pack_opts(), w.unpack_opts());
    let kind = w.kind;
    let target = AtomicUsize::new(0);
    let (inputs_ref, target_ref) = (&inputs, &target);

    let out = machine.run(move |proc| {
        let desc = &inputs_ref.desc;
        let (a, m, f) = inputs_ref.locals(proc.id());
        let mut copy = CopyStats::default();
        // Exec plans once, here; Oneshot plans inside every op. A traced
        // Oneshot round still plans once up front, only to read the copy
        // programs' shape.
        let plans = if kind == Kind::Exec || traced {
            let pplan = plan_pack(proc, desc, &m, &popts).expect("plan_pack");
            let vl = pplan.v_layout().expect("the mask selects elements");
            let uplan = plan_unpack(proc, desc, &m, &vl, &uopts).expect("plan_unpack");
            copy.merge(&pplan.copy_stats());
            copy.merge(&uplan.copy_stats());
            Some((pplan, uplan))
        } else {
            None
        };
        let mut pout = PackOutput {
            local_v: Vec::new(),
            size: 0,
            v_layout: None,
        };
        let mut uout: Vec<i32> = Vec::new();
        let mut op = |proc: &mut Proc| -> bool {
            match (kind, &plans) {
                (Kind::Exec, Some((pplan, uplan))) => {
                    pplan.execute_into(proc, &a, &mut pout).is_ok()
                        && uplan
                            .execute_into(proc, &f, &pout.local_v, &mut uout)
                            .is_ok()
                }
                _ => {
                    let Ok(packed) = pack(proc, desc, &a, &m, &popts) else {
                        return false;
                    };
                    let vl = packed.v_layout.expect("the mask selects elements");
                    let Ok(unpacked) = unpack(proc, desc, &m, &f, &packed.local_v, &vl, &uopts)
                    else {
                        return false;
                    };
                    pout = packed;
                    uout = unpacked;
                    true
                }
            }
        };

        proc.wall_span("bench.warmup", |proc| {
            for _ in 0..WARMUP_OPS {
                op(proc);
            }
        });
        let c0 = Instant::now();
        proc.wall_span("bench.warmup", |proc| {
            for _ in 0..CALIBRATE_OPS {
                op(proc);
            }
        });
        let mut peak_rss_kb = 0;
        if proc.id() == 0 {
            peak_rss_kb = crate::procfs::peak_rss_kb();
            let per_op = c0.elapsed().as_secs_f64() / CALIBRATE_OPS as f64;
            let fit = (window.as_secs_f64() / per_op).ceil() as usize;
            let cap = if traced { TRACED_MAX_OPS } else { usize::MAX };
            target_ref.store(fit.clamp(SIM_OPS, cap), Ordering::SeqCst);
        }
        // An uncharged barrier: every processor leaves it after processor 0
        // entered it, so all read the same op count.
        let world = proc.world();
        proc.clock_sync_max(&world);
        let ops = target_ref.load(Ordering::SeqCst);
        proc.clock().reset();

        let mut stamps = Vec::with_capacity(ops + 1);
        let (mut failed, mut sim_ns) = (0u64, 0.0);
        let ctxsw0 = if traced { thread_voluntary_ctxsw() } else { 0 };
        let (allocs0, _) = thread_totals();
        stamps.push(t0.elapsed().as_nanos() as u64);
        for k in 0..ops {
            if !proc.wall_span(OP, &mut op) {
                failed += 1;
            }
            stamps.push(t0.elapsed().as_nanos() as u64);
            if k + 1 == SIM_OPS {
                sim_ns = proc.clock_ref().now_ns();
            }
        }
        let (allocs1, _) = thread_totals();
        let ctxsw1 = if traced { thread_voluntary_ctxsw() } else { 0 };
        ProcOut {
            peak_rss_kb,
            stamps,
            failed,
            sim_ns,
            allocs: allocs1 - allocs0,
            ctxsw: ctxsw1 - ctxsw0,
            copy,
            v_layout: pout.v_layout,
            result: (pout.local_v, uout),
        }
    });
    let stamps: Vec<&[u64]> = out.results.iter().map(|r| r.stamps.as_slice()).collect();
    let op_ns = crate::stats::op_durations(&stamps);
    let ops = op_ns.len().max(1) as f64;
    let setup_s = stamps.iter().map(|s| s[0]).max().unwrap_or(0) as f64 / 1e9;
    let mut copy = CopyStats::default();
    for r in &out.results {
        copy.merge(&r.copy);
    }
    let v_layout = out.results[0].v_layout;
    let mut failed = out.results.iter().map(|r| r.failed).max().unwrap_or(0);
    let results: Vec<&(Vec<i32>, Vec<i32>)> = out.results.iter().map(|r| &r.result).collect();
    if !inputs.matches_oracle(&inputs.oracle(), v_layout, &results) {
        failed = op_ns.len() as u64;
    }
    let traced = traced.then(|| {
        let mut trace = Trace::default();
        trace.push_profiles(&out.wall_profiles, None, OpTag::OpRoots);
        Traced {
            layers: trace.layers(),
            trace,
            ctxsw_per_op: out.results.iter().map(|r| r.ctxsw).sum::<u64>() as f64 / ops,
            clone_words: out.merged_metrics().counter("payload.clone_words"),
            mem_peak: mem_peaks(&out),
        }
    });
    Round {
        setup_s,
        failed,
        elements: results.iter().map(|r| r.0.len() as u64).sum(),
        sim_ns_per_op: out.results.iter().map(|r| r.sim_ns).fold(0.0, f64::max) / SIM_OPS as f64,
        peak_rss_kb: out.results[0].peak_rss_kb,
        msgs_per_op: out.total_startups() as f64 / ops,
        words_per_op: out.total_words_sent() as f64 / ops,
        retransmits: out.total_retransmits(),
        dup_drops: out.total_dup_drops(),
        allocs_per_op: out.results.iter().map(|r| r.allocs).sum::<u64>() as f64 / ops,
        bulk_fraction: copy.bulk_fraction(),
        recovery: RecoveryStats::default(),
        op_ns,
        traced,
    }
}

/// What one processor of a run-per-op program hands back.
#[derive(Clone, Default)]
pub struct RunProcOut {
    result: (Vec<i32>, Vec<i32>),
    allocs: u64,
    ctxsw: u64,
    copy: CopyStats,
}

/// The `scale_p512` program: the whole masked PACK → UNPACK roundtrip, from
/// input generation to the unpacked array (the shape of perf's
/// `scale.roundtrip`).
fn scale_program(
    inputs: &Inputs,
    popts: PackOptions,
    uopts: UnpackOptions,
    traced: bool,
) -> impl Fn(&mut Proc) -> RunProcOut + Sync + '_ {
    move |proc| {
        let (allocs0, _) = thread_totals();
        let (result, copy) = proc.wall_span(OP, |proc| {
            let (a, m, f) = inputs.locals(proc.id());
            let pplan = plan_pack(proc, &inputs.desc, &m, &popts).expect("plan_pack");
            let packed = pplan.execute(proc, &a).expect("pack");
            let vl = packed.v_layout.expect("the mask selects elements");
            let uplan = plan_unpack(proc, &inputs.desc, &m, &vl, &uopts).expect("plan_unpack");
            let unpacked = uplan.execute(proc, &f, &packed.local_v).expect("unpack");
            let mut copy = pplan.copy_stats();
            copy.merge(&uplan.copy_stats());
            ((packed.local_v, unpacked), copy)
        });
        RunProcOut {
            result,
            allocs: thread_totals().0 - allocs0,
            ctxsw: if traced { thread_voluntary_ctxsw() } else { 0 },
            copy,
        }
    }
}

/// One `scale` roundtrip at `p` processors, as `(processor-steps, wall
/// seconds)`; steps = charged local operations + message start-ups.
pub fn scale_steps(p: usize, seed: u64) -> (u64, f64) {
    let w = Workload::scale("scale_probe", p);
    let inputs = Inputs::new(&w, seed);
    let program = scale_program(&inputs, w.pack_opts(), w.unpack_opts(), false);
    let machine = w.machine(false);
    let t = Instant::now();
    let out = machine.run(&program);
    let secs = t.elapsed().as_secs_f64();
    (out.total_ops() + out.total_startups(), secs)
}

/// The `recover_crash` program: a one-message ring epoch that establishes a
/// checkpoint, then an epoch that plans and runs eight roundtrips — the
/// scheduled crash lands inside it.
pub fn recover_program(
    inputs: &Inputs,
    popts: PackOptions,
    uopts: UnpackOptions,
    traced: bool,
) -> impl Fn(&mut Proc) -> RunProcOut + Sync + '_ {
    move |proc| {
        let (allocs0, _) = thread_totals();
        let mut st = RunProcOut::default();
        proc.epoch(&mut st, |p, _| {
            let np = p.nprocs();
            p.send((p.id() + 1) % np, tags::USER, vec![p.id() as i32]);
            let _: Vec<i32> = p.recv((p.id() + np - 1) % np, tags::USER);
        });
        proc.epoch(&mut st, |proc, st| {
            proc.wall_span(OP, |proc| {
                let (a, m, f) = inputs.locals(proc.id());
                let pplan = plan_pack(proc, &inputs.desc, &m, &popts).expect("plan_pack");
                let vl = pplan.v_layout().expect("the mask selects elements");
                let uplan = plan_unpack(proc, &inputs.desc, &m, &vl, &uopts).expect("plan_unpack");
                let mut pout = PackOutput {
                    local_v: Vec::new(),
                    size: 0,
                    v_layout: None,
                };
                let mut uout = Vec::new();
                for _ in 0..RECOVER_EXECUTES {
                    pplan.execute_into(proc, &a, &mut pout).expect("pack");
                    uplan
                        .execute_into(proc, &f, &pout.local_v, &mut uout)
                        .expect("unpack");
                }
                st.copy = pplan.copy_stats();
                st.copy.merge(&uplan.copy_stats());
                st.result = (pout.local_v, uout);
            })
        });
        st.allocs = thread_totals().0 - allocs0;
        st.ctxsw = if traced { thread_voluntary_ctxsw() } else { 0 };
        st
    }
}

/// The machine `recover_crash` ops run on, crashing or not.
pub fn recover_machine(w: &Workload, seed: u64, traced: bool, crash: bool) -> Machine {
    let plan = FaultPlan::new(seed);
    w.machine(traced).with_faults(if crash {
        plan.with_crash(CRASH.0, CRASH.1)
    } else {
        plan
    })
}

fn round_per_run(w: &Workload, seed: u64, window: Duration, traced: bool, t0: Instant) -> Round {
    let inputs = Inputs::new(w, seed);
    let oracle = inputs.oracle();
    let v_layout = {
        let size = oracle.0.len().max(1);
        DimLayout::new_general(size, w.nprocs(), size.div_ceil(w.nprocs())).ok()
    };
    let (popts, uopts) = (w.pack_opts(), w.unpack_opts());
    let scale = scale_program(&inputs, popts, uopts, traced);
    let recover = recover_program(&inputs, popts, uopts, traced);
    let machine = match w.kind {
        Kind::Recover => recover_machine(w, seed, traced, true),
        _ => w.machine(traced),
    };
    let run = || match w.kind {
        Kind::Recover => machine.run_recoverable(&recover),
        _ => machine.try_run(&scale),
    };

    // What every op must reproduce: for `recover_crash` the fault-free
    // recoverable run, otherwise the warm-up op.
    let reference = match w.kind {
        Kind::Recover => recover_machine(w, seed, false, false).run_recoverable(&recover),
        _ => run(),
    }
    .expect("the reference run succeeds");
    let reference_results: Vec<_> = reference.results.iter().map(|r| &r.result).collect();
    let reference_ok = inputs.matches_oracle(&oracle, v_layout, &reference_results);
    let sim_ns = max_now_ns(&reference);
    if w.kind == Kind::Recover {
        // Warm-up of the crashing path itself.
        let _ = run();
    }

    let mut round = Round {
        setup_s: t0.elapsed().as_secs_f64(),
        peak_rss_kb: crate::procfs::peak_rss_kb(),
        elements: (oracle.0.len() * w.executes_per_op()) as u64,
        sim_ns_per_op: sim_ns,
        ..Round::default()
    };
    let mut extra = Traced::default();
    let (mut msgs, mut words, mut allocs, mut ctxsw) = (0u64, 0u64, 0u64, 0u64);
    let mut copy = CopyStats::default();
    let start = Instant::now();
    let cap = if traced { 4 } else { usize::MAX };
    while round.op_ns.len() < cap && (round.op_ns.is_empty() || start.elapsed() < window) {
        let op_id = round.op_ns.len() as u32;
        let s = t0.elapsed().as_nanos() as u64;
        let out = run();
        let e = t0.elapsed().as_nanos() as u64;
        round.op_ns.push(e - s);
        let Ok(out) = out else {
            round.failed += 1;
            continue;
        };
        let same = out
            .results
            .iter()
            .map(|r| &r.result)
            .eq(reference_results.iter().copied())
            && max_now_ns(&out) == sim_ns
            && (w.kind != Kind::Recover || out.recovery.as_ref().is_some_and(|r| r.replays == 1));
        if !same || !reference_ok {
            round.failed += 1;
        }
        msgs += out.total_startups();
        words += out.total_words_sent();
        round.retransmits += out.total_retransmits();
        round.dup_drops += out.total_dup_drops();
        allocs += out.results.iter().map(|r| r.allocs).sum::<u64>();
        ctxsw += out.results.iter().map(|r| r.ctxsw).sum::<u64>();
        if op_id == 0 {
            for r in &out.results {
                copy.merge(&r.copy);
            }
        }
        if traced {
            let mut trace = Trace::default();
            let cause = trace.push_driver(MACHINE_RUN, s, e, Some(op_id));
            trace.push_profiles(&out.wall_profiles, Some(cause), OpTag::Whole(op_id));
            extra.layers.merge(&trace.layers());
            extra.clone_words += out.merged_metrics().counter("payload.clone_words");
            extra.mem_peak = mem_peaks(&out);
            if op_id == 0 {
                extra.trace = trace;
            }
        }
        if let Some(r) = out.recovery {
            round.recovery = r;
        }
    }
    let ops = round.op_ns.len() as f64;
    round.msgs_per_op = msgs as f64 / ops;
    round.words_per_op = words as f64 / ops;
    round.allocs_per_op = allocs as f64 / ops;
    round.bulk_fraction = copy.bulk_fraction();
    if traced {
        extra.ctxsw_per_op = ctxsw as f64 / ops;
        round.traced = Some(extra);
    }
    round
}
