//! Shared experiment runners: build a machine, seed distributed data, run
//! PACK/UNPACK under a scheme, and report the simulated-time breakdown.

use hpf_core::{
    pack, pack_redistributed, plan_pack, plan_unpack, unpack, CopyStats, MaskPattern, PackOptions,
    PackScheme, PlanCache, RedistScheme, UnpackOptions, UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist, TrackArray};
use hpf_machine::{Category, CostModel, Machine, Proc, ProcGrid, RunOutput};

/// One experiment point: an array shape distributed with a uniform block
/// size over a grid, masked by a pattern.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Global shape (dimension 0 first).
    pub shape: Vec<usize>,
    /// Grid extents (dimension 0 first).
    pub grid: Vec<usize>,
    /// Block size, applied to every dimension (the paper fixes the
    /// dimension-0 and dimension-1 block sizes equal in 2-D sweeps).
    pub w: usize,
    /// Mask pattern.
    pub pattern: MaskPattern,
    /// Cost model (defaults to CM-5 constants).
    pub cost: CostModel,
}

impl ExpConfig {
    /// Config with CM-5 cost constants.
    pub fn new(shape: &[usize], grid: &[usize], w: usize, pattern: MaskPattern) -> Self {
        ExpConfig {
            shape: shape.to_vec(),
            grid: grid.to_vec(),
            w,
            pattern,
            cost: CostModel::cm5(),
        }
    }

    /// The machine for this config.
    pub fn machine(&self) -> Machine {
        Machine::new(ProcGrid::new(&self.grid), self.cost)
    }

    /// `Size` of this config's mask and the block layout of a vector of
    /// exactly that many elements (the paper's UNPACK input). `Size` is a
    /// property of the mask alone, so it is computed harness-side.
    pub fn packed_layout(&self) -> (usize, DimLayout) {
        let mask = self.pattern.global(&self.shape);
        let size = mask.data().iter().filter(|&&b| b).count();
        let nprocs: usize = self.grid.iter().product();
        let n_prime = size.max(1);
        let layout = DimLayout::new_general(n_prime, nprocs, n_prime.div_ceil(nprocs));
        (size, layout.expect("a block layout of the packed vector"))
    }

    /// The array descriptor for this config.
    pub fn desc(&self) -> ArrayDesc {
        let grid = ProcGrid::new(&self.grid);
        let dists: Vec<Dist> = self
            .shape
            .iter()
            .map(|_| Dist::BlockCyclic(self.w))
            .collect();
        ArrayDesc::new(&self.shape, &grid, &dists)
            .unwrap_or_else(|e| panic!("invalid experiment config {self:?}: {e}"))
    }

    /// Deterministic element value at a global index.
    pub fn value_at(gidx: &[usize]) -> i32 {
        gidx.iter()
            .fold(17i32, |acc, &x| acc.wrapping_mul(31).wrapping_add(x as i32))
    }
}

/// Valid uniform block sizes for a config: powers of two from 1 to the
/// local extent of the *smallest* dimension (so `P·W | N` holds everywhere).
pub fn block_sizes(shape: &[usize], grid: &[usize]) -> Vec<usize> {
    let max_w = shape.iter().zip(grid).map(|(n, p)| n / p).min().unwrap();
    let mut sizes = Vec::new();
    let mut w = 1;
    while w <= max_w {
        sizes.push(w);
        w *= 2;
    }
    sizes
}

/// Simulated-time measurement of one operation: plain data, so a report
/// entry can be built by hand in a gate test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Max-over-processors time per [`Category`], in [`Category::ALL`]
    /// order, ms.
    pub stages_ms: [f64; Category::ALL.len()],
    /// Machine completion time (what Figures 4 and 5 plot), ms.
    pub total_ms: f64,
    /// `Size` (packed element count).
    pub size: usize,
    /// Total message words sent by all processors.
    pub words: u64,
    /// Total message start-ups.
    pub startups: u64,
    /// Total reliable-transport retransmissions (0 on a fault-free machine).
    pub retransmits: u64,
    /// Total duplicate frames dropped by receivers.
    pub dup_drops: u64,
    /// Retransmitted fraction of all data-frame transmissions.
    pub retry_overhead: f64,
}

impl Measurement {
    /// Local computation time (what Figure 3 plots): ranking local work plus
    /// message composition/decomposition.
    pub fn local_ms(&self) -> f64 {
        self.stages_ms[Category::LocalComp.index()]
    }

    /// Prefix-reduction-sum time.
    pub fn prs_ms(&self) -> f64 {
        self.stages_ms[Category::PrefixReductionSum.index()]
    }

    /// Many-to-many personalized communication time.
    pub fn m2m_ms(&self) -> f64 {
        self.stages_ms[Category::ManyToMany.index()]
    }

    /// Total execution time (what Figures 4 and 5 plot).
    pub fn total_ms(&self) -> f64 {
        self.total_ms
    }
}

/// Measurement from a finished run (`size` comes from the caller, since
/// result types differ between runners).
pub fn measure_run<R>(out: &RunOutput<R>, size: usize) -> Measurement {
    let breakdown = out.breakdown();
    Measurement {
        stages_ms: Category::ALL.map(|cat| breakdown.cat_ms(cat)),
        total_ms: breakdown.total_ms(),
        size,
        words: out.total_words_sent(),
        startups: out.total_startups(),
        retransmits: out.total_retransmits(),
        dup_drops: out.total_dup_drops(),
        retry_overhead: out.retry_overhead(),
    }
}

/// Amortized plan-reuse measurement: one cached plan executed `executes`
/// times (fresh data every iteration) versus `executes` independent full
/// calls — the mask, and therefore the plan, is fixed across iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseMeasurement {
    /// Number of operations in each arm.
    pub executes: usize,
    /// `executes` independent full calls (plan + execute every time).
    pub fresh: Measurement,
    /// One planning pass + `executes` cached executes.
    pub cached: Measurement,
    /// `plan.cache.hit` summed over all processors after the cached arm.
    pub cache_hits: u64,
    /// `plan.cache.miss` summed over all processors after the cached arm.
    pub cache_misses: u64,
}

impl ReuseMeasurement {
    /// Amortized simulated cost per call of the fresh arm.
    pub fn fresh_per_exec_ms(&self) -> f64 {
        self.fresh.total_ms() / self.executes as f64
    }

    /// Amortized simulated cost per call of the cached arm (the single
    /// planning pass is spread over all executes).
    pub fn cached_per_exec_ms(&self) -> f64 {
        self.cached.total_ms() / self.executes as f64
    }

    /// Cached over fresh amortized cost; below 1 means reuse pays.
    pub fn reuse_ratio(&self) -> f64 {
        self.cached_per_exec_ms() / self.fresh_per_exec_ms().max(f64::MIN_POSITIVE)
    }
}

/// The two arms of a reuse measurement: `arm(cached)` runs the loop once
/// with full calls and once through a [`PlanCache`]. Only the cached arm
/// runs with metrics, so its `plan.cache.{hit,miss}` counters are observable.
fn time_reuse<R: Send>(
    cfg: &ExpConfig,
    size: impl Fn(&RunOutput<R>) -> usize,
    executes: usize,
    arm: impl Fn(&mut Proc, bool) -> R + Sync,
) -> ReuseMeasurement {
    let fresh = cfg.machine().run(|proc| arm(proc, false));
    let cached = cfg.machine().with_metrics(true).run(|proc| arm(proc, true));
    let metrics = cached.merged_metrics();
    ReuseMeasurement {
        executes,
        fresh: measure_run(&fresh, size(&fresh)),
        cached: measure_run(&cached, size(&cached)),
        cache_hits: metrics.counter("plan.cache.hit"),
        cache_misses: metrics.counter("plan.cache.miss"),
    }
}

/// Measure PACK plan reuse under `opts`: `executes` fresh `pack` calls
/// versus one [`PlanCache`]d plan executed `executes` times, each
/// iteration on different element values.
pub fn time_pack_reuse(cfg: &ExpConfig, opts: &PackOptions, executes: usize) -> ReuseMeasurement {
    let desc = cfg.desc();
    let (desc_ref, pattern, shape) = (&desc, cfg.pattern, &cfg.shape);
    time_reuse(
        cfg,
        |out| out.results[0],
        executes,
        |proc, cached| {
            let m = local_from_fn(desc_ref, proc.id(), |g| pattern.value(g, shape));
            let data_at = |it: usize, g: &[usize]| ExpConfig::value_at(g).wrapping_add(it as i32);
            let data: Vec<Vec<i32>> = (0..executes)
                .map(|it| local_from_fn(desc_ref, proc.id(), |g| data_at(it, g)))
                .collect();
            let mut plans = PlanCache::new();
            proc.clock().reset();
            let mut size = 0;
            for a in &data {
                size = if cached {
                    let plan = plans.pack_plan(proc, desc_ref, &m, pattern.fingerprint(), opts);
                    plan.unwrap().execute(proc, a).unwrap().size
                } else {
                    pack(proc, desc_ref, a, &m, opts).unwrap().size
                };
            }
            size
        },
    )
}

/// Measure UNPACK plan reuse under `opts`; see [`time_pack_reuse`]. Each
/// iteration unpacks a different input vector through the same mask.
pub fn time_unpack_reuse(
    cfg: &ExpConfig,
    opts: &UnpackOptions,
    executes: usize,
) -> ReuseMeasurement {
    let desc = cfg.desc();
    let (size, v_layout) = cfg.packed_layout();
    let (desc_ref, pattern, shape, vl) = (&desc, cfg.pattern, &cfg.shape, &v_layout);
    time_reuse(
        cfg,
        |_| size,
        executes,
        |proc, cached| {
            let me = proc.id();
            let m = local_from_fn(desc_ref, me, |g| pattern.value(g, shape));
            let f = local_from_fn(desc_ref, me, |_| -1i32);
            let v_at =
                |it: usize, l: usize| (vl.global_of(me, l) as i32).wrapping_add(1000 * it as i32);
            let vs: Vec<Vec<i32>> = (0..executes)
                .map(|it| (0..vl.local_len(me)).map(|l| v_at(it, l)).collect())
                .collect();
            let mut plans = PlanCache::new();
            proc.clock().reset();
            for v in &vs {
                if cached {
                    let plan =
                        plans.unpack_plan(proc, desc_ref, &m, pattern.fingerprint(), vl, opts);
                    plan.unwrap().execute(proc, &f, v).unwrap();
                } else {
                    unpack(proc, desc_ref, &m, &f, v, vl, opts).unwrap();
                }
            }
        },
    )
}

/// Warm-up executes before the hot window: the two pool slots per
/// destination alternate, so both are grown after exactly two iterations
/// and every later execute is allocation-free.
pub const HOT_WARMUP: usize = 2;

/// Counted measurement of the steady-state execute path: one plan,
/// `executes` counted iterations after warm-up, with heap allocations
/// counted per processor. Allocation counts are only non-zero when the
/// harness binary installs [`hpf_machine::alloc_counter::CountingAllocator`]
/// as its global allocator (the `perf` binary does). What an execute costs
/// in host time is the repo benchmark's number (`benchmark/`), not this one's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotMeasurement {
    /// Counted executes (after [`HOT_WARMUP`] uncounted ones).
    pub executes: usize,
    /// Packed element count moved per execute.
    pub elements: usize,
    /// Heap allocations per execute, summed over all processors.
    /// Zero in steady state — the `hot_zero_allocs` gate.
    pub allocs_per_execute: f64,
    /// Heap bytes allocated per execute, summed over all processors.
    pub alloc_bytes_per_execute: f64,
    /// The run's `payload.clone_words`: deep-copied payload words, zero on
    /// fault-free runs.
    pub clone_words: u64,
    /// Op breakdown of the plan's lowered copy programs, merged across
    /// processors (DESIGN.md §16): how much of the hot loop's value
    /// movement runs as bulk copies instead of scalar indexing.
    pub copy_ops: CopyStats,
}

/// What one processor reports from a hot loop: allocations and allocated
/// bytes inside the counted window, and its plan's copy-program stats.
type HotCounts = (u64, u64, CopyStats);

/// Run `executes` iterations of `step` and count what the window allocated.
fn counted(executes: usize, mut step: impl FnMut()) -> (u64, u64) {
    use hpf_machine::alloc_counter::thread_totals;
    let (c0, b0) = thread_totals();
    for _ in 0..executes {
        step();
    }
    let (c1, b1) = thread_totals();
    (c1 - c0, b1 - b0)
}

/// The run behind [`time_pack_hot`] / [`time_unpack_hot`], whose
/// per-processor program is `hot(proc, executes)`. Metrics are on — a
/// counter is a field, so the counted window still allocates nothing.
fn time_hot(
    cfg: &ExpConfig,
    elements: usize,
    executes: usize,
    hot: impl Fn(&mut Proc, usize) -> HotCounts + Sync,
) -> (HotMeasurement, Measurement) {
    let machine = cfg.machine().with_metrics(true);
    let out = machine.run(|proc| hot(proc, executes));
    let per_exec = |total: u64| total as f64 / executes.max(1) as f64;
    let mut copy_ops = CopyStats::default();
    for r in &out.results {
        copy_ops.merge(&r.2);
    }
    let hot = HotMeasurement {
        executes,
        elements,
        allocs_per_execute: per_exec(out.results.iter().map(|r| r.0).sum()),
        alloc_bytes_per_execute: per_exec(out.results.iter().map(|r| r.1).sum()),
        clone_words: out.merged_metrics().counter("payload.clone_words"),
        copy_ops,
    };
    (hot, measure_run(&out, elements))
}

/// Measure the PACK hot path: plan once, warm up, count `executes`
/// steady-state iterations. Returns the counted measurement plus the
/// simulated [`Measurement`] of the whole plan + execute loop.
pub fn time_pack_hot(
    cfg: &ExpConfig,
    opts: &PackOptions,
    executes: usize,
) -> (HotMeasurement, Measurement) {
    let desc = cfg.desc();
    let (size, _) = cfg.packed_layout();
    let (desc_ref, pattern, shape) = (&desc, cfg.pattern, &cfg.shape);
    time_hot(cfg, size, executes, |proc, executes| {
        let a = local_from_fn(desc_ref, proc.id(), ExpConfig::value_at);
        let m = local_from_fn(desc_ref, proc.id(), |g| pattern.value(g, shape));
        proc.clock().reset();
        let plan = plan_pack(proc, desc_ref, &m, opts).unwrap();
        let mut out = hpf_core::PackOutput {
            local_v: Vec::new(),
            size: 0,
            v_layout: None,
        };
        let mut step = || plan.execute_into(proc, &a, &mut out).unwrap();
        counted(HOT_WARMUP, &mut step);
        let (allocs, bytes) = counted(executes, step);
        (allocs, bytes, plan.copy_stats())
    })
}

/// Measure the UNPACK hot path; see [`time_pack_hot`].
pub fn time_unpack_hot(
    cfg: &ExpConfig,
    opts: &UnpackOptions,
    executes: usize,
) -> (HotMeasurement, Measurement) {
    let desc = cfg.desc();
    let (size, v_layout) = cfg.packed_layout();
    let (desc_ref, pattern, shape, vl) = (&desc, cfg.pattern, &cfg.shape, &v_layout);
    time_hot(cfg, size, executes, |proc, executes| {
        let m = local_from_fn(desc_ref, proc.id(), |g| pattern.value(g, shape));
        let f = local_from_fn(desc_ref, proc.id(), |_| -1i32);
        let v: Vec<i32> = (0..vl.local_len(proc.id()))
            .map(|l| vl.global_of(proc.id(), l) as i32)
            .collect();
        proc.clock().reset();
        let plan = plan_unpack(proc, desc_ref, &m, vl, opts).unwrap();
        let mut out = Vec::new();
        let mut step = || plan.execute_into(proc, &f, &v, &mut out).unwrap();
        counted(HOT_WARMUP, &mut step);
        let (allocs, bytes) = counted(executes, step);
        (allocs, bytes, plan.copy_stats())
    })
}

/// Per-processor `LocalComp` operation counts of the PACK planning phase
/// alone. The simulation is deterministic, so a full run's counts minus
/// these are exactly the execute phase's — used for phase-resolved
/// Section 6.4 conformance.
pub fn pack_plan_ops(cfg: &ExpConfig, opts: &PackOptions) -> Vec<u64> {
    let desc = cfg.desc();
    let (desc_ref, pattern, shape) = (&desc, cfg.pattern, cfg.shape.clone());
    let out = cfg.machine().run(move |proc| {
        let m = local_from_fn(desc_ref, proc.id(), |g| pattern.value(g, &shape));
        plan_pack(proc, desc_ref, &m, opts).unwrap().size()
    });
    out.cat_ops_per_proc(Category::LocalComp)
}

/// Per-processor `LocalComp` operation counts of the UNPACK planning
/// phase alone; see [`pack_plan_ops`].
pub fn unpack_plan_ops(cfg: &ExpConfig, opts: &UnpackOptions) -> Vec<u64> {
    let desc = cfg.desc();
    let (_, v_layout) = cfg.packed_layout();
    let (desc_ref, pattern, shape, vl) = (&desc, cfg.pattern, cfg.shape.clone(), &v_layout);
    let out = cfg.machine().run(move |proc| {
        let m = local_from_fn(desc_ref, proc.id(), |g| pattern.value(g, &shape));
        plan_unpack(proc, desc_ref, &m, vl, opts).unwrap().size()
    });
    out.cat_ops_per_proc(Category::LocalComp)
}

/// What a measured run records beside its clocks. None of it changes
/// simulated time or traffic: the three modes of one call are bit-identical
/// there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// Nothing.
    Clocks,
    /// Structured events, for critical-path extraction and Gantt charts.
    Events,
    /// Events, and the host's wall-clock self time per stage.
    Host,
    /// Events and metrics, with the workload's arrays registered against
    /// the `user` memory account ([`TrackArray`]) at simulated time zero,
    /// so the traced `MemSample` stream covers the full working set — user
    /// arrays, plan buffers, pooled sends, mailbox backlog.
    Memory,
}

impl Observe {
    fn machine(self, cfg: &ExpConfig) -> Machine {
        let machine = cfg.machine().with_tracing(self != Observe::Clocks);
        let machine = machine.with_wall_profiling(self == Observe::Host);
        machine.with_metrics(self == Observe::Memory)
    }

    fn track(self, proc: &mut Proc, arrays: &[&dyn TrackArray]) {
        if self == Observe::Memory {
            arrays.iter().for_each(|a| a.track(proc));
        }
    }
}

/// Run PACK under `opts` and measure.
pub fn time_pack(cfg: &ExpConfig, opts: &PackOptions) -> Measurement {
    run_pack(cfg, None, opts, Observe::Clocks).0
}

/// Run PACK with a preliminary redistribution (Red.1 / Red.2) and measure.
pub fn time_pack_redist(cfg: &ExpConfig, scheme: RedistScheme, opts: &PackOptions) -> Measurement {
    run_pack(cfg, Some(scheme), opts, Observe::Clocks).0
}

/// Run PACK under `opts` — after the preliminary redistribution `redist`,
/// if any — returning the measurement *and* the full run output (events,
/// clocks, per-category op counters) for offline analysis.
pub fn run_pack(
    cfg: &ExpConfig,
    redist: Option<RedistScheme>,
    opts: &PackOptions,
    observe: Observe,
) -> (Measurement, RunOutput<usize>) {
    let desc = cfg.desc();
    let (desc_ref, pattern, shape) = (&desc, cfg.pattern, cfg.shape.clone());
    let out = observe.machine(cfg).run(move |proc| {
        let a = local_from_fn(desc_ref, proc.id(), ExpConfig::value_at);
        let m = local_from_fn(desc_ref, proc.id(), |g| pattern.value(g, &shape));
        proc.clock().reset(); // setup is not part of the timed operation
        observe.track(proc, &[&a, &m]);
        let packed = match redist {
            Some(scheme) => pack_redistributed(proc, desc_ref, &a, &m, scheme, opts),
            None => pack(proc, desc_ref, &a, &m, opts),
        };
        packed.expect("valid experiment config").size
    });
    let m = measure_run(&out, out.results[0]);
    (m, out)
}

/// Run UNPACK with the (deliberately infeasible, Section 6.3) preliminary
/// redistribution and measure — used by the ablation that demonstrates the
/// paper's "not a feasible option for UNPACK" claim.
pub fn time_unpack_redist(cfg: &ExpConfig, opts: &UnpackOptions) -> Measurement {
    run_unpack(cfg, opts, true, Observe::Clocks).0
}

/// Run UNPACK under `opts` and measure. The input vector is sized exactly to
/// the mask's selected count and block-distributed (the paper's setup).
pub fn time_unpack(cfg: &ExpConfig, opts: &UnpackOptions) -> Measurement {
    run_unpack(cfg, opts, false, Observe::Clocks).0
}

/// Run UNPACK under `opts` — with the preliminary redistribution when
/// `redist` — returning measurement and run output; see [`run_pack`].
pub fn run_unpack(
    cfg: &ExpConfig,
    opts: &UnpackOptions,
    redist: bool,
    observe: Observe,
) -> (Measurement, RunOutput<()>) {
    let desc = cfg.desc();
    let (size, v_layout) = cfg.packed_layout();
    let (desc_ref, pattern, shape, vl) = (&desc, cfg.pattern, cfg.shape.clone(), &v_layout);
    let out = observe.machine(cfg).run(move |proc| {
        let m = local_from_fn(desc_ref, proc.id(), |g| pattern.value(g, &shape));
        let f = local_from_fn(desc_ref, proc.id(), |_| -1i32);
        let v: Vec<i32> = (0..vl.local_len(proc.id()))
            .map(|l| vl.global_of(proc.id(), l) as i32)
            .collect();
        proc.clock().reset();
        observe.track(proc, &[&f, &m, &v]);
        let unpacked = if redist {
            hpf_core::unpack_redistributed(proc, desc_ref, &m, &f, &v, vl, opts)
        } else {
            unpack(proc, desc_ref, &m, &f, &v, vl, opts)
        };
        unpacked.expect("valid experiment config");
    });
    let m = measure_run(&out, size);
    (m, out)
}

/// The masks used throughout Section 7: five random densities plus the
/// structured mask for the given rank.
pub fn paper_masks(ndims: usize, seed: u64) -> Vec<MaskPattern> {
    let mut masks: Vec<MaskPattern> = MaskPattern::DENSITIES
        .iter()
        .map(|&density| MaskPattern::Random { density, seed })
        .collect();
    masks.push(if ndims == 1 {
        MaskPattern::FirstHalf
    } else {
        MaskPattern::LowerTriangular
    });
    masks
}

/// Format milliseconds like the paper's tables.
pub fn ms(x: f64) -> String {
    format!("{x:.2}")
}

/// All three pack schemes with default options.
pub fn pack_scheme_opts() -> [(PackScheme, PackOptions); 3] {
    PackScheme::ALL.map(|s| (s, PackOptions::new(s)))
}

/// Both unpack schemes with default options.
pub fn unpack_scheme_opts() -> [(UnpackScheme, UnpackOptions); 2] {
    UnpackScheme::ALL.map(|s| (s, UnpackOptions::new(s)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sizes_are_powers_of_two_up_to_local() {
        assert_eq!(block_sizes(&[64], &[4]), vec![1, 2, 4, 8, 16]);
        assert_eq!(block_sizes(&[16, 64], &[2, 2]), vec![1, 2, 4, 8]);
    }

    #[test]
    fn time_pack_produces_consistent_measurement() {
        let cfg = ExpConfig::new(
            &[256],
            &[4],
            4,
            MaskPattern::Random {
                density: 0.5,
                seed: 1,
            },
        );
        let m = time_pack(&cfg, &PackOptions::new(PackScheme::CompactMessage));
        assert!(m.size > 80 && m.size < 180, "size {}", m.size);
        assert!(m.local_ms() > 0.0);
        assert!(m.prs_ms() > 0.0);
        assert!(m.total_ms() >= m.local_ms());
    }

    #[test]
    fn time_unpack_runs() {
        let cfg = ExpConfig::new(
            &[128],
            &[4],
            8,
            MaskPattern::Random {
                density: 0.3,
                seed: 3,
            },
        );
        let m = time_unpack(&cfg, &UnpackOptions::new(UnpackScheme::CompactStorage));
        assert!(m.total_ms() > 0.0);
        assert!(m.m2m_ms() > 0.0);
    }

    #[test]
    fn plan_reuse_amortizes_and_counts_hits() {
        let cfg = ExpConfig::new(
            &[256],
            &[4],
            1,
            MaskPattern::Random {
                density: 0.5,
                seed: 5,
            },
        );
        let r = time_pack_reuse(&cfg, &PackOptions::default(), 8);
        assert_eq!(r.cache_misses, 4, "one planning miss per processor");
        assert_eq!(r.cache_hits, 7 * 4, "executes-1 hits per processor");
        assert!(r.reuse_ratio() < 1.0, "ratio {}", r.reuse_ratio());
        let r = time_unpack_reuse(&cfg, &UnpackOptions::new(UnpackScheme::CompactStorage), 8);
        assert_eq!(r.cache_misses, 4);
        assert_eq!(r.cache_hits, 7 * 4);
        assert!(r.reuse_ratio() < 1.0, "ratio {}", r.reuse_ratio());
    }

    #[test]
    fn hot_measurements_report_clean_steady_state() {
        let cfg = ExpConfig::new(
            &[256],
            &[4],
            4,
            MaskPattern::Random {
                density: 0.5,
                seed: 4,
            },
        );
        let (hot, sim) = time_pack_hot(&cfg, &PackOptions::default(), 4);
        assert_eq!(hot.executes, 4);
        assert!(hot.elements > 80 && hot.elements < 180, "{}", hot.elements);
        assert_eq!(hot.clone_words, 0, "fault-free run deep-copied a payload");
        assert!(hot.copy_ops.total_elements > 0);
        assert!(sim.total_ms() > 0.0);
        // This test binary does not install the counting allocator, so the
        // counters must read as trivially clean (the real gate runs in the
        // `perf` binary, which does install it).
        assert_eq!(hot.allocs_per_execute, 0.0);
        let (hot, sim) = time_unpack_hot(&cfg, &UnpackOptions::default(), 4);
        assert_eq!(hot.clone_words, 0);
        assert!(sim.total_ms() > 0.0);
    }

    #[test]
    fn plan_ops_are_a_lower_slice_of_full_run_ops() {
        let cfg = ExpConfig::new(
            &[128],
            &[4],
            4,
            MaskPattern::Random {
                density: 0.5,
                seed: 6,
            },
        );
        for (_, opts) in pack_scheme_opts() {
            let plan = pack_plan_ops(&cfg, &opts);
            let (_, out) = run_pack(&cfg, None, &opts, Observe::Clocks);
            let total = out.cat_ops_per_proc(Category::LocalComp);
            for (p, (&pl, &t)) in plan.iter().zip(&total).enumerate() {
                assert!(pl > 0 && pl < t, "proc {p}: plan {pl} vs total {t}");
            }
        }
        for (_, opts) in unpack_scheme_opts() {
            let plan = unpack_plan_ops(&cfg, &opts);
            let (_, out) = run_unpack(&cfg, &opts, false, Observe::Clocks);
            let total = out.cat_ops_per_proc(Category::LocalComp);
            for (p, (&pl, &t)) in plan.iter().zip(&total).enumerate() {
                assert!(pl > 0 && pl < t, "proc {p}: plan {pl} vs total {t}");
            }
        }
    }

    #[test]
    fn paper_masks_have_six_entries() {
        assert_eq!(paper_masks(1, 1).len(), 6);
        assert!(matches!(paper_masks(1, 1)[5], MaskPattern::FirstHalf));
        assert!(matches!(paper_masks(2, 1)[5], MaskPattern::LowerTriangular));
    }
}
