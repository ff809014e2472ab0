//! Scheduler invisibility at the algorithm level: a planned PACK → UNPACK
//! roundtrip — every storage scheme, on 1-D and 2-D grids — produces
//! bit-identical results and simulated clocks whatever the worker-pool
//! size. The machine-level suite (hpf-machine `tests/sched.rs`) covers the
//! substrate; this one covers the paper's actual algorithms end to end,
//! including their pooled exchanges and plan-phase collectives — and, over
//! a lossy network, what the reliable transport did to get them through;
//! and at the perf report's large machine shapes, up to P = 4096.

use hpf_core::{
    pack, plan_pack, plan_unpack, MaskPattern, PackOptions, PackScheme, UnpackOptions, UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, Dist};
use hpf_machine::collectives::A2aSchedule;
use hpf_machine::{Category, CostModel, FaultPlan, Machine, Proc, ProcGrid, RunOutput};

fn data_at(gidx: &[usize], salt: i32) -> i32 {
    gidx.iter()
        .fold(salt, |acc, &x| acc.wrapping_mul(31).wrapping_add(x as i32))
}

/// PACK a masked block-cyclic array, then UNPACK the vector back over a
/// fresh field; returns both locals so every element's final placement is
/// part of the compared result.
fn roundtrip(
    grid: ProcGrid,
    dists: Vec<Dist>,
    extents: Vec<usize>,
    pack_opts: PackOptions,
    unpack_opts: UnpackOptions,
) -> impl Fn(&mut Proc) -> (Vec<i32>, Vec<i32>) + Sync {
    move |proc: &mut Proc| {
        let desc = ArrayDesc::new(&extents, &grid, &dists).unwrap();
        let pattern = MaskPattern::Random {
            density: 0.45,
            seed: 23,
        };
        let m = pattern.local(&desc, proc.id());
        let a = local_from_fn(&desc, proc.id(), |g| data_at(g, 17));
        let out = pack(proc, &desc, &a, &m, &pack_opts).unwrap();
        let vl = out.v_layout.expect("mask selects elements");
        let f = local_from_fn(&desc, proc.id(), |g| data_at(g, -5));
        let plan = plan_unpack(proc, &desc, &m, &vl, &unpack_opts).unwrap();
        let unpacked = plan.execute(proc, &f, &out.local_v).unwrap();
        (out.local_v, unpacked)
    }
}

fn assert_identical(
    a: &RunOutput<(Vec<i32>, Vec<i32>)>,
    b: &RunOutput<(Vec<i32>, Vec<i32>)>,
    what: &str,
) {
    assert_eq!(a.results, b.results, "{what}: results diverged");
    for (ca, cb) in a.clocks.iter().zip(&b.clocks) {
        assert_eq!(ca.now_ms(), cb.now_ms(), "{what}: final clock diverged");
        for cat in Category::ALL {
            assert_eq!(ca.cat_ms(cat), cb.cat_ms(cat), "{what}: {cat:?} diverged");
        }
        assert_eq!(ca.ops, cb.ops, "{what}: ops diverged");
        assert_eq!(ca.words_sent, cb.words_sent, "{what}: words diverged");
        assert_eq!(ca.startups, cb.startups, "{what}: startups diverged");
    }
    let matrix = |out: &RunOutput<(Vec<i32>, Vec<i32>)>| out.comm_matrix().expect("a traced run");
    assert_eq!(matrix(a), matrix(b), "{what}: comm matrix diverged");
}

/// Every scheme pair on a 1-D and a 2-D grid: `check(what, grid, program)`.
fn for_every_scheme_and_grid(
    mut check: impl FnMut(String, &ProcGrid, &(dyn Fn(&mut Proc) -> (Vec<i32>, Vec<i32>) + Sync)),
) {
    let grids: Vec<(ProcGrid, Vec<Dist>, Vec<usize>)> = vec![
        (ProcGrid::line(4), vec![Dist::BlockCyclic(2)], vec![24]),
        (
            ProcGrid::new(&[2, 3]),
            vec![Dist::BlockCyclic(2), Dist::BlockCyclic(1)],
            vec![8, 9],
        ),
    ];
    for (grid, dists, extents) in grids {
        for pack_scheme in PackScheme::ALL {
            for unpack_scheme in UnpackScheme::ALL {
                let program = roundtrip(
                    grid.clone(),
                    dists.clone(),
                    extents.clone(),
                    PackOptions::new(pack_scheme),
                    UnpackOptions::new(unpack_scheme),
                );
                let what = format!("{pack_scheme:?}/{unpack_scheme:?} on {:?}", grid.dims());
                check(what, &grid, &program);
            }
        }
    }
}

#[test]
fn every_scheme_and_grid_is_identical_across_pool_sizes() {
    for_every_scheme_and_grid(|what, grid, program| {
        let build = |workers: usize| {
            Machine::new(grid.clone(), CostModel::cm5())
                .with_tracing(true)
                .with_workers(workers)
        };
        let reference = build(1).run(program);
        for workers in [3usize, 8] {
            let out = build(workers).run(program);
            assert_identical(&reference, &out, &format!("{what} workers={workers}"));
        }
    });
}

/// The perf report's `scale.roundtrip` program at the machine shapes it
/// records: an SSS PACK → UNPACK roundtrip, `NaivePush` both ways, n = 16·P
/// in blocks of 4 at density 0.5, over a P-frame channel ring. One worker
/// and two agree bit for bit at P up to 4096 in release, which is how
/// `scripts/ci.sh` runs this suite; an unoptimised build stops at 256.
#[test]
fn the_scale_roundtrip_is_identical_across_pool_sizes() {
    let shapes: &[usize] = if cfg!(debug_assertions) {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };
    let pattern = MaskPattern::Random {
        density: 0.5,
        seed: 42,
    };
    for &p in shapes {
        let grid = ProcGrid::line(p);
        let desc = ArrayDesc::new(&[16 * p], &grid, &[Dist::BlockCyclic(4)]).unwrap();
        let d = &desc;
        let program = move |proc: &mut Proc| {
            let m = pattern.local(d, proc.id());
            let a = local_from_fn(d, proc.id(), |g| g[0] as i32 * 3 - 50);
            let popts = PackOptions {
                schedule: A2aSchedule::NaivePush,
                ..PackOptions::new(PackScheme::Simple)
            };
            let out = plan_pack(proc, d, &m, &popts)
                .unwrap()
                .execute(proc, &a)
                .unwrap();
            let vl = out.v_layout.expect("mask selects elements");
            let f = local_from_fn(d, proc.id(), |g| -(g[0] as i32));
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
                .with_tracing(true)
                .with_workers(workers)
                .with_chan_capacity(p)
                .run(program)
        };
        assert_identical(&run(1), &run(2), &format!("scale.roundtrip P={p}"));
    }
}

/// A machine keeps its carriers' stacks from one run to the next, whatever
/// the last run left on them; nothing a run shows may depend on it. Runs 1,
/// 2 and 5 of the roundtrip on one `Machine` are identical.
#[test]
fn every_run_on_one_machine_is_identical() {
    for_every_scheme_and_grid(|what, grid, program| {
        let machine = Machine::new(grid.clone(), CostModel::cm5())
            .with_tracing(true)
            .with_workers(2);
        let runs: Vec<_> = (0..5).map(|_| machine.run(program)).collect();
        for k in [2, 5] {
            assert_identical(&runs[0], &runs[k - 1], &format!("{what} run {k}"));
        }
    });
}

/// The transport has no clock, so under a fixed fault plan — drops,
/// duplicates, reordering and delay all at once — what it retransmitted
/// and what it discarded is as much a function of the program as the
/// results are: the counters and every processor's event stream
/// (`Retransmit`, `DupDrop` and `FaultVerdict` included, compared as sets
/// of `(timestamp, event)` since a log's record order follows the
/// interleaving) are equal across pool sizes, in either build profile.
#[test]
fn a_lossy_network_is_identical_across_pool_sizes() {
    let canonical_events = |out: &RunOutput<(Vec<i32>, Vec<i32>)>| -> Vec<Vec<(u64, String)>> {
        let canon = |evs: &Vec<hpf_machine::Event>| {
            let mut v: Vec<(u64, String)> = evs
                .iter()
                .map(|e| (e.ts_ns.to_bits(), format!("{:?}", e.kind)))
                .collect();
            v.sort();
            v
        };
        out.events.iter().map(canon).collect()
    };
    let (mut retransmits, mut dup_drops) = (0, 0);
    for_every_scheme_and_grid(|what, grid, program| {
        let build = |workers: usize| {
            let plan = FaultPlan::new(11)
                .with_drop(0.2)
                .with_duplicate(0.1)
                .with_reorder(0.1)
                .with_delay(0.3, 40_000.0);
            Machine::new(grid.clone(), CostModel::cm5())
                .with_tracing(true)
                .with_workers(workers)
                .with_faults(plan)
        };
        let reference = build(1).try_run(program).expect("the transport recovers");
        for workers in [2usize, 4] {
            let what = format!("{what} workers={workers}");
            let out = build(workers)
                .try_run(program)
                .expect("the transport recovers");
            assert_identical(&reference, &out, &what);
            assert_eq!(
                (reference.total_retransmits(), reference.total_dup_drops()),
                (out.total_retransmits(), out.total_dup_drops()),
                "{what}: retransmits / dup_drops diverged"
            );
            assert_eq!(
                canonical_events(&reference),
                canonical_events(&out),
                "{what}: event streams diverged"
            );
        }
        retransmits += reference.total_retransmits();
        dup_drops += reference.total_dup_drops();
    });
    assert!(
        retransmits > 0 && dup_drops > 0,
        "the plan injected nothing"
    );
}
