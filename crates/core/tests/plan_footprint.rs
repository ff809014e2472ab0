//! Plan-footprint gate: what a processor allocates to build a PACK plan
//! and an UNPACK plan depends on its elements and its peers, not on how
//! many processors the machine has. With 16 elements per processor, the
//! bytes `plan_pack` + `plan_unpack` allocate on the median processor may
//! grow by at most 1.25× from P = 64 to P = 512. The dense plan families
//! this replaced grew 6.7× (34 KB → 229 KB).
//!
//! Two things are kept out of the gated number, because they are not the
//! plan's:
//!
//! * The ranking collectives inside both planners send ⌈log₂ P⌉ rounds of
//!   messages, each an allocation or three in the machine layer — 6 rounds
//!   against 9. The same ranking stage therefore runs alone first (once to
//!   open the mailbox lanes it uses, once measured), and the planners'
//!   bytes are taken net of two of them. The gross bytes are gated too,
//!   loosely: a P-sized table per processor would still trip it.
//! * Processor 0 transposes the flag matrix for everyone (DESIGN.md §17):
//!   it holds P columns of ⌈P/64⌉ words, and its inbound ring and mailbox
//!   grow under the P − 1 rows — growth the allocator bills to whichever
//!   *sender's* push triggered it. Hence the median over processors and
//!   not the maximum: a handful of senders read tens of KB high.
//!
//! What a plan *retains* — its `mem.plan` charge — depends on its peers and
//! its copy ops, and on its elements only where a `Scatter` op walks them
//! (DESIGN.md §16): a bulk row keeps no index list. What its executes
//! *stage* — the `mem.pool` high water — is set by the first execute: the
//! plan makes one slot per route row, which every later execute refills
//! (§11). A plan that lends its source stages nothing: its slots hold a
//! loan, no buffer, and `mem.pool` stays at zero. A plan that switches
//! element type gives the old table's charge back. The slots it *holds* are
//! one per route row, made on the first execute (§11).
//!
//! What a processor's *stack* holds is host memory too, outside every
//! `mem.*` account: at P = 512 each 4 KiB page of the deepest frame chain is
//! 2 MB resident. The roundtrip of the benchmark's `scale_p512` must fit in
//! two pages per carrier (DESIGN.md §15).

use hpf_core::ranking::{rank_from_counts, slice_counts, RankShape};
use hpf_core::{
    plan_pack, plan_unpack, CopyStats, MaskPattern, MaskStats, PackOptions, PackPlan, PackScheme,
    UnpackOptions, UnpackPlan, UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist};
use hpf_machine::alloc_counter::{thread_totals, CountingAllocator};
use hpf_machine::collectives::A2aSchedule;
use hpf_machine::{CostModel, Machine, MemAccount, ProcGrid};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const PER_PROC: usize = 16;

/// Per processor: `(gross, net)` bytes allocated planning one PACK and one
/// UNPACK, net of their two ranking stages.
fn plan_bytes(p: usize) -> Vec<(u64, u64)> {
    let grid = ProcGrid::line(p);
    let desc = ArrayDesc::new(&[PER_PROC * p], &grid, &[Dist::BlockCyclic(2)]).unwrap();
    let mask = MaskPattern::Random {
        density: 0.5,
        seed: 5,
    };
    let (popts, uopts) = (PackOptions::default(), UnpackOptions::default());
    let out = Machine::new(grid, CostModel::cm5()).run(|proc| {
        let m = mask.local(&desc, proc.id());
        let shape = RankShape::from_desc(&desc);
        let mut allocated = |f: &mut dyn FnMut(&mut hpf_machine::Proc)| {
            let (_, before) = thread_totals();
            f(proc);
            thread_totals().1 - before
        };
        let mut rank = |proc: &mut hpf_machine::Proc| {
            rank_from_counts(proc, &shape, &slice_counts(&m, shape.w[0]), popts.prs);
        };
        allocated(&mut rank);
        let ranking = allocated(&mut rank);
        let gross = allocated(&mut |proc| {
            let pack = plan_pack(proc, &desc, &m, &popts).unwrap();
            let vl = pack.v_layout().expect("the mask selects elements");
            plan_unpack(proc, &desc, &m, &vl, &uopts).unwrap();
        });
        (gross, gross - 2 * ranking)
    });
    out.results
}

#[test]
fn plan_allocation_does_not_grow_with_the_machine() {
    let medians = |p: usize| {
        let bytes = plan_bytes(p);
        let median = |pick: fn(&(u64, u64)) -> u64| {
            let mut v: Vec<u64> = bytes.iter().map(pick).collect();
            v.sort_unstable();
            v[p / 2]
        };
        (median(|b| b.0), median(|b| b.1))
    };
    let ((gross64, net64), (gross512, net512)) = (medians(64), medians(512));
    println!(
        "median plan bytes, P = 64 -> 512: net {net64} -> {net512}, gross {gross64} -> {gross512}"
    );
    assert!(
        net512 as f64 <= 1.25 * net64 as f64,
        "planning allocates {net64} B per processor at P = 64 but {net512} B at P = 512"
    );
    assert!(
        gross512 <= 2 * gross64,
        "with ranking: {gross64} B per processor at P = 64 but {gross512} B at P = 512"
    );
}

/// A plan's handle table is O(peers), never O(P) (DESIGN.md §11): at
/// P = 512, after one execute, every processor's PACK plan holds exactly one
/// pool-slot handle per route row — `Ds_i`, the processors its selected
/// elements go to, itself included — and its UNPACK plan one per serve row,
/// `Dr_i`, as [`MaskStats`] counts them from the global mask. Before its
/// first execute, and in a clone, a plan holds none.
#[test]
fn a_plan_holds_one_slot_handle_per_route_row() {
    const P: usize = 512;
    let grid = ProcGrid::line(P);
    let desc = ArrayDesc::new(&[PER_PROC * P], &grid, &[Dist::BlockCyclic(2)]).unwrap();
    let mask = MaskPattern::Random {
        density: 0.5,
        seed: 5,
    };
    let stats = MaskStats::from_mask(mask.global(&[PER_PROC * P]).data(), P, 2, None);
    let out = Machine::new(grid, CostModel::cm5()).run(|proc| {
        let me = proc.id();
        let m = mask.local(&desc, me);
        let pack = plan_pack(proc, &desc, &m, &PackOptions::default()).unwrap();
        let vl = pack.v_layout().expect("the mask selects elements");
        let unpack = plan_unpack(proc, &desc, &m, &vl, &UnpackOptions::default()).unwrap();
        let held =
            |pack: &PackPlan, unpack: &UnpackPlan| (pack.slot_handles(), unpack.slot_handles());
        let before = held(&pack, &unpack);
        let a = local_from_fn(&desc, me, |g| g[0] as i32);
        let v = pack.execute(proc, &a).unwrap().local_v;
        unpack.execute(proc, &a, &v).unwrap();
        (
            before,
            held(&pack, &unpack),
            held(&pack.clone(), &unpack.clone()),
        )
    });
    let mut widest = 0;
    for (p, (before, after, cloned)) in out.results.into_iter().enumerate() {
        assert_eq!(before, (0, 0), "processor {p} before its first execute");
        assert_eq!(cloned, (0, 0), "processor {p}: a clone holds no handles");
        let rows = (stats.send_peers[p], stats.recv_peers[p]);
        assert_eq!(after, rows, "processor {p}: one handle per route row");
        widest = widest.max(after.0.max(after.1));
    }
    assert!(
        widest < P / 8,
        "{widest} handles on one processor at P = {P}"
    );
}

/// The deepest carrier stack of the `scale_p512` roundtrip — P = 512, 16
/// elements each, block-cyclic(4), a Bernoulli-0.5 mask, SSS PACK and UNPACK
/// on naive-push exchanges, planned and executed once on a fresh one-worker
/// machine — stays within two 4 KiB pages in release. It takes three if the
/// driver's teardown shares the carrier's bottom frame with the program, or
/// if a `Proc` carries its resume context inline (DESIGN.md §15). An
/// unoptimised build's frames are larger; there it only prints.
#[test]
fn the_scale_roundtrip_stack_fits_two_pages() {
    const P: usize = 512;
    const BOUND: usize = 8 << 10;
    let grid = ProcGrid::line(P);
    let desc = ArrayDesc::new(&[PER_PROC * P], &grid, &[Dist::BlockCyclic(4)]).unwrap();
    let mask = MaskPattern::Random {
        density: 0.5,
        seed: 1,
    };
    let popts = PackOptions {
        schedule: A2aSchedule::NaivePush,
        ..PackOptions::new(PackScheme::Simple)
    };
    let uopts = UnpackOptions {
        schedule: A2aSchedule::NaivePush,
        ..UnpackOptions::new(UnpackScheme::Simple)
    };
    let machine = Machine::new(grid, CostModel::cm5())
        .with_workers(1)
        .with_chan_capacity(P);
    machine.run(|proc| {
        let me = proc.id();
        let (a, m) = (
            local_from_fn(&desc, me, |g| g[0] as i32),
            mask.local(&desc, me),
        );
        let pack = plan_pack(proc, &desc, &m, &popts).unwrap();
        let packed = pack.execute(proc, &a).unwrap();
        let vl = packed.v_layout.expect("the mask selects elements");
        let unpack = plan_unpack(proc, &desc, &m, &vl, &uopts).unwrap();
        unpack.execute(proc, &a, &packed.local_v).unwrap()
    });
    let (deepest, sum) = machine.stack_resident_bytes();
    println!(
        "scale roundtrip at P = {P}: deepest carrier stack {deepest} B resident, {sum} B over all"
    );
    assert!(deepest > 0, "the gauge saw no stack");
    if cfg!(not(debug_assertions)) {
        assert!(
            deepest <= BOUND,
            "the deepest carrier stack holds {deepest} B, over {BOUND} B: each page over is 2 MB at P = {P}"
        );
    }
}

/// Per processor: the `mem.plan` charge of a CMS PACK plan plus a CSS UNPACK
/// plan over `l` elements per processor on four processors, in four slices
/// each, and the plans' copy statistics merged.
fn retained(l: usize, pattern: MaskPattern) -> Vec<(u64, CopyStats)> {
    let grid = ProcGrid::line(4);
    let desc = ArrayDesc::new(&[4 * l], &grid, &[Dist::BlockCyclic(l / 4)]).unwrap();
    let popts = PackOptions::new(PackScheme::CompactMessage);
    let uopts = UnpackOptions::new(UnpackScheme::CompactStorage);
    let machine = Machine::new(grid, CostModel::cm5()).with_metrics(true);
    let out = machine.run(|proc| {
        let m = pattern.local(&desc, proc.id());
        let pack = plan_pack(proc, &desc, &m, &popts).unwrap();
        let vl = pack.v_layout().expect("the mask selects elements");
        let unpack = plan_unpack(proc, &desc, &m, &vl, &uopts).unwrap();
        let mut copy = pack.copy_stats();
        copy.merge(&unpack.copy_stats());
        copy
    });
    let gauge = MemAccount::Plan.gauge_name();
    (out.metrics.iter().map(|m| m.gauges[gauge].last))
        .zip(out.results)
        .collect()
}

/// A full mask's plans are bulk rows and keep no index list: their charge
/// is the same at L = 2¹² and at L = 2¹⁶ elements per processor. (Four
/// slices per processor at both sizes — `BlockCyclic(1024)` at the smaller
/// — so that the runs and ops, which a fixed block would multiply with L,
/// stay put.) Under a Bernoulli-0.5 mask the charge is the plans' ops,
/// offsets, peers, runs and field span, plus the `Scatter` ops' walks:
/// exactly 1 B per index an op walks and 3 B more per op (its first index
/// takes four).
#[test]
fn bulk_rows_retain_no_index_list() {
    let (small, large) = (
        retained(1 << 12, MaskPattern::Full),
        retained(1 << 16, MaskPattern::Full),
    );
    for (p, ((a, sa), (b, sb))) in small.iter().zip(&large).enumerate() {
        assert_eq!(sa.bulk_fraction(), 1.0, "processor {p}: {sa:?}");
        assert_eq!((sa.contig, sa.scatter), (sb.contig, sb.scatter));
        assert_eq!(a, b, "processor {p}: mem.plan grows with L");
    }

    for l in [1 << 12, 1 << 16] {
        let pattern = MaskPattern::Random {
            density: 0.5,
            seed: 3,
        };
        let mask = pattern.global(&[4 * l]);
        let stats = MaskStats::from_mask(mask.data(), 4, l / 4, None);
        for (p, (charged, copy)) in retained(l, pattern).into_iter().enumerate() {
            let (ds, dr, gs) = (
                stats.send_peers[p] as u64,
                stats.recv_peers[p] as u64,
                stats.gs[p] as u64,
            );
            // A CSR of `d` rows: peer ids and offsets.
            let csr = |d: u64| 4 * (d + d + 1);
            // PACK: slot rows, run rows and runs, the gather program's
            // offsets, the exchange's peer lists. UNPACK: target and serve
            // rows, both programs' offsets, one field span (no 128-element
            // chunk of this mask is wholly selected), the reply peer lists.
            let pack = csr(ds) + 4 * (ds + 1) + 8 * gs + 4 * (ds + 1) + 4 * (ds + dr);
            let unpack = csr(ds) + csr(dr) + 4 * (dr + 1) + 4 * (ds + 1) + 8 + 4 * (ds + dr);
            let ops = 16 * (copy.contig + copy.scatter);
            let walked = copy.total_elements - copy.bulk_elements;
            assert!(walked > 0, "processor {p}: {copy:?}");
            assert_eq!(
                charged,
                pack + unpack + ops + walked + 3 * copy.scatter,
                "L = {l}, processor {p}: {copy:?}"
            );
        }
    }
}

/// A PACK or an UNPACK scheme.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    Pack(PackScheme),
    Unpack(UnpackScheme),
}

/// Per processor: the `mem.pool` high water of `executes` executes of one
/// held plan under `scheme`, on four processors of 256 elements each
/// under a Bernoulli-0.5 mask — or, `lending`, of 4 096 each under a full
/// mask in blocks of 64, whose plans lend.
fn pool_peak(scheme: Scheme, executes: usize, lending: bool) -> Vec<u64> {
    const P: usize = 4;
    let grid = ProcGrid::line(P);
    let (n, w, pattern) = match lending {
        false => (
            1024,
            4,
            MaskPattern::Random {
                density: 0.5,
                seed: 7,
            },
        ),
        true => (P * 4096, 64, MaskPattern::Full),
    };
    let desc = ArrayDesc::new(&[n], &grid, &[Dist::BlockCyclic(w)]).unwrap();
    let size = pattern.global(&[n]).data().iter().filter(|&&b| b).count();
    let vl = DimLayout::new_general(size, P, size.div_ceil(P)).unwrap();
    let machine = Machine::new(grid, CostModel::cm5()).with_metrics(true);
    let out = machine.run(|proc| {
        let m = pattern.local(&desc, proc.id());
        match scheme {
            Scheme::Pack(s) => {
                let a = local_from_fn(&desc, proc.id(), |g| g[0] as i32);
                let plan = plan_pack(proc, &desc, &m, &PackOptions::new(s)).unwrap();
                assert_eq!(plan.lends(), lending);
                for _ in 0..executes {
                    plan.execute(proc, &a).unwrap();
                }
            }
            Scheme::Unpack(s) => {
                let f = local_from_fn(&desc, proc.id(), |_| -1i32);
                let v: Vec<i32> = (0..vl.local_len(proc.id()))
                    .map(|l| vl.global_of(proc.id(), l) as i32)
                    .collect();
                let plan = plan_unpack(proc, &desc, &m, &vl, &UnpackOptions::new(s)).unwrap();
                assert_eq!(plan.lends(), lending);
                for _ in 0..executes {
                    plan.execute(proc, &f, &v).unwrap();
                }
            }
        }
    });
    let gauge = MemAccount::Pool.gauge_name();
    out.metrics.iter().map(|m| m.gauges[gauge].max).collect()
}

/// A held plan's pool is as large after four executes as after the
/// first, for all five schemes: the first execute stages one buffer per
/// destination and the later ones refill it, staging the same bytes.
#[test]
fn the_first_execute_sets_the_pool_high_water() {
    let schemes = PackScheme::ALL
        .map(Scheme::Pack)
        .into_iter()
        .chain(UnpackScheme::ALL.map(Scheme::Unpack));
    for scheme in schemes {
        let first = pool_peak(scheme, 1, false);
        assert!(first.iter().all(|&b| b > 0), "{scheme:?}: {first:?}");
        assert_eq!(
            pool_peak(scheme, 4, false),
            first,
            "{scheme:?}: mem.pool grew"
        );
    }
}

/// A lending plan's slots hold a loan, never a buffer: for all five
/// schemes, one execute and four leave the `mem.pool` high water at zero.
#[test]
fn a_lending_plan_stages_nothing() {
    let schemes = PackScheme::ALL
        .map(Scheme::Pack)
        .into_iter()
        .chain(UnpackScheme::ALL.map(Scheme::Unpack));
    for scheme in schemes {
        for executes in [1, 4] {
            let peak = pool_peak(scheme, executes, true);
            assert_eq!(peak, [0; 4], "{scheme:?}, {executes} executes");
        }
    }
}

/// Per processor: the `mem.pool` bytes still charged when a run ends whose
/// one CSS PACK plan, on four processors of 256 elements each under a
/// Bernoulli-0.5 mask, executes once per entry of `wide` — with `i64`
/// values where it is `true`, `i32` where it is `false` — and then, if
/// `retire`, retires.
fn pool_held(wide: &[bool], retire: bool) -> Vec<u64> {
    const P: usize = 4;
    let grid = ProcGrid::line(P);
    let desc = ArrayDesc::new(&[P * 256], &grid, &[Dist::BlockCyclic(4)]).unwrap();
    let pattern = MaskPattern::Random {
        density: 0.5,
        seed: 7,
    };
    let machine = Machine::new(grid, CostModel::cm5()).with_metrics(true);
    let out = machine.run(|proc| {
        let m = pattern.local(&desc, proc.id());
        let opts = PackOptions::new(PackScheme::CompactStorage);
        let plan = plan_pack(proc, &desc, &m, &opts).unwrap();
        assert!(!plan.lends());
        for &wide in wide {
            if wide {
                plan.execute(proc, &local_from_fn(&desc, proc.id(), |g| g[0] as i64))
                    .unwrap();
            } else {
                plan.execute(proc, &local_from_fn(&desc, proc.id(), |g| g[0] as i32))
                    .unwrap();
            }
        }
        if retire {
            plan.retire(proc);
        }
    });
    let gauge = MemAccount::Pool.gauge_name();
    out.metrics.iter().map(|m| m.gauges[gauge].last).collect()
}

/// A plan that switches element type gives the old slot table's charge
/// back: executed with `i32` and then `i64`, it holds what the `i64` table
/// alone charges, not both tables' bytes, and nothing once it retires.
#[test]
fn a_type_switch_gives_the_old_tables_charge_back() {
    let (narrow, wide) = (pool_held(&[false], false), pool_held(&[true], false));
    for (n, w) in narrow.iter().zip(&wide) {
        assert!(0 < *n && n < w, "i32 {narrow:?}, i64 {wide:?}");
    }
    assert_eq!(pool_held(&[false, true], false), wide);
    assert_eq!(pool_held(&[false, true], true), [0; 4]);
}
