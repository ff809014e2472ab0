//! Kernel-identity properties for the plan-time copy-program lowering
//! (DESIGN.md §16): across scheme × layout (block / cyclic /
//! block-cyclic) × mask density × block width, the lowered bulk kernels
//! must be bit-identical to the sequential Fortran oracle — on the first
//! (cold, skeleton-building) execute *and* on steady-state refills of the
//! pooled buffers, where the program-driven positional overwrite is the
//! only thing touching the wire payloads.
//!
//! This suite is the end-to-end half of the kernel-identity proof; the
//! per-kernel half is the in-module proptests that check each walker and
//! each decode against its per-element reference loop (`plan::copyprog`,
//! `plan::place_pairs`, `pack::compact_message::place_segments`).

use proptest::prelude::*;

use hpf_core::{
    plan_pack, plan_unpack,
    seq::{pack_seq, unpack_seq},
    MaskPattern, PackOptions, PackScheme, ScanMethod, UnpackOptions, UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist, GlobalArray};
use hpf_machine::{CostModel, Machine, ProcGrid};

/// 1-D layout sweep: `(P, W, T)` with `N = P·W·T`. `T = 1` is a block
/// distribution, `W = 1` is cyclic, anything else is block-cyclic. `W = 64`
/// makes local arrays of up to two whole field-pass chunks.
fn any_layout() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        1usize..=4,
        prop::sample::select(vec![1usize, 2, 3, 8, 64]),
        1usize..=4,
    )
}

fn any_pattern() -> impl Strategy<Value = MaskPattern> {
    prop_oneof![
        Just(MaskPattern::Full),
        Just(MaskPattern::Empty),
        Just(MaskPattern::FirstHalf),
        (0.05f64..0.95, 0u64..1000)
            .prop_map(|(density, seed)| MaskPattern::Random { density, seed }),
    ]
}

fn build(p: usize, w: usize, t: usize) -> (ProcGrid, ArrayDesc) {
    let grid = ProcGrid::new(&[p]);
    let desc = ArrayDesc::new(&[p * w * t], &grid, &[Dist::BlockCyclic(w)]).unwrap();
    (grid, desc)
}

/// The `(P, W, T)` of `benchmark/`'s `exec_small` and of the `.dense` perf
/// rows' shape: N = 8192 over 16 processors in blocks of 64.
const EXEC_SMALL: (usize, usize, usize) = (16, 64, 8);

/// Per-processor `(pack, unpack)` copy statistics of CMS PACK + CSS UNPACK
/// plans under `pattern`.
fn plan_stats(
    (p, w, t): (usize, usize, usize),
    pattern: MaskPattern,
) -> Vec<(hpf_core::CopyStats, hpf_core::CopyStats)> {
    let (grid, desc) = build(p, w, t);
    let machine = Machine::new(grid, CostModel::cm5());
    let d = &desc;
    let out = machine.run(move |proc| {
        let m = pattern.local(d, proc.id());
        let pack = plan_pack(proc, d, &m, &PackOptions::new(PackScheme::CompactMessage)).unwrap();
        let vl = pack.v_layout().unwrap();
        let opts = UnpackOptions::new(UnpackScheme::CompactStorage);
        let unpack = plan_unpack(proc, d, &m, &vl, &opts).unwrap();
        (pack.copy_stats(), unpack.copy_stats())
    });
    out.results
}

/// Reassemble a distributed result vector into a dense global Vec.
fn assemble<T: Copy + Default>(layout: &DimLayout, locals: &[Vec<T>], size: usize) -> Vec<T> {
    let mut v = vec![T::default(); size];
    for (p, local) in locals.iter().enumerate() {
        for (l, &x) in local.iter().enumerate() {
            v[layout.global_of(p, l)] = x;
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Planned PACK through the lowered kernels equals the sequential
    /// oracle, both on the cold execute and on a warm pooled refill with
    /// fresh values.
    #[test]
    fn lowered_pack_matches_oracle(
        layout in any_layout(),
        pattern in any_pattern(),
        scheme in prop::sample::select(PackScheme::ALL.to_vec()),
        method in prop::sample::select(vec![ScanMethod::UntilCollected, ScanMethod::WholeSlice]),
        w_prime in prop::sample::select(vec![None, Some(1usize), Some(3)]),
    ) {
        let (p, w, t) = layout;
        let (grid, desc) = build(p, w, t);
        let n = p * w * t;
        let mut opts = PackOptions::new(scheme);
        opts.scan_method = method;
        opts.result_block_size = w_prime;
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, o) = (&desc, &opts);
        let out = machine.run(move |proc| {
            let m = pattern.local(d, proc.id());
            let a = local_from_fn(d, proc.id(), |g| g[0] as i64 + 1);
            let b = local_from_fn(d, proc.id(), |g| -(g[0] as i64) - 1000);
            let plan = plan_pack(proc, d, &m, o).unwrap();
            // Four executes: cold (skeletons built), second slot cold,
            // then a fully warm positional refill; a final fresh execute
            // cross-checks that warm refills did not corrupt anything.
            let mut got = plan.execute(proc, &a).unwrap();
            plan.execute_into(proc, &a, &mut got).unwrap();
            plan.execute_into(proc, &b, &mut got).unwrap();
            let cold = plan.execute(proc, &b).unwrap();
            (got.local_v, cold.local_v)
        });
        let m = pattern.global(&[n]);
        let b_global = GlobalArray::from_fn(&[n], |g| -(g[0] as i64) - 1000);
        let want = pack_seq(&b_global, &m, None);
        for (warm, cold) in &out.results {
            prop_assert_eq!(warm, cold, "warm refill diverged from a fresh execute");
        }
        let locals: Vec<Vec<i64>> = out.results.into_iter().map(|r| r.0).collect();
        if want.is_empty() {
            prop_assert!(locals.iter().all(|l| l.is_empty()));
        } else {
            let layout = DimLayout::new_general(
                want.len(),
                p,
                w_prime.unwrap_or_else(|| want.len().div_ceil(p)).max(1),
            )
            .unwrap();
            prop_assert_eq!(assemble(&layout, &locals, want.len()), want);
        }
    }

    /// Planned UNPACK through the lowered serve/scatter kernels equals the
    /// sequential oracle, cold and warm, and into a right-sized `out` that
    /// arrives full of poison (the field pass writes only its spans).
    #[test]
    fn lowered_unpack_matches_oracle(
        layout in any_layout(),
        pattern in any_pattern(),
        scheme in prop::sample::select(UnpackScheme::ALL.to_vec()),
        slack in 0usize..4,
        w_prime in 1usize..=4,
    ) {
        let (p, w, t) = layout;
        let (grid, desc) = build(p, w, t);
        let n = p * w * t;
        let size = pattern.global(&[n]).data().iter().filter(|&&b| b).count();
        let v_layout = DimLayout::new_general((size + slack).max(1), p, w_prime).unwrap();
        let opts = UnpackOptions::new(scheme);
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, vl, o) = (&desc, &v_layout, &opts);
        let out = machine.run(move |proc| {
            let m = pattern.local(d, proc.id());
            let f = local_from_fn(d, proc.id(), |g| g[0] as i64 + 7000);
            let mkv = |salt: i64| -> Vec<i64> {
                (0..vl.local_len(proc.id()))
                    .map(|l| salt + vl.global_of(proc.id(), l) as i64)
                    .collect()
            };
            let (va, vb) = (mkv(-40_000), mkv(90_000));
            let plan = plan_unpack(proc, d, &m, vl, o).unwrap();
            let mut got = plan.execute(proc, &f, &va).unwrap();
            plan.execute_into(proc, &f, &va, &mut got).unwrap();
            plan.execute_into(proc, &f, &vb, &mut got).unwrap();
            let mut poisoned = vec![i64::MIN; f.len()];
            plan.execute_into(proc, &f, &vb, &mut poisoned).unwrap();
            (got, poisoned)
        });
        let m = pattern.global(&[n]);
        let f_global = GlobalArray::from_fn(&[n], |g| g[0] as i64 + 7000);
        let vb_global: Vec<i64> = (0..v_layout.n()).map(|g| 90_000 + g as i64).collect();
        let want = unpack_seq(&vb_global, &m, &f_global);
        let (warm, poisoned): (Vec<_>, Vec<_>) = out.results.into_iter().unzip();
        for got in [warm, poisoned] {
            prop_assert_eq!(GlobalArray::assemble(&desc, &got).data(), want.data());
        }
    }
}

/// Dense masks on block-dominant layouts must lower almost entirely to
/// bulk ops — the invariant the perf layer gates (`bulk-copy fraction ≥
/// 0.9` on dense workloads).
#[test]
fn dense_block_masks_lower_to_bulk() {
    for (ps, us) in plan_stats((4, 32, 2), MaskPattern::FirstHalf) {
        assert!(ps.total_elements > 0, "dense mask must move elements");
        assert!(
            ps.bulk_fraction() >= 0.9,
            "pack bulk fraction {} < 0.9 ({ps:?})",
            ps.bulk_fraction()
        );
        assert!(
            us.bulk_fraction() >= 0.9,
            "unpack bulk fraction {} < 0.9 ({us:?})",
            us.bulk_fraction()
        );
    }
}

/// A periodic mask on a block layout gathers with a constant stride of 2:
/// no stride-1 run, so every gather row is one `Scatter` op — 128 selected
/// elements per processor, all bound for one destination — and the packed
/// vector is the oracle's.
#[test]
fn periodic_masks_lower_to_scatter_rows_and_match_the_oracle() {
    let (grid, desc) = build(2, 256, 1);
    let machine = Machine::new(grid, CostModel::cm5());
    let d = &desc;
    let out = machine.run(move |proc| {
        let m: Vec<bool> = (0..256).map(|i| i % 2 == 0).collect();
        let a = local_from_fn(d, proc.id(), |g| g[0] as i64 + 1);
        let plan = plan_pack(proc, d, &m, &PackOptions::new(PackScheme::Simple)).unwrap();
        (plan.copy_stats(), plan.execute(proc, &a).unwrap())
    });
    for (stats, _) in &out.results {
        assert_eq!(
            (stats.contig, stats.scatter, stats.bulk_elements),
            (0, 1, 0),
            "expected one scatter op, got {stats:?}"
        );
    }
    let layout = out.results[0].1.v_layout.unwrap();
    let locals: Vec<Vec<i64>> = (out.results.into_iter().map(|(_, o)| o.local_v)).collect();
    let a = GlobalArray::from_fn(&[512], |g| g[0] as i64 + 1);
    let m = GlobalArray::from_fn(&[512], |g| g[0] % 2 == 0);
    assert_eq!(assemble(&layout, &locals, 256), pack_seq(&a, &m, None));
}

/// A random mask lowers to the index loop: on a Bernoulli-0.5 mask in blocks
/// of 64 every gather row is exactly one `Scatter` op — one per destination,
/// counted from the mask — and nothing else. UNPACK's rows come in two
/// families the public statistics add up: the scatter rows look like the
/// gather rows, the serve rows read the dense `V` in runs of ~32 and stay
/// `memcpy`; the in-crate test `plan::tests::random_rows_lower_to_one_scatter`
/// holds the op arrays of all three against this row by row.
#[test]
fn random_masks_lower_to_the_index_loop() {
    let (p, w, t) = EXEC_SMALL;
    let pattern = MaskPattern::Random {
        density: 0.5,
        seed: 11,
    };
    let mask = pattern.global(&[p * w * t]);
    let size = mask.data().iter().filter(|&&b| b).count();
    let vl = DimLayout::new_general(size, p, size.div_ceil(p)).unwrap();
    let desc = build(p, w, t).1;
    // Destinations of each processor: the owners of its elements' ranks.
    let mut dests = vec![std::collections::BTreeSet::new(); p];
    let mut rank = 0usize;
    for (g, &selected) in mask.data().iter().enumerate() {
        if selected {
            dests[desc.owner_of(&[g]).0].insert(vl.owner(rank));
            rank += 1;
        }
    }
    for (me, (ps, us)) in plan_stats(EXEC_SMALL, pattern).into_iter().enumerate() {
        let rows = dests[me].len() as u64;
        assert_eq!(
            (ps.contig, ps.scatter, ps.bulk_elements),
            (0, rows, 0),
            "proc {me}: one Scatter op per gather row and nothing else"
        );
        let served = vl.local_len(me) as u64;
        assert_eq!(us.total_elements, ps.total_elements + served);
        assert!(
            us.bulk_elements <= served && us.bulk_elements * 10 > served * 9,
            "proc {me}: the serve rows are bulk, the scatter rows are not: {us:?}"
        );
    }
}

/// Dense rows are not touched by the break-even: the `exec_small` shape
/// under a full and under a `FirstHalf` mask lowers to the op arrays it
/// lowered to when every 4-long run became an op — all `Contig`, no
/// `Scatter`, the same number of ops moving the same elements. The counts
/// were read at the commit before the rule changed and are identical on all
/// 16 processors.
#[test]
fn dense_plans_keep_their_op_arrays() {
    for (pattern, want_pack, want_unpack) in [
        (MaskPattern::Full, DENSE_FULL.0, DENSE_FULL.1),
        (MaskPattern::FirstHalf, DENSE_HALF.0, DENSE_HALF.1),
    ] {
        for (me, (ps, us)) in plan_stats(EXEC_SMALL, pattern).into_iter().enumerate() {
            let flat =
                |s: hpf_core::CopyStats| (s.contig, s.scatter, s.bulk_elements, s.total_elements);
            assert_eq!(flat(ps), want_pack, "{pattern:?} pack, proc {me}");
            assert_eq!(flat(us), want_unpack, "{pattern:?} unpack, proc {me}");
        }
    }
}

/// `(contig, scatter, bulk_elements, total_elements)` of the pack and the
/// unpack plan on every processor.
type Flat = (u64, u64, u64, u64);
const DENSE_FULL: (Flat, Flat) = ((8, 0, 512, 512), (16, 0, 1024, 1024));
const DENSE_HALF: (Flat, Flat) = ((4, 0, 256, 256), (8, 0, 512, 512));
