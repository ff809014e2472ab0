//! Cross-crate property tests: for *arbitrary* shapes, grids, block sizes,
//! masks, and schemes, the parallel operations must equal the sequential
//! Fortran 90 oracle exactly.

use proptest::prelude::*;

use hpf_packunpack::core::seq::{count_seq, pack_seq, ranks_seq, unpack_seq};
use hpf_packunpack::core::{pack, unpack, PackOptions, PackScheme, UnpackOptions, UnpackScheme};
use hpf_packunpack::distarray::{
    redistribute, ArrayDesc, DimLayout, Dist, GlobalArray, RedistMode,
};
use hpf_packunpack::machine::collectives::{
    alltoallv, prefix_reduction_sum, A2aSchedule, PrsAlgorithm,
};
use hpf_packunpack::machine::{CostModel, FaultPlan, Machine, ProcGrid};

/// One array dimension: (P_i, W_i, T_i) with N_i = P_i * W_i * T_i.
fn dim_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=3, 1usize..=3, 1usize..=3)
}

/// A full configuration: up to rank 3, plus a mask bitmap seed.
#[derive(Debug, Clone)]
struct Config {
    dims: Vec<(usize, usize, usize)>, // (P, W, T) per dimension
    mask_bits: Vec<bool>,
    values: Vec<i32>,
}

impl Config {
    fn shape(&self) -> Vec<usize> {
        self.dims.iter().map(|&(p, w, t)| p * w * t).collect()
    }
    fn grid_dims(&self) -> Vec<usize> {
        self.dims.iter().map(|&(p, _, _)| p).collect()
    }
    fn dists(&self) -> Vec<Dist> {
        self.dims
            .iter()
            .map(|&(_, w, _)| Dist::BlockCyclic(w))
            .collect()
    }
}

fn config_strategy() -> impl Strategy<Value = Config> {
    prop::collection::vec(dim_strategy(), 1..=3).prop_flat_map(|dims| {
        let n: usize = dims.iter().map(|&(p, w, t)| p * w * t).product();
        (
            Just(dims),
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec(-1000i32..1000, n),
        )
            .prop_map(|(dims, mask_bits, values)| Config {
                dims,
                mask_bits,
                values,
            })
    })
}

fn scheme_strategy() -> impl Strategy<Value = PackScheme> {
    prop::sample::select(PackScheme::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Parallel PACK == sequential PACK for arbitrary configurations.
    #[test]
    fn pack_matches_oracle(cfg in config_strategy(), scheme in scheme_strategy()) {
        let shape = cfg.shape();
        let grid = ProcGrid::new(&cfg.grid_dims());
        let desc = ArrayDesc::new(&shape, &grid, &cfg.dists()).unwrap();
        let a = GlobalArray::from_vec(&shape, cfg.values.clone());
        let m = GlobalArray::from_vec(&shape, cfg.mask_bits.clone());
        let want = pack_seq(&a, &m, None);
        let (ap, mp) = (a.partition(&desc), m.partition(&desc));
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, apr, mpr) = (&desc, &ap, &mp);
        let opts = PackOptions::new(scheme);
        let out = machine.run(move |proc| {
            pack(proc, d, &apr[proc.id()], &mpr[proc.id()], &opts).unwrap()
        });
        let size = out.results[0].size;
        prop_assert_eq!(size, want.len());
        let mut got = vec![0i32; size];
        if let Some(layout) = out.results[0].v_layout {
            for (p, r) in out.results.iter().enumerate() {
                for (l, &x) in r.local_v.iter().enumerate() {
                    got[layout.global_of(p, l)] = x;
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    /// Parallel UNPACK == sequential UNPACK, with arbitrary vector block
    /// size and arbitrary extra capacity.
    #[test]
    fn unpack_matches_oracle(
        cfg in config_strategy(),
        scheme in prop::sample::select(UnpackScheme::ALL.to_vec()),
        w_prime in 1usize..8,
        extra in 0usize..5,
    ) {
        let shape = cfg.shape();
        let grid = ProcGrid::new(&cfg.grid_dims());
        let desc = ArrayDesc::new(&shape, &grid, &cfg.dists()).unwrap();
        let m = GlobalArray::from_vec(&shape, cfg.mask_bits.clone());
        let f = GlobalArray::from_vec(&shape, cfg.values.clone());
        let n_prime = (count_seq(&m) + extra).max(1);
        let v: Vec<i32> = (0..n_prime as i32).map(|i| 9000 + i).collect();
        let want = unpack_seq(&v, &m, &f);
        let v_layout = DimLayout::new_general(n_prime, grid.nprocs(), w_prime).unwrap();
        let v_locals: Vec<Vec<i32>> = (0..grid.nprocs())
            .map(|p| (0..v_layout.local_len(p)).map(|l| v[v_layout.global_of(p, l)]).collect())
            .collect();
        let (mp, fp) = (m.partition(&desc), f.partition(&desc));
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, mpr, fpr, vpr, vl) = (&desc, &mp, &fp, &v_locals, &v_layout);
        let opts = UnpackOptions::new(scheme);
        let out = machine.run(move |proc| {
            unpack(proc, d, &mpr[proc.id()], &fpr[proc.id()], &vpr[proc.id()], vl, &opts).unwrap()
        });
        prop_assert_eq!(GlobalArray::assemble(&desc, &out.results), want);
    }

    /// Ranking assigns the sequential ranks (checked via PS_f replay).
    #[test]
    fn ranking_matches_sequential_ranks(cfg in config_strategy()) {
        use hpf_packunpack::core::ranking::{element_ranks, rank_from_counts, slice_counts, RankShape};
        let shape = cfg.shape();
        let grid = ProcGrid::new(&cfg.grid_dims());
        let desc = ArrayDesc::new(&shape, &grid, &cfg.dists()).unwrap();
        let m = GlobalArray::from_vec(&shape, cfg.mask_bits.clone());
        let want = ranks_seq(&m);
        let mp = m.partition(&desc);
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, mpr) = (&desc, &mp);
        let out = machine.run(move |proc| {
            let rshape = RankShape::from_desc(d);
            let counts = slice_counts(&mpr[proc.id()], rshape.w[0]);
            let ranking = rank_from_counts(proc, &rshape, counts, PrsAlgorithm::Auto);
            element_ranks(&rshape, &mpr[proc.id()], &ranking.ps_f)
        });
        for (p, ranks) in out.results.iter().enumerate() {
            for (l, got) in ranks.iter().enumerate() {
                let glin = desc.global_linear(&desc.global_of_local(p, l));
                prop_assert_eq!(*got, want[glin].map(|r| r as u32));
            }
        }
    }

    /// Redistribution preserves content for arbitrary layout pairs, in both
    /// wire formats.
    #[test]
    fn redistribute_preserves_content(
        cfg in config_strategy(),
        dst_ws in prop::collection::vec(1usize..=4, 3),
        indexed in any::<bool>(),
    ) {
        let shape = cfg.shape();
        let grid = ProcGrid::new(&cfg.grid_dims());
        let src = ArrayDesc::new(&shape, &grid, &cfg.dists()).unwrap();
        let dst_dists: Vec<Dist> =
            shape.iter().enumerate().map(|(i, _)| Dist::BlockCyclic(dst_ws[i % dst_ws.len()])).collect();
        let dst = ArrayDesc::new_general(&shape, &grid, &dst_dists).unwrap();
        let a = GlobalArray::from_vec(&shape, cfg.values.clone());
        let parts = a.partition(&src);
        let machine = Machine::new(grid, CostModel::cm5());
        let (s, t, pp) = (&src, &dst, &parts);
        let mode = if indexed { RedistMode::Indexed } else { RedistMode::Detected };
        let out = machine.run(move |proc| {
            redistribute(proc, s, t, &pp[proc.id()], mode, A2aSchedule::LinearPermutation)
        });
        prop_assert_eq!(GlobalArray::assemble(&dst, &out.results), a);
    }

    /// The fused prefix-reduction-sum equals a serial element-wise scan for
    /// both algorithms and any processor count / vector length.
    #[test]
    fn prs_matches_serial(
        p in 1usize..=9,
        m in 0usize..40,
        split in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let algo = if split { PrsAlgorithm::Split } else { PrsAlgorithm::Direct };
        let inputs: Vec<Vec<i32>> = (0..p)
            .map(|r| (0..m).map(|j| ((seed as usize + r * 37 + j * 11) % 101) as i32).collect())
            .collect();
        let mut acc = vec![0i32; m];
        let mut want_prefix = Vec::new();
        for v in &inputs {
            want_prefix.push(acc.clone());
            for (a, b) in acc.iter_mut().zip(v) { *a += *b; }
        }
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let inp = &inputs;
        let out = machine.run(move |proc| {
            let world = proc.world();
            prefix_reduction_sum(proc, &world, &inp[proc.id()], algo)
        });
        for (r, (prefix, total)) in out.results.iter().enumerate() {
            prop_assert_eq!(prefix, &want_prefix[r]);
            prop_assert_eq!(total, &acc);
        }
    }

    /// PACK then UNPACK (with the original array as FIELD) is the identity,
    /// bit-exactly, on a machine whose every link drops, duplicates, and
    /// delays up to 20% of data frames: the reliable transport must mask
    /// arbitrary non-crash fault schedules. Covers 1-D and 2-D grids.
    #[test]
    fn faulty_pack_unpack_roundtrip_is_identity(
        dims in prop::collection::vec(dim_strategy(), 1..=2),
        mask_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        drop_p in 0.0f64..=0.2,
        dup_p in 0.0f64..=0.2,
        delay_p in 0.0f64..=0.2,
        pscheme in scheme_strategy(),
        uscheme in prop::sample::select(UnpackScheme::ALL.to_vec()),
    ) {
        let shape: Vec<usize> = dims.iter().map(|&(p, w, t)| p * w * t).collect();
        let n: usize = shape.iter().product();
        let grid = ProcGrid::new(&dims.iter().map(|&(p, _, _)| p).collect::<Vec<_>>());
        let dists: Vec<Dist> = dims.iter().map(|&(_, w, _)| Dist::BlockCyclic(w)).collect();
        let desc = ArrayDesc::new(&shape, &grid, &dists).unwrap();
        let values: Vec<i32> = (0..n as i32).map(|i| i * 7 - 100).collect();
        let mask_bits: Vec<bool> =
            (0..n).map(|i| (mask_seed >> (i % 64)) & 1 == 1).collect();
        let a = GlobalArray::from_vec(&shape, values);
        let m = GlobalArray::from_vec(&shape, mask_bits);
        let plan = FaultPlan::new(fault_seed)
            .with_drop(drop_p)
            .with_duplicate(dup_p)
            .with_delay(delay_p, 100_000.0);
        let (ap, mp) = (a.partition(&desc), m.partition(&desc));
        let machine = Machine::new(grid.clone(), CostModel::cm5())
            .with_faults(plan);
        let (d, apr, mpr) = (&desc, &ap, &mp);
        let popts = PackOptions::new(pscheme);
        let po = &popts;
        let packed = machine.run(move |proc| {
            pack(proc, d, &apr[proc.id()], &mpr[proc.id()], po).unwrap()
        });
        prop_assert_eq!(packed.results[0].size, count_seq(&m));
        if let Some(v_layout) = packed.results[0].v_layout {
            let v_locals: Vec<Vec<i32>> =
                packed.results.iter().map(|r| r.local_v.clone()).collect();
            let uopts = UnpackOptions::new(uscheme);
            let (vpr, vl, uo) = (&v_locals, &v_layout, &uopts);
            let out = machine.run(move |proc| {
                unpack(proc, d, &mpr[proc.id()], &apr[proc.id()], &vpr[proc.id()], vl, uo)
                    .unwrap()
            });
            // FIELD == A, so the roundtrip must restore A exactly.
            prop_assert_eq!(GlobalArray::assemble(&desc, &out.results), a);
        }
    }

    /// All-to-allv delivers every element exactly once under both schedules.
    #[test]
    fn alltoallv_is_a_permutation_of_the_data(
        p in 1usize..=6,
        sizes in prop::collection::vec(0usize..6, 36),
        naive in any::<bool>(),
    ) {
        let schedule = if naive { A2aSchedule::NaivePush } else { A2aSchedule::LinearPermutation };
        let machine = Machine::new(ProcGrid::line(p), CostModel::cm5());
        let sz = &sizes;
        let out = machine.run(move |proc| {
            let world = proc.world();
            let sends: Vec<Vec<(u32, u32)>> = (0..p)
                .map(|j| {
                    let len = sz[(proc.id() * p + j) % sz.len()];
                    (0..len).map(|k| (proc.id() as u32, (j * 100 + k) as u32)).collect()
                })
                .collect();
            alltoallv(proc, &world, sends, schedule)
        });
        for (j, recvs) in out.results.iter().enumerate() {
            for (r, msg) in recvs.iter().enumerate() {
                let want_len = sizes[(r * p + j) % sizes.len()];
                prop_assert_eq!(msg.len(), want_len);
                for (k, &(src, tag)) in msg.iter().enumerate() {
                    prop_assert_eq!(src as usize, r);
                    prop_assert_eq!(tag as usize, j * 100 + k);
                }
            }
        }
    }
}
