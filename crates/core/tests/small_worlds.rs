//! Small worlds, exhaustively: every mask of every 1-D array of N ≤ 8
//! elements on P ∈ {1, 2, 3, 4} processors, under every block-cyclic
//! layout with P·W | N, plus one 2-D grid. Each mask goes through the three
//! PACK and two UNPACK schemes, one-shot and as a plan executed twice, and
//! through Red.1 / Red.2, under both PRS algorithms and all three
//! many-to-many schedules; every result is checked against
//! `hpf_core::seq`. A layout with P·W ∤ N must be refused with
//! `NotDivisible`, never with a panic.
//!
//! Random generation rarely reaches these edges: empty and full masks, one
//! processor, a block as large as the extent, a result block size larger
//! than the vector.

use hpf_core::seq::{pack_seq, unpack_seq};
use hpf_core::{
    pack, pack_redistributed, plan_pack, plan_unpack, unpack, unpack_redistributed, PackError,
    PackOptions, PackOutput, PackScheme, RedistScheme, UnpackError, UnpackOptions, UnpackScheme,
};
use hpf_distarray::{ArrayDesc, DimLayout, Dist, GlobalArray};
use hpf_machine::collectives::{A2aSchedule, PrsAlgorithm};
use hpf_machine::{CostModel, Machine, Proc, ProcGrid};

const SCHEDULES: [A2aSchedule; 3] = [
    A2aSchedule::LinearPermutation,
    A2aSchedule::NaivePush,
    A2aSchedule::PairwiseExchange,
];
const PRS: [PrsAlgorithm; 2] = [PrsAlgorithm::Direct, PrsAlgorithm::Split];

/// One mask of a world and what the oracle makes of it.
struct Case {
    mask: GlobalArray<bool>,
    /// PACK(A, M).
    packed: Vec<i32>,
    /// The UNPACK input: `packed` reversed plus one spare element, and its
    /// layout.
    v: Vec<i32>,
    v_layout: DimLayout,
    /// UNPACK(V, M, F), partitioned like the array.
    unpacked: Vec<Vec<i32>>,
    /// The PACK result's block size `W'`, `None` for a block layout.
    result_block_size: Option<usize>,
}

fn cases(desc: &ArrayDesc, a: &GlobalArray<i32>, f: &GlobalArray<i32>) -> Vec<Case> {
    let shape = desc.shape();
    let n: usize = shape.iter().product();
    let p = desc.grid().nprocs();
    (0..1u32 << n)
        .map(|bits| {
            let mask = GlobalArray::from_vec(&shape, (0..n).map(|i| bits >> i & 1 == 1).collect());
            let packed = pack_seq(a, &mask, None);
            let v: Vec<i32> = packed.iter().rev().map(|x| x + 1000).chain([-7]).collect();
            let v_layout = DimLayout::new_general(v.len(), p, 1 + bits as usize % 3).unwrap();
            let unpacked = unpack_seq(&v, &mask, f).partition(desc);
            let result_block_size = [None, Some(1), Some(n + 1)][bits as usize % 3];
            Case {
                mask,
                packed,
                v,
                v_layout,
                unpacked,
                result_block_size,
            }
        })
        .collect()
}

/// This processor's part of a PACK result equals the oracle's vector.
fn check_packed(proc: &Proc, got: &PackOutput<i32>, want: &[i32], what: &str) {
    assert_eq!(got.size, want.len(), "{what}: size");
    let Some(layout) = got.v_layout else {
        assert!(
            want.is_empty() && got.local_v.is_empty(),
            "{what}: no layout"
        );
        return;
    };
    assert_eq!(layout.n(), want.len(), "{what}: layout extent");
    let me = proc.id();
    assert_eq!(
        got.local_v.len(),
        layout.local_len(me),
        "{what}: local length"
    );
    for (l, x) in got.local_v.iter().enumerate() {
        assert_eq!(*x, want[layout.global_of(me, l)], "{what}: element {l}");
    }
}

/// Run every case of one world through every scheme, one-shot, planned and
/// redistributed, in one `Machine::run`.
fn sweep(desc: &ArrayDesc, prs: PrsAlgorithm, schedule: A2aSchedule) {
    let shape = desc.shape();
    let a = GlobalArray::from_fn(&shape, |g| g.iter().fold(1, |acc, &x| acc * 10 + x as i32));
    let f = GlobalArray::from_fn(&shape, |g| -(g.iter().sum::<usize>() as i32) - 1);
    let cases = cases(desc, &a, &f);
    let (a_parts, f_parts) = (a.partition(desc), f.partition(desc));
    let world = format!(
        "{shape:?} on {:?}, {desc:?}, {prs:?}, {schedule:?}",
        desc.grid()
    );
    let (d, cs, ap, fp, world) = (desc, &cases, &a_parts, &f_parts, &world);
    Machine::new(desc.grid().clone(), CostModel::cm5()).run(move |proc| {
        let me = proc.id();
        let (a, f) = (&ap[me], &fp[me]);
        for (k, c) in cs.iter().enumerate() {
            let m = &c.mask.partition(d)[me];
            let v: Vec<i32> = (0..c.v_layout.local_len(me))
                .map(|l| c.v[c.v_layout.global_of(me, l)])
                .collect();
            let want_u = &c.unpacked[me];
            for scheme in PackScheme::ALL {
                let opts = PackOptions {
                    prs,
                    schedule,
                    result_block_size: c.result_block_size,
                    ..PackOptions::new(scheme)
                };
                let what = format!("{world}: mask {k}, {scheme:?}");
                let got = pack(proc, d, a, m, &opts).unwrap();
                check_packed(proc, &got, &c.packed, &what);
                let plan = plan_pack(proc, d, m, &opts).unwrap();
                for _ in 0..2 {
                    let got = plan.execute(proc, a).unwrap();
                    check_packed(proc, &got, &c.packed, &format!("{what}, planned"));
                }
                plan.retire(proc);
            }
            for red in [RedistScheme::SelectedData, RedistScheme::WholeArrays] {
                let opts = PackOptions {
                    prs,
                    schedule,
                    ..PackOptions::default()
                };
                let got = pack_redistributed(proc, d, a, m, red, &opts).unwrap();
                let what = format!("{world}: mask {k}, {red:?}");
                // Red.1 / Red.2 return the vector in a block layout.
                check_packed(proc, &got, &c.packed, &what);
            }
            for scheme in UnpackScheme::ALL {
                let opts = UnpackOptions {
                    prs,
                    schedule,
                    ..UnpackOptions::new(scheme)
                };
                let what = format!("{world}: mask {k}, {scheme:?}");
                let got = unpack(proc, d, m, f, &v, &c.v_layout, &opts).unwrap();
                assert_eq!(&got, want_u, "{what}");
                let plan = plan_unpack(proc, d, m, &c.v_layout, &opts).unwrap();
                for _ in 0..2 {
                    let got = plan.execute(proc, f, &v).unwrap();
                    assert_eq!(&got, want_u, "{what}, planned");
                }
                plan.retire(proc);
                let got = unpack_redistributed(proc, d, m, f, &v, &c.v_layout, &opts).unwrap();
                assert_eq!(&got, want_u, "{what}, redistributed");
            }
        }
    });
}

/// The 1-D worlds: `(N, P, W)` with P·W | N.
fn divisible_worlds() -> Vec<(usize, usize, usize)> {
    let mut worlds = Vec::new();
    for p in 1..=4 {
        for n in 1..=8usize {
            for w in (1..=n).filter(|w| n.is_multiple_of(p * w)) {
                worlds.push((n, p, w));
            }
        }
    }
    worlds
}

#[test]
fn every_mask_of_every_small_1d_world_matches_the_oracle() {
    let worlds = divisible_worlds();
    assert_eq!(worlds.len(), 34);
    for (i, &(n, p, w)) in worlds.iter().enumerate() {
        let grid = ProcGrid::line(p);
        let desc = ArrayDesc::new(&[n], &grid, &[Dist::BlockCyclic(w)]).unwrap();
        // Each world runs under one PRS × schedule pair; consecutive worlds
        // take the next pair, so all six meet worlds of every P.
        sweep(&desc, PRS[i % 2], SCHEDULES[i / 2 % 3]);
    }
}

#[test]
fn every_prs_and_schedule_sweeps_the_fullest_world() {
    let grid = ProcGrid::line(4);
    let desc = ArrayDesc::new(&[8], &grid, &[Dist::BlockCyclic(1)]).unwrap();
    for prs in PRS {
        for schedule in SCHEDULES {
            sweep(&desc, prs, schedule);
        }
    }
}

#[test]
fn every_mask_of_a_2d_world_matches_the_oracle() {
    let grid = ProcGrid::new(&[2, 2]);
    for w0 in [1, 2] {
        let dists = [Dist::BlockCyclic(w0), Dist::BlockCyclic(1)];
        let desc = ArrayDesc::new(&[4, 2], &grid, &dists).unwrap();
        sweep(&desc, PrsAlgorithm::Split, A2aSchedule::PairwiseExchange);
    }
}

/// P·W ∤ N, N < P and a block longer than the extent included: every entry
/// point refuses the layout with a typed error on every processor.
#[test]
fn a_layout_that_does_not_divide_is_refused_without_a_panic() {
    let mut refused = 0;
    for p in 1..=4 {
        for n in 1..=8usize {
            for w in (1..=n + 1).filter(|w| !n.is_multiple_of(p * w)) {
                let grid = ProcGrid::line(p);
                let desc = ArrayDesc::new_general(&[n], &grid, &[Dist::BlockCyclic(w)]).unwrap();
                let mask = GlobalArray::from_fn(&[n], |g| g[0] % 2 == 0);
                let a = GlobalArray::from_fn(&[n], |g| g[0] as i32);
                let (mp, ap) = (mask.partition(&desc), a.partition(&desc));
                let v_layout = DimLayout::new_general(n, p, 1).unwrap();
                let d = &desc;
                let out = Machine::new(grid, CostModel::cm5()).run(move |proc| {
                    let me = proc.id();
                    let (m, a) = (&mp[me], &ap[me]);
                    let v = vec![0; v_layout.local_len(me)];
                    let packs = PackScheme::ALL.map(|s| {
                        let opts = PackOptions::new(s);
                        pack(proc, d, a, m, &opts).err()
                    });
                    let opts = PackOptions::default();
                    let planned = plan_pack(proc, d, m, &opts).err();
                    let red = pack_redistributed(proc, d, a, m, RedistScheme::WholeArrays, &opts);
                    let unpacks = UnpackScheme::ALL.map(|s| {
                        let opts = UnpackOptions::new(s);
                        unpack(proc, d, m, a, &v, &v_layout, &opts).err()
                    });
                    let uopts = UnpackOptions::default();
                    let uplanned = plan_unpack(proc, d, m, &v_layout, &uopts).err();
                    (packs, planned, red.err(), unpacks, uplanned)
                });
                let pe = Some(PackError::NotDivisible { dim: 0 });
                let ue = Some(UnpackError::NotDivisible { dim: 0 });
                for (packs, planned, red, unpacks, uplanned) in out.results {
                    let ctx = format!("N {n}, P {p}, W {w}");
                    assert_eq!(packs, [pe.clone(), pe.clone(), pe.clone()], "{ctx}");
                    assert_eq!((&planned, &red), (&pe, &pe), "{ctx}");
                    assert_eq!(unpacks, [ue.clone(), ue.clone()], "{ctx}");
                    assert_eq!(uplanned, ue, "{ctx}");
                }
                refused += 1;
            }
        }
    }
    assert!(refused > 100, "{refused} refused layouts");
}
