//! Wall-clock profiling of the PACK / UNPACK hot loops is opt-in and
//! well-formed: off by default, no profile leaks into a run's output (the
//! allocation-counted paths stay pristine); on, every processor records
//! spans that nest, and the execute loop shows up under its stage name.

use hpf_core::{pack, plan_pack, plan_unpack, MaskPattern, PackOptions, PackOutput, UnpackOptions};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist};
use hpf_machine::{CostModel, Machine, ProcGrid};

const N: usize = 256;
const P: usize = 4;
const EXECUTES: usize = 5;

#[test]
fn wall_profiling_is_opt_in_and_well_formed() {
    let grid = ProcGrid::line(P);
    let desc = ArrayDesc::new(&[N], &grid, &[Dist::BlockCyclic(4)]).unwrap();
    let pattern = MaskPattern::Random {
        density: 0.5,
        seed: 4,
    };
    let size = pattern.global(&[N]).data().iter().filter(|&&b| b).count();
    let v_layout = DimLayout::new_general(size, P, size.div_ceil(P)).unwrap();
    let (d, vl) = (&desc, &v_layout);
    let machine = Machine::new(grid, CostModel::cm5());

    // Off by default: no wall profiles may leak into a normal run's output.
    let out = machine.run(move |proc| {
        let a = local_from_fn(d, proc.id(), |g| g[0] as i32);
        let m = pattern.local(d, proc.id());
        pack(proc, d, &a, &m, &PackOptions::default()).unwrap().size
    });
    assert!(
        out.wall_profiles.is_empty(),
        "wall profiles leaked into an unprofiled run"
    );

    // Profiled plan-once / execute-N PACK: one profile per processor, spans
    // recorded and properly nested, with execute frames among them.
    let profiled = machine.with_wall_profiling(true);
    let out = profiled.run(move |proc| {
        let a = local_from_fn(d, proc.id(), |g| g[0] as i32);
        let m = pattern.local(d, proc.id());
        let plan = plan_pack(proc, d, &m, &PackOptions::default()).unwrap();
        let mut out = PackOutput {
            local_v: Vec::new(),
            size: 0,
            v_layout: None,
        };
        for _ in 0..EXECUTES {
            plan.execute_into(proc, &a, &mut out).unwrap();
        }
    });
    assert_eq!(out.wall_profiles.len(), P);
    for (pid, p) in out.wall_profiles.iter().enumerate() {
        assert!(p.total_ns() > 0, "proc {pid} recorded no wall time");
        p.well_formed().expect("pack wall spans nest");
        assert!(
            p.spans.iter().any(|s| s.name == "pack.execute"),
            "proc {pid} recorded no execute frames: {:?}",
            p.spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }

    let out = profiled.run(move |proc| {
        let m = pattern.local(d, proc.id());
        let f = local_from_fn(d, proc.id(), |_| -1i32);
        let v: Vec<i32> = (0..vl.local_len(proc.id()))
            .map(|l| vl.global_of(proc.id(), l) as i32)
            .collect();
        let plan = plan_unpack(proc, d, &m, vl, &UnpackOptions::default()).unwrap();
        let mut out = Vec::new();
        for _ in 0..EXECUTES {
            plan.execute_into(proc, &f, &v, &mut out).unwrap();
        }
    });
    assert_eq!(out.wall_profiles.len(), P);
    for p in &out.wall_profiles {
        p.well_formed().expect("unpack wall spans nest");
    }
}

/// The `unpack.fieldcopy` span reports the bytes the field pass copied, not
/// the local array's size: nothing under a full mask (the reply scatter
/// writes every element), everything under an empty and under a random one,
/// and under `FirstHalf` on a cyclic layout — locally the first 256 of 512
/// elements, whole chunks of selected elements — the unselected half. The
/// first execute (fresh `out`, built front to back) and the in-place ones
/// after it copy the same spans.
#[test]
fn fieldcopy_span_counts_the_bytes_it_copies() {
    const L: usize = 512;
    let grid = ProcGrid::line(P);
    let desc = ArrayDesc::new(&[P * L], &grid, &[Dist::Cyclic]).unwrap();
    let random = MaskPattern::Random {
        density: 0.5,
        seed: 4,
    };
    let elem = std::mem::size_of::<i32>() as u64;
    for (pattern, want) in [
        (MaskPattern::Full, 0),
        (MaskPattern::Empty, elem * L as u64),
        (random, elem * L as u64),
        (MaskPattern::FirstHalf, elem * (L - L / 2) as u64),
    ] {
        let size = pattern
            .global(&[P * L])
            .data()
            .iter()
            .filter(|&&b| b)
            .count();
        let v_layout = DimLayout::new_general(size.max(1), P, size.div_ceil(P).max(1)).unwrap();
        let (d, vl) = (&desc, &v_layout);
        let machine = Machine::new(grid.clone(), CostModel::cm5()).with_wall_profiling(true);
        let out = machine.run(move |proc| {
            let m = pattern.local(d, proc.id());
            let f = local_from_fn(d, proc.id(), |_| -1i32);
            let v = vec![7i32; vl.local_len(proc.id())];
            let plan = plan_unpack(proc, d, &m, vl, &UnpackOptions::default()).unwrap();
            let mut out = Vec::new();
            for _ in 0..EXECUTES {
                plan.execute_into(proc, &f, &v, &mut out).unwrap();
            }
        });
        for (pid, p) in out.wall_profiles.iter().enumerate() {
            let bytes: Vec<u64> = p
                .spans
                .iter()
                .filter(|s| s.name == "unpack.fieldcopy")
                .map(|s| s.bytes)
                .collect();
            assert_eq!(bytes, [want; EXECUTES], "{pattern:?}, proc {pid}");
        }
    }
}
