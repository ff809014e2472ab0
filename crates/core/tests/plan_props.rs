//! Property tests for the planner/executor split: over random layouts,
//! mask patterns, and schemes, `plan(...).execute(data)` must be
//! bit-identical to the one-shot `pack`/`unpack` entry points, and a
//! held plan re-executed against *fresh* data must match a fresh direct
//! call — the plan is value-independent by construction.

use proptest::prelude::*;

use hpf_core::{
    pack, plan_pack, plan_unpack, unpack, MaskPattern, PackOptions, PackScheme, ScanMethod,
    UnpackOptions, UnpackScheme,
};
use hpf_distarray::{local_from_fn, ArrayDesc, DimLayout, Dist};
use hpf_machine::{CostModel, Machine, ProcGrid};

/// Layout plus a mask pattern valid for that layout's rank
/// (`FirstHalf` is 1-D only, `LowerTriangular` 2-D only).
#[allow(clippy::type_complexity)]
fn any_case() -> impl Strategy<Value = ((Vec<usize>, Vec<usize>, Vec<usize>), MaskPattern)> {
    any_desc().prop_flat_map(|layout| {
        let structured = if layout.0.len() == 1 {
            MaskPattern::FirstHalf
        } else {
            MaskPattern::LowerTriangular
        };
        (
            Just(layout),
            prop_oneof![
                Just(MaskPattern::Full),
                Just(MaskPattern::Empty),
                Just(structured),
                (0.05f64..0.95, 0u64..1000)
                    .prop_map(|(density, seed)| MaskPattern::Random { density, seed }),
            ],
        )
    })
}

fn any_pack_opts() -> impl Strategy<Value = PackOptions> {
    (
        prop::sample::select(PackScheme::ALL.to_vec()),
        prop::sample::select(vec![ScanMethod::UntilCollected, ScanMethod::WholeSlice]),
    )
        .prop_map(|(scheme, scan_method)| {
            let mut opts = PackOptions::new(scheme);
            opts.scan_method = scan_method;
            opts
        })
}

/// Random 1-D or 2-D descriptor: per-dimension `(P, W, T)` in `1..=3`.
fn any_desc() -> impl Strategy<Value = (Vec<usize>, Vec<usize>, Vec<usize>)> {
    prop::collection::vec((1usize..=3, 1usize..=3, 1usize..=3), 1..=2).prop_map(|dims| {
        let shape: Vec<usize> = dims.iter().map(|&(p, w, t)| p * w * t).collect();
        let grid: Vec<usize> = dims.iter().map(|&(p, _, _)| p).collect();
        let ws: Vec<usize> = dims.iter().map(|&(_, w, _)| w).collect();
        (shape, grid, ws)
    })
}

fn build(shape: &[usize], grid_dims: &[usize], ws: &[usize]) -> (ProcGrid, ArrayDesc) {
    let grid = ProcGrid::new(grid_dims);
    let dists: Vec<Dist> = ws.iter().map(|&w| Dist::BlockCyclic(w)).collect();
    let desc = ArrayDesc::new(shape, &grid, &dists).unwrap();
    (grid, desc)
}

fn data_at(gidx: &[usize], salt: i32) -> i32 {
    gidx.iter()
        .fold(salt, |acc, &x| acc.wrapping_mul(31).wrapping_add(x as i32))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// `plan_pack` + `execute` is bit-identical to the one-shot `pack`,
    /// and re-executing the held plan against fresh values matches a
    /// fresh direct call.
    #[test]
    fn planned_pack_matches_direct(
        case in any_case(),
        opts in any_pack_opts(),
    ) {
        let ((shape, grid_dims, ws), pattern) = case;
        let (grid, desc) = build(&shape, &grid_dims, &ws);
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, o, sh) = (&desc, &opts, shape.clone());
        let out = machine.run(move |proc| {
            let m = pattern.local(d, proc.id());
            let a = local_from_fn(d, proc.id(), |g| data_at(g, 17));
            let b = local_from_fn(d, proc.id(), |g| data_at(g, -5));

            let plan = plan_pack(proc, d, &m, o).unwrap();
            let planned_a = plan.execute(proc, &a).unwrap();
            // Fresh data through the same plan.
            let planned_b = plan.execute(proc, &b).unwrap();
            plan.retire(proc);

            let direct_a = pack(proc, d, &a, &m, o).unwrap();
            let direct_b = pack(proc, d, &b, &m, o).unwrap();
            (planned_a, planned_b, direct_a, direct_b)
        });
        prop_assert_eq!(sh.len(), desc.shape().len());
        for (planned_a, planned_b, direct_a, direct_b) in out.results {
            prop_assert_eq!(planned_a, direct_a);
            prop_assert_eq!(planned_b, direct_b);
        }
    }

    /// `plan_unpack` + `execute` is bit-identical to the one-shot
    /// `unpack`, including re-execution of the held plan against a fresh
    /// vector.
    #[test]
    fn planned_unpack_matches_direct(
        case in any_case(),
        scheme in prop::sample::select(UnpackScheme::ALL.to_vec()),
        slack in 0usize..4,
        w_prime in 1usize..=4,
    ) {
        let ((shape, grid_dims, ws), pattern) = case;
        let (grid, desc) = build(&shape, &grid_dims, &ws);
        let size = {
            let m = pattern.global(&shape);
            m.data().iter().filter(|&&b| b).count()
        };
        let n_prime = (size + slack).max(1);
        let v_layout = DimLayout::new_general(n_prime, grid.nprocs(), w_prime).unwrap();
        let opts = UnpackOptions::new(scheme);
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, vl, o) = (&desc, &v_layout, &opts);
        let out = machine.run(move |proc| {
            let m = pattern.local(d, proc.id());
            let f = local_from_fn(d, proc.id(), |g| data_at(g, 23));
            let mkv = |salt: i32| -> Vec<i32> {
                (0..vl.local_len(proc.id()))
                    .map(|l| salt + vl.global_of(proc.id(), l) as i32)
                    .collect()
            };
            let (va, vb) = (mkv(7000), mkv(-9000));

            let plan = plan_unpack(proc, d, &m, vl, o).unwrap();
            let planned_a = plan.execute(proc, &f, &va).unwrap();
            let planned_b = plan.execute(proc, &f, &vb).unwrap();
            plan.retire(proc);

            let direct_a = unpack(proc, d, &m, &f, &va, vl, o).unwrap();
            let direct_b = unpack(proc, d, &m, &f, &vb, vl, o).unwrap();
            (planned_a, planned_b, direct_a, direct_b)
        });
        for (planned_a, planned_b, direct_a, direct_b) in out.results {
            prop_assert_eq!(planned_a, direct_a);
            prop_assert_eq!(planned_b, direct_b);
        }
    }
}
