//! Property tests for the distributed-array substrate: layout maps are
//! bijections, partition/assemble invert each other, and redistribution
//! preserves content under arbitrary layout pairs.

use proptest::prelude::*;

use hpf_distarray::{redistribute, ArrayDesc, DimLayout, Dist, GlobalArray};
use hpf_machine::collectives::A2aSchedule;
use hpf_machine::{CostModel, Machine, ProcGrid};

fn any_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        Just(Dist::Block),
        Just(Dist::Cyclic),
        (1usize..=5).prop_map(Dist::BlockCyclic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// owner/local_of and global_of are mutually inverse, ownership is a
    /// partition, and local lengths add up — for arbitrary (n, p, w).
    #[test]
    fn dim_layout_is_a_bijection(n in 1usize..200, p in 1usize..8, w in 1usize..10) {
        let l = DimLayout::new_general(n, p, w).unwrap();
        let mut counts = vec![0usize; p];
        for g in 0..n {
            let c = l.owner(g);
            let loc = l.local_of(g);
            prop_assert_eq!(l.global_of(c, loc), g);
            prop_assert!(loc < l.local_len(c));
            counts[c] += 1;
        }
        for (c, &got) in counts.iter().enumerate() {
            prop_assert_eq!(got, l.local_len(c));
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), n);
    }

    /// Tile arithmetic: tile_of_local agrees with the global tile number.
    #[test]
    fn tile_numbers_agree(n_tiles in 1usize..6, p in 1usize..5, w in 1usize..5) {
        let n = n_tiles * p * w;
        let l = DimLayout::new_divisible(n, p, w).unwrap();
        prop_assert_eq!(l.t(), n_tiles);
        for g in 0..n {
            let c = l.owner(g);
            let loc = l.local_of(g);
            prop_assert_eq!(l.tile_of_local(loc), g / l.s());
            prop_assert_eq!(c, (g / w) % p);
        }
    }

    /// partition ∘ assemble is the identity for arbitrary 1–3-D descriptors.
    #[test]
    fn partition_assemble_identity(
        dims in prop::collection::vec((1usize..=3, 1usize..=3, 1usize..=3), 1..=3),
    ) {
        let shape: Vec<usize> = dims.iter().map(|&(p, w, t)| p * w * t).collect();
        let grid_dims: Vec<usize> = dims.iter().map(|&(p, _, _)| p).collect();
        let dists: Vec<Dist> = dims.iter().map(|&(_, w, _)| Dist::BlockCyclic(w)).collect();
        let grid = ProcGrid::new(&grid_dims);
        let desc = ArrayDesc::new(&shape, &grid, &dists).unwrap();
        let a = GlobalArray::from_fn(&shape, |idx| {
            idx.iter().fold(3i32, |acc, &x| acc.wrapping_mul(17).wrapping_add(x as i32))
        });
        let locals = a.partition(&desc);
        prop_assert_eq!(GlobalArray::assemble(&desc, &locals), a);
    }

    /// Redistribution preserves content between arbitrary general layouts
    /// (including non-divisible extents).
    #[test]
    fn redistribution_preserves_content_general(
        n in 1usize..60,
        p in 1usize..5,
        src_dist in any_dist(),
        dst_dist in any_dist(),
    ) {
        let grid = ProcGrid::line(p);
        let src = ArrayDesc::new_general(&[n], &grid, &[src_dist]).unwrap();
        let dst = ArrayDesc::new_general(&[n], &grid, &[dst_dist]).unwrap();
        let a = GlobalArray::from_fn(&[n], |g| g[0] as i32 * 3 + 1);
        let parts = a.partition(&src);
        let machine = Machine::new(grid, CostModel::cm5());
        let (s, d, pp) = (&src, &dst, &parts);
        let out = machine.run(move |proc| {
            redistribute(proc, s, d, &pp[proc.id()], A2aSchedule::LinearPermutation)
        });
        prop_assert_eq!(GlobalArray::assemble(&dst, &out.results), a);
    }
}
