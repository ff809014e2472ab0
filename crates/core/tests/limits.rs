//! Numeric limits of the plan IR: slots, CSR offsets and peer ids are
//! `u32` and ranks travel as `i32`, so a descriptor with more than
//! `i32::MAX` elements must be refused at plan time with a typed error —
//! before any length is compared or cast — never planned with wrapped
//! indices. The descriptors here are synthetic: nothing of their size is
//! ever allocated, and the mask slices are empty.

use hpf_core::{
    pack, pack_with_vector, plan_pack, plan_unpack, unpack, PackError, PackOptions, TooLarge,
    UnpackError, UnpackOptions,
};
use hpf_distarray::{ArrayDesc, DimLayout, Dist};
use hpf_machine::{CostModel, Machine, ProcGrid};

const LIMIT: usize = TooLarge::LIMIT;

#[test]
fn oversized_descriptors_are_refused_at_plan_time() {
    // 2³² in one dimension (the local 2³⁰ would still fit a `u32`), 2⁴⁰
    // over two, and a product that overflows `usize` itself.
    let cases: [(&[usize], &[usize], usize); 3] = [
        (&[1 << 32], &[4], 1 << 32),
        (&[1 << 20, 1 << 20], &[2, 2], 1 << 40),
        (&[1 << 40, 1 << 40], &[2, 2], usize::MAX),
    ];
    for (shape, grid_dims, n) in cases {
        let grid = ProcGrid::new(grid_dims);
        let dists = vec![Dist::Block; shape.len()];
        let desc = ArrayDesc::new(shape, &grid, &dists).unwrap();
        let vl = DimLayout::new_general(8, 4, 2).unwrap();
        let want = TooLarge { global_len: n };
        let out = Machine::new(grid, CostModel::cm5()).run(|proc| {
            let (popts, uopts) = (PackOptions::default(), UnpackOptions::default());
            let none: [i32; 0] = [];
            (
                plan_pack(proc, &desc, &[], &popts).err(),
                pack(proc, &desc, &none, &[], &popts).err(),
                plan_unpack(proc, &desc, &[], &vl, &uopts).err(),
                unpack(proc, &desc, &[], &none, &none, &vl, &uopts).err(),
            )
        });
        for errs in out.results {
            let (pp, p, pu, u) = errs;
            assert_eq!(pp, Some(PackError::TooLarge(want)), "{shape:?}");
            assert_eq!(p, pp);
            assert_eq!(pu, Some(UnpackError::TooLarge(want)), "{shape:?}");
            assert_eq!(u, pu);
        }
        assert!(want.to_string().contains(&LIMIT.to_string()));
    }
}

/// The largest descriptor that fits is not refused for its size: the same
/// empty mask now fails the length comparison the limit check precedes.
#[test]
fn the_limit_itself_is_plannable() {
    let grid = ProcGrid::line(1);
    let desc = ArrayDesc::new(&[LIMIT], &grid, &[Dist::Block]).unwrap();
    let out = Machine::new(grid, CostModel::cm5())
        .run(|proc| plan_pack(proc, &desc, &[], &PackOptions::default()).err());
    let want = PackError::MaskLenMismatch {
        expected: LIMIT,
        got: 0,
    };
    assert_eq!(out.results[0], Some(want));
}

/// `pack_with_vector`'s result is laid out like VECTOR, whose slice offsets
/// the compact message scheme's placement narrows to `u32`, and the array's
/// size bounds nothing about VECTOR's: a layout of 2³² positions over a
/// 16-element array would wrap them. It is refused before the VECTOR
/// slice's length is looked at (it is empty here; nothing of the layout's
/// size exists), and `LIMIT` positions are not.
#[test]
fn an_oversized_vector_argument_is_refused() {
    let grid = ProcGrid::line(4);
    let desc = ArrayDesc::new(&[16], &grid, &[Dist::Block]).unwrap();
    for (n, refused) in [(1usize << 32, true), (LIMIT + 1, true), (LIMIT, false)] {
        let vl = DimLayout::new_general(n, 4, n.div_ceil(4)).unwrap();
        let out = Machine::new(grid.clone(), CostModel::cm5()).run(|proc| {
            let (a, m, none) = ([1i32; 4], [true; 4], [0i32; 0]);
            pack_with_vector(proc, &desc, &a, &m, &none, &vl, &PackOptions::default()).err()
        });
        for (me, err) in out.results.into_iter().enumerate() {
            let want = match refused {
                true => PackError::TooLarge(TooLarge { global_len: n }),
                false => PackError::ArrayLenMismatch {
                    expected: vl.local_len(me),
                    got: 0,
                },
            };
            assert_eq!(err, Some(want), "VECTOR of {n}");
        }
    }
}
