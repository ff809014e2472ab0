//! `SPREAD(source, DIM, NCOPIES)` — replicate an array along a new
//! dimension, producing a rank `d+1` distributed array.
//!
//! Sender-driven one-round exchange: every source element has
//! `NCOPIES` destinations the sender can compute from the target
//! descriptor, so the communication is a single many-to-many round of
//! `(destination local index, value)` pairs, like the shifts.

use hpf_distarray::index::assert_u32_indexable;
use hpf_distarray::ArrayDesc;
use hpf_machine::collectives::{alltoallv, A2aSchedule};
use hpf_machine::{Category, Proc, Wire};

/// Replicate `local` (under `src`) along a new dimension inserted at
/// position `dim` of the target descriptor `dst`.
///
/// `dst` must have rank `src.ndims() + 1`, with every dimension except
/// `dim` matching `src` in order; `dst.dim(dim).n()` is `NCOPIES`. The two
/// grids must have the same processor count (their shapes may differ).
///
/// # Panics
/// Panics on rank/shape mismatch between the descriptors.
pub fn spread_dim<T: Wire + Default>(
    proc: &mut Proc,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    local: &[T],
    dim: usize,
    schedule: A2aSchedule,
) -> Vec<T> {
    assert_eq!(
        dst.ndims(),
        src.ndims() + 1,
        "SPREAD adds exactly one dimension"
    );
    assert!(dim < dst.ndims(), "DIM out of range");
    assert_eq!(
        src.grid().nprocs(),
        dst.grid().nprocs(),
        "source and target must use the same processor count"
    );
    {
        let src_shape = src.shape();
        let dst_shape = dst.shape();
        for (i, &n) in src_shape.iter().enumerate() {
            let j = if i < dim { i } else { i + 1 };
            assert_eq!(dst_shape[j], n, "non-DIM extents must match (dim {i})");
        }
    }
    // Pairs carry a destination local index as one `u32` word; processor 0
    // holds the most elements (the first block of every dimension).
    assert_u32_indexable(dst.local_len(0), "SPREAD");
    let me = proc.id();
    debug_assert_eq!(local.len(), src.local_len(me));
    let ncopies = dst.dim(dim).n();
    let nprocs = src.grid().nprocs();

    let sends = proc.with_category(Category::LocalComp, |proc| {
        let mut sends: Vec<Vec<(u32, T)>> = (0..nprocs).map(|_| Vec::new()).collect();
        let mut gidx_out = vec![0usize; dst.ndims()];
        src.for_each_local_global(me, |l, gidx| {
            for (i, &x) in gidx.iter().enumerate() {
                let j = if i < dim { i } else { i + 1 };
                gidx_out[j] = x;
            }
            for j in 0..ncopies {
                gidx_out[dim] = j;
                let (target, llin) = dst.owner_of(&gidx_out);
                sends[target].push((llin as u32, local[l]));
            }
        });
        proc.charge_ops(2 * local.len() * ncopies);
        sends
    });

    let recvs = proc.with_category(Category::ManyToMany, |proc| {
        let world = proc.world();
        alltoallv(proc, &world, sends, schedule)
    });

    proc.with_category(Category::LocalComp, |proc| {
        let mut out = vec![T::default(); dst.local_len(me)];
        let mut placed = 0usize;
        for msg in recvs {
            for (llin, v) in msg {
                out[llin as usize] = v;
                placed += 1;
            }
        }
        proc.charge_ops(placed);
        debug_assert_eq!(placed, out.len(), "every target slot filled exactly once");
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_distarray::{Dist, GlobalArray};
    use hpf_machine::{CostModel, Machine, ProcGrid};

    fn check(dim: usize, ncopies: usize) {
        // Source: 1-D of 12 over 4 procs, cyclic. Target: 2-D with the new
        // dimension at `dim`.
        let src_grid = ProcGrid::line(4);
        let src = ArrayDesc::new(&[12], &src_grid, &[Dist::Cyclic]).unwrap();
        let dst_grid = ProcGrid::new(&[2, 2]);
        let (dst_shape, dst_dists) = if dim == 0 {
            (vec![ncopies, 12], vec![Dist::Block, Dist::BlockCyclic(3)])
        } else {
            (vec![12, ncopies], vec![Dist::BlockCyclic(3), Dist::Block])
        };
        let dst = ArrayDesc::new_general(&dst_shape, &dst_grid, &dst_dists).unwrap();

        let a = GlobalArray::from_fn(&[12], |g| g[0] as i32 * 7 + 1);
        let parts = a.partition(&src);
        let machine = Machine::new(src_grid, CostModel::cm5());
        let (s, d, pp) = (&src, &dst, &parts);
        let out = machine.run(move |proc| {
            spread_dim(
                proc,
                s,
                d,
                &pp[proc.id()],
                dim,
                A2aSchedule::LinearPermutation,
            )
        });
        let got = GlobalArray::assemble(&dst, &out.results);
        let want = GlobalArray::from_fn(&dst_shape, |g| {
            let src_i = if dim == 0 { g[1] } else { g[0] };
            a.get(&[src_i])
        });
        assert_eq!(got, want, "dim {dim} ncopies {ncopies}");
    }

    #[test]
    fn spread_along_new_inner_dimension() {
        check(0, 4);
        check(0, 2);
    }

    #[test]
    fn spread_along_new_outer_dimension() {
        check(1, 4);
        check(1, 6);
    }

    #[test]
    #[should_panic(expected = "one dimension")]
    fn rank_mismatch_rejected() {
        let grid = ProcGrid::line(2);
        let src = ArrayDesc::new(&[4], &grid, &[Dist::Block]).unwrap();
        let machine = Machine::new(grid, CostModel::zero());
        machine.run(|proc| {
            let local = vec![0i32; 2];
            spread_dim(proc, &src, &src, &local, 0, A2aSchedule::LinearPermutation);
        });
    }
}
