//! `TRANSPOSE` and `RESHAPE` — the remaining F90 transformational
//! intrinsics with communication content.
//!
//! Both are pure data-movement operations: every element has exactly one
//! destination the sender can compute, so each is a single many-to-many
//! round of `(destination local index, value)` pairs, like the shifts.

use hpf_distarray::index::assert_u32_indexable;
use hpf_distarray::ArrayDesc;
use hpf_machine::collectives::{alltoallv, A2aSchedule};
use hpf_machine::{Category, Proc, Wire};

/// `TRANSPOSE(matrix)`: `out[i, j] = in[j, i]` for rank-2 arrays.
///
/// `src` and `dst` describe the input and output (with `dst.shape()` the
/// reverse of `src.shape()`); the grids must share a processor count.
pub fn transpose<T: Wire + Default>(
    proc: &mut Proc,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    local: &[T],
    schedule: A2aSchedule,
) -> Vec<T> {
    assert_eq!(src.ndims(), 2, "TRANSPOSE takes rank-2 arrays");
    assert_eq!(dst.ndims(), 2, "TRANSPOSE produces rank-2 arrays");
    let s_shape = src.shape();
    let d_shape = dst.shape();
    assert_eq!(
        (d_shape[0], d_shape[1]),
        (s_shape[1], s_shape[0]),
        "destination shape must be the reverse of the source"
    );
    move_by(proc, src, dst, local, schedule, |g| vec![g[1], g[0]])
}

/// `RESHAPE(array, shape)`: reinterpret the elements in array element order
/// under a new shape (and possibly a completely different distribution and
/// grid shape). `dst.global_len()` must equal `src.global_len()`.
pub fn reshape<T: Wire + Default>(
    proc: &mut Proc,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    local: &[T],
    schedule: A2aSchedule,
) -> Vec<T> {
    assert_eq!(
        src.global_len(),
        dst.global_len(),
        "RESHAPE must preserve the element count"
    );
    let dst_shape = dst.shape();
    let src_shape = src.shape();
    move_by(proc, src, dst, local, schedule, move |g| {
        hpf_distarray::index::delinearize(
            hpf_distarray::index::linearize(g, &src_shape),
            &dst_shape,
        )
    })
}

/// Shared mover: every source element goes to `dest_index(global_index)`
/// under `dst`.
fn move_by<T: Wire + Default>(
    proc: &mut Proc,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    local: &[T],
    schedule: A2aSchedule,
    dest_index: impl Fn(&[usize]) -> Vec<usize>,
) -> Vec<T> {
    assert_eq!(
        src.grid().nprocs(),
        dst.grid().nprocs(),
        "source and target must use the same processor count"
    );
    // Pairs carry a destination local index as one `u32` word; processor 0
    // holds the most elements (the first block of every dimension).
    assert_u32_indexable(dst.local_len(0), "TRANSPOSE / RESHAPE");
    let me = proc.id();
    debug_assert_eq!(local.len(), src.local_len(me));
    let nprocs = src.grid().nprocs();

    let sends = proc.with_category(Category::LocalComp, |proc| {
        let mut sends: Vec<Vec<(u32, T)>> = (0..nprocs).map(|_| Vec::new()).collect();
        src.for_each_local_global(me, |l, g| {
            let (target, llin) = dst.owner_of(&dest_index(g));
            sends[target].push((llin as u32, local[l]));
        });
        proc.charge_ops(2 * local.len());
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
        debug_assert_eq!(placed, out.len(), "every slot filled exactly once");
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_distarray::{Dist, GlobalArray};
    use hpf_machine::{CostModel, Machine, ProcGrid};

    #[test]
    fn transpose_matches_oracle() {
        let grid = ProcGrid::new(&[2, 2]);
        let src = ArrayDesc::new(&[8, 4], &grid, &[Dist::BlockCyclic(2), Dist::Cyclic]).unwrap();
        let dst = ArrayDesc::new(&[4, 8], &grid, &[Dist::Block, Dist::BlockCyclic(2)]).unwrap();
        let a = GlobalArray::from_fn(&[8, 4], |g| (g[0] * 10 + g[1]) as i32);
        let parts = a.partition(&src);
        let machine = Machine::new(grid, CostModel::cm5());
        let (s, d, pp) = (&src, &dst, &parts);
        let out = machine
            .run(move |proc| transpose(proc, s, d, &pp[proc.id()], A2aSchedule::LinearPermutation));
        let got = GlobalArray::assemble(&dst, &out.results);
        let want = GlobalArray::from_fn(&[4, 8], |g| a.get(&[g[1], g[0]]));
        assert_eq!(got, want);
    }

    #[test]
    fn double_transpose_is_identity() {
        let grid = ProcGrid::new(&[2, 2]);
        let src = ArrayDesc::new(&[8, 4], &grid, &[Dist::Cyclic, Dist::BlockCyclic(2)]).unwrap();
        let mid = ArrayDesc::new(&[4, 8], &grid, &[Dist::Cyclic, Dist::Cyclic]).unwrap();
        let a = GlobalArray::from_fn(&[8, 4], |g| (g[0] * 7 + g[1] * 31) as i64);
        let parts = a.partition(&src);
        let machine = Machine::new(grid, CostModel::cm5());
        let (s, m, pp) = (&src, &mid, &parts);
        let out = machine.run(move |proc| {
            let t = transpose(proc, s, m, &pp[proc.id()], A2aSchedule::LinearPermutation);
            transpose(proc, m, s, &t, A2aSchedule::LinearPermutation)
        });
        assert_eq!(GlobalArray::assemble(&src, &out.results), a);
    }

    #[test]
    fn reshape_preserves_element_order() {
        // 2-D (6x4) -> 1-D (24) -> different 2-D (4x6), all different grids.
        let g2 = ProcGrid::new(&[2, 2]);
        let g1 = ProcGrid::new(&[4]);
        let src = ArrayDesc::new(&[6, 4], &g2, &[Dist::Cyclic, Dist::Block]).unwrap();
        let flat = ArrayDesc::new(&[24], &g1, &[Dist::BlockCyclic(3)]).unwrap();
        let back = ArrayDesc::new(&[4, 6], &g2, &[Dist::Block, Dist::Cyclic]).unwrap();
        let a = GlobalArray::from_fn(&[6, 4], |g| (g[0] + 6 * g[1]) as i32);
        let parts = a.partition(&src);
        let machine = Machine::new(g2.clone(), CostModel::cm5());
        let (s, f, b, pp) = (&src, &flat, &back, &parts);
        let out = machine.run(move |proc| {
            let flat_local = reshape(proc, s, f, &pp[proc.id()], A2aSchedule::LinearPermutation);
            reshape(proc, f, b, &flat_local, A2aSchedule::LinearPermutation)
        });
        let got = GlobalArray::assemble(&back, &out.results);
        // Element order is preserved: got's linear order equals a's.
        assert_eq!(got.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "preserve the element count")]
    fn reshape_length_mismatch_rejected() {
        let grid = ProcGrid::line(2);
        let src = ArrayDesc::new(&[8], &grid, &[Dist::Block]).unwrap();
        let dst = ArrayDesc::new(&[6], &grid, &[Dist::Block]).unwrap();
        let machine = Machine::new(grid, CostModel::zero());
        machine.run(|proc| {
            let local = vec![0i32; 4];
            reshape(proc, &src, &dst, &local, A2aSchedule::LinearPermutation);
        });
    }
}
