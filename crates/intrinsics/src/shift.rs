//! `CSHIFT` / `EOSHIFT` — circular and end-off shifts along one dimension
//! of a block-cyclic distributed array.
//!
//! A shift is a WRITE-style exchange like PACK's redistribution stage:
//! every element has exactly one destination the sender can compute, so
//! one round of many-to-many personalized communication suffices. Messages
//! carry `(destination local index, value)` pairs; the receiver places
//! elements directly.

use hpf_distarray::index::assert_u32_indexable;
use hpf_distarray::ArrayDesc;
use hpf_machine::collectives::{alltoallv, A2aSchedule};
use hpf_machine::{Category, Proc, Wire};

/// `CSHIFT(array, shift, DIM)`: `out[…, j, …] = in[…, (j + shift) mod N, …]`
/// along dimension `dim`. Positive shifts move elements toward lower
/// indices, as in Fortran.
pub fn cshift_dim<T: Wire + Default>(
    proc: &mut Proc,
    desc: &ArrayDesc,
    local: &[T],
    dim: usize,
    shift: isize,
    schedule: A2aSchedule,
) -> Vec<T> {
    shift_impl(proc, desc, local, dim, shift, None, schedule)
}

/// `EOSHIFT(array, shift, boundary, DIM)`: like `CSHIFT` but elements
/// shifted past the ends are dropped and vacated positions take
/// `boundary`.
pub fn eoshift_dim<T: Wire + Default>(
    proc: &mut Proc,
    desc: &ArrayDesc,
    local: &[T],
    dim: usize,
    shift: isize,
    boundary: T,
    schedule: A2aSchedule,
) -> Vec<T> {
    shift_impl(proc, desc, local, dim, shift, Some(boundary), schedule)
}

/// `boundary = None` → circular; `Some(b)` → end-off with fill `b`.
fn shift_impl<T: Wire + Default>(
    proc: &mut Proc,
    desc: &ArrayDesc,
    local: &[T],
    dim: usize,
    shift: isize,
    boundary: Option<T>,
    schedule: A2aSchedule,
) -> Vec<T> {
    assert!(dim < desc.ndims(), "DIM out of range");
    // Pairs carry a destination local index as one `u32` word; processor 0
    // holds the most elements (the first block of every dimension).
    assert_u32_indexable(desc.local_len(0), "a shift");
    let me = proc.id();
    debug_assert_eq!(local.len(), desc.local_len(me));
    let n = desc.dim(dim).n() as isize;
    let nprocs = desc.grid().nprocs();

    // Destination of the element at source position g (along dim):
    // out[g - shift] = in[g], circularly or dropped at the ends.
    let sends = proc.with_category(Category::LocalComp, |proc| {
        let mut sends: Vec<Vec<(u32, T)>> = (0..nprocs).map(|_| Vec::new()).collect();
        let mut scratch = vec![0usize; desc.ndims()];
        desc.for_each_local_global(me, |l, g| {
            let moved = g[dim] as isize - shift;
            let dest_pos = if boundary.is_none() {
                moved.rem_euclid(n)
            } else if (0..n).contains(&moved) {
                moved
            } else {
                return; // shifted off the end
            };
            scratch.copy_from_slice(g);
            scratch[dim] = dest_pos as usize;
            let (target, llin) = desc.owner_of(&scratch);
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
        let fill = boundary.unwrap_or_default();
        let mut out = vec![fill; local.len()];
        let mut placed = 0usize;
        for msg in recvs {
            for (llin, v) in msg {
                out[llin as usize] = v;
                placed += 1;
            }
        }
        proc.charge_ops(placed);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_distarray::{Dist, GlobalArray};
    use hpf_machine::{CostModel, Machine, ProcGrid};

    fn run_shift(
        shape: &[usize],
        grid_dims: &[usize],
        dists: &[Dist],
        dim: usize,
        shift: isize,
        boundary: Option<i32>,
    ) -> (GlobalArray<i32>, GlobalArray<i32>) {
        let grid = ProcGrid::new(grid_dims);
        let desc = ArrayDesc::new(shape, &grid, dists).unwrap();
        let a = GlobalArray::from_fn(shape, |g| {
            g.iter()
                .enumerate()
                .map(|(i, &x)| (x as i32 + 1) * 10i32.pow(i as u32 * 2))
                .sum()
        });
        let n = shape[dim] as isize;
        let want = GlobalArray::from_fn(shape, |g| {
            let src = g[dim] as isize + shift;
            match boundary {
                None => {
                    let mut idx = g.to_vec();
                    idx[dim] = src.rem_euclid(n) as usize;
                    a.get(&idx)
                }
                Some(b) => {
                    if (0..n).contains(&src) {
                        let mut idx = g.to_vec();
                        idx[dim] = src as usize;
                        a.get(&idx)
                    } else {
                        b
                    }
                }
            }
        });
        let parts = a.partition(&desc);
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, pp) = (&desc, &parts);
        let out = machine.run(move |proc| match boundary {
            None => cshift_dim(
                proc,
                d,
                &pp[proc.id()],
                dim,
                shift,
                A2aSchedule::LinearPermutation,
            ),
            Some(b) => eoshift_dim(
                proc,
                d,
                &pp[proc.id()],
                dim,
                shift,
                b,
                A2aSchedule::LinearPermutation,
            ),
        });
        (GlobalArray::assemble(&desc, &out.results), want)
    }

    #[test]
    fn cshift_1d_various_shifts() {
        for dist in [Dist::Block, Dist::Cyclic, Dist::BlockCyclic(2)] {
            for shift in [-17isize, -3, -1, 0, 1, 5, 16, 23] {
                let (got, want) = run_shift(&[16], &[4], &[dist], 0, shift, None);
                assert_eq!(got, want, "{dist:?} shift {shift}");
            }
        }
    }

    #[test]
    fn cshift_2d_both_dims() {
        for dim in 0..2 {
            let (got, want) = run_shift(
                &[8, 8],
                &[2, 2],
                &[Dist::BlockCyclic(2), Dist::Cyclic],
                dim,
                3,
                None,
            );
            assert_eq!(got, want, "dim {dim}");
        }
    }

    #[test]
    fn eoshift_fills_boundary() {
        for shift in [-20isize, -2, 0, 2, 20] {
            let (got, want) = run_shift(&[12], &[3], &[Dist::BlockCyclic(2)], 0, shift, Some(-9));
            assert_eq!(got, want, "shift {shift}");
        }
    }

    #[test]
    fn cshift_by_full_period_is_identity() {
        let (got, want) = run_shift(&[16], &[4], &[Dist::BlockCyclic(4)], 0, 16, None);
        assert_eq!(got, want);
        let (got2, _) = run_shift(&[16], &[4], &[Dist::BlockCyclic(4)], 0, 0, None);
        assert_eq!(got, got2);
    }

    /// Shifts that stay inside a processor's own blocks cost no traffic.
    #[test]
    fn block_internal_shift_is_local() {
        let grid = ProcGrid::line(2);
        let desc = ArrayDesc::new(&[8], &grid, &[Dist::Block]).unwrap();
        let machine = Machine::new(grid, CostModel::cm5());
        let d = &desc;
        let out = machine.run(move |proc| {
            let local = hpf_distarray::local_from_fn(d, proc.id(), |g| g[0] as i32);
            // EOSHIFT by 1 within blocks of 4: only the block-boundary
            // element crosses processors.
            eoshift_dim(proc, d, &local, 0, 1, -1, A2aSchedule::LinearPermutation)
        });
        // One 2-word pair crosses from proc 1 to proc 0's side? No — with
        // shift=+1 element g lands at g-1, so only g=4 crosses (to proc 0).
        assert_eq!(out.total_words_sent(), 2);
        assert_eq!(out.results[0], vec![1, 2, 3, 4]);
        assert_eq!(out.results[1], vec![5, 6, 7, -1]);
    }

    /// Descriptor only: the index width is refused before any length is
    /// looked at.
    #[test]
    #[should_panic(expected = "a shift: 8589934592 indices, more than the 4294967296")]
    fn shift_refuses_what_a_u32_index_cannot_reach() {
        let grid = ProcGrid::line(1);
        let desc = ArrayDesc::new(&[1 << 33], &grid, &[Dist::Block]).unwrap();
        Machine::new(grid, CostModel::cm5()).run(|proc| {
            let none: [i32; 0] = [];
            cshift_dim(proc, &desc, &none, 0, 1, A2aSchedule::LinearPermutation)
        });
    }
}
