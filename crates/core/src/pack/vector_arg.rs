//! `PACK(ARRAY, MASK, VECTOR)` — the full Fortran 90 form with the optional
//! `VECTOR` argument: the result has `VECTOR`'s length, with positions past
//! the selected count copied from `VECTOR` itself.
//!
//! The paper implements the two-argument form (its result vector has
//! exactly `Size` elements); the three-argument form is standard F90 and
//! completes the intrinsic. After the ranking stage, selected elements are
//! routed exactly as in the simple scheme, and each processor additionally
//! forwards its slice of `VECTOR`'s *tail* (global positions
//! `Size..N''`) to the owners of those result positions — one extra set of
//! pairs folded into the same many-to-many round.

use hpf_distarray::{ArrayDesc, DimLayout};
use hpf_machine::collectives::alltoallv;
use hpf_machine::{Category, Proc, Wire};

use crate::error::{PackError, TooLarge};
use crate::ranking::{rank_from_counts, slice_counts};
use crate::schemes::PackOptions;

use super::{decode_pairs, PackOutput};

/// Parallel `PACK(A, M, VECTOR)`.
///
/// `vec_local` is this processor's slice of the `VECTOR` argument under
/// `vec_layout` (a 1-D layout over all processors). The result vector has
/// `vec_layout.n()` elements and is distributed block (or block-cyclic
/// `opts.result_block_size`), like the two-argument form's result.
///
/// # Errors
/// Returns [`PackError::VectorTooShort`] (collectively) if `VECTOR` is
/// shorter than the number of selected elements, and
/// [`PackError::TooLarge`] if it is longer than [`TooLarge::LIMIT`]: its
/// positions travel as `u32` pair ranks, and nothing else bounds them (the
/// array's own size does not).
pub fn pack_with_vector<T: Wire + Default>(
    proc: &mut Proc,
    desc: &ArrayDesc,
    a_local: &[T],
    m_local: &[bool],
    vec_local: &[T],
    vec_layout: &DimLayout,
    opts: &PackOptions,
) -> Result<PackOutput<T>, PackError> {
    let shape = super::validate(proc, desc, a_local, m_local)?;
    let me = proc.id();
    TooLarge::check(vec_layout.n())?;
    if vec_local.len() != vec_layout.local_len(me) {
        return Err(PackError::ArrayLenMismatch {
            expected: vec_layout.local_len(me),
            got: vec_local.len(),
        });
    }
    let n_out = vec_layout.n();

    // Ranking (counter-array storage; message format below is pair-based).
    let w0 = shape.w[0];
    let counts = proc.with_category(Category::LocalComp, |proc| {
        let counts = slice_counts(m_local, w0);
        proc.charge_ops(m_local.len());
        counts
    });
    let ranking = rank_from_counts(proc, &shape, counts, opts.prs);
    if ranking.size > n_out {
        return Err(PackError::VectorTooShort {
            size: ranking.size,
            capacity: n_out,
        });
    }

    // Result layout covers the whole VECTOR length.
    let result = super::result_layout(n_out, proc.nprocs(), opts.result_block_size)
        .expect("VECTOR is non-empty by layout construction");

    // Compose: selected elements (rank < Size) + my share of VECTOR's tail
    // (global positions Size..N'').
    let sends = proc.with_category(Category::LocalComp, |proc| {
        let nprocs = proc.nprocs();
        let mut sends: Vec<Vec<(u32, T)>> = (0..nprocs).map(|_| Vec::new()).collect();
        let mut ops = 0usize;
        // Selected elements, per slice (ranks are consecutive).
        for (k, &n) in slice_counts(m_local, w0).iter().enumerate() {
            if n == 0 {
                continue;
            }
            let r0 = ranking.ps_f[k] as usize;
            let mut j = 0usize;
            for (off, &sel) in m_local[k * w0..(k + 1) * w0].iter().enumerate() {
                if sel {
                    let rank = r0 + j;
                    let dest = result.owner(rank);
                    sends[dest].push((rank as u32, a_local[k * w0 + off]));
                    j += 1;
                    ops += 2;
                }
            }
            ops += w0; // slice scan
        }
        // VECTOR tail: positions >= Size keep VECTOR's values.
        for (l, &v) in vec_local.iter().enumerate() {
            let g = vec_layout.global_of(me, l);
            if g >= ranking.size {
                let dest = result.owner(g);
                sends[dest].push((g as u32, v));
                ops += 2;
            }
        }
        ops += vec_local.len();
        proc.charge_ops(ops);
        sends
    });

    let recvs = proc.with_category(Category::ManyToMany, |proc| {
        let world = proc.world();
        alltoallv(proc, &world, sends, opts.schedule)
    });

    let local_v = decode_pairs(proc, &result, recvs);
    Ok(PackOutput {
        local_v,
        size: ranking.size,
        v_layout: Some(result),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskPattern;
    use crate::seq::pack_seq;
    use hpf_distarray::{Dist, GlobalArray};
    use hpf_machine::{CostModel, Machine, ProcGrid};

    fn run_case(n: usize, p: usize, w: usize, density: f64, n_pad: usize) {
        let grid = ProcGrid::line(p);
        let desc = ArrayDesc::new(&[n], &grid, &[Dist::BlockCyclic(w)]).unwrap();
        let pattern = MaskPattern::Random { density, seed: 3 };
        let a = GlobalArray::from_fn(&[n], |g| g[0] as i32 + 1);
        let m = pattern.global(&[n]);
        let pad: Vec<i32> = (0..n_pad as i32).map(|i| -100 - i).collect();
        let want = pack_seq(&a, &m, Some(&pad));

        let vec_layout = DimLayout::new_general(n_pad, p, n_pad.div_ceil(p)).unwrap();
        let (ap, mp) = (a.partition(&desc), m.partition(&desc));
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, apr, mpr, vl, pr) = (&desc, &ap, &mp, &vec_layout, &pad);
        let out = machine.run(move |proc| {
            let vec_local: Vec<i32> = (0..vl.local_len(proc.id()))
                .map(|l| pr[vl.global_of(proc.id(), l)])
                .collect();
            pack_with_vector(
                proc,
                d,
                &apr[proc.id()],
                &mpr[proc.id()],
                &vec_local,
                vl,
                &PackOptions::default(),
            )
            .unwrap()
        });
        let layout = out.results[0].v_layout.unwrap();
        let mut got = vec![0i32; n_pad];
        for (pid, r) in out.results.iter().enumerate() {
            for (l, &x) in r.local_v.iter().enumerate() {
                got[layout.global_of(pid, l)] = x;
            }
        }
        assert_eq!(got, want, "n={n} p={p} w={w} density={density} pad={n_pad}");
    }

    #[test]
    fn vector_padding_matches_f90_semantics() {
        // ~50% of 64 selected, pad to 48 and 64.
        run_case(64, 4, 4, 0.5, 48);
        run_case(64, 4, 4, 0.5, 64);
        // Sparse: long tail of padding.
        run_case(64, 4, 2, 0.1, 40);
        // Full mask with exactly-sized vector: no padding used.
        run_case(32, 4, 8, 1.0, 32);
    }

    #[test]
    fn vector_too_short_is_a_collective_error() {
        let grid = ProcGrid::line(4);
        let desc = ArrayDesc::new(&[32], &grid, &[Dist::Block]).unwrap();
        let vec_layout = DimLayout::new_general(4, 4, 1).unwrap();
        let machine = Machine::new(grid, CostModel::zero());
        let (d, vl) = (&desc, &vec_layout);
        let out = machine.run(move |proc| {
            let a = vec![1i32; 8];
            let m = vec![true; 8]; // selects 32 > 4
            let v = vec![0i32; vl.local_len(proc.id())];
            pack_with_vector(proc, d, &a, &m, &v, vl, &PackOptions::default()).unwrap_err()
        });
        for e in out.results {
            assert_eq!(
                e,
                PackError::VectorTooShort {
                    size: 32,
                    capacity: 4
                }
            );
        }
    }
}
