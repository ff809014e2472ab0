//! `PACK(ARRAY, MASK, VECTOR)` — the full Fortran 90 form with the optional
//! `VECTOR` argument: the result has `VECTOR`'s length, with positions past
//! the selected count copied from `VECTOR` itself.
//!
//! The paper implements the two-argument form (its result vector has
//! exactly `Size` elements); the three-argument form is standard F90 and
//! completes the intrinsic. It is an ordinary planned PACK into `VECTOR`'s
//! own layout: the result is distributed like `VECTOR`, so each processor's
//! slice starts as a copy of its slice of `VECTOR` — positions `Size..N''`
//! are already in place and never travel — and the selected elements are
//! routed, exchanged and decoded over it at ranks `0..Size`, by the scheme
//! the options name.

use hpf_distarray::{ArrayDesc, DimLayout};
use hpf_machine::{Proc, Wire};

use crate::error::{PackError, TooLarge};
use crate::schemes::PackOptions;

use super::PackOutput;

/// Parallel `PACK(A, M, VECTOR)`.
///
/// `vec_local` is this processor's slice of the `VECTOR` argument under
/// `vec_layout` (a 1-D layout over all processors). The result vector has
/// `vec_layout.n()` elements and is distributed like `VECTOR`: `v_layout` is
/// `vec_layout` whatever `Size` is, and `opts.result_block_size` does not
/// apply. `opts.scheme`, `opts.schedule` and the rest do, as in [`super::pack`].
///
/// # Errors
/// Returns [`PackError::VectorTooShort`] (collectively) if `VECTOR` is
/// shorter than the number of selected elements, and
/// [`PackError::TooLarge`] if it is longer than [`TooLarge::LIMIT`]: the
/// result slice's offsets are narrowed to `u32` (the compact message scheme's
/// segment placement), and nothing else bounds them (the array's own size
/// does not).
pub fn pack_with_vector<T: Wire + Default>(
    proc: &mut Proc,
    desc: &ArrayDesc,
    a_local: &[T],
    m_local: &[bool],
    vec_local: &[T],
    vec_layout: &DimLayout,
    opts: &PackOptions,
) -> Result<PackOutput<T>, PackError> {
    super::validate(proc, desc, a_local, m_local)?;
    TooLarge::check(vec_layout.n())?;
    let expected = vec_layout.local_len(proc.id());
    if vec_local.len() != expected {
        let got = vec_local.len();
        return Err(PackError::ArrayLenMismatch { expected, got });
    }
    let plan = crate::plan::plan_pack_at(proc, desc, m_local, opts, Some(vec_layout), false)?;
    let mut out = PackOutput {
        local_v: vec_local.to_vec(),
        size: plan.size(),
        v_layout: Some(*vec_layout),
    };
    if plan.size() > 0 {
        plan.execute_into(proc, a_local, &mut out)?;
    }
    plan.retire(proc);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskPattern;
    use crate::pack::pack;
    use crate::schemes::PackScheme;
    use crate::seq::pack_seq;
    use hpf_distarray::{Dist, GlobalArray};
    use hpf_machine::{CostModel, Machine, ProcGrid};

    /// `PACK(A, M, VECTOR)` by `scheme` of an `n`-element array in blocks of
    /// `w` over `p` processors, `VECTOR` holding `n_pad` elements in blocks
    /// of `vec_w`, against the oracle, reassembled through the returned
    /// layout. The call sends no more words than `pack` into blocks of
    /// `vec_w`: the selected elements route alike, and `VECTOR`'s tail stays
    /// where it is.
    fn run_case(
        (n, p, w): (usize, usize, usize),
        pattern: MaskPattern,
        n_pad: usize,
        vec_w: usize,
        scheme: PackScheme,
    ) {
        let grid = ProcGrid::line(p);
        let desc = ArrayDesc::new(&[n], &grid, &[Dist::BlockCyclic(w)]).unwrap();
        let a = GlobalArray::from_fn(&[n], |g| g[0] as i32 + 1);
        let m = pattern.global(&[n]);
        let pad: Vec<i32> = (0..n_pad as i32).map(|i| -100 - i).collect();
        let want = pack_seq(&a, &m, Some(&pad));

        let vec_layout = DimLayout::new_general(n_pad, p, vec_w).unwrap();
        let (ap, mp) = (a.partition(&desc), m.partition(&desc));
        let opts = PackOptions::new(scheme);
        let (d, apr, mpr, vl, pr) = (&desc, &ap, &mp, &vec_layout, &pad);
        let out = Machine::new(grid.clone(), CostModel::cm5()).run(move |proc| {
            let vec_local: Vec<i32> = (0..vl.local_len(proc.id()))
                .map(|l| pr[vl.global_of(proc.id(), l)])
                .collect();
            let (a, m) = (&apr[proc.id()], &mpr[proc.id()]);
            pack_with_vector(proc, d, a, m, &vec_local, vl, &opts).unwrap()
        });
        let case = format!("{scheme:?} n={n} p={p} w={w} {pattern:?} pad={n_pad} vec_w={vec_w}");
        let layout = out.results[0].v_layout.unwrap();
        assert_eq!(layout, vec_layout, "{case}");
        let mut got = vec![0i32; n_pad];
        for (pid, r) in out.results.iter().enumerate() {
            for (l, &x) in r.local_v.iter().enumerate() {
                got[layout.global_of(pid, l)] = x;
            }
        }
        assert_eq!(got, want, "{case}");

        let blocks = PackOptions {
            result_block_size: Some(vec_w),
            ..opts
        };
        let packed = Machine::new(grid, CostModel::cm5()).run(move |proc| {
            pack(proc, d, &apr[proc.id()], &mpr[proc.id()], &blocks).unwrap();
        });
        let (words, pack_words) = (out.total_words_sent(), packed.total_words_sent());
        assert!(
            words <= pack_words,
            "{case}: {words} words, pack {pack_words}"
        );
    }

    #[test]
    fn vector_padding_matches_f90_semantics() {
        let random = |density| MaskPattern::Random { density, seed: 3 };
        // A long tail, a short one, none (`Size = N''`) and nothing but the
        // tail (an empty mask: the result is `VECTOR`).
        let masks = [
            (random(0.5), 40usize),
            (random(0.1), 37),
            (MaskPattern::Full, 48),
            (MaskPattern::Empty, 29),
        ];
        for scheme in PackScheme::ALL {
            for p in [2, 3, 4] {
                for (pattern, n_pad) in masks {
                    // `VECTOR` block, cyclic, block-cyclic, and in blocks
                    // of 5, which no `P·W` here divides.
                    for vec_w in [n_pad.div_ceil(p), 1, 2, 5] {
                        run_case((48, p, 2), pattern, n_pad, vec_w, scheme);
                    }
                }
            }
            // Wider blocks of the array; `VECTOR` in blocks.
            run_case((64, 4, 4), random(0.5), 48, 12, scheme);
            run_case((64, 4, 4), random(0.5), 64, 16, scheme);
            run_case((64, 4, 2), random(0.1), 40, 10, scheme);
            run_case((32, 4, 8), MaskPattern::Full, 32, 8, scheme);
        }
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
