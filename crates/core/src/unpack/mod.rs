//! Parallel UNPACK — Section 4.2.
//!
//! UNPACK scatters a distributed vector `V` into a distributed array `A`
//! under a mask `M`, with a field array `F` supplying unselected positions
//! (a purely local copy). Ranking is identical to PACK, but the
//! redistribution stage is a **READ**: the processor that needs `V[r]`
//! knows `r`, while `V[r]`'s owner does not know who needs it. Hence the
//! paper's two-stage communication — each consumer sends rank *requests*,
//! each owner sends value *replies* — and the observation that UNPACK's
//! communication time can be twice PACK's.
//!
//! Since the planner/executor split, [`unpack`] is a thin wrapper over
//! [`crate::plan::plan_unpack`] + [`crate::plan::UnpackPlan::execute`];
//! the request round is plan-time (it depends only on the mask), the
//! reply round is execute-time (it moves values). A request is the
//! requester's route row to the owner, sent as a PACK message with no values:
//! explicit ranks under the simple scheme (`E` words), `(base, count)` runs
//! under compact storage (`2·Gs` words).

mod redist;

pub use redist::unpack_redistributed;

use hpf_distarray::{ArrayDesc, DimLayout};
use hpf_machine::{Proc, Wire};

use crate::error::UnpackError;
use crate::ranking::RankShape;
use crate::schemes::UnpackOptions;

/// Parallel `UNPACK(V, M, F)`.
///
/// * `desc` describes `M`, `F`, and the result array `A` (conformable and
///   aligned, as the paper assumes);
/// * `v_local` is this processor's slice of `V` under `v_layout` (a 1-D
///   block-cyclic layout over all processors, `N' ≥ Size`).
///
/// Returns this processor's local portion of `A`.
///
/// Exactly equivalent to [`crate::plan_unpack`], one
/// [`crate::UnpackPlan::execute`] and [`crate::UnpackPlan::retire`] (the
/// call owns its plan and gives its pooled buffers back) — callers that
/// unpack repeatedly under an unchanged mask should hold the plan and
/// execute it directly, which skips the ranking collectives *and* the
/// rank-request round.
pub fn unpack<T: Wire + Default>(
    proc: &mut Proc,
    desc: &ArrayDesc,
    m_local: &[bool],
    f_local: &[T],
    v_local: &[T],
    v_layout: &DimLayout,
    opts: &UnpackOptions,
) -> Result<Vec<T>, UnpackError> {
    validate(proc, desc, m_local, f_local, v_local, v_layout)?;
    let plan = crate::plan::plan_unpack(proc, desc, m_local, v_layout, opts)?;
    let out = plan.execute(proc, f_local, v_local);
    plan.retire(proc);
    out
}

fn validate(
    proc: &Proc,
    desc: &ArrayDesc,
    m_local: &[bool],
    f_local: &[impl Sized],
    v_local: &[impl Sized],
    v_layout: &DimLayout,
) -> Result<RankShape, UnpackError> {
    let shape = validate_mask(proc, desc, m_local)?;
    let expected = desc.local_len(proc.id());
    if f_local.len() != expected {
        return Err(UnpackError::FieldLenMismatch {
            expected,
            got: f_local.len(),
        });
    }
    let v_expected = v_layout.local_len(proc.id());
    if v_local.len() != v_expected {
        return Err(UnpackError::VectorLenMismatch {
            expected: v_expected,
            got: v_local.len(),
        });
    }
    Ok(shape)
}

/// Mask-only validation for the planner (field and vector values exist
/// only at execute time; the plan's `execute` checks their lengths).
pub(crate) fn validate_mask(
    proc: &Proc,
    desc: &ArrayDesc,
    m_local: &[bool],
) -> Result<RankShape, UnpackError> {
    for i in 0..desc.ndims() {
        if !desc.dim(i).divisible() {
            return Err(UnpackError::NotDivisible { dim: i });
        }
    }
    crate::error::plannable(desc)?;
    let expected = desc.local_len(proc.id());
    if m_local.len() != expected {
        return Err(UnpackError::MaskLenMismatch {
            expected,
            got: m_local.len(),
        });
    }
    Ok(RankShape::from_desc(desc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskPattern;
    use crate::schemes::UnpackScheme;
    use crate::seq::unpack_seq;
    use hpf_distarray::{Dist, GlobalArray};
    use hpf_machine::{Category, CostModel, Machine, ProcGrid};

    fn check_unpack(
        shape: &[usize],
        grid_dims: &[usize],
        dists: &[Dist],
        pattern: MaskPattern,
        scheme: UnpackScheme,
        w_prime: usize,
        extra_capacity: usize,
    ) {
        let grid = ProcGrid::new(grid_dims);
        let desc = ArrayDesc::new(shape, &grid, dists).unwrap();
        let m = pattern.global(shape);
        let f = GlobalArray::from_fn(shape, |idx| -(1 + idx[0] as i32));
        let size = crate::seq::count_seq(&m);
        let n_prime = (size + extra_capacity).max(1);
        let v: Vec<i32> = (0..n_prime as i32).map(|i| 1000 + i).collect();
        let want = unpack_seq(&v, &m, &f);

        let v_layout = DimLayout::new_general(n_prime, grid.nprocs(), w_prime).unwrap();
        let v_locals: Vec<Vec<i32>> = (0..grid.nprocs())
            .map(|p| {
                (0..v_layout.local_len(p))
                    .map(|l| v[v_layout.global_of(p, l)])
                    .collect()
            })
            .collect();
        let m_parts = m.partition(&desc);
        let f_parts = f.partition(&desc);

        let machine = Machine::new(grid, CostModel::cm5());
        let (desc_ref, m_ref, f_ref, v_ref, vl_ref) =
            (&desc, &m_parts, &f_parts, &v_locals, &v_layout);
        let opts = UnpackOptions::new(scheme);
        let out = machine.run(move |proc| {
            unpack(
                proc,
                desc_ref,
                &m_ref[proc.id()],
                &f_ref[proc.id()],
                &v_ref[proc.id()],
                vl_ref,
                &opts,
            )
            .unwrap()
        });
        let got = GlobalArray::assemble(&desc, &out.results);
        assert_eq!(
            got, want,
            "{scheme:?} {shape:?} {dists:?} {pattern:?} W'={w_prime}"
        );
    }

    #[test]
    fn both_schemes_match_oracle_1d() {
        for scheme in UnpackScheme::ALL {
            for dist in [Dist::Block, Dist::Cyclic, Dist::BlockCyclic(2)] {
                for pattern in [
                    MaskPattern::Random {
                        density: 0.5,
                        seed: 31,
                    },
                    MaskPattern::FirstHalf,
                    MaskPattern::Full,
                    MaskPattern::Empty,
                ] {
                    check_unpack(&[32], &[4], &[dist], pattern, scheme, 8, 0);
                }
            }
        }
    }

    #[test]
    fn both_schemes_match_oracle_2d() {
        for scheme in UnpackScheme::ALL {
            for dists in [
                [Dist::Block, Dist::Block],
                [Dist::Cyclic, Dist::Cyclic],
                [Dist::BlockCyclic(2), Dist::BlockCyclic(2)],
            ] {
                for pattern in [
                    MaskPattern::Random {
                        density: 0.4,
                        seed: 17,
                    },
                    MaskPattern::LowerTriangular,
                ] {
                    check_unpack(&[16, 8], &[2, 2], &dists, pattern, scheme, 10, 0);
                }
            }
        }
    }

    #[test]
    fn oversized_input_vector_is_fine() {
        // N' > Size: trailing vector elements are simply unused.
        for scheme in UnpackScheme::ALL {
            check_unpack(
                &[16],
                &[4],
                &[Dist::BlockCyclic(2)],
                MaskPattern::Random {
                    density: 0.5,
                    seed: 23,
                },
                scheme,
                4,
                7,
            );
        }
    }

    #[test]
    fn cyclic_input_vector_distribution() {
        for scheme in UnpackScheme::ALL {
            check_unpack(
                &[16],
                &[4],
                &[Dist::Block],
                MaskPattern::Random {
                    density: 0.6,
                    seed: 29,
                },
                scheme,
                1, // W' = 1: V itself cyclic
                3,
            );
        }
    }

    #[test]
    fn undersized_vector_is_a_collective_error() {
        let grid = ProcGrid::line(4);
        let desc = ArrayDesc::new(&[16], &grid, &[Dist::Block]).unwrap();
        let v_layout = DimLayout::new_general(4, 4, 1).unwrap(); // capacity 4 < 8 selected
        let machine = Machine::new(grid, CostModel::zero());
        let (desc_ref, vl_ref) = (&desc, &v_layout);
        let out = machine.run(move |proc| {
            let m = MaskPattern::FirstHalf.local(desc_ref, proc.id());
            let f = vec![0i32; 4];
            let v = vec![0i32; vl_ref.local_len(proc.id())];
            unpack(
                proc,
                desc_ref,
                &m,
                &f,
                &v,
                vl_ref,
                &UnpackOptions::default(),
            )
            .unwrap_err()
        });
        for e in out.results {
            assert_eq!(
                e,
                UnpackError::VectorTooSmall {
                    size: 8,
                    capacity: 4
                }
            );
        }
    }

    /// The headline claim of Section 4.2: UNPACK's redistribution-stage
    /// communication is roughly twice PACK's, because of request+reply.
    #[test]
    fn unpack_m2m_exceeds_pack_m2m() {
        use crate::pack::pack;
        use crate::schemes::{PackOptions, PackScheme};
        let grid = ProcGrid::line(4);
        let desc = ArrayDesc::new(&[256], &grid, &[Dist::BlockCyclic(4)]).unwrap();
        let pattern = MaskPattern::Random {
            density: 0.5,
            seed: 41,
        };
        let machine = Machine::new(grid.clone(), CostModel::cm5());
        let desc_ref = &desc;
        let pack_out = machine.run(move |proc| {
            let a = hpf_distarray::local_from_fn(desc_ref, proc.id(), |g| g[0] as i32);
            let m = pattern.local(desc_ref, proc.id());
            pack(
                proc,
                desc_ref,
                &a,
                &m,
                &PackOptions::new(PackScheme::Simple),
            )
            .unwrap()
            .size
        });
        let size = pack_out.results[0];
        let v_layout = DimLayout::new_general(size, 4, size.div_ceil(4)).unwrap();
        let machine2 = Machine::new(grid, CostModel::cm5());
        let vl_ref = &v_layout;
        let unpack_out = machine2.run(move |proc| {
            let m = pattern.local(desc_ref, proc.id());
            let f = vec![0i32; desc_ref.local_len(proc.id())];
            let v = vec![7i32; vl_ref.local_len(proc.id())];
            unpack(
                proc,
                desc_ref,
                &m,
                &f,
                &v,
                vl_ref,
                &UnpackOptions::new(UnpackScheme::Simple),
            )
            .unwrap();
        });
        let pack_m2m = pack_out.max_cat_ms(Category::ManyToMany);
        let unpack_m2m = unpack_out.max_cat_ms(Category::ManyToMany);
        assert!(
            unpack_m2m > pack_m2m,
            "unpack {unpack_m2m} ms should exceed pack {pack_m2m} ms"
        );
    }
}
