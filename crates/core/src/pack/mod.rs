//! Parallel PACK — Section 4.1: ranking stage + redistribution stage, with
//! the three storage/message schemes of Section 6.
//!
//! Since the planner/executor split, [`pack`] is a thin wrapper over
//! [`crate::plan::plan_pack`] + [`crate::plan::PackPlan::execute`]; each
//! scheme is a plan-time composer (see [`crate::PackScheme`]), and CMS owns
//! its segment kernels. A planned message of any scheme is its values plus
//! the sender's route row (`plan`'s `poolmsg`).

pub(crate) mod compact_message;
mod predict;
mod redist;
mod vector_arg;

pub use predict::MaskStats;
pub use redist::{pack_redistributed, RedistScheme};
pub use vector_arg::pack_with_vector;

use hpf_distarray::{ArrayDesc, DimLayout};
use hpf_machine::{Proc, Wire};

use crate::error::PackError;
use crate::ranking::RankShape;
use crate::schemes::PackOptions;

/// Result of a parallel PACK on one processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackOutput<T> {
    /// This processor's portion of the result vector `V`.
    pub local_v: Vec<T>,
    /// Global number of packed elements (`Size`), replicated everywhere.
    pub size: usize,
    /// Layout of `V` over all processors (`None` iff `size == 0`).
    pub v_layout: Option<DimLayout>,
}

/// Parallel `PACK(A, M)`: gather the elements of the distributed array `A`
/// selected by the aligned mask `M` into a vector `V` distributed over all
/// processors (block by default; `opts.result_block_size` selects a general
/// block-cyclic `W'`).
///
/// Every processor calls this with its local portions; each receives its
/// local slice of `V` plus the replicated `Size` and the vector layout.
///
/// Exactly equivalent to [`crate::plan_pack`], one
/// [`crate::PackPlan::execute`] and [`crate::PackPlan::retire`]: the call
/// owns its plan and gives the plan's pooled buffers and memory charges
/// back before it returns. Callers that pack repeatedly under an unchanged
/// mask should hold the plan and execute it directly.
///
/// Work is charged to the calling processor's clock, by
/// [`hpf_machine::Category`]: `LocalComp` for scanning, rank computation, and
/// message composition/decomposition; `PrefixReductionSum` for the ranking
/// collectives; `ManyToMany` for the redistribution exchange. The plan-time
/// transposition of the send flags rides the control plane and charges
/// nothing.
pub fn pack<T: Wire + Default>(
    proc: &mut Proc,
    desc: &ArrayDesc,
    a_local: &[T],
    m_local: &[bool],
    opts: &PackOptions,
) -> Result<PackOutput<T>, PackError> {
    validate(proc, desc, a_local, m_local)?;
    let plan = crate::plan::plan_pack(proc, desc, m_local, opts)?;
    let out = plan.execute(proc, a_local);
    plan.retire(proc);
    out
}

/// Validate inputs: [`validate_mask`], then the array's length. All checks
/// use state that is identical on every processor, so error returns are
/// collective.
pub(crate) fn validate(
    proc: &Proc,
    desc: &ArrayDesc,
    a_local: &[impl Sized],
    m_local: &[bool],
) -> Result<(), PackError> {
    validate_mask(proc, desc, m_local)?;
    let expected = desc.local_len(proc.id());
    if a_local.len() != expected {
        return Err(PackError::ArrayLenMismatch {
            expected,
            got: a_local.len(),
        });
    }
    Ok(())
}

/// Mask-only validation for the planner (no array values exist at plan
/// time; the plan's `execute` checks the array length instead).
pub(crate) fn validate_mask(
    proc: &Proc,
    desc: &ArrayDesc,
    m_local: &[bool],
) -> Result<RankShape, PackError> {
    for i in 0..desc.ndims() {
        if !desc.dim(i).divisible() {
            return Err(PackError::NotDivisible { dim: i });
        }
    }
    crate::error::plannable(desc)?;
    let expected = desc.local_len(proc.id());
    if m_local.len() != expected {
        return Err(PackError::MaskLenMismatch {
            expected,
            got: m_local.len(),
        });
    }
    Ok(RankShape::from_desc(desc))
}

/// Layout of the result vector: `Size` elements over all `nprocs`
/// processors, block by default or block-cyclic `W'`.
pub(crate) fn result_layout(
    size: usize,
    nprocs: usize,
    block_size: Option<usize>,
) -> Option<DimLayout> {
    if size == 0 {
        return None;
    }
    let w = block_size.unwrap_or_else(|| size.div_ceil(nprocs)).max(1);
    Some(DimLayout::new_general(size, nprocs, w).expect("positive parameters"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskPattern;
    use crate::schemes::{PackScheme, ScanMethod};
    use crate::seq::pack_seq;
    use hpf_distarray::{Dist, GlobalArray};
    use hpf_machine::collectives::A2aSchedule;
    use hpf_machine::{CostModel, Machine, ProcGrid};

    /// Reassemble the distributed result vector into a dense Vec.
    pub(crate) fn assemble_v<T: Copy + Default + std::fmt::Debug>(
        outs: &[PackOutput<T>],
    ) -> Vec<T> {
        let size = outs[0].size;
        if size == 0 {
            return Vec::new();
        }
        let layout = outs[0].v_layout.unwrap();
        let mut v = vec![T::default(); size];
        for (p, out) in outs.iter().enumerate() {
            assert_eq!(out.size, size);
            for (l, &x) in out.local_v.iter().enumerate() {
                v[layout.global_of(p, l)] = x;
            }
        }
        v
    }

    fn check_pack(
        shape: &[usize],
        grid_dims: &[usize],
        dists: &[Dist],
        pattern: MaskPattern,
        opts: PackOptions,
    ) {
        let grid = ProcGrid::new(grid_dims);
        let desc = ArrayDesc::new(shape, &grid, dists).unwrap();
        let a = GlobalArray::from_fn(shape, |idx| {
            idx.iter()
                .enumerate()
                .map(|(i, &x)| (x as i32 + 1) * 10i32.pow(i as u32))
                .sum::<i32>()
        });
        let m = pattern.global(shape);
        let want = pack_seq(&a, &m, None);

        let a_parts = a.partition(&desc);
        let m_parts = m.partition(&desc);
        let machine = Machine::new(grid, CostModel::cm5());
        let (desc_ref, a_ref, m_ref, opts_ref) = (&desc, &a_parts, &m_parts, &opts);
        let out = machine.run(move |proc| {
            pack(
                proc,
                desc_ref,
                &a_ref[proc.id()],
                &m_ref[proc.id()],
                opts_ref,
            )
            .unwrap()
        });
        let got = assemble_v(&out.results);
        assert_eq!(
            got, want,
            "scheme {:?} shape {shape:?} dists {dists:?} pattern {pattern:?}",
            opts.scheme
        );
        // Local portions must tile Size exactly.
        let total: usize = out.results.iter().map(|o| o.local_v.len()).sum();
        assert_eq!(total, want.len());
    }

    #[test]
    fn all_schemes_match_oracle_1d() {
        for scheme in PackScheme::ALL {
            for dist in [Dist::Block, Dist::Cyclic, Dist::BlockCyclic(2)] {
                for pattern in [
                    MaskPattern::Random {
                        density: 0.5,
                        seed: 21,
                    },
                    MaskPattern::FirstHalf,
                    MaskPattern::Full,
                    MaskPattern::Empty,
                ] {
                    check_pack(&[32], &[4], &[dist], pattern, PackOptions::new(scheme));
                }
            }
        }
    }

    #[test]
    fn all_schemes_match_oracle_2d() {
        for scheme in PackScheme::ALL {
            for dists in [
                [Dist::Block, Dist::Block],
                [Dist::Cyclic, Dist::Cyclic],
                [Dist::BlockCyclic(2), Dist::BlockCyclic(4)],
            ] {
                for pattern in [
                    MaskPattern::Random {
                        density: 0.3,
                        seed: 5,
                    },
                    MaskPattern::LowerTriangular,
                ] {
                    check_pack(&[16, 8], &[2, 2], &dists, pattern, PackOptions::new(scheme));
                }
            }
        }
    }

    #[test]
    fn three_d_pack() {
        for scheme in PackScheme::ALL {
            check_pack(
                &[8, 4, 4],
                &[2, 1, 2],
                &[Dist::BlockCyclic(2), Dist::Block, Dist::Cyclic],
                MaskPattern::Random {
                    density: 0.5,
                    seed: 77,
                },
                PackOptions::new(scheme),
            );
        }
    }

    #[test]
    fn non_block_result_vector() {
        for scheme in PackScheme::ALL {
            let mut opts = PackOptions::new(scheme);
            opts.result_block_size = Some(3);
            check_pack(
                &[32],
                &[4],
                &[Dist::BlockCyclic(4)],
                MaskPattern::Random {
                    density: 0.7,
                    seed: 2,
                },
                opts,
            );
        }
    }

    #[test]
    fn whole_slice_scan_method_gives_same_result() {
        for scheme in [PackScheme::CompactStorage, PackScheme::CompactMessage] {
            let mut opts = PackOptions::new(scheme);
            opts.scan_method = ScanMethod::WholeSlice;
            check_pack(
                &[32],
                &[4],
                &[Dist::BlockCyclic(2)],
                MaskPattern::Random {
                    density: 0.5,
                    seed: 8,
                },
                opts,
            );
        }
    }

    #[test]
    fn naive_schedule_gives_same_result() {
        let mut opts = PackOptions::new(PackScheme::CompactMessage);
        opts.schedule = A2aSchedule::NaivePush;
        check_pack(
            &[16, 8],
            &[2, 2],
            &[Dist::BlockCyclic(2), Dist::Cyclic],
            MaskPattern::Random {
                density: 0.5,
                seed: 3,
            },
            opts,
        );
    }

    #[test]
    fn validation_errors() {
        let grid = ProcGrid::line(4);
        let desc = ArrayDesc::new(&[16], &grid, &[Dist::BlockCyclic(2)]).unwrap();
        let machine = Machine::new(grid, CostModel::zero());
        let desc_ref = &desc;
        let out = machine.run(move |proc| {
            let a = vec![0i32; 4];
            let m_short = vec![true; 3];
            let err = pack(proc, desc_ref, &a, &m_short, &PackOptions::default()).unwrap_err();
            matches!(
                err,
                PackError::MaskLenMismatch {
                    expected: 4,
                    got: 3
                }
            )
        });
        assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn result_layout_block_default() {
        let l = result_layout(10, 4, None).unwrap();
        assert_eq!(l.w(), 3); // ceil(10/4)
        assert_eq!(
            (0..4).map(|c| l.local_len(c)).collect::<Vec<_>>(),
            vec![3, 3, 3, 1]
        );
        assert!(result_layout(0, 4, None).is_none());
    }
}
