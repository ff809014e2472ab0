//! The parallel ranking algorithm — Section 5.
//!
//! Ranks every selected element of a distributed masked array *without
//! moving any array elements*: an initial local scan produces per-slice
//! counts, `d` intermediate steps grow the sub-array within which ranks are
//! valid (one vector prefix-reduction-sum per dimension plus local
//! segmented prefix sums), and a final combination collapses the
//! per-dimension base-rank arrays into `PS_f`, from which
//!
//! ```text
//! rank(x) = initial-rank(x) + PS_f[slice(x)]
//! ```

mod final_step;
mod initial;
mod intermediate;
mod workspace;

pub(crate) use final_step::combine_base_ranks;
pub(crate) use initial::in_slice_ranks;
pub use initial::slice_counts;
pub(crate) use intermediate::{intermediate_steps, BaseRanks};
pub use workspace::RankShape;

use hpf_machine::collectives::PrsAlgorithm;
use hpf_machine::Proc;

/// The ranking stage's output on one processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ranking {
    /// Final base-rank array: `ps_f[k]` is the global rank of the first
    /// selected element of local slice `k` (one slot per slice, `C` total).
    pub ps_f: Vec<i32>,
    /// Global number of selected elements (`Size`), replicated everywhere.
    pub size: usize,
}

/// Run the intermediate and final ranking steps from per-slice counts
/// (the output of the scheme-specific initial scan).
pub fn rank_from_counts(
    proc: &mut Proc,
    shape: &RankShape,
    counts: Vec<i32>,
    prs: PrsAlgorithm,
) -> Ranking {
    let BaseRanks { ps, size } = proc.with_stage("rank.intermediate", |proc| {
        intermediate_steps(proc, shape, counts, prs)
    });
    let ps_f = proc.with_stage("rank.final", |proc| combine_base_ranks(proc, shape, ps));
    Ranking { ps_f, size }
}

/// Convenience: the global rank of every selected local element
/// (`None` where the mask is false). Used by tests and by the simple
/// storage scheme's record replay.
pub fn element_ranks(shape: &RankShape, mask: &[bool], ps_f: &[i32]) -> Vec<Option<u32>> {
    let w0 = shape.w[0];
    in_slice_ranks(mask, w0)
        .into_iter()
        .enumerate()
        .map(|(l, r)| r.map(|init| init + ps_f[l / w0] as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskPattern;
    use crate::seq::{count_seq, ranks_seq};
    use hpf_distarray::{ArrayDesc, Dist};
    use hpf_machine::{Category, CostModel, Machine, ProcGrid};

    /// Full oracle check: on every processor, every selected element's rank
    /// (initial in-slice rank + PS_f of its slice) must equal the element's
    /// sequential rank in global array element order.
    fn check_against_oracle(
        shape: &[usize],
        grid_dims: &[usize],
        dists: &[Dist],
        pattern: MaskPattern,
    ) {
        let grid = ProcGrid::new(grid_dims);
        let desc = ArrayDesc::new(shape, &grid, dists).unwrap();
        let mask_g = pattern.global(shape);
        let want_ranks = ranks_seq(&mask_g);
        let want_size = count_seq(&mask_g);
        let parts = mask_g.partition(&desc);

        let machine = Machine::new(grid, CostModel::cm5());
        let (desc_ref, parts_ref) = (&desc, &parts);
        let out = machine.run(move |proc| {
            let rshape = RankShape::from_desc(desc_ref);
            let mask = &parts_ref[proc.id()];
            let counts = slice_counts(mask, rshape.w[0]);
            let ranking = rank_from_counts(proc, &rshape, counts, PrsAlgorithm::Auto);
            let ranks = element_ranks(&rshape, mask, &ranking.ps_f);
            (ranking.size, ranks)
        });

        for (p, (size, ranks)) in out.results.iter().enumerate() {
            assert_eq!(*size, want_size, "Size mismatch on proc {p}");
            for (l, got) in ranks.iter().enumerate() {
                let g = desc.global_of_local(p, l);
                let glin = desc.global_linear(&g);
                let want = want_ranks[glin].map(|r| r as u32);
                assert_eq!(
                    *got, want,
                    "rank mismatch at global {g:?} (proc {p}, local {l}), \
                     shape {shape:?}, dists {dists:?}, pattern {pattern:?}"
                );
            }
        }
    }

    #[test]
    fn one_d_all_distributions() {
        for dist in [
            Dist::Block,
            Dist::Cyclic,
            Dist::BlockCyclic(2),
            Dist::BlockCyclic(4),
        ] {
            for pattern in [
                MaskPattern::Random {
                    density: 0.5,
                    seed: 3,
                },
                MaskPattern::FirstHalf,
                MaskPattern::Full,
                MaskPattern::Empty,
            ] {
                check_against_oracle(&[32], &[4], &[dist], pattern);
            }
        }
    }

    #[test]
    fn two_d_mixed_distributions() {
        let dist_cases: &[[Dist; 2]] = &[
            [Dist::Block, Dist::Block],
            [Dist::Cyclic, Dist::Cyclic],
            [Dist::BlockCyclic(2), Dist::BlockCyclic(4)],
            [Dist::Cyclic, Dist::Block],
            [Dist::BlockCyclic(4), Dist::Cyclic],
        ];
        for dists in dist_cases {
            for pattern in [
                MaskPattern::Random {
                    density: 0.3,
                    seed: 11,
                },
                MaskPattern::LowerTriangular,
            ] {
                check_against_oracle(&[16, 8], &[2, 2], dists, pattern);
            }
        }
    }

    #[test]
    fn three_d_ranking() {
        check_against_oracle(
            &[8, 4, 6],
            &[2, 2, 3],
            &[Dist::BlockCyclic(2), Dist::Cyclic, Dist::Block],
            MaskPattern::Random {
                density: 0.6,
                seed: 5,
            },
        );
    }

    #[test]
    fn single_processor_grid() {
        check_against_oracle(
            &[8, 8],
            &[1, 1],
            &[Dist::Block, Dist::Block],
            MaskPattern::Random {
                density: 0.5,
                seed: 9,
            },
        );
    }

    #[test]
    fn uneven_processor_grid() {
        check_against_oracle(
            &[12, 8],
            &[3, 2],
            &[Dist::BlockCyclic(2), Dist::BlockCyclic(2)],
            MaskPattern::Random {
                density: 0.4,
                seed: 13,
            },
        );
    }

    /// Figure 1's configuration: A(16), block-cyclic(2), 4 processors.
    #[test]
    fn figure1_configuration() {
        check_against_oracle(
            &[16],
            &[4],
            &[Dist::BlockCyclic(2)],
            MaskPattern::Random {
                density: 0.625,
                seed: 1,
            },
        );
    }

    /// Ranking must charge PRS communication and local computation, and the
    /// PRS share must grow as the block size shrinks (more tiles => longer
    /// vectors), the paper's central performance observation.
    #[test]
    fn prs_cost_grows_as_block_size_shrinks() {
        let time_for = |w: usize| {
            let grid = ProcGrid::line(4);
            let desc = ArrayDesc::new(&[1024], &grid, &[Dist::BlockCyclic(w)]).unwrap();
            let pattern = MaskPattern::Random {
                density: 0.5,
                seed: 2,
            };
            let machine = Machine::new(grid, CostModel::cm5());
            let desc_ref = &desc;
            let out = machine.run(move |proc| {
                let rshape = RankShape::from_desc(desc_ref);
                let mask = pattern.local(desc_ref, proc.id());
                let counts = slice_counts(&mask, rshape.w[0]);
                rank_from_counts(proc, &rshape, counts, PrsAlgorithm::Auto);
            });
            (
                out.max_cat_ms(Category::PrefixReductionSum),
                out.max_cat_ms(Category::LocalComp),
            )
        };
        let (prs_cyclic, local_cyclic) = time_for(1);
        let (prs_block, local_block) = time_for(256);
        assert!(prs_cyclic > prs_block, "cyclic should pay more PRS time");
        assert!(
            local_cyclic > local_block,
            "cyclic should pay more local time"
        );
        assert!(prs_block > 0.0 && local_block > 0.0);
    }
}
