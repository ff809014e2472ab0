//! Cyclic-to-block preliminary redistribution — Section 6.3.
//!
//! The ranking overhead is proportional to the tile count, which is worst
//! for cyclic distribution. Redistributing the input to block distribution
//! first makes the subsequent PACK maximally cheap; the question the paper's
//! Table II answers is whether the redistribution pays for itself. Two
//! schemes:
//!
//! * **Red.1 — redistribution of selected data**: only elements whose mask
//!   is true are moved, as `(global index, value)` pairs; the receiver
//!   rebuilds temporary array/mask. Cheap when few elements are selected.
//! * **Red.2 — redistribution of whole arrays**: both the input array and
//!   the mask move wholesale with value-only messages, which needs the two
//!   communication-detection phases of [7]. Cheap when most elements are
//!   selected — unless detection dominates, as it does for 1-D arrays.
//!
//! Either way the PACK proper then runs on the block-distributed temporary
//! (the paper adds the redistribution time to the compact message scheme's
//! block-distribution time; we default `opts.scheme` accordingly).

use hpf_distarray::{redistribute, ArrayDesc, Dist};
use hpf_machine::collectives::alltoallv;
use hpf_machine::{Category, Proc, Wire};

use crate::error::PackError;
use crate::schemes::PackOptions;

use super::{pack, PackOutput};

/// Preliminary redistribution scheme (Section 6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedistScheme {
    /// Red.1: move only the selected elements (with their global indices).
    SelectedData,
    /// Red.2: move the whole input array and mask (value-only messages,
    /// two-phase communication detection).
    WholeArrays,
}

impl RedistScheme {
    /// Table label ("Red. 1" / "Red. 2").
    pub fn label(self) -> &'static str {
        match self {
            RedistScheme::SelectedData => "Red. 1",
            RedistScheme::WholeArrays => "Red. 2",
        }
    }
}

/// PACK with a preliminary redistribution to block distribution.
///
/// Equivalent to [`pack`] on the original layout (same result vector), but
/// the ranking stage runs with the minimal tile count. Redistribution
/// detection is charged to [`Category::RedistDetect`] and its traffic to
/// [`Category::RedistComm`]; the PACK proper charges its usual categories.
pub fn pack_redistributed<T: Wire + Default>(
    proc: &mut Proc,
    desc: &ArrayDesc,
    a_local: &[T],
    m_local: &[bool],
    scheme: RedistScheme,
    opts: &PackOptions,
) -> Result<PackOutput<T>, PackError> {
    // Validate against the *original* descriptor first (collective, like
    // `pack` itself).
    super::validate(proc, desc, a_local, m_local)?;

    let block_desc = block_desc(desc);
    match scheme {
        RedistScheme::SelectedData => {
            let (a_tmp, m_tmp) =
                redistribute_selected(proc, desc, &block_desc, a_local, m_local, opts);
            pack(proc, &block_desc, &a_tmp, &m_tmp, opts)
        }
        RedistScheme::WholeArrays => {
            let a_tmp = redistribute(proc, desc, &block_desc, a_local, opts.schedule);
            let m_tmp = redistribute(proc, desc, &block_desc, m_local, opts.schedule);
            pack(proc, &block_desc, &a_tmp, &m_tmp, opts)
        }
    }
}

/// The all-block descriptor with the same shape and grid.
fn block_desc(desc: &ArrayDesc) -> ArrayDesc {
    let shape = desc.shape();
    let dists = vec![Dist::Block; desc.ndims()];
    // The original descriptor is divisible (P_i·W_i | N_i ⇒ P_i | N_i), so
    // the block layout is divisible too.
    ArrayDesc::new(&shape, desc.grid(), &dists).expect("block layout of a divisible descriptor")
}

/// Red.1: move only selected elements, as `(combined global index, value)`
/// pairs; receivers rebuild temporary array and mask.
fn redistribute_selected<T: Wire + Default>(
    proc: &mut Proc,
    src: &ArrayDesc,
    dst: &ArrayDesc,
    a_local: &[T],
    m_local: &[bool],
    opts: &PackOptions,
) -> (Vec<T>, Vec<bool>) {
    let me = proc.id();
    let nprocs = proc.nprocs();

    // Detection + composition: scan the mask; for each selected element,
    // combine its d indices into one global index (the paper's
    // message-minimising combine) and bucket the pair.
    let sends = proc.with_stage("redist.detect", |proc| {
        proc.with_category(Category::RedistDetect, |proc| {
            let mut sends: Vec<Vec<(u32, T)>> = (0..nprocs).map(|_| Vec::new()).collect();
            let mut selected = 0usize;
            src.for_each_local_global(me, |l, g| {
                if m_local[l] {
                    let glin = src.global_linear(g);
                    let (target, _) = dst.owner_of(g);
                    sends[target].push((glin as u32, a_local[l]));
                    selected += 1;
                }
            });
            proc.charge_ops(m_local.len() + 2 * selected);
            sends
        })
    });

    let recvs = proc.with_stage("redist.comm", |proc| {
        proc.with_category(Category::RedistComm, |proc| {
            let world = proc.world();
            alltoallv(proc, &world, sends, opts.schedule)
        })
    });

    // Receiver: initialise the temporary mask to all-false (charge L), then
    // decompose each global index and place the element.
    proc.with_stage("redist.detect", |proc| {
        proc.with_category(Category::RedistDetect, |proc| {
            let len = dst.local_len(me);
            let mut a_tmp = vec![T::default(); len];
            let mut m_tmp = vec![false; len];
            let mut placed = 0usize;
            for msg in recvs {
                for (glin, v) in msg {
                    let (owner, llin) = dst.owner_of_linear(glin as usize);
                    debug_assert_eq!(owner, me, "misrouted element");
                    a_tmp[llin] = v;
                    m_tmp[llin] = true;
                    placed += 1;
                }
            }
            proc.charge_ops(len + 2 * placed);
            (a_tmp, m_tmp)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskPattern;
    use crate::seq::pack_seq;
    use hpf_distarray::GlobalArray;
    use hpf_machine::{CostModel, Machine, ProcGrid};

    fn check(shape: &[usize], grid_dims: &[usize], scheme: RedistScheme, pattern: MaskPattern) {
        let grid = ProcGrid::new(grid_dims);
        // Cyclic input — the case redistribution exists for.
        let dists = vec![Dist::Cyclic; shape.len()];
        let desc = ArrayDesc::new(shape, &grid, &dists).unwrap();
        let a = GlobalArray::from_fn(shape, |idx| {
            idx.iter().fold(1i32, |acc, &x| acc * 31 + x as i32)
        });
        let m = pattern.global(shape);
        let want = pack_seq(&a, &m, None);
        let a_parts = a.partition(&desc);
        let m_parts = m.partition(&desc);
        let machine = Machine::new(grid, CostModel::cm5());
        let (desc_ref, a_ref, m_ref) = (&desc, &a_parts, &m_parts);
        let out = machine.run(move |proc| {
            pack_redistributed(
                proc,
                desc_ref,
                &a_ref[proc.id()],
                &m_ref[proc.id()],
                scheme,
                &PackOptions::default(),
            )
            .unwrap()
        });
        let got = crate::pack::tests::assemble_v(&out.results);
        assert_eq!(got, want, "{scheme:?} {shape:?} {pattern:?}");
        // Redistribution must have charged detection and traffic.
        assert!(out.max_cat_ms(Category::RedistDetect) > 0.0);
    }

    #[test]
    fn red1_matches_oracle() {
        check(
            &[32],
            &[4],
            RedistScheme::SelectedData,
            MaskPattern::Random {
                density: 0.3,
                seed: 4,
            },
        );
        check(
            &[8, 8],
            &[2, 2],
            RedistScheme::SelectedData,
            MaskPattern::LowerTriangular,
        );
    }

    #[test]
    fn red2_matches_oracle() {
        check(
            &[32],
            &[4],
            RedistScheme::WholeArrays,
            MaskPattern::Random {
                density: 0.7,
                seed: 4,
            },
        );
        check(
            &[8, 8],
            &[2, 2],
            RedistScheme::WholeArrays,
            MaskPattern::Random {
                density: 0.9,
                seed: 1,
            },
        );
    }

    #[test]
    fn empty_mask_is_fine() {
        check(&[16], &[4], RedistScheme::SelectedData, MaskPattern::Empty);
        check(&[16], &[4], RedistScheme::WholeArrays, MaskPattern::Empty);
    }

    #[test]
    fn labels() {
        assert_eq!(RedistScheme::SelectedData.label(), "Red. 1");
        assert_eq!(RedistScheme::WholeArrays.label(), "Red. 2");
    }

    /// Red.1's traffic scales with the selected count; Red.2's does not.
    #[test]
    fn red1_volume_tracks_density() {
        let words_for = |density: f64, scheme: RedistScheme| {
            let grid = ProcGrid::line(4);
            let desc = ArrayDesc::new(&[64], &grid, &[Dist::Cyclic]).unwrap();
            let pattern = MaskPattern::Random { density, seed: 6 };
            let machine = Machine::new(grid.clone(), CostModel::cm5());
            let desc_ref = &desc;
            machine
                .run(move |proc| {
                    let a = hpf_distarray::local_from_fn(desc_ref, proc.id(), |g| g[0] as i32);
                    let m = pattern.local(desc_ref, proc.id());
                    pack_redistributed(proc, desc_ref, &a, &m, scheme, &PackOptions::default())
                        .unwrap();
                })
                .total_words_sent()
        };
        assert!(
            words_for(0.1, RedistScheme::SelectedData) < words_for(0.9, RedistScheme::SelectedData)
        );
        // Red.2 moves everything regardless; only the PACK-stage traffic
        // (packed values) grows with density, so the *difference* between
        // densities is much smaller than for the values themselves.
        let lo = words_for(0.1, RedistScheme::WholeArrays);
        let hi = words_for(0.9, RedistScheme::WholeArrays);
        assert!(
            hi < lo * 2,
            "Red.2 volume should be dominated by the fixed whole-array move"
        );
    }
}
