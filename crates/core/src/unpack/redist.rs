//! UNPACK with a preliminary redistribution — Section 6.3's negative
//! result, kept as a measurable ablation.

use hpf_distarray::{ArrayDesc, DimLayout};
use hpf_machine::{Proc, Wire};

use crate::error::UnpackError;
use crate::schemes::UnpackOptions;

/// UNPACK with a preliminary cyclic→block redistribution — implemented to
/// *demonstrate* Section 6.3's observation that this is "not a feasible
/// option for UNPACK": because UNPACK is a READ whose result array must
/// come back in the original distribution, it takes two redistributions on
/// top of the mask/field moves (`M` and `F` forward, the result `A` back),
/// and the added cost routinely outweighs the ranking savings. The
/// `ablations` bench quantifies exactly that.
pub fn unpack_redistributed<T: Wire + Default>(
    proc: &mut Proc,
    desc: &ArrayDesc,
    m_local: &[bool],
    f_local: &[T],
    v_local: &[T],
    v_layout: &DimLayout,
    opts: &UnpackOptions,
) -> Result<Vec<T>, UnpackError> {
    use hpf_distarray::{redistribute, Dist};

    // Validate against the original layout first (collective).
    super::validate(proc, desc, m_local, f_local, v_local, v_layout)?;

    let shape = desc.shape();
    let dists = vec![Dist::Block; desc.ndims()];
    let block_desc = ArrayDesc::new(&shape, desc.grid(), &dists)
        .expect("block layout of a divisible descriptor");

    // Forward moves: M and F to the block layout.
    let m_tmp = redistribute(proc, desc, &block_desc, m_local, opts.schedule);
    let f_tmp = redistribute(proc, desc, &block_desc, f_local, opts.schedule);

    // UNPACK on the block layout (minimal ranking overhead).
    let a_tmp = super::unpack(proc, &block_desc, &m_tmp, &f_tmp, v_local, v_layout, opts)?;

    // Backward move: the result array must return in its original
    // distribution (UNPACK is a READ; the caller keeps computing on `desc`).
    Ok(redistribute(proc, &block_desc, desc, &a_tmp, opts.schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskPattern;
    use hpf_distarray::Dist;
    use hpf_machine::{Category, CostModel, Machine, ProcGrid};

    /// The infeasible-by-design redistributed UNPACK still computes the
    /// right answer — the point is that it costs more, not that it breaks.
    #[test]
    fn unpack_redistributed_matches_plain_unpack() {
        use super::super::unpack;
        let shape = [24usize];
        let grid = ProcGrid::line(4);
        let desc = ArrayDesc::new(&shape, &grid, &[Dist::Cyclic]).unwrap();
        let pattern = MaskPattern::Random {
            density: 0.5,
            seed: 19,
        };
        let size = pattern.global(&shape).data().iter().filter(|&&b| b).count();
        let v_layout = DimLayout::new_general(size.max(1), 4, size.div_ceil(4).max(1)).unwrap();
        let machine = Machine::new(grid, CostModel::cm5());
        let (d, vl) = (&desc, &v_layout);
        let out = machine.run(move |proc| {
            let m = pattern.local(d, proc.id());
            let f = vec![-3i32; d.local_len(proc.id())];
            let v: Vec<i32> = (0..vl.local_len(proc.id()))
                .map(|l| vl.global_of(proc.id(), l) as i32)
                .collect();
            let plain = unpack(proc, d, &m, &f, &v, vl, &UnpackOptions::default()).unwrap();
            let redist =
                unpack_redistributed(proc, d, &m, &f, &v, vl, &UnpackOptions::default()).unwrap();
            (plain, redist)
        });
        let mut redist_charged = false;
        for c in &out.clocks {
            redist_charged |= c.cat_ms(Category::RedistComm) > 0.0;
        }
        assert!(redist_charged, "redistribution must have been charged");
        for (p, (plain, redist)) in out.results.iter().enumerate() {
            assert_eq!(plain, redist, "proc {p}");
        }
    }
}
