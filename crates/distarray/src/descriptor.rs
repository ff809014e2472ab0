//! Descriptors tying an array shape to a processor grid and per-dimension
//! distributions.

use std::fmt;

use hpf_machine::ProcGrid;

use crate::dist::Dist;
use crate::index::{delinearize, linearize, volume};
use crate::layout::{DimLayout, LayoutError};

/// Error constructing an [`ArrayDesc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DescError {
    /// Array rank and grid rank differ.
    RankMismatch {
        /// Array rank.
        array: usize,
        /// Grid rank.
        grid: usize,
    },
    /// A per-dimension layout failed to build.
    Layout {
        /// The dimension at fault.
        dim: usize,
        /// The underlying layout error.
        source: LayoutError,
    },
}

impl fmt::Display for DescError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescError::RankMismatch { array, grid } => {
                write!(
                    f,
                    "array rank {array} does not match processor grid rank {grid}"
                )
            }
            DescError::Layout { dim, source } => write!(f, "dimension {dim}: {source}"),
        }
    }
}

impl std::error::Error for DescError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DescError::Layout { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Descriptor of a rank-`d` array of shape `(N_{d-1}, …, N_0)` distributed
/// block-cyclic `(W_{d-1}, …, W_0)` over a logical grid
/// `(P_{d-1}, …, P_0)`. All per-dimension slices are indexed with dimension 0
/// (the fastest-varying) first, matching the paper's row-major convention.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDesc {
    dims: Vec<DimLayout>,
    grid: ProcGrid,
}

impl ArrayDesc {
    /// Descriptor under the paper's divisibility assumptions
    /// (`P_i·W_i | N_i` on every dimension).
    pub fn new(shape: &[usize], grid: &ProcGrid, dists: &[Dist]) -> Result<Self, DescError> {
        Self::build(shape, grid, dists, true)
    }

    /// Descriptor without divisibility requirements (for the general
    /// redistribution substrate).
    pub fn new_general(
        shape: &[usize],
        grid: &ProcGrid,
        dists: &[Dist],
    ) -> Result<Self, DescError> {
        Self::build(shape, grid, dists, false)
    }

    fn build(
        shape: &[usize],
        grid: &ProcGrid,
        dists: &[Dist],
        divisible: bool,
    ) -> Result<Self, DescError> {
        if shape.len() != grid.ndims() || dists.len() != grid.ndims() {
            return Err(DescError::RankMismatch {
                array: shape.len(),
                grid: grid.ndims(),
            });
        }
        let mut dims = Vec::with_capacity(shape.len());
        for (i, (&n, &dist)) in shape.iter().zip(dists).enumerate() {
            let layout = if divisible {
                DimLayout::from_dist(n, grid.dim(i), dist)
            } else {
                DimLayout::from_dist_general(n, grid.dim(i), dist)
            }
            .map_err(|source| DescError::Layout { dim: i, source })?;
            dims.push(layout);
        }
        Ok(ArrayDesc {
            dims,
            grid: grid.clone(),
        })
    }

    /// Array rank `d`.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// The layout of dimension `i`.
    #[inline]
    pub fn dim(&self, i: usize) -> &DimLayout {
        &self.dims[i]
    }

    /// The processor grid.
    #[inline]
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// Global shape, dimension 0 first.
    pub fn shape(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.n()).collect()
    }

    /// Global element count `N = Π N_i`.
    pub fn global_len(&self) -> usize {
        self.dims.iter().map(|d| d.n()).product()
    }

    /// True iff every dimension satisfies the paper's divisibility
    /// assumption.
    pub fn divisible(&self) -> bool {
        self.dims.iter().all(|d| d.divisible())
    }

    /// Local shape on processor `proc_id`, dimension 0 first.
    ///
    /// In the divisible case this is `(L_{d-1}, …, L_0)`, identical on every
    /// processor.
    pub fn local_shape(&self, proc_id: usize) -> Vec<usize> {
        self.dims
            .iter()
            .enumerate()
            .map(|(i, d)| d.local_len(self.grid.coord(proc_id, i)))
            .collect()
    }

    /// Local element count `L` on processor `proc_id`.
    pub fn local_len(&self, proc_id: usize) -> usize {
        volume(&self.local_shape(proc_id))
    }

    /// Owner processor id and local linear index of the element at global
    /// multi-index `gidx`.
    pub fn owner_of(&self, gidx: &[usize]) -> (usize, usize) {
        debug_assert_eq!(gidx.len(), self.ndims());
        let mut coords = Vec::with_capacity(self.ndims());
        let mut lidx = Vec::with_capacity(self.ndims());
        for (d, &g) in self.dims.iter().zip(gidx) {
            coords.push(d.owner(g));
            lidx.push(d.local_of(g));
        }
        let proc = self.grid.id(&coords);
        let lin = linearize(&lidx, &self.local_shape(proc));
        (proc, lin)
    }

    /// Owner of a global *linear* index.
    pub fn owner_of_linear(&self, glin: usize) -> (usize, usize) {
        self.owner_of(&delinearize(glin, &self.shape()))
    }

    /// Global multi-index of the element at local linear index `llin` on
    /// processor `proc_id`. Inverse of [`Self::owner_of`].
    pub fn global_of_local(&self, proc_id: usize, llin: usize) -> Vec<usize> {
        let lshape = self.local_shape(proc_id);
        let lidx = delinearize(llin, &lshape);
        self.dims
            .iter()
            .enumerate()
            .map(|(i, d)| d.global_of(self.grid.coord(proc_id, i), lidx[i]))
            .collect()
    }

    /// Global linear index of a global multi-index.
    #[inline]
    pub fn global_linear(&self, gidx: &[usize]) -> usize {
        debug_assert_eq!(gidx.len(), self.dims.len());
        let (mut lin, mut stride) = (0, 1);
        for (&i, d) in gidx.iter().zip(&self.dims) {
            debug_assert!(i < d.n(), "index {i} out of bounds {}", d.n());
            lin += i * stride;
            stride *= d.n();
        }
        lin
    }

    /// Visit every local slot of processor `proc_id` in local linear order,
    /// passing `(local_linear, global_multi_index)` — without allocating per
    /// element.
    ///
    /// This is the hot path of communication detection (redistribution,
    /// shifts, spreads): an odometer increments the local multi-index and
    /// updates the matching global index incrementally, replacing the
    /// per-element `delinearize` + per-dimension `global_of` arithmetic of
    /// [`Self::global_of_local`].
    pub fn for_each_local_global(&self, proc_id: usize, mut f: impl FnMut(usize, &[usize])) {
        let d = self.ndims();
        let lshape = self.local_shape(proc_id);
        let total: usize = lshape.iter().product();
        if total == 0 {
            return;
        }
        let coords: Vec<usize> = (0..d).map(|i| self.grid.coord(proc_id, i)).collect();
        let mut lidx = vec![0usize; d];
        let mut gidx: Vec<usize> = (0..d)
            .map(|i| self.dims[i].global_of(coords[i], 0))
            .collect();
        for lin in 0..total {
            f(lin, &gidx);
            // Odometer step: bump dimension 0, carrying upward.
            for i in 0..d {
                lidx[i] += 1;
                if lidx[i] < lshape[i] {
                    // Within a block the global index steps by 1; crossing a
                    // block boundary jumps over the other processors' blocks.
                    gidx[i] = if lidx[i].is_multiple_of(self.dims[i].w()) {
                        self.dims[i].global_of(coords[i], lidx[i])
                    } else {
                        gidx[i] + 1
                    };
                    break;
                }
                lidx[i] = 0;
                gidx[i] = self.dims[i].global_of(coords[i], 0);
            }
        }
    }
}

impl fmt::Display for ArrayDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper order: outermost dimension first, e.g. "512x512 on 4x4 cyclic(8),cyclic(8)".
        let shape: Vec<String> = self.dims.iter().rev().map(|d| d.n().to_string()).collect();
        let dists: Vec<String> = self
            .dims
            .iter()
            .rev()
            .map(|d| format!("cyclic({})", d.w()))
            .collect();
        write!(
            f,
            "{} on {} [{}]",
            shape.join("x"),
            self.grid,
            dists.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc_2d() -> ArrayDesc {
        // Shape (N1=8, N0=8) on a 2x2 grid, cyclic(2) both dims.
        ArrayDesc::new(&[8, 8], &ProcGrid::new(&[2, 2]), &[Dist::BlockCyclic(2); 2]).unwrap()
    }

    #[test]
    fn local_shapes_are_uniform_when_divisible() {
        let d = desc_2d();
        assert!(d.divisible());
        for p in 0..4 {
            assert_eq!(d.local_shape(p), vec![4, 4]);
            assert_eq!(d.local_len(p), 16);
        }
        assert_eq!(d.global_len(), 64);
    }

    #[test]
    fn owner_of_and_back_roundtrip() {
        let d = desc_2d();
        for g1 in 0..8 {
            for g0 in 0..8 {
                let (proc, lin) = d.owner_of(&[g0, g1]);
                assert_eq!(d.global_of_local(proc, lin), vec![g0, g1]);
            }
        }
    }

    #[test]
    fn every_local_slot_is_owned_exactly_once() {
        let d = ArrayDesc::new_general(
            &[10, 6],
            &ProcGrid::new(&[2, 3]),
            &[Dist::BlockCyclic(3), Dist::Cyclic],
        )
        .unwrap();
        let mut seen = vec![false; d.global_len()];
        for p in 0..6 {
            for l in 0..d.local_len(p) {
                let g = d.global_of_local(p, l);
                let lin = d.global_linear(&g);
                assert!(!seen[lin], "duplicate owner for {g:?}");
                seen[lin] = true;
                assert_eq!(d.owner_of(&g), (p, l));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn for_each_local_global_matches_global_of_local() {
        for desc in [
            ArrayDesc::new(&[16], &ProcGrid::line(4), &[Dist::BlockCyclic(2)]).unwrap(),
            ArrayDesc::new(
                &[8, 12],
                &ProcGrid::new(&[2, 3]),
                &[Dist::BlockCyclic(2), Dist::Cyclic],
            )
            .unwrap(),
            ArrayDesc::new(
                &[4, 4, 6],
                &ProcGrid::new(&[2, 1, 3]),
                &[Dist::Cyclic, Dist::Block, Dist::BlockCyclic(2)],
            )
            .unwrap(),
            // Non-divisible general layout.
            ArrayDesc::new_general(&[19], &ProcGrid::line(4), &[Dist::BlockCyclic(3)]).unwrap(),
        ] {
            for p in 0..desc.grid().nprocs() {
                let mut visited = 0usize;
                desc.for_each_local_global(p, |lin, gidx| {
                    assert_eq!(lin, visited);
                    assert_eq!(gidx, desc.global_of_local(p, lin).as_slice(), "proc {p}");
                    visited += 1;
                });
                assert_eq!(visited, desc.local_len(p));
            }
        }
    }

    #[test]
    fn rank_mismatch_rejected() {
        let err = ArrayDesc::new(&[8], &ProcGrid::new(&[2, 2]), &[Dist::Block]).unwrap_err();
        assert!(matches!(err, DescError::RankMismatch { .. }));
    }

    #[test]
    fn indivisible_rejected_in_paper_mode_only() {
        let g = ProcGrid::line(4);
        assert!(ArrayDesc::new(&[18], &g, &[Dist::BlockCyclic(2)]).is_err());
        assert!(ArrayDesc::new_general(&[18], &g, &[Dist::BlockCyclic(2)]).is_ok());
    }

    #[test]
    fn display_shows_paper_order() {
        let d = ArrayDesc::new(
            &[8, 16],
            &ProcGrid::new(&[2, 4]),
            &[Dist::BlockCyclic(2), Dist::BlockCyclic(1)],
        )
        .unwrap();
        assert_eq!(d.to_string(), "16x8 on 4x2 [cyclic(1),cyclic(2)]");
    }
}
