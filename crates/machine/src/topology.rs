//! Logical processor grids.
//!
//! The paper distributes a rank-`d` array over logical processors
//! `Pn(P_{d-1}, …, P_1, P_0)`. Following the paper's row-major convention,
//! dimension 0 is the *fastest varying*: processor `(p_{d-1}, …, p_0)` has
//! linear id `Σ p_i · Π_{k<i} P_k`. Internally we store per-dimension extents
//! indexed by the paper's dimension number, so `dims[0]` is the innermost
//! dimension.

use std::fmt;

/// A `d`-dimensional logical processor grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcGrid {
    /// Extent of each grid dimension, `dims[i] = P_i` (dimension 0 innermost).
    dims: Vec<usize>,
    /// `strides[i] = Π_{k<i} P_k`: weight of coordinate `i` in the linear id.
    strides: Vec<usize>,
    nprocs: usize,
}

impl ProcGrid {
    /// Build a grid from per-dimension extents (`dims[0]` = dimension 0,
    /// the innermost/fastest-varying dimension).
    ///
    /// # Panics
    /// Panics if `dims` is empty or any extent is zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            !dims.is_empty(),
            "processor grid needs at least one dimension"
        );
        assert!(
            dims.iter().all(|&p| p > 0),
            "all grid extents must be positive"
        );
        let mut strides = Vec::with_capacity(dims.len());
        let mut acc = 1usize;
        for &p in dims {
            strides.push(acc);
            acc = acc.checked_mul(p).expect("processor count overflow");
        }
        ProcGrid {
            dims: dims.to_vec(),
            strides,
            nprocs: acc,
        }
    }

    /// A one-dimensional grid of `p` processors.
    pub fn line(p: usize) -> Self {
        Self::new(&[p])
    }

    /// Total processor count `P = Π P_i`.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Grid rank (number of dimensions).
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Extent `P_i` of dimension `i`.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// All extents, innermost first.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Coordinates of processor `id`, innermost dimension first.
    pub fn coords(&self, id: usize) -> Vec<usize> {
        debug_assert!(id < self.nprocs);
        self.dims
            .iter()
            .zip(&self.strides)
            .map(|(&p, &s)| (id / s) % p)
            .collect()
    }

    /// Coordinate of processor `id` along dimension `i` only.
    #[inline]
    pub fn coord(&self, id: usize, i: usize) -> usize {
        (id / self.strides[i]) % self.dims[i]
    }

    /// Linear id of the processor at `coords` (innermost first).
    pub fn id(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.dims.len());
        coords
            .iter()
            .zip(self.dims.iter().zip(&self.strides))
            .map(|(&c, (&p, &s))| {
                debug_assert!(c < p, "coordinate {c} out of range for extent {p}");
                c * s
            })
            .sum()
    }

    /// The global ids of all processors that share every coordinate of
    /// processor `id` except along dimension `dim`, in increasing coordinate
    /// order. This is the communicator for dimension-`dim` collectives; the
    /// position of `id` within the returned list equals `coord(id, dim)`.
    pub(crate) fn axis_members(&self, id: usize, dim: usize) -> Vec<usize> {
        let my = self.coord(id, dim);
        let base = id - my * self.strides[dim];
        (0..self.dims[dim])
            .map(|c| base + c * self.strides[dim])
            .collect()
    }
}

impl fmt::Display for ProcGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper order: outermost first, e.g. "4x4".
        let parts: Vec<String> = self.dims.iter().rev().map(|p| p.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_grid_roundtrip() {
        let g = ProcGrid::line(7);
        assert_eq!(g.nprocs(), 7);
        for id in 0..7 {
            assert_eq!(g.coords(id), vec![id]);
            assert_eq!(g.id(&[id]), id);
        }
    }

    #[test]
    fn two_d_grid_id_formula_is_row_major_with_dim0_innermost() {
        // dims = [P0=4, P1=3]: id = p0 + 4*p1
        let g = ProcGrid::new(&[4, 3]);
        assert_eq!(g.nprocs(), 12);
        assert_eq!(g.id(&[2, 1]), 6);
        assert_eq!(g.coords(6), vec![2, 1]);
        assert_eq!(g.coord(6, 0), 2);
        assert_eq!(g.coord(6, 1), 1);
    }

    #[test]
    fn coords_id_roundtrip_3d() {
        let g = ProcGrid::new(&[2, 3, 4]);
        for id in 0..g.nprocs() {
            assert_eq!(g.id(&g.coords(id)), id);
        }
    }

    #[test]
    fn axis_members_vary_one_coordinate() {
        let g = ProcGrid::new(&[4, 3]);
        let id = g.id(&[2, 1]);
        // Along dim 0: same p1=1, p0 = 0..4
        assert_eq!(g.axis_members(id, 0), vec![4, 5, 6, 7]);
        // Along dim 1: same p0=2, p1 = 0..3
        assert_eq!(g.axis_members(id, 1), vec![2, 6, 10]);
        // My position in the axis list equals my coordinate.
        assert_eq!(g.axis_members(id, 0)[g.coord(id, 0)], id);
        assert_eq!(g.axis_members(id, 1)[g.coord(id, 1)], id);
    }

    #[test]
    fn display_is_outermost_first() {
        assert_eq!(ProcGrid::new(&[4, 16]).to_string(), "16x4");
        assert_eq!(ProcGrid::line(16).to_string(), "16");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        ProcGrid::new(&[4, 0]);
    }
}
