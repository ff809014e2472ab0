//! Shapes of the ranking working arrays.
//!
//! The algorithm keeps, per dimension `i`, two working arrays `PS_i` and
//! `RS_i` of shape `(L_{d-1}, …, L_{i+1}, T_i)` (paper order; innermost
//! first that is `[T_i, L_{i+1}, …, L_{d-1}]`). Stored flat and row-major,
//! every substep of Figure 2 becomes a strided loop:
//!
//! * the `PS_0` slot of the local element at local linear index `l` is
//!   simply `l / W_0` (its *slice* number), because dimension 0 is
//!   innermost and `W_0 | L_0`;
//! * the segments of the substep-2 segmented prefix are contiguous runs of
//!   `T_i · W_{i+1}` entries;
//! * the boundary cells moved to `PS_{i+1}`/`RS_{i+1}` are each segment's
//!   last entry.

use hpf_distarray::ArrayDesc;

/// Per-dimension layout quantities of the array being ranked, extracted once
/// from its descriptor (all under the paper's divisibility assumptions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankShape {
    /// Local extents `L_i`.
    pub l: Vec<usize>,
    /// Block sizes `W_i`.
    pub w: Vec<usize>,
    /// Tile counts `T_i = L_i / W_i`.
    pub t: Vec<usize>,
    /// Grid extents `P_i`.
    pub p: Vec<usize>,
}

impl RankShape {
    /// Extract from a descriptor.
    ///
    /// # Panics
    /// Panics if the descriptor violates the divisibility assumptions; the
    /// public `pack`/`unpack` entry points validate first and return a typed
    /// error instead.
    pub fn from_desc(desc: &ArrayDesc) -> Self {
        assert!(
            desc.divisible(),
            "ranking requires P_i*W_i | N_i on every dimension"
        );
        let d = desc.ndims();
        let mut shape = RankShape {
            l: Vec::with_capacity(d),
            w: Vec::with_capacity(d),
            t: Vec::with_capacity(d),
            p: Vec::with_capacity(d),
        };
        for i in 0..d {
            let dim = desc.dim(i);
            shape.l.push(dim.l());
            shape.w.push(dim.w());
            shape.t.push(dim.t());
            shape.p.push(dim.p());
        }
        shape
    }

    /// Rank `d` of the array.
    #[inline]
    pub fn d(&self) -> usize {
        self.l.len()
    }

    /// Local element count `L = Π L_i`.
    pub fn local_len(&self) -> usize {
        self.l.iter().product()
    }

    /// `Π_{k>i} L_k` — the volume of the dimensions above `i`.
    pub(crate) fn upper_vol(&self, i: usize) -> usize {
        self.l[i + 1..].iter().product()
    }

    /// Flat length of `PS_i`/`RS_i`: `T_i · Π_{k>i} L_k`.
    pub(crate) fn ps_len(&self, i: usize) -> usize {
        self.t[i] * self.upper_vol(i)
    }
}

/// Exclusive prefix sum within consecutive segments of length `seg`.
///
/// # Panics
/// Panics (debug) if `seg` does not divide the vector length.
pub fn segmented_exclusive_prefix(v: &mut [i32], seg: usize) {
    debug_assert!(
        seg > 0 && v.len().is_multiple_of(seg),
        "segment length must tile the vector"
    );
    for chunk in v.chunks_exact_mut(seg) {
        let mut acc = 0i32;
        for x in chunk {
            let cur = *x;
            *x = acc;
            acc += cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_distarray::Dist;
    use hpf_machine::ProcGrid;

    #[test]
    fn shape_quantities_match_section3() {
        // 2-D: (N1=16, N0=8) on (P1=2, P0=2), W = (4, 2).
        let desc = ArrayDesc::new(
            &[8, 16],
            &ProcGrid::new(&[2, 2]),
            &[Dist::BlockCyclic(2), Dist::BlockCyclic(4)],
        )
        .unwrap();
        let s = RankShape::from_desc(&desc);
        assert_eq!(s.l, vec![4, 8]); // L_0 = 8/2, L_1 = 16/2
        assert_eq!(s.t, vec![2, 2]); // T_0 = 8/(2*2), T_1 = 16/(2*4)
        assert_eq!(s.local_len(), 32);
        assert_eq!(s.ps_len(0), 2 * 8); // T_0 * L_1
        assert_eq!(s.ps_len(1), 2); // T_1
        assert_eq!(s.upper_vol(0), 8);
        assert_eq!(s.upper_vol(1), 1);
    }

    #[test]
    fn segmented_prefix_is_exclusive_per_segment() {
        let mut v = vec![1, 2, 3, 4, 5, 6];
        segmented_exclusive_prefix(&mut v, 3);
        assert_eq!(v, vec![0, 1, 3, 0, 4, 9]);
        let mut w = vec![5, 7];
        segmented_exclusive_prefix(&mut w, 2);
        assert_eq!(w, vec![0, 5]);
    }

    #[test]
    fn whole_vector_is_one_segment() {
        let mut v = vec![2, 2, 2, 2];
        segmented_exclusive_prefix(&mut v, 4);
        assert_eq!(v, vec![0, 2, 4, 6]);
    }
}
