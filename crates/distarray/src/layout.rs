//! Per-dimension block-cyclic layout arithmetic — the paper's Section 3
//! symbols made executable.
//!
//! For dimension `i` with global extent `N_i`, `P_i` processors and block
//! size `W_i`, the derived quantities are:
//!
//! * `L_i = N_i / P_i` — local extent per processor,
//! * `S_i = P_i · W_i` — *tile* size (one tile = `P_i` consecutive blocks,
//!   mapped one block to each processor),
//! * `T_i = N_i / S_i = L_i / W_i` — number of tiles, equal to the number of
//!   blocks each processor holds.
//!
//! The paper assumes `P_i | N_i`, `W_i | N_i`, and `P_i·W_i | N_i`
//! ([`DimLayout::new_divisible`]); [`DimLayout::new_general`] drops the
//! assumption for the redistribution substrate.

use std::fmt;

use crate::dist::Dist;

/// Error constructing a layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// Extent, processor count, or block size was zero.
    ZeroParameter {
        /// The offending parameter's name.
        what: &'static str,
    },
    /// The paper's divisibility assumption `P·W | N` does not hold.
    NotDivisible {
        /// Global extent.
        n: usize,
        /// Processor count.
        p: usize,
        /// Block size.
        w: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::ZeroParameter { what } => write!(f, "{what} must be positive"),
            LayoutError::NotDivisible { n, p, w } => write!(
                f,
                "block-cyclic layout requires P*W | N (got N={n}, P={p}, W={w}, tile={})",
                p * w
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Block-cyclic layout of one dimension: `N` elements over `P` processors
/// with block size `W`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimLayout {
    n: usize,
    p: usize,
    w: usize,
}

impl DimLayout {
    /// Layout under the paper's divisibility assumption `P·W | N`.
    pub fn new_divisible(n: usize, p: usize, w: usize) -> Result<Self, LayoutError> {
        let l = Self::new_general(n, p, w)?;
        if !n.is_multiple_of(p * w) {
            return Err(LayoutError::NotDivisible { n, p, w });
        }
        Ok(l)
    }

    /// General layout: any positive `n`, `p`, `w`.
    pub fn new_general(n: usize, p: usize, w: usize) -> Result<Self, LayoutError> {
        if n == 0 {
            return Err(LayoutError::ZeroParameter { what: "extent N" });
        }
        if p == 0 {
            return Err(LayoutError::ZeroParameter {
                what: "processor count P",
            });
        }
        if w == 0 {
            return Err(LayoutError::ZeroParameter {
                what: "block size W",
            });
        }
        Ok(DimLayout { n, p, w })
    }

    /// Layout from a [`Dist`] kind (divisibility enforced, as the paper's
    /// algorithms require).
    pub fn from_dist(n: usize, p: usize, dist: Dist) -> Result<Self, LayoutError> {
        Self::new_divisible(n, p, dist.block_size(n, p))
    }

    /// Like [`Self::from_dist`] but without the divisibility requirement.
    pub fn from_dist_general(n: usize, p: usize, dist: Dist) -> Result<Self, LayoutError> {
        Self::new_general(n, p, dist.block_size(n, p))
    }

    /// Global extent `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Processor count `P` along this dimension.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Block size `W`.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Tile size `S = P·W`.
    #[inline]
    pub fn s(&self) -> usize {
        self.p * self.w
    }

    /// Number of tiles `T = ⌈N / S⌉` (exactly `N/S` in the divisible case);
    /// also the number of blocks per processor.
    #[inline]
    pub fn t(&self) -> usize {
        self.n.div_ceil(self.s())
    }

    /// Local extent `L = N / P` in the divisible case.
    ///
    /// For general layouts this is the *maximum* local extent, `T·W`.
    #[inline]
    pub fn l(&self) -> usize {
        if self.n.is_multiple_of(self.p * self.w) {
            self.n / self.p
        } else {
            self.t() * self.w
        }
    }

    /// True iff the paper's assumption `P·W | N` holds.
    #[inline]
    pub fn divisible(&self) -> bool {
        self.n.is_multiple_of(self.s())
    }

    /// Exact number of elements owned by processor coordinate `c`.
    pub fn local_len(&self, c: usize) -> usize {
        debug_assert!(c < self.p);
        let full_tiles = self.n / self.s();
        let rem = self.n % self.s();
        let extra = rem.saturating_sub(c * self.w).min(self.w);
        full_tiles * self.w + extra
    }

    /// Owning processor coordinate of global index `g`: `(g / W) mod P`.
    #[inline]
    pub fn owner(&self, g: usize) -> usize {
        debug_assert!(g < self.n);
        (g / self.w) % self.p
    }

    /// Local index of global index `g` on its owner:
    /// `(g / (W·P))·W + (g mod W)`.
    #[inline]
    pub fn local_of(&self, g: usize) -> usize {
        (g / self.s()) * self.w + (g % self.w)
    }

    /// Global index of local index `l` on processor coordinate `c`:
    /// inverse of (`owner`, `local_of`).
    #[inline]
    pub fn global_of(&self, c: usize, l: usize) -> usize {
        let tile = l / self.w;
        let off = l % self.w;
        (tile * self.p + c) * self.w + off
    }

    /// Tile number of local index `l`: `l div W` (Section 5.4 uses this to
    /// address the final base-rank array).
    #[inline]
    pub fn tile_of_local(&self, l: usize) -> usize {
        l / self.w
    }
}

impl fmt::Display for DimLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N={} over P={} cyclic({})", self.n, self.p, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_symbols() {
        // N=16, P=4, W=2: L=4, S=8, T=2 (the Figure 1 example).
        let d = DimLayout::new_divisible(16, 4, 2).unwrap();
        assert_eq!(d.l(), 4);
        assert_eq!(d.s(), 8);
        assert_eq!(d.t(), 2);
        assert!(d.divisible());
    }

    #[test]
    fn figure1_ownership() {
        // Block-cyclic(2) over 4 procs: global 0..16 owned as
        // 0011223300112233.
        let d = DimLayout::new_divisible(16, 4, 2).unwrap();
        let owners: Vec<usize> = (0..16).map(|g| d.owner(g)).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn global_local_roundtrip_divisible() {
        let d = DimLayout::new_divisible(24, 3, 4).unwrap();
        for g in 0..24 {
            let c = d.owner(g);
            let l = d.local_of(g);
            assert_eq!(d.global_of(c, l), g);
            assert!(l < d.local_len(c));
        }
    }

    #[test]
    fn global_local_roundtrip_general() {
        // 17 elements, 3 procs, blocks of 2 — not divisible.
        let d = DimLayout::new_general(17, 3, 2).unwrap();
        assert!(!d.divisible());
        let mut per_proc = [0usize; 3];
        for g in 0..17 {
            let c = d.owner(g);
            let l = d.local_of(g);
            assert_eq!(d.global_of(c, l), g);
            per_proc[c] += 1;
        }
        for (c, &got) in per_proc.iter().enumerate() {
            assert_eq!(got, d.local_len(c), "coord {c}");
        }
        assert_eq!(per_proc.iter().sum::<usize>(), 17);
    }

    #[test]
    fn block_dist_owner_is_contiguous() {
        let d = DimLayout::from_dist(16, 4, Dist::Block).unwrap();
        assert_eq!(d.w(), 4);
        assert_eq!(d.t(), 1);
        for g in 0..16 {
            assert_eq!(d.owner(g), g / 4);
            assert_eq!(d.local_of(g), g % 4);
        }
    }

    #[test]
    fn cyclic_dist_deals_round_robin() {
        let d = DimLayout::from_dist(12, 4, Dist::Cyclic).unwrap();
        assert_eq!(d.w(), 1);
        assert_eq!(d.t(), 3);
        for g in 0..12 {
            assert_eq!(d.owner(g), g % 4);
            assert_eq!(d.local_of(g), g / 4);
        }
    }

    #[test]
    fn divisibility_violation_is_reported() {
        let err = DimLayout::new_divisible(16, 4, 3).unwrap_err();
        assert!(matches!(err, LayoutError::NotDivisible { .. }));
        assert!(err.to_string().contains("16"));
    }

    #[test]
    fn zero_parameters_rejected() {
        assert!(DimLayout::new_general(0, 1, 1).is_err());
        assert!(DimLayout::new_general(1, 0, 1).is_err());
        assert!(DimLayout::new_general(1, 1, 0).is_err());
    }

    #[test]
    fn general_block_distribution_of_awkward_size() {
        // HPF BLOCK of 10 over 4: blocks of ceil(10/4)=3 -> 3,3,3,1.
        let d = DimLayout::from_dist_general(10, 4, Dist::Block).unwrap();
        assert_eq!(
            (0..4).map(|c| d.local_len(c)).collect::<Vec<_>>(),
            vec![3, 3, 3, 1]
        );
        assert_eq!(d.owner(9), 3);
    }
}
