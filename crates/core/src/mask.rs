//! Mask-array generation matching Section 7's experimental setup.
//!
//! The paper drives PACK/UNPACK with five random masks (density 10%, 30%,
//! 50%, 70%, 90%) and one structured mask: in one dimension, true iff the
//! global index is below `N/2`; in two dimensions, true iff the dimension-1
//! index exceeds the dimension-0 index (labelled "LT" in Table I).
//!
//! Random masks are generated *pointwise* from a seeded hash of the global
//! index, so every processor can materialise its local portion without
//! communication and all schemes see bit-identical masks.

use hpf_distarray::{ArrayDesc, GlobalArray};

/// A reproducible mask pattern over a given array shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaskPattern {
    /// Every element selected.
    Full,
    /// No element selected.
    Empty,
    /// Bernoulli(density) per element, from `seed`. Density in `[0, 1]`.
    Random {
        /// Selection probability per element.
        density: f64,
        /// RNG seed; different seeds give independent masks.
        seed: u64,
    },
    /// 1-D: true iff the global index is `< N/2` (the paper's structured
    /// 1-D mask).
    FirstHalf,
    /// 2-D: true iff the global index on dimension 1 is larger than the
    /// global index on dimension 0 (the paper's structured 2-D mask, "LT").
    LowerTriangular,
}

/// SplitMix64 — a tiny, high-quality 64-bit mixer; deterministic pointwise
/// mask generation needs nothing more.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl MaskPattern {
    /// Evaluate the mask at a global multi-index (`gidx[0]` is dimension 0).
    ///
    /// # Panics
    /// Panics if `FirstHalf` is used on a non-1-D shape or
    /// `LowerTriangular` on a non-2-D shape.
    pub fn value(&self, gidx: &[usize], shape: &[usize]) -> bool {
        match *self {
            MaskPattern::Full => true,
            MaskPattern::Empty => false,
            MaskPattern::Random { density, seed } => {
                let mut lin = 0u64;
                let mut stride = 1u64;
                for (&i, &n) in gidx.iter().zip(shape) {
                    lin += i as u64 * stride;
                    stride *= n as u64;
                }
                let h = splitmix64(seed ^ splitmix64(lin.wrapping_add(1)));
                // Top 53 bits -> uniform in [0, 1).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                u < density
            }
            MaskPattern::FirstHalf => {
                assert_eq!(gidx.len(), 1, "FirstHalf is a 1-D pattern");
                gidx[0] < shape[0] / 2
            }
            MaskPattern::LowerTriangular => {
                assert_eq!(gidx.len(), 2, "LowerTriangular is a 2-D pattern");
                gidx[1] > gidx[0]
            }
        }
    }

    /// Materialise the full mask as a dense [`GlobalArray`] (harness side).
    pub fn global(&self, shape: &[usize]) -> GlobalArray<bool> {
        GlobalArray::from_fn(shape, |idx| self.value(idx, shape))
    }

    /// Materialise processor `proc_id`'s local portion under `desc`.
    pub fn local(&self, desc: &ArrayDesc, proc_id: usize) -> Vec<bool> {
        let shape = desc.shape();
        hpf_distarray::local_from_fn(desc, proc_id, |gidx| self.value(gidx, &shape))
    }

    /// The paper's five random densities.
    pub const DENSITIES: [f64; 5] = [0.10, 0.30, 0.50, 0.70, 0.90];

    /// Short label for tables ("10%", …, "LT").
    pub fn label(&self) -> String {
        match *self {
            MaskPattern::Full => "100%".into(),
            MaskPattern::Empty => "0%".into(),
            MaskPattern::Random { density, .. } => format!("{:.0}%", density * 100.0),
            MaskPattern::FirstHalf => "LT".into(),
            MaskPattern::LowerTriangular => "LT".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_distarray::Dist;
    use hpf_machine::ProcGrid;

    #[test]
    fn random_density_is_approximately_honoured() {
        let shape = [256, 64];
        for density in MaskPattern::DENSITIES {
            let m = MaskPattern::Random { density, seed: 42 }.global(&shape);
            let trues = m.data().iter().filter(|&&b| b).count();
            let got = trues as f64 / m.len() as f64;
            assert!(
                (got - density).abs() < 0.02,
                "density {density}: got {got} over {} elements",
                m.len()
            );
        }
    }

    #[test]
    fn random_is_deterministic_and_seed_sensitive() {
        let p = MaskPattern::Random {
            density: 0.5,
            seed: 1,
        };
        let a = p.global(&[128]);
        let b = p.global(&[128]);
        assert_eq!(a, b);
        let c = MaskPattern::Random {
            density: 0.5,
            seed: 2,
        }
        .global(&[128]);
        assert_ne!(a, c);
    }

    #[test]
    fn local_matches_global_partition() {
        let grid = ProcGrid::new(&[2, 2]);
        let desc = ArrayDesc::new(&[8, 8], &grid, &[Dist::BlockCyclic(2), Dist::Cyclic]).unwrap();
        let p = MaskPattern::Random {
            density: 0.3,
            seed: 7,
        };
        let global = p.global(&[8, 8]);
        let parts = global.partition(&desc);
        for (proc, want) in parts.iter().enumerate() {
            assert_eq!(&p.local(&desc, proc), want, "proc {proc}");
        }
    }

    #[test]
    fn first_half_selects_exactly_half() {
        let m = MaskPattern::FirstHalf.global(&[64]);
        assert_eq!(m.data().iter().filter(|&&b| b).count(), 32);
        assert!(m.get(&[31]));
        assert!(!m.get(&[32]));
    }

    #[test]
    fn lower_triangular_is_strict() {
        let m = MaskPattern::LowerTriangular.global(&[4, 4]);
        // true iff i1 > i0: strictly below the diagonal in (i1, i0) terms.
        assert_eq!(m.data().iter().filter(|&&b| b).count(), 6);
        assert!(m.get(&[0, 1]));
        assert!(!m.get(&[1, 1]));
        assert!(!m.get(&[2, 1]));
    }

    #[test]
    fn full_and_empty() {
        assert!(MaskPattern::Full.global(&[8]).data().iter().all(|&b| b));
        assert!(MaskPattern::Empty.global(&[8]).data().iter().all(|&b| !b));
    }
}
