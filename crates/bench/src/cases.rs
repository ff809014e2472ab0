//! Seeded random cases for the differential drivers (`fuzz`, `chaos`): one
//! generator, one way to draw a layout and an UNPACK input, one way to
//! gather a packed vector.

use hpf_core::PackOutput;
use hpf_distarray::{ArrayDesc, DimLayout, Dist};
use hpf_machine::{ProcGrid, RunOutput};

/// SplitMix64 for reproducible pseudo-random draws.
#[derive(Debug)]
pub struct Rng(pub u64);

impl Rng {
    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw in `[0, hi]`.
    pub fn prob(&mut self, hi: f64) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * hi
    }
}

/// A random block-cyclic array of rank `1..=max_rank`: per dimension
/// `(P, W, T)` each in `1..=3` and extent `P·W·T`, so `P·W | N` everywhere.
pub fn random_array(rng: &mut Rng, max_rank: usize) -> (ProcGrid, ArrayDesc) {
    let rank = 1 + rng.below(max_rank);
    let (mut grid_dims, mut dists, mut shape) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rank {
        let (p, w, t) = (1 + rng.below(3), 1 + rng.below(3), 1 + rng.below(3));
        grid_dims.push(p);
        dists.push(Dist::BlockCyclic(w));
        shape.push(p * w * t);
    }
    let grid = ProcGrid::new(&grid_dims);
    let desc = ArrayDesc::new(&shape, &grid, &dists).expect("P*W divides N by construction");
    (grid, desc)
}

/// A random UNPACK input for a mask that selects `size` elements: a vector
/// `7000, 7001, …` of up to three spare elements, block-cyclic over `nprocs`
/// in blocks of `1..=6`. Returns the vector, its layout and its local parts.
pub fn random_vector(
    rng: &mut Rng,
    size: usize,
    nprocs: usize,
) -> (Vec<i32>, DimLayout, Vec<Vec<i32>>) {
    let n_prime = (size + rng.below(4)).max(1);
    let w_prime = 1 + rng.below(6);
    let v: Vec<i32> = (0..n_prime as i32).map(|i| 7000 + i).collect();
    let layout = DimLayout::new_general(n_prime, nprocs, w_prime).expect("a vector layout");
    let locals = (0..nprocs)
        .map(|p| {
            (0..layout.local_len(p))
                .map(|l| v[layout.global_of(p, l)])
                .collect()
        })
        .collect();
    (v, layout, locals)
}

/// Gather a distributed PACK result into the global vector.
pub fn assemble_packed(out: &RunOutput<PackOutput<i32>>) -> Vec<i32> {
    let mut got = vec![0i32; out.results[0].size];
    if let Some(layout) = out.results[0].v_layout {
        for (p, r) in out.results.iter().enumerate() {
            for (l, &x) in r.local_v.iter().enumerate() {
                got[layout.global_of(p, l)] = x;
            }
        }
    }
    got
}
