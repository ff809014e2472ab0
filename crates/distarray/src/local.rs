//! A light local-array wrapper: per-processor storage with shape metadata
//! and the slice view the PACK/UNPACK kernels iterate over.
//!
//! Storage is row-major with dimension 0 fastest, mirroring the global
//! convention. Because dimension 0 is innermost and `W_0 | L_0`, a *slice*
//! (the paper's Section 5.2: a run of `W_0` consecutive dimension-0 elements
//! within one block) is simply a contiguous chunk of the backing vector, and
//! slice `k` of the local array is `data[k·W_0 .. (k+1)·W_0]`.

use crate::index::{delinearize, linearize, volume};

/// A processor-local dense array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalArray<T> {
    shape: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy> LocalArray<T> {
    /// Wrap existing row-major local data.
    ///
    /// # Panics
    /// Panics if the data length does not match the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            volume(shape),
            "data length must match local shape volume"
        );
        LocalArray {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Build from a closure over local multi-indices.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let n = volume(shape);
        let data = (0..n).map(|lin| f(&delinearize(lin, shape))).collect();
        LocalArray {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Local shape, dimension 0 first.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Element at a local multi-index.
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[linearize(idx, &self.shape)]
    }

    /// Set the element at a local multi-index.
    pub fn set(&mut self, idx: &[usize], v: T) {
        let lin = linearize(idx, &self.shape);
        self.data[lin] = v;
    }

    /// The backing row-major data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Iterate the paper's *slices*: contiguous runs of `w0` dimension-0
    /// elements. Slice `k` of processor-local data corresponds to the
    /// `PS_0`/`RS_0` slot `k`.
    ///
    /// # Panics
    /// Panics if `w0` does not divide the dimension-0 local extent.
    pub fn slices(&self, w0: usize) -> impl Iterator<Item = &[T]> {
        assert!(
            !self.shape.is_empty() && self.shape[0].is_multiple_of(w0),
            "W_0 must divide the local dimension-0 extent"
        );
        self.data.chunks_exact(w0)
    }
}

impl<T> LocalArray<T> {
    /// Local element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff there are no local elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_k_is_contiguous_chunk() {
        // Local shape (L1=2, L0=4), W0=2: 4 slices.
        let a = LocalArray::from_fn(&[4, 2], |idx| (idx[1] * 4 + idx[0]) as i32);
        let slices: Vec<&[i32]> = a.slices(2).collect();
        assert_eq!(slices, vec![&[0, 1][..], &[2, 3], &[4, 5], &[6, 7]]);
    }

    #[test]
    fn get_set() {
        let mut a = LocalArray::from_vec(&[2, 2], vec![0i32; 4]);
        a.set(&[1, 1], 5);
        assert_eq!(a.get(&[1, 1]), 5);
        assert_eq!(a.data(), &[0, 0, 0, 5]);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn slices_require_divisible_w0() {
        let a = LocalArray::from_vec(&[3], vec![0i32; 3]);
        let _ = a.slices(2).count();
    }
}
