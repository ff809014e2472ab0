//! Row-major multi-index arithmetic with the paper's dimension convention:
//! dimension 0 is the fastest-varying (innermost), so a shape slice
//! `shape[i] = N_i` linearises as `lin = Σ idx[i] · Π_{k<i} shape[k]`.

/// Linearise `idx` (innermost dimension first) against `shape`.
#[inline]
pub fn linearize(idx: &[usize], shape: &[usize]) -> usize {
    debug_assert_eq!(idx.len(), shape.len());
    let mut lin = 0;
    let mut stride = 1;
    for (i, &n) in shape.iter().enumerate() {
        debug_assert!(
            idx[i] < n,
            "index {} out of bounds {} on dim {}",
            idx[i],
            n,
            i
        );
        lin += idx[i] * stride;
        stride *= n;
    }
    lin
}

/// Inverse of [`linearize`].
#[inline]
pub fn delinearize(mut lin: usize, shape: &[usize]) -> Vec<usize> {
    let mut idx = Vec::with_capacity(shape.len());
    for &n in shape {
        idx.push(lin % n);
        lin /= n;
    }
    debug_assert_eq!(lin, 0, "linear index out of bounds");
    idx
}

/// Total element count of a shape.
#[inline]
pub fn volume(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Iterator over all multi-indices of `shape` in row-major (dimension-0
/// fastest) order.
pub struct MultiIndexIter {
    shape: Vec<usize>,
    next: usize,
    total: usize,
}

impl MultiIndexIter {
    /// Iterate the index space of `shape`.
    pub fn new(shape: &[usize]) -> Self {
        MultiIndexIter {
            shape: shape.to_vec(),
            next: 0,
            total: volume(shape),
        }
    }
}

impl Iterator for MultiIndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.next >= self.total {
            return None;
        }
        let idx = delinearize(self.next, &self.shape);
        self.next += 1;
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for MultiIndexIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_matches_paper_formula() {
        // A(i1, i0) with shape (N1=3, N0=4) stored innermost-first [4, 3]:
        // rank = i0 + i1*4.
        assert_eq!(linearize(&[2, 1], &[4, 3]), 6);
        assert_eq!(linearize(&[0, 0], &[4, 3]), 0);
        assert_eq!(linearize(&[3, 2], &[4, 3]), 11);
    }

    #[test]
    fn roundtrip_3d() {
        let shape = [3, 4, 5];
        for lin in 0..60 {
            let idx = delinearize(lin, &shape);
            assert_eq!(linearize(&idx, &shape), lin);
        }
    }

    #[test]
    fn iterator_visits_row_major_dim0_fastest() {
        let got: Vec<Vec<usize>> = MultiIndexIter::new(&[2, 2]).collect();
        assert_eq!(got, vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]]);
        assert_eq!(MultiIndexIter::new(&[3, 4]).len(), 12);
    }

    #[test]
    fn empty_shape_yields_one_scalar_index() {
        let got: Vec<Vec<usize>> = MultiIndexIter::new(&[]).collect();
        assert_eq!(got, vec![Vec::<usize>::new()]);
        assert_eq!(volume(&[]), 1);
    }
}
