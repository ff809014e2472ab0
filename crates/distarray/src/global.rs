//! Dense global arrays: the harness-side view used to seed distributed
//! arrays deterministically and to verify parallel results against
//! sequential oracles.
//!
//! A [`GlobalArray`] lives *outside* the simulated machine. Experiments
//! seed each processor's local storage with [`GlobalArray::partition`] (or
//! build it in place with [`local_from_fn`], which needs no harness-side
//! dense array at all) and reassemble results with
//! [`GlobalArray::assemble`].

use crate::descriptor::ArrayDesc;
use crate::index::{linearize, volume, MultiIndexIter};

/// A dense rank-`d` array stored row-major with dimension 0 fastest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalArray<T> {
    shape: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy> GlobalArray<T> {
    /// Build from a closure over global multi-indices.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let data = MultiIndexIter::new(shape).map(|idx| f(&idx)).collect();
        GlobalArray {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Wrap existing row-major data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's volume.
    pub fn from_vec(shape: &[usize], data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            volume(shape),
            "data length must match shape volume"
        );
        GlobalArray {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Array shape, dimension 0 first.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at a global multi-index.
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[linearize(idx, &self.shape)]
    }

    /// Set the element at a global multi-index.
    pub fn set(&mut self, idx: &[usize], v: T) {
        let lin = linearize(idx, &self.shape);
        self.data[lin] = v;
    }

    /// The raw row-major data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Split into per-processor local arrays (local row-major order) under
    /// `desc`. `desc.shape()` must equal this array's shape.
    pub fn partition(&self, desc: &ArrayDesc) -> Vec<Vec<T>> {
        assert_eq!(desc.shape(), self.shape, "descriptor shape mismatch");
        let nprocs = desc.grid().nprocs();
        (0..nprocs)
            .map(|p| {
                (0..desc.local_len(p))
                    .map(|l| self.get(&desc.global_of_local(p, l)))
                    .collect()
            })
            .collect()
    }

    /// Rebuild a global array from per-processor locals under `desc`.
    /// Inverse of [`Self::partition`].
    pub fn assemble(desc: &ArrayDesc, locals: &[Vec<T>]) -> Self
    where
        T: Default,
    {
        assert_eq!(
            locals.len(),
            desc.grid().nprocs(),
            "one local array per processor"
        );
        let shape = desc.shape();
        let mut data = vec![T::default(); desc.global_len()];
        for (p, local) in locals.iter().enumerate() {
            assert_eq!(
                local.len(),
                desc.local_len(p),
                "local length mismatch on proc {p}"
            );
            for (l, &v) in local.iter().enumerate() {
                let g = desc.global_of_local(p, l);
                data[linearize(&g, &shape)] = v;
            }
        }
        GlobalArray { shape, data }
    }
}

/// Build processor `proc_id`'s local array directly from a closure over
/// global multi-indices — each processor can seed its own data without any
/// communication or harness-side dense array.
pub fn local_from_fn<T>(
    desc: &ArrayDesc,
    proc_id: usize,
    mut f: impl FnMut(&[usize]) -> T,
) -> Vec<T> {
    (0..desc.local_len(proc_id))
        .map(|l| f(&desc.global_of_local(proc_id, l)))
        .collect()
}

/// Global multi-index corresponding to each local slot, precomputed (used by
/// kernels that need repeated local→global translation).
pub fn local_global_indices(desc: &ArrayDesc, proc_id: usize) -> Vec<Vec<usize>> {
    (0..desc.local_len(proc_id))
        .map(|l| desc.global_of_local(proc_id, l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use hpf_machine::ProcGrid;

    fn desc() -> ArrayDesc {
        ArrayDesc::new(
            &[8, 4],
            &ProcGrid::new(&[2, 2]),
            &[Dist::BlockCyclic(2), Dist::Cyclic],
        )
        .unwrap()
    }

    #[test]
    fn partition_assemble_roundtrip() {
        let d = desc();
        let a = GlobalArray::from_fn(&[8, 4], |idx| (idx[0] * 10 + idx[1]) as i32);
        let locals = a.partition(&d);
        assert_eq!(locals.iter().map(Vec::len).sum::<usize>(), 32);
        let back = GlobalArray::assemble(&d, &locals);
        assert_eq!(back, a);
    }

    #[test]
    fn local_from_fn_matches_partition() {
        let d = desc();
        let a = GlobalArray::from_fn(&[8, 4], |idx| (idx[0] * 100 + idx[1] * 3) as i64);
        let locals = a.partition(&d);
        for (p, want) in locals.iter().enumerate() {
            let direct = local_from_fn(&d, p, |idx| (idx[0] * 100 + idx[1] * 3) as i64);
            assert_eq!(&direct, want, "proc {p}");
        }
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = GlobalArray::from_fn(&[3, 3], |_| 0i32);
        a.set(&[2, 1], 42);
        assert_eq!(a.get(&[2, 1]), 42);
        assert_eq!(a.data()[linearize(&[2, 1], &[3, 3])], 42);
    }

    #[test]
    #[should_panic(expected = "shape volume")]
    fn from_vec_checks_volume() {
        GlobalArray::from_vec(&[2, 2], vec![1i32, 2, 3]);
    }
}
