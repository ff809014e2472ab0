//! Memory-accounting hook for user arrays.
//!
//! The machine layer tracks every word-carrying structure it can see —
//! mailbox packets, in-flight payloads, pooled buffers, replay logs — but
//! the arrays a program holds *between* communications are invisible to
//! it. [`TrackArray`] closes that gap: a program registers its local
//! portions against the `user` memory account of its [`Proc`]
//! (`mem.user.cur` gauge, `mem.user` Perfetto counter track), so measured
//! per-processor peaks cover the paper's full working set and not just the
//! redistribution traffic. Charges are pure bookkeeping — never charged to
//! the simulated clock — and a no-op when observability is off.

use hpf_machine::{MemAccount, Proc};

/// A value whose processor-local footprint can be charged to the machine's
/// `user` memory account.
pub trait TrackArray {
    /// Bytes of local storage this value retains.
    fn tracked_bytes(&self) -> u64;

    /// Charge this value's local bytes to `proc`'s `user` account at the
    /// current simulated time.
    fn track(&self, proc: &mut Proc) {
        proc.mem_charge(MemAccount::User, self.tracked_bytes());
    }

    /// Release a previous [`TrackArray::track`] charge (e.g. when the
    /// array is dropped or rebuilt between phases).
    fn untrack(&self, proc: &mut Proc) {
        proc.mem_release(MemAccount::User, self.tracked_bytes());
    }
}

impl<T> TrackArray for Vec<T> {
    fn tracked_bytes(&self) -> u64 {
        (self.len() * size_of::<T>()) as u64
    }
}

impl<T> TrackArray for [T] {
    fn tracked_bytes(&self) -> u64 {
        std::mem::size_of_val(self) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_bytes_cover_local_storage() {
        let v = vec![0u32; 10];
        assert_eq!(v.tracked_bytes(), 40);
        assert_eq!(v.as_slice().tracked_bytes(), 40);
        assert_eq!(vec![0.0f64; 4].tracked_bytes(), 32);
        let mask = vec![true; 8];
        assert_eq!(mask.tracked_bytes(), 8);
    }
}
