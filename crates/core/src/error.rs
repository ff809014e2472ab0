//! Typed errors for the parallel PACK/UNPACK entry points.
//!
//! All validation is performed from processor-local state that is identical
//! on every processor (the shared descriptor, local lengths derived from it,
//! and the replicated `Size` from the ranking stage), so when one processor
//! returns an error, all of them do — no communication structure is left
//! half-executed.
//!
//! Machine-level failures (deadlocks, fault-injected crashes,
//! unreachable peers — see [`hpf_machine::MachineError`]) are a different
//! layer: they come out of [`hpf_machine::Machine::try_run`] rather than
//! from `pack`/`unpack` themselves, because a machine failure aborts the
//! whole SPMD run, not one processor's call. [`Error`] unifies both layers
//! for callers (such as the chaos harness) that drive a full
//! PACK→UNPACK pipeline and want one error type.

use std::fmt;

use hpf_machine::MachineError;

/// A descriptor too large for the plan IR's integers: local element slots,
/// CSR offsets and peer ids are `u32`, and global ranks travel as `i32`
/// words (the CM-5's 4-byte integers, [`hpf_machine::collectives::Num`]).
/// [`crate::pack_with_vector`] returns it for its `VECTOR` layout as well:
/// the result is laid out like `VECTOR`, and the compact message scheme
/// narrows result-slice offsets to `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooLarge {
    /// The global element count of the array — or of `VECTOR` — that is over
    /// the limit (a descriptor's saturates at `usize::MAX`).
    pub global_len: usize,
}

impl TooLarge {
    /// The largest global element count a plan can index.
    pub const LIMIT: usize = i32::MAX as usize;

    /// The one checked narrowing: `global_len` elements fit iff the count
    /// fits an `i32`.
    pub(crate) fn check(global_len: usize) -> Result<(), TooLarge> {
        match i32::try_from(global_len) {
            Ok(_) => Ok(()),
            Err(_) => Err(TooLarge { global_len }),
        }
    }
}

impl fmt::Display for TooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (n, limit) = (self.global_len, TooLarge::LIMIT);
        write!(
            f,
            "the array has {n} elements, more than the {limit} a plan can index"
        )
    }
}

/// The planners' one checked narrowing: `desc` fits the plan IR iff its
/// global element count `N` fits an `i32`. Ranks are below `N`, a
/// processor's local slots and every CSR offset are at most `N`, and
/// `i32::MAX < u32::MAX` — so every plan-time `as u32` / `as i32` downstream
/// casts a quantity this bound has put in range.
pub(crate) fn plannable(desc: &hpf_distarray::ArrayDesc) -> Result<(), TooLarge> {
    let dims = (0..desc.ndims()).map(|i| desc.dim(i).n());
    TooLarge::check(dims.fold(1usize, usize::saturating_mul))
}

/// Error from [`crate::pack`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The descriptor exceeds the plan IR's numeric limits.
    TooLarge(TooLarge),
    /// The input descriptor violates the paper's divisibility assumption
    /// `P_i·W_i | N_i` on some dimension.
    NotDivisible {
        /// The offending dimension.
        dim: usize,
    },
    /// The local input array length does not match the descriptor.
    ArrayLenMismatch {
        /// Expected local length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The local mask length does not match the local array length
    /// (F90: mask must be conformable with the array).
    MaskLenMismatch {
        /// Expected local length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The `VECTOR` argument is shorter than the number of selected
    /// elements (F90 requires `SIZE(VECTOR) >= COUNT(MASK)`).
    VectorTooShort {
        /// Number of selected elements.
        size: usize,
        /// Global `VECTOR` length.
        capacity: usize,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::TooLarge(e) => e.fmt(f),
            PackError::NotDivisible { dim } => write!(
                f,
                "dimension {dim} violates P*W | N; redistribute first or use a divisible layout"
            ),
            PackError::ArrayLenMismatch { expected, got } => {
                write!(
                    f,
                    "local array has {got} elements, descriptor implies {expected}"
                )
            }
            PackError::MaskLenMismatch { expected, got } => {
                write!(f, "local mask has {got} elements, expected {expected}")
            }
            PackError::VectorTooShort { size, capacity } => write!(
                f,
                "mask selects {size} elements but the VECTOR argument holds only {capacity}"
            ),
        }
    }
}

impl std::error::Error for PackError {}

impl From<TooLarge> for PackError {
    fn from(e: TooLarge) -> Self {
        PackError::TooLarge(e)
    }
}

/// Error from [`crate::unpack`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnpackError {
    /// The descriptor exceeds the plan IR's numeric limits.
    TooLarge(TooLarge),
    /// The mask/field descriptor violates the divisibility assumption.
    NotDivisible {
        /// The offending dimension.
        dim: usize,
    },
    /// The local mask length does not match the descriptor.
    MaskLenMismatch {
        /// Expected local length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The local field length does not match the mask (F90: FIELD must be
    /// conformable with MASK).
    FieldLenMismatch {
        /// Expected local length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The local slice of `V` does not match the vector layout.
    VectorLenMismatch {
        /// Expected local length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The input vector is shorter than the number of selected mask
    /// elements (`N' < Size`).
    VectorTooSmall {
        /// Number of selected elements.
        size: usize,
        /// Global vector length `N'`.
        capacity: usize,
    },
}

impl fmt::Display for UnpackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnpackError::TooLarge(e) => e.fmt(f),
            UnpackError::NotDivisible { dim } => write!(
                f,
                "dimension {dim} violates P*W | N; UNPACK requires a divisible layout"
            ),
            UnpackError::MaskLenMismatch { expected, got } => {
                write!(f, "local mask has {got} elements, expected {expected}")
            }
            UnpackError::FieldLenMismatch { expected, got } => {
                write!(f, "local field has {got} elements, expected {expected}")
            }
            UnpackError::VectorLenMismatch { expected, got } => {
                write!(
                    f,
                    "local vector slice has {got} elements, expected {expected}"
                )
            }
            UnpackError::VectorTooSmall { size, capacity } => write!(
                f,
                "mask selects {size} elements but the input vector holds only {capacity}"
            ),
        }
    }
}

impl std::error::Error for UnpackError {}

impl From<TooLarge> for UnpackError {
    fn from(e: TooLarge) -> Self {
        UnpackError::TooLarge(e)
    }
}

/// Any failure of a PACK/UNPACK pipeline: an argument-validation error from
/// one of the entry points, or a machine-level failure of the simulated
/// run itself (deadlock, crash, unreachable peer).
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Argument validation failed in [`crate::pack`] (and friends).
    Pack(PackError),
    /// Argument validation failed in [`crate::unpack`].
    Unpack(UnpackError),
    /// The simulated machine itself failed; see
    /// [`hpf_machine::Machine::try_run`].
    Machine(MachineError),
}

impl From<PackError> for Error {
    fn from(e: PackError) -> Self {
        Error::Pack(e)
    }
}

impl From<UnpackError> for Error {
    fn from(e: UnpackError) -> Self {
        Error::Unpack(e)
    }
}

impl From<MachineError> for Error {
    fn from(e: MachineError) -> Self {
        Error::Machine(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Pack(e) => write!(f, "pack: {e}"),
            Error::Unpack(e) => write!(f, "unpack: {e}"),
            Error::Machine(e) => write!(f, "machine: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Pack(e) => Some(e),
            Error::Unpack(e) => Some(e),
            Error::Machine(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = PackError::NotDivisible { dim: 1 };
        assert!(e.to_string().contains("dimension 1"));
        let e = UnpackError::VectorTooSmall {
            size: 10,
            capacity: 8,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("8"));
    }

    #[test]
    fn unified_error_wraps_all_layers() {
        let p: Error = PackError::NotDivisible { dim: 0 }.into();
        assert!(p.to_string().starts_with("pack:"));
        let m: Error = MachineError::ProcCrashed { proc: 3, step: 7 }.into();
        assert!(m.to_string().contains("proc 3"));
        assert!(std::error::Error::source(&m).is_some());
    }
}
