//! Collective communication primitives built on the point-to-point layer.
//!
//! Everything the paper's algorithms need: the vector prefix-reduction-sum
//! of Section 5.1 (direct and split algorithms), many-to-many personalized
//! communication with linear permutation scheduling (Section 7, \[9\]), and
//! the broadcast, allgather and allreduce that the apps and examples build
//! on.
//!
//! All collectives charge the ambient clock [`Category`](crate::Category) of
//! the calling processor; callers pick the category (e.g. the ranking stage
//! wraps prefix-reduction-sum in `Category::PrefixReductionSum`).

mod alltoallv;
mod broadcast;
mod gather;
mod reduce;
mod scan;

pub use alltoallv::{
    alltoallv, alltoallv_pooled, alltoallv_slots, alltoallv_sparse, alltoallv_two_phase, A2aPlan,
    A2aSchedule,
};
pub use broadcast::broadcast;
pub use gather::allgather;
pub use reduce::{allreduce_sum, allreduce_with};
pub use scan::{prefix_reduction_sum, PrsAlgorithm};

use crate::message::Wire;

/// Element type the arithmetic collectives (scan, reduce) operate on.
///
/// The paper's ranking arrays hold element counts; `i32` matches the CM-5's
/// 4-byte integers, which keeps the charged message volume `μ·M` faithful to
/// the paper's accounting.
pub trait Num:
    Wire
    + Default
    + PartialEq
    + PartialOrd
    + std::ops::Add<Output = Self>
    + std::ops::AddAssign
    + std::ops::Sub<Output = Self>
{
}

impl<T> Num for T where
    T: Wire
        + Default
        + PartialEq
        + PartialOrd
        + std::ops::Add<Output = Self>
        + std::ops::AddAssign
        + std::ops::Sub<Output = Self>
{
}
