//! # hpf-core — parallel PACK/UNPACK with distributed ranking
//!
//! Reproduction of *Bae & Ranka, "PACK/UNPACK on Coarse-Grained Distributed
//! Memory Parallel Machines"* (IPPS 1996). `PACK` gathers the elements of a
//! distributed rank-`d` array selected by a logical mask into a distributed
//! vector; `UNPACK` scatters a distributed vector back under a mask, with a
//! field array supplying unselected positions. Both work in two stages:
//!
//! 1. a **ranking** stage ([`ranking`]) that computes every selected
//!    element's position in the result *without moving array elements*,
//!    via per-dimension vector prefix-reduction-sums, and
//! 2. a **redistribution** stage of many-to-many personalized
//!    communication.
//!
//! Three storage/message schemes trade local memory traffic against message
//! volume ([`PackScheme`]: SSS / CSS / CMS; [`UnpackScheme`]: SSS / CSS),
//! and cyclically distributed inputs can be redistributed to block first
//! ([`pack_redistributed`], Red.1 / Red.2) to minimise ranking overhead.
//!
//! Both operations are split into a value-independent **planner**
//! ([`plan_pack`] / [`plan_unpack`]) and a value-only **executor**
//! ([`PackPlan::execute`] / [`UnpackPlan::execute`]); [`pack`] and
//! [`unpack`] are thin plan-then-execute wrappers, and a [`PlanCache`]
//! amortises planning across repeated calls under an unchanged mask — see
//! the [`plan`] module.
//!
//! Everything runs on the simulated coarse-grained machine of
//! [`hpf_machine`] and charges its two-level cost model, which is how the
//! benches regenerate the paper's tables and figures.
//!
//! ## Example
//!
//! ```
//! use hpf_machine::{Machine, CostModel, ProcGrid};
//! use hpf_distarray::{ArrayDesc, Dist, GlobalArray, local_from_fn};
//! use hpf_core::{pack, MaskPattern, PackOptions, PackScheme};
//!
//! let grid = ProcGrid::line(4);
//! let desc = ArrayDesc::new(&[16], &grid, &[Dist::BlockCyclic(2)]).unwrap();
//! let mask = MaskPattern::FirstHalf;
//! let machine = Machine::new(grid, CostModel::cm5());
//! let out = machine.run(|proc| {
//!     let a = local_from_fn(&desc, proc.id(), |g| g[0] as i32 * 10);
//!     let m = mask.local(&desc, proc.id());
//!     pack(proc, &desc, &a, &m, &PackOptions::new(PackScheme::CompactMessage)).unwrap()
//! });
//! // The first half of the array, gathered in order: 0, 10, 20, ... 70.
//! assert_eq!(out.results[0].size, 8);
//! assert_eq!(out.results[0].local_v, vec![0, 10]);
//! ```

#![warn(missing_docs)]

mod error;
pub mod mask;
mod pack;
pub mod plan;
pub mod ranking;
mod schemes;
pub mod seq;
mod unpack;

pub use error::{Error, PackError, TooLarge, UnpackError};
pub use mask::MaskPattern;
pub use pack::{
    pack, pack_redistributed, pack_with_vector, CmsMessage, MaskStats, PackOutput, RedistScheme,
};
pub use plan::{plan_pack, plan_unpack, CopyStats, PackPlan, PlanCache, UnpackPlan};
pub use schemes::{PackOptions, PackScheme, ScanMethod, UnpackOptions, UnpackScheme};
pub use unpack::{unpack, unpack_redistributed, RankRequest};
