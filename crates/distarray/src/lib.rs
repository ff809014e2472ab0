//! # hpf-distarray — block-cyclic distributed multidimensional arrays
//!
//! The HPF runtime plumbing the PACK/UNPACK paper assumes: arrays of
//! arbitrary rank distributed block-cyclic along every dimension over a
//! logical processor grid, with the index arithmetic of the paper's
//! Section 3 ([`DimLayout`]: `L_i`, `S_i`, `T_i`), descriptors
//! ([`ArrayDesc`]), harness-side dense arrays for seeding and verification
//! ([`GlobalArray`]), and general layout-to-layout [`redistribute`]-ion with
//! communication detection (Section 6.3's substrate).
//!
//! Conventions (paper-faithful): dimension 0 is the fastest-varying; local
//! and global storage are row-major; a global index `g` on dimension `i`
//! lives on processor coordinate `(g / W_i) mod P_i` at local position
//! `(g / (W_i P_i))·W_i + (g mod W_i)`.
//!
//! ## Example
//!
//! ```
//! use hpf_machine::ProcGrid;
//! use hpf_distarray::{ArrayDesc, Dist, GlobalArray};
//!
//! // A 16-element vector, block-cyclic(2) over 4 processors (Figure 1).
//! let grid = ProcGrid::line(4);
//! let desc = ArrayDesc::new(&[16], &grid, &[Dist::BlockCyclic(2)]).unwrap();
//! assert_eq!(desc.dim(0).t(), 2); // two tiles
//! let a = GlobalArray::from_fn(&[16], |idx| idx[0] as i32);
//! let locals = a.partition(&desc);
//! assert_eq!(locals[1], vec![2, 3, 10, 11]); // proc 1's blocks
//! ```

#![warn(missing_docs)]

mod descriptor;
mod dist;
mod global;
pub mod index;
mod layout;
mod redistribute;
mod track;

pub use descriptor::{ArrayDesc, DescError};
pub use dist::Dist;
pub use global::{local_from_fn, local_global_indices, GlobalArray};
pub use layout::{DimLayout, LayoutError};
pub use redistribute::redistribute;
pub use track::TrackArray;
