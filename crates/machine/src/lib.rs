//! # hpf-machine — a simulated coarse-grained distributed memory machine
//!
//! This crate is the hardware substrate for the PACK/UNPACK reproduction
//! (Bae & Ranka, IPPS 1996). The paper evaluates on a CM-5 but analyses all
//! algorithms under a *two-level model*: any processor can send a message of
//! `m` words to any other for `τ + μ·m`, a unit of local computation costs
//! `δ`, and the network behaves like a virtual crossbar (no distance or
//! congestion effects). We implement that model directly:
//!
//! * a [`Machine`] runs an SPMD closure on `P` virtual processors (stackful
//!   coroutines on a small pool of worker threads; `x86_64` Linux only)
//!   arranged on a logical [`ProcGrid`];
//! * each [`Proc`] owns a private [`SimClock`] charged by every send and by
//!   explicit local-operation charges; packets carry arrival timestamps so
//!   clock propagation is exact without global synchronisation;
//! * [`collectives`] provides the paper's communication primitives: the
//!   fused vector prefix-reduction-sum (direct and split algorithms,
//!   Section 5.1) and many-to-many personalized communication with linear
//!   permutation scheduling (Section 7).
//!
//! ## Example
//!
//! ```
//! use hpf_machine::{Machine, CostModel, ProcGrid, Category};
//! use hpf_machine::collectives::{prefix_reduction_sum, PrsAlgorithm};
//!
//! let machine = Machine::new(ProcGrid::line(4), CostModel::cm5());
//! let out = machine.run(|proc| {
//!     proc.set_category(Category::PrefixReductionSum);
//!     let world = proc.world();
//!     let local = vec![proc.id() as i32 + 1; 8];
//!     let (prefix, total) = prefix_reduction_sum(proc, &world, &local, PrsAlgorithm::Auto);
//!     (prefix[0], total[0])
//! });
//! assert_eq!(out.results, vec![(0, 10), (1, 10), (3, 10), (6, 10)]);
//! assert!(out.max_cat_ms(Category::PrefixReductionSum) > 0.0);
//! ```

#![warn(missing_docs)]

pub mod alloc_counter;
mod carrier;
mod chan;
pub mod collectives;
mod cost;
mod error;
mod fault;
mod machine;
mod message;
mod obs;
mod pool;
mod proc;
mod recovery;
mod reliable;
mod report;
mod sched;
mod topology;
mod trace;

pub use chan::{default_capacity, ring_bytes};
pub use cost::{Category, ClockReport, CostModel, SimClock, Words};
pub use error::MachineError;
pub use fault::{FaultPlan, LinkFaults};
pub use machine::Machine;
pub use message::{Packet, Payload, Wire};
pub use obs::{Event, EventKind, MemAccount, WallProfile, WallSpan};
pub use pool::{fresh_pool_key, Lendable, Lender, Loan, PoolSlot, Received, Reusable};
pub use proc::{tags, Group, Proc};
pub use recovery::RecoveryStats;
pub use report::{Breakdown, MetricsSnapshot, RunOutput};
pub use topology::ProcGrid;
