//! # hpf-analysis — offline analysis over simulated-machine runs
//!
//! Everything in this crate consumes the observability outputs of
//! [`hpf_machine`] (structured events, clock reports, wall profiles)
//! *after* a run finishes; nothing here touches the simulation itself.
//! Four questions it answers:
//!
//! 1. **Where did the time go?** [`CritPath`] walks the event log backward
//!    from the slowest processor's finish, hopping send→consume and
//!    barrier edges, and produces the critical path through the run —
//!    per-stage and per-link attribution plus a per-processor
//!    busy/blocked/idle breakdown ([`critpath::ProcBreakdown`]).
//! 2. **Does the implementation still match the paper's model?**
//!    [`Conformance`] checks measured local-operation counters against
//!    the closed-form Section 6.4 predictions of
//!    [`hpf_core::MaskStats`], per processor, and fails past a tolerance.
//! 3. **Does the working set fit?** [`memory`] folds `MemSample` events
//!    into per-processor high-water marks and checks them against a
//!    closed-form predicted peak-memory model — the memory analogue of
//!    the conformance check, and the gate Red.2 feasibility hangs on.
//! 4. **Where does the *real* time go?** [`wallprof`] aggregates the
//!    wall-clock span profiles of a profiled run into a ranked hotspot
//!    report (exclusive time, bytes moved, bandwidth). Wall numbers are
//!    never gated or compared here; the repo benchmark owns them.
//!
//! The [`json`] module carries the minimal JSON value, parser and writer
//! the perf report goes through (the repo deliberately has no serde).

#![warn(missing_docs)]

pub mod conformance;
pub mod critpath;
pub mod json;
pub mod memory;
pub mod wallprof;

pub use conformance::Conformance;
pub use critpath::{CritPath, Segment, SegmentKind};
pub use json::Json;
pub use memory::{
    predict_pack_peak, predict_pack_redist_peak, predict_unpack_peak, PeakMemory, MEM_RATIO_GATE,
};
pub use wallprof::{median, Hotspot, HotspotReport};
