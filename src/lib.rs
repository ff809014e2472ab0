//! Facade crate re-exporting the PACK/UNPACK reproduction workspace.
//!
//! See [`hpf_core`] for the paper's contribution (parallel PACK/UNPACK with
//! distributed ranking), [`hpf_distarray`] for the block-cyclic distributed
//! array substrate, [`hpf_machine`] for the simulated coarse-grained
//! parallel machine, [`hpf_apps`] for mini-applications built on the
//! runtime, and [`hpf_analysis`] for offline trace analysis (critical
//! paths, cost-model conformance, peak memory, wall hotspots).
pub use hpf_analysis as analysis;
pub use hpf_apps as apps;
pub use hpf_core as core;
pub use hpf_distarray as distarray;
pub use hpf_machine as machine;
