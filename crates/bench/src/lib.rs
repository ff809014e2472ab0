//! # hpf-bench — experiment harness for the PACK/UNPACK paper
//!
//! Five binaries over one library: `repro` renders the paper's tables,
//! figures and Section 7 studies from the registry in [`artefacts`];
//! `perf` writes the typed report and runs the gates of [`report`], and
//! `perfdiff` compares two such reports; `fuzz` and `chaos` are the
//! differential drivers over [`cases`]. [`experiments`] holds the measured
//! runners they share, [`cli`] the one flag parser.
//!
//! All numbers come from the **simulated clock** (milliseconds under the
//! CM-5-flavoured cost model), which is what makes the shapes comparable
//! to the paper's CM-5 measurements, or are counts — so everything under
//! `results/` is a function of the tree. Host wall time is measured by the
//! repo benchmark (`benchmark/`) and nowhere else.

pub mod artefacts;
pub mod cases;
pub mod cli;
pub mod experiments;
pub mod report;
pub mod table;

pub use experiments::*;
pub use table::Table;
