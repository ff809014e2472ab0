//! # hpf-bench — experiment harness for the PACK/UNPACK paper
//!
//! Shared machinery for the binaries that regenerate the paper's tables and
//! figures (`table1`, `table2`, `fig3`, `fig4`, `fig5`, `prs`, `scaling`,
//! `ablations`) and for `perf`, whose typed report and gates are
//! [`report`].
//!
//! All numbers come from the **simulated clock** (milliseconds under the
//! CM-5-flavoured cost model), which is what makes the shapes comparable
//! to the paper's CM-5 measurements, or are counts; host wall time is
//! measured by the repo benchmark (`benchmark/`) and nowhere else.

pub mod experiments;
pub mod report;
pub mod table;

pub use experiments::*;
pub use table::Table;
