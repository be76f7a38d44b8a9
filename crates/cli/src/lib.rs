//! Experiment drivers regenerating the DASP paper's tables and figures.
//!
//! Each `figNN`/`tableN` module computes one experiment end to end — build
//! the workload, run every method on the simulated device, verify each
//! result against the exact CPU reference, estimate times, aggregate — and
//! returns printable rows. The `dasp-experiments` binary dispatches to
//! them and writes CSVs next to a text summary. `ablation` sweeps DASP's
//! own design parameters instead of comparing methods; `dasp-tune` reuses
//! its [`ablation::modeled_time`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod output;

pub use experiments::{
    ablation, ext_merge, fig01, fig02, fig09, fig10, fig11, fig12, fig13, table1, table2,
};
