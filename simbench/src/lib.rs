//! Host wall-clock benchmark of the IANUS simulator.
//!
//! The benchmark drives the simulator only through public functions of
//! its layers and times them from outside; see `README.md` in this
//! directory for the workloads and metrics.

pub mod meter;
pub mod node;
pub mod stats;
pub mod workloads;
