//! # perfbench — the repository's benchmark
//!
//! Runs a named workload from a seed through the system's public entry
//! points only, checks every output, and reports end-to-end metrics (timed
//! run, no tracing) or per-layer metrics (traced run, wall-clock spans
//! around every call into a layer). See `NOTES.md` in this directory for
//! why each workload exists and what each metric is predicted to move.

#![forbid(unsafe_code)]

pub mod reference;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod verify;
pub mod workloads;

pub use runner::{run, Metric, Options, Report};
pub use workloads::{Sizes, Workload};
