//! Shared helpers for the integration-test binaries. Each binary that
//! needs them declares `mod common;` — the directory itself is not
//! compiled as a test.

pub mod invariants;
pub mod specgen;
pub mod traces;
