//! First-divergence trace comparison for the differential tests.
//!
//! `assert_eq!` on two canonical renderings prints both traces in full —
//! hundreds of megabytes at scale — and leaves the reader to find where they
//! part. [`assert_traces_eq`] instead reports the first differing segment,
//! outcome or periodic-job record, with a ±[`WINDOW`]-entry window from both
//! sides.

#![allow(dead_code)] // not every test binary that declares `mod common` compares traces

use rtsj_event_framework::model::Trace;
use std::fmt::{Debug, Write as _};

/// Entries shown on each side of the first divergence.
pub const WINDOW: usize = 5;

/// Panics with a first-divergence report when `actual` differs from
/// `expected` in any segment, outcome, periodic-job record or the horizon.
#[track_caller]
pub fn assert_traces_eq(spec_name: &str, expected: &Trace, actual: &Trace) {
    if let Err(report) = first_divergence(expected, actual) {
        panic!("{spec_name}: traces diverge\n{report}");
    }
}

/// The first-divergence report of two traces, `Ok` when they are equal.
pub fn first_divergence(expected: &Trace, actual: &Trace) -> Result<(), String> {
    if expected.horizon != actual.horizon {
        return Err(format!(
            "horizon: expected {:?}, actual {:?}",
            expected.horizon, actual.horizon
        ));
    }
    compare("segment", &expected.segments, &actual.segments)?;
    compare("outcome", &expected.outcomes, &actual.outcomes)?;
    compare(
        "periodic-job record",
        &expected.periodic_jobs,
        &actual.periodic_jobs,
    )
}

fn compare<T: PartialEq + Debug>(what: &str, expected: &[T], actual: &[T]) -> Result<(), String> {
    let Some(at) =
        (0..expected.len().max(actual.len())).find(|&i| expected.get(i) != actual.get(i))
    else {
        return Ok(());
    };
    let mut report = format!(
        "first differing {what} at index {at} ({} expected, {} actual):\n",
        expected.len(),
        actual.len()
    );
    for (side, entries) in [("expected", expected), ("actual", actual)] {
        let _ = writeln!(report, "  {side}:");
        let end = (at + WINDOW + 1).min(entries.len());
        for (i, entry) in entries
            .iter()
            .enumerate()
            .take(end)
            .skip(at.saturating_sub(WINDOW))
        {
            let marker = if i == at { '>' } else { ' ' };
            let _ = writeln!(report, "  {marker} [{i}] {entry:?}");
        }
    }
    Err(report)
}
