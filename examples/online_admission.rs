//! On-line admission control for aperiodic events (paper §7).
//!
//! A telemetry gateway accepts "query" events from operators. Each query has
//! a declared cost and a response-time requirement; the gateway only admits a
//! query if the on-line response-time computation — performed at arrival
//! time, in constant time by the equation-(5) instance packing — predicts
//! that the requirement can be met by the polling server. The decision is
//! made by the same [`ServerAdmission`] machine both engines embed; the
//! textbook equations (1)–(4) are printed next to it for comparison.
//!
//! ```sh
//! cargo run --example online_admission
//! ```

use rt_admission::ArrivingEvent;
use rt_analysis::{textbook_ps_response_time, ServerParams};
use rt_model::EventId;
use rtsj_event_framework::prelude::*;

fn main() {
    // A polling server with capacity 4 / period 6 at the top priority.
    let (capacity, period) = (Span::from_units(4), Span::from_units(6));
    let mut admission =
        ServerAdmission::with_params(AdmissionPolicy::DeadlinePredictive, capacity, period);
    // Operators will only wait 15 time units for an answer.
    let ceiling = Span::from_units(15);

    // Queries arriving back-to-back at t = 1 with varied costs.
    let queries: [(u32, f64); 8] = [
        (0, 3.0),
        (1, 2.0),
        (2, 3.5),
        (3, 1.0),
        (4, 4.0),
        (5, 2.0),
        (6, 3.0),
        (7, 1.5),
    ];
    let now = Instant::from_units(1);
    // At t = 1 nothing was pending at the activation at t = 0, so the
    // polling server has already forfeited that instance's capacity.
    let remaining = Span::ZERO;

    println!("admission decisions at t = {now} (ceiling: 15 tu)");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>10}",
        "query", "cost", "eq(1-4) rta", "eq(5) rta", "decision"
    );
    let mut admitted = 0usize;
    let mut pending = Span::ZERO;
    for (id, cost_units) in queries {
        let cost = Span::from_units_f64(cost_units);
        // Equations (1)–(4) for the *textbook* (resumable) polling server,
        // over the admitted work ahead of the query plus the query itself.
        let textbook = textbook_ps_response_time(
            ServerParams::new(capacity, period),
            now,
            remaining,
            pending + cost,
            now,
        );
        // Equation (5) for the non-resumable implementation, and the
        // decision against the ceiling.
        let verdict = admission.on_arrival(&ArrivingEvent {
            event: EventId::new(id),
            release: now,
            declared_cost: cost,
            deadline: Some(now + ceiling),
            value: cost.ticks(),
        });
        if verdict.accepted {
            admitted += 1;
            pending += cost;
        }
        let equation5 = verdict.predicted_completion.map_or("-".to_string(), |c| {
            format!("{:.2}", c.since(now).as_units())
        });
        println!(
            "{:>6} {:>8} {:>12} {:>12} {:>10}",
            format!("q{id}"),
            format!("{cost_units:.1}"),
            format!("{:.2}", textbook.as_units()),
            equation5,
            if verdict.accepted { "ADMIT" } else { "reject" }
        );
    }
    println!("\nadmitted {admitted}/{} queries", queries.len());
    println!(
        "pending work after admission: {} events, {} tu declared",
        admission.backlog(),
        pending.as_units()
    );
}
