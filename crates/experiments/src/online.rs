//! The §7 experiment: on-line response-time computation for aperiodic events
//! under a highest-priority polling server.
//!
//! The paper proposes (as near-future work) computing, at the arrival of each
//! event, its response time in constant time thanks to the list-of-lists
//! queue, and validating the prediction against the measured executions. This
//! module performs that validation in the setting where the prediction is
//! exact for the non-resumable implementation — homogeneous declared costs,
//! so the FIFO-with-skip rule never reorders service — and reports
//! prediction-vs-measurement for every served event. Each prediction comes
//! from the engines' own admission machine,
//! [`rt_admission::ServerAdmission`], fed the arrivals in release order.

use rt_admission::{AdmissionPolicy, ArrivingEvent, ServerAdmission};
use rt_model::{EventId, Instant, Priority, ServerSpec, Span, SystemSpec};
use rt_taskserver::{execute, ExecutionConfig};

/// One event's predicted and measured response time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlinePrediction {
    /// Release instant of the event.
    pub release: Instant,
    /// Equation-(5) prediction made by the admission machine at arrival.
    pub predicted: Span,
    /// Response time measured on the execution (`None` if unserved).
    pub measured: Option<Span>,
}

/// Report of the on-line RTA experiment.
#[derive(Debug, Clone)]
pub struct OnlineRtaReport {
    /// Per-event predictions and measurements.
    pub predictions: Vec<OnlinePrediction>,
    /// Number of events whose prediction matched the measurement exactly.
    pub exact_matches: usize,
}

/// Builds a burst workload of `count` events with homogeneous cost, released
/// `spacing` apart starting at `first_release`, served by a polling server of
/// the given capacity/period, and compares equation (5) against the measured
/// execution.
pub fn online_rta_experiment(
    count: usize,
    cost: Span,
    first_release: Instant,
    spacing: Span,
    capacity: Span,
    period: Span,
) -> OnlineRtaReport {
    assert!(
        cost <= capacity,
        "the framework cannot serve handlers above the capacity"
    );
    let mut builder = SystemSpec::builder("online-rta");
    builder.server(ServerSpec::polling(capacity, period, Priority::new(30)));
    let mut releases = Vec::new();
    for i in 0..count {
        let release = first_release + spacing.saturating_mul(i as u64);
        releases.push(release);
        builder.aperiodic(release, cost);
    }
    builder.horizon(Instant::ZERO + period.saturating_mul((count as u64 + 2) * 2));
    // rt-lint: allow(panic, reason = "the experiment builds its system from fixed, known-valid parameters")
    let spec = builder.build().expect("online-rta system is valid");

    let trace = execute(&spec, &ExecutionConfig::ideal());

    // Predictions: the equation-(5) completion the admission machine plans
    // at each arrival. Because the costs are homogeneous and the server is
    // the highest-priority task, the planned slot is exactly where the
    // implementation serves the handler.
    let mut admission =
        ServerAdmission::with_params(AdmissionPolicy::DeadlinePredictive, capacity, period);
    let mut predictions = Vec::new();
    for (i, (release, outcome)) in releases.iter().zip(trace.outcomes.iter()).enumerate() {
        let verdict = admission.on_arrival(&ArrivingEvent {
            event: EventId::new(i as u32),
            release: *release,
            declared_cost: cost,
            deadline: None,
            value: cost.ticks(),
        });
        // Costs fit the capacity (asserted above), so every arrival gets a
        // prediction; a missing one could never match a measurement.
        let predicted = verdict
            .predicted_completion
            .map_or(Span::MAX, |completion| completion.since(*release));
        predictions.push(OnlinePrediction {
            release: *release,
            predicted,
            measured: outcome.response_time(),
        });
    }
    let exact_matches = predictions
        .iter()
        .filter(|p| p.measured == Some(p.predicted))
        .count();
    OnlineRtaReport {
        predictions,
        exact_matches,
    }
}

/// The default instance of the experiment used by the `repro` binary: a burst
/// of twelve cost-3 events released together at t = 1 under the paper's
/// capacity-4 / period-6 server.
pub fn default_online_rta() -> OnlineRtaReport {
    online_rta_experiment(
        12,
        Span::from_units(3),
        Instant::from_units(1),
        Span::ZERO,
        Span::from_units(4),
        Span::from_units(6),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_predictions_match_the_execution_exactly() {
        let report = default_online_rta();
        assert_eq!(report.predictions.len(), 12);
        for p in &report.predictions {
            assert_eq!(
                p.measured,
                Some(p.predicted),
                "prediction mismatch at {:?}",
                p.release
            );
        }
        assert_eq!(report.exact_matches, 12);
    }

    #[test]
    fn spaced_arrivals_are_also_predicted_exactly() {
        // One event per period: each is served in the activation following
        // its release, with nothing ahead of it.
        let report = online_rta_experiment(
            5,
            Span::from_units(2),
            Instant::from_units(1),
            Span::from_units(6),
            Span::from_units(4),
            Span::from_units(6),
        );
        // Released at 1, 7, 13, …: some are picked up while the server is
        // still inside an activation (response 3), others have to wait for
        // the following activation (response 7); equation (5) through the
        // packer predicts both cases exactly.
        for p in &report.predictions {
            assert_eq!(p.measured, Some(p.predicted));
        }
        assert_eq!(report.exact_matches, 5);
    }

    #[test]
    fn releases_at_activation_instants_see_the_full_capacity() {
        // Released at 0, 6, 12, …: each arrival coincides with an
        // activation, which the engines process after the arrival, so the
        // event is served at once from the full capacity (response 2).
        let report = online_rta_experiment(
            5,
            Span::from_units(2),
            Instant::ZERO,
            Span::from_units(6),
            Span::from_units(4),
            Span::from_units(6),
        );
        for p in &report.predictions {
            assert_eq!(p.measured, Some(Span::from_units(2)));
            assert_eq!(p.predicted, Span::from_units(2));
        }
        assert_eq!(report.exact_matches, 5);
    }

    #[test]
    #[should_panic(expected = "above the capacity")]
    fn oversized_costs_are_rejected() {
        online_rta_experiment(
            1,
            Span::from_units(5),
            Instant::ZERO,
            Span::ZERO,
            Span::from_units(4),
            Span::from_units(6),
        );
    }
}
