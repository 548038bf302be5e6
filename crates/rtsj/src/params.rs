//! The paper's `TaskServerParameters`: the RTSJ `ReleaseParameters` subclass
//! a task server is constructed from.

use rt_model::{Priority, ServerPolicyKind, ServerSpec, Span};
use serde::{Deserialize, Serialize};

/// The paper's `TaskServerParameters`: a `ReleaseParameters` subclass used to
/// construct a `TaskServer` — a capacity (the cost) replenished every period,
/// plus the priority the server runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskServerParameters {
    /// Server capacity (the budget available per period).
    pub capacity: Span,
    /// Replenishment period.
    pub period: Span,
    /// Priority of the server thread. The framework requires this to be the
    /// highest priority of the application.
    pub priority: Priority,
}

impl TaskServerParameters {
    /// Creates server parameters.
    ///
    /// # Panics
    /// Panics when the capacity is zero, the period is zero, or the capacity
    /// exceeds the period (such a server could never be schedulable).
    pub fn new(capacity: Span, period: Span, priority: Priority) -> Self {
        assert!(
            !capacity.is_zero(),
            "a task server needs a positive capacity"
        );
        assert!(!period.is_zero(), "a task server needs a positive period");
        assert!(
            capacity <= period,
            "the server capacity cannot exceed its period"
        );
        TaskServerParameters {
            capacity,
            period,
            priority,
        }
    }

    /// The parameters a [`ServerSpec`] installs with. Background servicing
    /// has no meaningful capacity or period: it carries a nominal `(1, 1)`
    /// pair, which never limits or rejects work.
    pub fn of_spec(spec: &ServerSpec) -> Self {
        match spec.policy {
            ServerPolicyKind::Background => {
                Self::new(Span::from_units(1), Span::from_units(1), spec.priority)
            }
            _ => Self::new(spec.capacity, spec.period, spec.priority),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity cannot exceed its period")]
    fn oversized_server_parameters_are_rejected() {
        TaskServerParameters::new(Span::from_units(7), Span::from_units(6), Priority::new(30));
    }
}
