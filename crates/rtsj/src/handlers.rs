//! The emulation-level equivalent of a plain periodic `RealtimeThread`: the
//! body of the periodic tasks (the τ1, τ2 tasks of Table 1). The task-server
//! framework supplies its own, more elaborate server bodies.

use crate::body::{Action, BodyCtx, Completion, ThreadBody};
use rt_model::{ExecUnit, Span};

/// A periodic real-time thread body: waits for each periodic release, then
/// computes a fixed cost attributed to the given trace unit.
#[derive(Debug)]
pub struct PeriodicThreadBody {
    cost: Span,
    unit: ExecUnit,
}

impl PeriodicThreadBody {
    /// Creates the body.
    pub fn new(cost: Span, unit: ExecUnit) -> Self {
        PeriodicThreadBody { cost, unit }
    }
}

impl ThreadBody for PeriodicThreadBody {
    fn next_action(&mut self, _ctx: &mut BodyCtx, completion: Completion) -> Action {
        match completion {
            Completion::Started | Completion::Computed { .. } | Completion::Interrupted { .. } => {
                Action::WaitForNextPeriod
            }
            Completion::PeriodStarted => Action::Compute {
                amount: self.cost,
                unit: self.unit,
            },
            Completion::TimeReached | Completion::EventFired => {
                // A plain periodic thread never waits on events or absolute
                // times; treat a stray wake-up as the start of a period so the
                // thread keeps its budget discipline rather than panicking.
                Action::Compute {
                    amount: self.cost,
                    unit: self.unit,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::overhead::OverheadModel;
    use rt_model::{Instant, Priority, TaskId};

    fn engine(horizon: u64) -> Engine {
        Engine::new(
            EngineConfig::new(Instant::from_units(horizon)).with_overhead(OverheadModel::none()),
        )
    }

    #[test]
    fn periodic_thread_body_runs_once_per_period() {
        let mut engine = engine(18);
        engine.spawn_periodic(
            "tau",
            Priority::new(10),
            Instant::ZERO,
            Span::from_units(6),
            Box::new(PeriodicThreadBody::new(
                Span::from_units(2),
                ExecUnit::Task(TaskId::new(0)),
            )),
        );
        let trace = engine.run();
        assert_eq!(
            trace.busy_time(ExecUnit::Task(TaskId::new(0))),
            Span::from_units(6)
        );
        assert_eq!(trace.segments_of(ExecUnit::Task(TaskId::new(0))).count(), 3);
    }
}
