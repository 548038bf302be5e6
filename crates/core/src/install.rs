//! The install table: how a [`SystemSpec`] becomes schedulables, events and
//! timers — the paper's Figure 1 / §4 translation of a task-server
//! description, laid out once per [`crate::ExecutionPlan`] and read by both
//! the table-driven driver ([`crate::fastpath`]) and the naive oracle
//! ([`crate::execute_reference`]).
//!
//! Threads are numbered by spawn slot: one per server lane (thread id = lane
//! index), then one per periodic task. Events and install-time timers are
//! numbered in creation order:
//!
//! | Lane policy | Thread             | Events, in order                                   | Timers                    |
//! |-------------|--------------------|----------------------------------------------------|---------------------------|
//! | Polling     | periodic, period P | —                                                  | —                         |
//! | Deferrable  | `wakeUp`-driven    | `wakeUp`, chunk replenish, periodic replenish      | replenish every P, from P |
//! | Background  | `wakeUp`-driven    | `wakeUp`, chunk replenish                          | —                         |
//! | Sporadic    | `wakeUp`-driven    | `wakeUp`, chunk replenish                          | —                         |
//!
//! The chunk-replenishment event of a DS or BG lane stays idle unless a mode
//! change swaps the lane into the Sporadic policy. Every mode change of an
//! event-driven lane adds a one-shot timer firing its `wakeUp`, so an idle
//! lane reconfigures at the scheduled instant; a polling lane applies due
//! changes at its next activation. After every lane come the servable events
//! — one per planned occurrence, in plan order — whose fire timers are
//! numbered after every install-time timer. Creation order is the
//! tie-break of both decision loops, so it lives here as data.

use crate::deferrable::EventDrivenServerBody;
use crate::polling::PollingServerBody;
use crate::sporadic::SporadicServerBody;
use crate::state::{ReplenishRule, ServerShared, SharedServer};
use crate::system::PlannedEvent;
use rt_model::{Instant, Priority, ServerPolicyKind, Span, SystemSpec};
use rtsj_emu::{EventHandle, OverheadModel, ThreadBody};

/// A periodic release grid: the next release, the period and each job's
/// relative deadline (the EDF re-key at every release).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Grid {
    pub(crate) next: Instant,
    pub(crate) period: Span,
    pub(crate) relative_deadline: Span,
}

impl Grid {
    /// Takes the release at `next`, returning the fresh job's absolute
    /// deadline.
    #[inline]
    pub(crate) fn take(&mut self) -> Instant {
        let deadline = self.next + self.relative_deadline;
        self.next += self.period;
        deadline
    }
}

/// The events an event-driven lane's body is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneEvents {
    /// The lane's `wakeUp` event.
    pub(crate) wakeup: usize,
    /// The event the body arms its chunk replenishments on.
    pub(crate) chunks: usize,
}

/// One schedulable, at its spawn slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ThreadInstall {
    pub(crate) priority: Priority,
    /// The periodic release grid (polling lanes and periodic tasks).
    pub(crate) grid: Option<Grid>,
    /// The EDF dispatching key until the first release or published deadline.
    pub(crate) deadline: Instant,
    /// The wiring of an event-driven lane (`None` for polling lanes and
    /// periodic tasks).
    pub(crate) events: Option<LaneEvents>,
}

/// What firing an event does, as data: the driver dispatches on it directly,
/// the oracle turns it into a fire hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// No hook (the `wakeUp` events): only waiters/pending bookkeeping.
    Plain,
    /// A lane replenishment: apply the shared rule, wake when it asks to.
    Replenish {
        rule: ReplenishRule,
        lane: usize,
        wakeup: usize,
    },
    /// A servable async event: queue the release, wake the lane if accepted.
    Sae {
        lane: usize,
        wakeup: Option<usize>,
        plan_index: usize,
    },
}

/// An install-time timer. A one-shot timer is disarmed by moving `next` to
/// [`Instant::MAX`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Timer {
    pub(crate) next: Instant,
    pub(crate) period: Option<Span>,
    pub(crate) event: usize,
}

/// Every thread, event and install-time timer of one system, in creation
/// order (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InstallTable {
    pub(crate) threads: Vec<ThreadInstall>,
    pub(crate) events: Vec<EventKind>,
    pub(crate) timers: Vec<Timer>,
    /// Event index of the first servable event; planned occurrence `i` fires
    /// event `first_sae + i`.
    pub(crate) first_sae: usize,
}

impl InstallTable {
    /// Lays out `spec` with its planned occurrences in O(threads + events +
    /// mode changes).
    pub(crate) fn lay_out(spec: &SystemSpec, planned: &[PlannedEvent]) -> Self {
        let mut threads = Vec::with_capacity(spec.servers.len() + spec.periodic_tasks.len());
        let mut events = Vec::with_capacity(spec.servers.len() * 3 + planned.len());
        let mut timers = Vec::new();
        let mut lane_wakeup = Vec::with_capacity(spec.servers.len());
        for (lane, server) in spec.servers.iter().enumerate() {
            let first_deadline = Instant::ZERO + server.period;
            if server.policy == ServerPolicyKind::Polling {
                threads.push(ThreadInstall {
                    priority: server.priority,
                    grid: Some(Grid {
                        next: Instant::ZERO,
                        period: server.period,
                        relative_deadline: server.period,
                    }),
                    deadline: first_deadline,
                    events: None,
                });
                lane_wakeup.push(None);
                continue;
            }
            let wakeup = events.len();
            events.push(EventKind::Plain);
            events.push(EventKind::Replenish {
                rule: ReplenishRule::Chunks,
                lane,
                wakeup,
            });
            if server.policy == ServerPolicyKind::Deferrable {
                timers.push(Timer {
                    next: first_deadline,
                    period: Some(server.period),
                    event: events.len(),
                });
                events.push(EventKind::Replenish {
                    rule: ReplenishRule::Periodic,
                    lane,
                    wakeup,
                });
            }
            timers.extend(spec.faults.mode_changes_for(lane).map(|change| Timer {
                next: change.at,
                period: None,
                event: wakeup,
            }));
            threads.push(ThreadInstall {
                priority: server.priority,
                grid: None,
                // Background servicing never carries a deadline.
                deadline: if server.policy == ServerPolicyKind::Background {
                    Instant::MAX
                } else {
                    first_deadline
                },
                events: Some(LaneEvents {
                    wakeup,
                    chunks: wakeup + 1,
                }),
            });
            lane_wakeup.push(Some(wakeup));
        }
        for task in &spec.periodic_tasks {
            let first = Instant::ZERO + task.offset;
            threads.push(ThreadInstall {
                priority: task.priority,
                grid: Some(Grid {
                    next: first,
                    period: task.period,
                    relative_deadline: task.deadline,
                }),
                deadline: first + task.deadline,
                events: None,
            });
        }
        let first_sae = events.len();
        events.extend(
            planned
                .iter()
                .enumerate()
                .map(|(plan_index, event)| EventKind::Sae {
                    lane: event.server,
                    wakeup: lane_wakeup[event.server],
                    plan_index,
                }),
        );
        InstallTable {
            threads,
            events,
            timers,
            first_sae,
        }
    }
}

/// The lane `spec.servers[lane]` installs: its shared state, with the lane's
/// mode changes loaded, and its schedulable body wired to `events` (polling
/// lanes have none). The one place a server description becomes a
/// [`ServerShared`] and one of the three server bodies.
pub(crate) fn install_lane(
    spec: &SystemSpec,
    lane: usize,
    events: Option<LaneEvents>,
    overhead: OverheadModel,
) -> (SharedServer, Box<dyn ThreadBody>) {
    let server = &spec.servers[lane];
    let shared = ServerShared::new(server, overhead);
    shared
        .borrow_mut()
        .set_mode_changes(spec.faults.mode_changes_for(lane).cloned().collect());
    let body: Box<dyn ThreadBody> = match events {
        None => Box::new(PollingServerBody::new(shared.clone())),
        Some(LaneEvents { wakeup, chunks }) if server.policy == ServerPolicyKind::Sporadic => {
            Box::new(SporadicServerBody::new(
                shared.clone(),
                EventHandle::from_raw(wakeup),
                EventHandle::from_raw(chunks),
            ))
        }
        Some(LaneEvents { wakeup, chunks }) => Box::new(
            EventDrivenServerBody::new(shared.clone(), EventHandle::from_raw(wakeup))
                .with_replenish(EventHandle::from_raw(chunks)),
        ),
    };
    (shared, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{FaultPlan, ModeChange, ServerSpec};

    fn units(n: u64) -> Span {
        Span::from_units(n)
    }

    #[test]
    fn lanes_then_tasks_then_servable_events_in_creation_order() {
        let mut b = SystemSpec::builder("install-layout");
        b.server(ServerSpec::polling(units(2), units(6), Priority::new(30)));
        b.add_server(ServerSpec::deferrable(
            units(2),
            units(8),
            Priority::new(29),
        ));
        b.add_server(ServerSpec::sporadic(units(2), units(8), Priority::new(28)));
        b.periodic("tau", units(1), units(6), Priority::new(10));
        b.aperiodic_for(1, Instant::from_units(3), units(1));
        b.horizon(Instant::from_units(48));
        let mut spec = b.build().unwrap();
        spec.faults = FaultPlan::new()
            .mode_change(ModeChange::at(Instant::from_units(9), 1).with_capacity(units(1)));
        let planned = [PlannedEvent {
            server: 1,
            event: spec.aperiodics[0].id,
            handler: crate::handler::ServableHandler::new(
                spec.aperiodics[0].handler,
                rt_model::NameId::UNNAMED,
                units(1),
            ),
            release: Instant::from_units(3),
        }];
        let table = InstallTable::lay_out(&spec, &planned);

        assert_eq!(table.threads.len(), 4);
        assert_eq!(table.threads[0].events, None);
        assert_eq!(table.threads[0].grid.map(|g| g.period), Some(units(6)));
        let ds = LaneEvents {
            wakeup: 0,
            chunks: 1,
        };
        assert_eq!(table.threads[1].events, Some(ds));
        assert_eq!(table.threads[1].deadline, Instant::from_units(8));
        assert_eq!(
            table.threads[2].events,
            Some(LaneEvents {
                wakeup: 3,
                chunks: 4,
            })
        );
        assert_eq!(table.threads[3].deadline, Instant::from_units(6));

        // DS: wakeUp, swap chunks, periodic replenish; SS: wakeUp, chunks;
        // then the servable event, waking the DS lane.
        assert_eq!(table.first_sae, 5);
        assert_eq!(
            table.events[2],
            EventKind::Replenish {
                rule: ReplenishRule::Periodic,
                lane: 1,
                wakeup: 0,
            }
        );
        assert_eq!(
            table.events[5],
            EventKind::Sae {
                lane: 1,
                wakeup: Some(0),
                plan_index: 0,
            }
        );
        // The DS replenishment timer, then its mode-change wake-up.
        assert_eq!(
            table.timers,
            vec![
                Timer {
                    next: Instant::from_units(8),
                    period: Some(units(8)),
                    event: 2,
                },
                Timer {
                    next: Instant::from_units(9),
                    period: None,
                    event: 0,
                },
            ]
        );
    }
}
