//! # rt-taskserver — the Task Server Framework
//!
//! Rust implementation of the paper's primary contribution: an RTSJ extension
//! for designing real-time event-based applications with aperiodic task
//! servers. The classes of the paper's Figure 1 map onto:
//!
//! * the abstract `TaskServer`'s shared state — pending events, capacity,
//!   outcomes — in [`ServerShared`], built from
//!   [`rtsj_emu::TaskServerParameters`];
//! * the `PollingTaskServer`, `DeferrableTaskServer` (plus the background
//!   baseline) and Sporadic policies in the three schedulable bodies
//!   [`PollingServerBody`], [`EventDrivenServerBody`] and
//!   [`SporadicServerBody`];
//! * the `ServableAsyncEventHandler` in [`ServableHandler`];
//! * the wiring — one `wakeUp` event per event-driven server, replenishment
//!   timers, one `ServableAsyncEvent` per occurrence whose fire queues the
//!   release in its server — in the install table each
//!   [`ExecutionPlan`] lays out once for both decision loops.
//!
//! Around them:
//!
//! * the pending-event queue of §4 ([`queue::PendingQueue`]: FIFO-with-skip
//!   or deadline-ordered service);
//! * on-line admission at each release ([`state::ServerShared::released`]),
//!   decided by the §7 equation-(5) plan of [`rt_admission::ServerAdmission`]
//!   — the one predictor both engines share;
//! * the policy-independent service loop with `Timed` budget enforcement and
//!   overhead accounting ([`serve::ServiceLoop`]);
//! * a runner that executes a complete [`rt_model::SystemSpec`] in virtual
//!   time ([`system::execute`], on the table-driven driver of [`fastpath`])
//!   — the "execution" side of the paper's evaluation — and its naive
//!   reference on the `rtsj-emu` engine ([`system::execute_reference`]).
//!
//! ## Implementation constraints (paper §4)
//!
//! Handlers are not resumable: a handler is only dispatched when its whole
//! declared cost fits in the budget its policy grants, and it is
//! asynchronously interrupted (and counted in the AIR metric) when its actual
//! demand — plus the dispatch/enforcement overheads charged inside the budget
//! — exceeds that budget. The server must be the highest-priority task of the
//! system; `rt_model::SystemSpec::validate` enforces it.
//!
//! ## Fault injection & mode changes (enforcement complexity)
//!
//! A spec's [`rt_model::FaultPlan`] is enforced by this engine at three
//! points, none of which costs anything on fault-free specs:
//!
//! * **Arrival faults** (release jitter, drops) are normalised away by
//!   `rt_model::SystemSpec::apply_arrival_faults` before the engine is
//!   built — zero runtime cost, and the same normalised stream every
//!   other engine sees.
//! * **Cost overruns** ride the `Timed` budget machinery the paper's §4
//!   already requires: an overrun-tagged release demands
//!   `declared + extra` but its service is capped at the *declared*
//!   cost on any lane — including background lanes, which otherwise
//!   grant unbounded budget. The cap is one extra `min` per dispatch,
//!   O(1); exhausting it surfaces as [`rt_model::AperiodicFate::Aborted`]
//!   (distinct from a plain `Interrupted` budget collision) and releases
//!   the event's admission-plan slot
//!   ([`rt_admission::ServerAdmission::on_abort`]), which pays the
//!   admission repack — O(backlog) — only when an abort actually fires.
//! * **Mode changes** are applied by the service loop between services
//!   ([`state::ServerShared::apply_due_mode_changes`]): the lane is
//!   quiescent there by construction (no in-service handler), so
//!   in-flight work always drains under the old parameters and the
//!   reconfiguration lands at the same instant the simulator picks. The
//!   sweep is O(pending mode changes) per service-loop pass with
//!   per-record applied flags — amortised O(1) per decision.
//!
//! ## Per-run cost model (phase-2 compile layer)
//!
//! Preparing a run ([`system::ExecutionPlan::prepare`]) is
//! O(structure + events-within-horizon): validation, one planned-event
//! table, the driver's dispatch substrate and one interned
//! [`rt_model::NameTable`] — no per-event `String` clones (handler templates
//! carry fixed-width [`rt_model::NameId`]s), and fault-free specs are
//! borrowed (`Cow`), never cloned. Every execution entry point runs one
//! table-driven decision loop ([`fastpath`]), O(1) amortized per decision
//! under fixed priorities and O(log n) under EDF, with zero heap
//! allocations per decision (pinned by `rt-bench`'s `zero_alloc` test).
//! [`execute_reference`] runs the same framework on the naive `rtsj-emu`
//! engine — O(n) per decision — as the oracle the driver is tested
//! against.
//! Post-run trace finalisation buckets execution segments by task in one
//! pass — O(segments + tasks), *not* O(tasks × segments); at 300 tasks the
//! difference is the bulk of the per-run cost.
//!
//! ```
//! use rt_model::{Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec};
//! use rt_taskserver::{execute, ExecutionConfig};
//!
//! // The paper's Table 1 example with e1 fired at t=0.
//! let mut b = SystemSpec::builder("quickstart");
//! b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
//! b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
//! b.periodic("tau2", Span::from_units(1), Span::from_units(6), Priority::new(10));
//! b.aperiodic(Instant::from_units(0), Span::from_units(2));
//! b.horizon_server_periods(10);
//! let spec = b.build().unwrap();
//!
//! let trace = execute(&spec, &ExecutionConfig::ideal());
//! assert_eq!(trace.outcomes[0].response_time(), Some(Span::from_units(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deferrable;
pub mod fastpath;
pub mod handler;
mod install;
pub mod polling;
pub mod queue;
pub mod serve;
pub mod sporadic;
pub mod state;
pub mod system;

pub use deferrable::EventDrivenServerBody;
pub use handler::{QueuedRelease, ServableHandler};
pub use polling::PollingServerBody;
pub use queue::PendingQueue;
pub use rtsj_emu::TaskServerParameters;
pub use serve::{ServeStep, ServiceLoop};
pub use sporadic::SporadicServerBody;
pub use state::{GrantedService, ReplenishRule, ServerShared, SharedServer};
pub use system::{execute, execute_reference, execute_with_probe, ExecutionConfig, ExecutionPlan};

/// Shared fixtures of the unit tests.
#[cfg(test)]
mod test_support {
    use rt_model::{EventId, ExecUnit, Instant, Priority, ServerSpec, Span, SystemSpec, Trace};
    use rtsj_emu::OverheadModel;

    /// Runs the paper's Table 1 periodic pair (τ1 = (2, 6) at priority 20,
    /// τ2 = (1, 6) at priority 10) under `server` on the oracle, with
    /// `(release, declared cost, actual cost)` firings in units.
    pub(crate) fn run_table1(
        server: ServerSpec,
        events: &[(u64, u64, u64)],
        horizon: u64,
        overhead: OverheadModel,
    ) -> Trace {
        let mut b = SystemSpec::builder("table-1");
        b.server(server);
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(20),
        );
        b.periodic(
            "tau2",
            Span::from_units(1),
            Span::from_units(6),
            Priority::new(10),
        );
        for &(release, declared, actual) in events {
            let (declared, actual) = (Span::from_units(declared), Span::from_units(actual));
            b.aperiodic_with(Instant::from_units(release), declared, actual);
        }
        b.horizon(Instant::from_units(horizon));
        let config = crate::ExecutionConfig::ideal().with_overhead(overhead);
        crate::execute_reference(&b.build().unwrap(), &config)
    }

    /// The (start, end) units of the handler segments of event `event`.
    pub(crate) fn handler_segments(trace: &Trace, event: u32) -> Vec<(u64, u64)> {
        trace
            .segments_of(ExecUnit::Handler(EventId::new(event)))
            .map(|s| (s.start.ticks() / 1000, s.end.ticks() / 1000))
            .collect()
    }
}

#[cfg(test)]
mod proptests {
    //! Randomised property tests. The offline build environment has no
    //! `proptest`, so the same properties are exercised over many seeded,
    //! deterministic random cases instead of shrinking strategies.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_model::{Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec, Trace};
    use rtsj_emu::OverheadModel;

    fn random_spec(rng: &mut StdRng) -> SystemSpec {
        let capacity = rng.gen_range(2u64..=4);
        let policy = if rng.gen() {
            ServerPolicyKind::Polling
        } else {
            ServerPolicyKind::Deferrable
        };
        let mut b = SystemSpec::builder("prop-exec");
        b.server(ServerSpec {
            policy,
            capacity: Span::from_units(capacity),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline: rt_model::QueueDiscipline::FifoSkip,
            admission: Default::default(),
        });
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(20),
        );
        b.periodic(
            "tau2",
            Span::from_units(1),
            Span::from_units(6),
            Priority::new(10),
        );
        for _ in 0..rng.gen_range(0u64..=11) {
            let release = rng.gen_range(0u64..=54);
            let cost = rng.gen_range(1u64..=2);
            b.aperiodic(
                Instant::from_units(release),
                Span::from_units(cost.min(capacity)),
            );
        }
        b.horizon_server_periods(10);
        b.build().unwrap()
    }

    fn served(trace: &Trace) -> usize {
        trace.outcomes.iter().filter(|o| o.is_served()).count()
    }

    const CASES: u64 = 48;

    /// Executions always produce well-formed traces with one outcome per
    /// released event.
    #[test]
    fn executions_are_well_formed() {
        let mut rng = StdRng::seed_from_u64(0xA11C_E001);
        for _ in 0..CASES {
            let spec = random_spec(&mut rng);
            let trace = execute(&spec, &ExecutionConfig::reference());
            assert!(trace.check_invariants().is_ok());
            assert_eq!(trace.outcomes.len(), spec.aperiodics.len());
        }
    }

    /// With no overheads and no underdeclared handlers, nothing is ever
    /// interrupted.
    #[test]
    fn ideal_executions_never_interrupt() {
        let mut rng = StdRng::seed_from_u64(0xA11C_E002);
        for _ in 0..CASES {
            let spec = random_spec(&mut rng);
            let trace = execute(&spec, &ExecutionConfig::ideal());
            assert!(trace.outcomes.iter().all(|o| !o.is_interrupted()));
        }
    }

    /// Adding runtime overhead can only reduce the number of served events.
    #[test]
    fn overhead_never_helps() {
        let mut rng = StdRng::seed_from_u64(0xA11C_E003);
        for _ in 0..CASES {
            let spec = random_spec(&mut rng);
            let ideal = execute(&spec, &ExecutionConfig::ideal());
            let heavy = execute(
                &spec,
                &ExecutionConfig::ideal().with_overhead(OverheadModel::reference().scaled(4)),
            );
            assert!(served(&heavy) <= served(&ideal));
        }
    }

    /// The periodic tasks keep their deadlines whenever the server's
    /// capacity keeps the total utilisation within 1 on the harmonic
    /// Table 1 set (capacity ≤ 3) and the runtime is ideal.
    #[test]
    fn periodic_tasks_are_protected_in_ideal_executions() {
        let mut rng = StdRng::seed_from_u64(0xA11C_E005);
        for _ in 0..CASES {
            let spec = random_spec(&mut rng);
            if spec.server().unwrap().capacity > Span::from_units(3) {
                continue;
            }
            let trace = execute(&spec, &ExecutionConfig::ideal());
            assert!(trace.all_periodic_deadlines_met());
        }
    }
}
