//! Executing a complete [`SystemSpec`] on the task-server framework.
//!
//! This is the "execution" side of the paper's methodology: the same system
//! descriptions that `rtss-sim` replays under the idealised policies are
//! instantiated here as a real task-server application — periodic real-time
//! threads for the periodic tasks, an installed task server, one servable
//! asynchronous event (fired by a one-shot timer) per aperiodic occurrence —
//! and run in virtual time with the configured overhead model. The result is
//! the same [`Trace`] type the simulator produces, so the metrics crate
//! treats executions and simulations identically.
//!
//! Every entry point ([`execute`], [`execute_with_probe`],
//! [`ExecutionPlan::run`], [`ExecutionPlan::run_with_probe`]) runs the one
//! table-driven driver of [`crate::fastpath`], under fixed priorities and
//! EDF alike. [`execute_reference`] installs the same schedulables, events
//! and timers on the naive `rtsj-emu` [`Engine`] — the reference oracle the
//! driver is tested against. Both read them from the plan's install table.

use crate::fastpath::SubstratePlan;
use crate::handler::{QueuedRelease, ServableHandler};
use crate::install::{install_lane, EventKind, InstallTable};
use crate::state::SharedServer;
use rt_model::{
    AperiodicFate, AperiodicOutcome, ExecUnit, Instant, ModelError, NameTable, PeriodicJobRecord,
    PeriodicTask, Span, SystemSpec, Trace,
};
use rt_observe::{NoopProbe, Probe};
use rtsj_emu::{
    Engine, EngineConfig, EventHandle, FireHook, OverheadModel, PeriodicThreadBody, ThreadBody,
};
use std::borrow::Cow;

/// Configuration of an execution run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionConfig {
    /// Runtime overhead model.
    pub overhead: OverheadModel,
}

impl ExecutionConfig {
    /// The configuration used for the paper's tables: reference overheads.
    pub fn reference() -> Self {
        ExecutionConfig {
            overhead: OverheadModel::reference(),
        }
    }

    /// An idealised configuration (no overhead): used for the scenario
    /// figures and for differential tests against the simulator.
    pub fn ideal() -> Self {
        ExecutionConfig {
            overhead: OverheadModel::none(),
        }
    }

    /// Replaces the overhead model.
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self::reference()
    }
}

/// Executes the system and returns its trace. The system's
/// [`SystemSpec::scheduling`] knob picks fixed-priority or EDF dispatching.
///
/// ```
/// use rt_model::{Instant, Priority, ServerSpec, Span, SystemSpec};
/// use rt_taskserver::{execute, ExecutionConfig};
///
/// let mut b = SystemSpec::builder("doc");
/// b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
/// b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
/// b.aperiodic(Instant::from_units(0), Span::from_units(2));
/// b.horizon_server_periods(4);
/// let trace = execute(&b.build().unwrap(), &ExecutionConfig::ideal());
/// assert!(trace.outcomes[0].is_served());
/// ```
///
/// # Panics
/// Panics when the specification fails validation.
pub fn execute(spec: &SystemSpec, config: &ExecutionConfig) -> Trace {
    ExecutionPlan::prepare(spec, config)
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("execute() requires a valid system specification")
        .run()
}

/// [`execute`] with an observation probe attached — the execution-world
/// entry of the `rt-observe` layer. The trace is byte-identical to the
/// probe-free [`execute`]; pass `&mut probe` to keep the recording (the
/// blanket `&mut P: Probe` impl forwards every hook).
///
/// # Panics
/// Panics when the specification fails validation.
pub fn execute_with_probe<P: Probe>(
    spec: &SystemSpec,
    config: &ExecutionConfig,
    probe: P,
) -> Trace {
    ExecutionPlan::prepare(spec, config)
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("execute_with_probe() requires a valid system specification")
        .run_with_probe(probe)
}

/// Executes the system on the naive `rtsj-emu` [`Engine`] — the execution
/// world's reference oracle. The plan's install table is replayed on the
/// engine — a schedulable per server lane and per periodic task, the lanes'
/// events and replenishment timers, one servable event and firing timer per
/// planned occurrence — and the engine rescans every thread and timer at
/// every decision. Traces are
/// byte-identical to [`execute`]; the differential tests, the fuzzer and
/// the goldens pin the driver to this function.
///
/// # Panics
/// Panics when the specification fails validation.
pub fn execute_reference(spec: &SystemSpec, config: &ExecutionConfig) -> Trace {
    ExecutionPlan::prepare(spec, config)
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("execute_reference() requires a valid system specification")
        .run_reference()
}

/// One aperiodic occurrence as the driver and the oracle install it: the
/// routed server index, the handler template and the fire instant,
/// precomputed so a run does not re-derive them from the spec. Fully `Copy`
/// — the handler name is interned in the plan's [`NameTable`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedEvent {
    pub(crate) server: usize,
    pub(crate) event: rt_model::EventId,
    pub(crate) handler: ServableHandler,
    pub(crate) release: Instant,
}

/// The compiled schedulable table of one system × configuration: everything
/// [`execute`] derives from the spec before the driver starts — validation,
/// the servable handler templates of the events that actually install
/// (released within the horizon, routed to an existing server), the install
/// table of every thread, event and timer, and the driver's dispatch
/// substrate — computed once in [`ExecutionPlan::prepare`]
/// and replayed by [`ExecutionPlan::run`] as many times as needed.
/// [`execute`] is `prepare().run()`, so planned and direct executions are
/// byte-identical by construction.
/// The plan borrows the spec it was prepared from (`Cow`): a fault-free spec
/// is never cloned, and preparing allocates O(events-within-horizon) for the
/// planned-event table plus the interned [`NameTable`] — no per-event
/// `String` clones.
#[derive(Debug, Clone)]
pub struct ExecutionPlan<'a> {
    pub(crate) spec: Cow<'a, SystemSpec>,
    pub(crate) names: NameTable,
    pub(crate) config: ExecutionConfig,
    pub(crate) events: Vec<PlannedEvent>,
    pub(crate) install: InstallTable,
    pub(crate) substrate: SubstratePlan,
}

impl<'a> ExecutionPlan<'a> {
    /// Validates the spec and freezes the installation plan.
    ///
    /// # Errors
    /// Returns the [`ModelError`] of [`SystemSpec::validate`] when the spec
    /// is not well formed.
    pub fn prepare(spec: &'a SystemSpec, config: &ExecutionConfig) -> Result<Self, ModelError> {
        spec.validate()?;
        Ok(Self::prepare_prevalidated(spec, config))
    }

    /// Freezes the installation plan of a spec the caller guarantees is
    /// already valid (`spec.validate()` would succeed). The compile layer
    /// uses this to avoid re-running the O(events) workload checks it has
    /// already accounted for.
    pub fn prepare_prevalidated(spec: &'a SystemSpec, config: &ExecutionConfig) -> Self {
        // Arrival faults (release jitter, dropped arrivals) are a pure spec
        // normalization: the plan is frozen over the faulted arrival stream,
        // so the driver below never sees them. Fault-free specs stay borrowed.
        let spec = match spec.apply_arrival_faults() {
            Some(faulted) => Cow::Owned(faulted),
            None => Cow::Borrowed(spec),
        };
        let mut names = NameTable::new();
        let events = spec
            .workload()
            .within_horizon()
            .iter()
            .filter(|event| event.server < spec.servers.len())
            .map(|event| PlannedEvent {
                server: event.server,
                event: event.id,
                handler: ServableHandler {
                    id: event.handler,
                    name: names.intern(&event.name),
                    declared_cost: event.declared_cost,
                    actual_cost: event.actual_cost,
                    relative_deadline: event.relative_deadline,
                    value: event.value,
                    overrun_extra: spec.faults.overrun_extra(event.id),
                },
                release: event.release,
            })
            .collect::<Vec<_>>();
        let install = InstallTable::lay_out(&spec, &events);
        let substrate = SubstratePlan::analyze(&install, spec.horizon, events.len());
        ExecutionPlan {
            spec,
            names,
            config: *config,
            events,
            install,
            substrate,
        }
    }

    /// The validated system this plan executes.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The symbol table resolving the plan's interned handler names back to
    /// the spec's strings (diagnostics only — canonical traces carry no
    /// names).
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// The configuration the plan was prepared for.
    pub fn config(&self) -> &ExecutionConfig {
        &self.config
    }

    /// Runs the plan on the table-driven driver and returns its trace.
    /// Reusable: the plan holds no run state.
    pub fn run(&self) -> Trace {
        self.run_with_probe(NoopProbe)
    }

    /// Runs the plan with an observation probe attached. The trace is
    /// byte-identical to [`ExecutionPlan::run`] — every hook site is gated on
    /// [`Probe::ENABLED`], so `run()` *is* this method monomorphized over
    /// [`NoopProbe`].
    ///
    /// The driver reports the decision-loop hooks live (decisions,
    /// dispatches, preemptions, slices, releases, fires); admission verdicts
    /// happen inside the shared server lanes, so each lane keeps an
    /// always-on [`rt_observe::LaneTotals`] tally that is handed to
    /// [`Probe::lane_totals`] once the run finishes. Pass `&mut probe` to
    /// keep the recording.
    pub fn run_with_probe<P: Probe>(&self, probe: P) -> Trace {
        crate::fastpath::run_driver(self, probe)
    }

    /// Runs the plan on the naive `rtsj-emu` [`Engine`]: the body of
    /// [`execute_reference`]. Threads, events and timers are created in
    /// install-table order, so the engine's handles are the table's indices.
    fn run_reference(&self) -> Trace {
        let (spec, table) = (&*self.spec, &self.install);
        let mut engine = Engine::new(
            EngineConfig::new(spec.horizon)
                .with_overhead(self.config.overhead)
                .with_policy(spec.scheduling),
        );
        let mut lanes: Vec<SharedServer> = Vec::with_capacity(spec.servers.len());
        for (tid, thread) in table.threads.iter().enumerate() {
            let body: Box<dyn ThreadBody> = if tid < spec.servers.len() {
                let (shared, body) = install_lane(spec, tid, thread.events, self.config.overhead);
                lanes.push(shared);
                body
            } else {
                let task = &spec.periodic_tasks[tid - spec.servers.len()];
                Box::new(PeriodicThreadBody::new(task.cost, ExecUnit::Task(task.id)))
            };
            let handle = match thread.grid {
                Some(grid) => {
                    let handle =
                        engine.spawn_periodic("", thread.priority, grid.next, grid.period, body);
                    engine.set_relative_deadline(handle, grid.relative_deadline);
                    handle
                }
                None => engine.spawn("", thread.priority, body),
            };
            engine.set_thread_deadline(handle, thread.deadline);
        }
        for &kind in &table.events {
            let event = engine.create_event("");
            if let Some(hook) = self.fire_hook(kind, &lanes) {
                engine.add_fire_hook(event, hook);
            }
        }
        for timer in &table.timers {
            let event = EventHandle::from_raw(timer.event);
            match timer.period {
                Some(period) => engine.add_periodic_timer(timer.next, period, event),
                None => engine.add_one_shot_timer(timer.next, event),
            }
        }
        for (index, planned) in self.events.iter().enumerate() {
            let event = EventHandle::from_raw(table.first_sae + index);
            engine.add_one_shot_timer(planned.release, event);
        }

        let mut trace = engine.run();
        finalise_trace(self, &lanes, &mut trace);
        trace
    }

    /// The oracle's fire hook of an event of kind `kind`: the same rules the
    /// driver applies when it dispatches on the kind directly.
    fn fire_hook(&self, kind: EventKind, lanes: &[SharedServer]) -> Option<FireHook> {
        match kind {
            EventKind::Plain => None,
            EventKind::Replenish { rule, lane, wakeup } => {
                let shared = lanes[lane].clone();
                Some(Box::new(move |ctx| {
                    if shared.borrow_mut().on_replenish(rule, ctx.now()) {
                        ctx.fire(EventHandle::from_raw(wakeup));
                    }
                }))
            }
            EventKind::Sae {
                lane,
                wakeup,
                plan_index,
            } => {
                let (shared, planned) = (lanes[lane].clone(), self.events[plan_index]);
                Some(Box::new(move |ctx| {
                    let release = QueuedRelease::new(planned.event, planned.handler, ctx.now());
                    // A refused release never entered the queue: it wakes
                    // nothing.
                    if shared.borrow_mut().released(release, ctx.now()) {
                        if let Some(wakeup) = wakeup {
                            ctx.fire(EventHandle::from_raw(wakeup));
                        }
                    }
                }))
            }
        }
    }
}

/// Shared post-run finalisation of an execution trace, used by both the
/// driver and the reference engine: attach the aperiodic outcomes recorded
/// by the `lanes` — completing them with `Unserved` for any planned event
/// with no recorded fate (e.g. the one being served when the horizon was
/// reached) — and reconstruct the periodic job records from the execution
/// segments.
pub(crate) fn finalise_trace(plan: &ExecutionPlan<'_>, lanes: &[SharedServer], trace: &mut Trace) {
    let spec = &*plan.spec;
    if !lanes.is_empty() {
        let mut outcomes: Vec<AperiodicOutcome> = lanes
            .iter()
            .flat_map(|lane| lane.borrow_mut().finalise())
            .collect();
        // A seen-bitmap keyed by event index: O(events + outcomes).
        let slots = plan
            .events
            .iter()
            .map(|planned| planned.event.index() + 1)
            .max()
            .unwrap_or(0);
        let mut recorded = vec![false; slots];
        for outcome in &outcomes {
            recorded[outcome.event.index()] = true;
        }
        for planned in &plan.events {
            if !recorded[planned.event.index()] {
                let release = QueuedRelease::new(planned.event, planned.handler, planned.release);
                outcomes.push(AperiodicOutcome {
                    event: planned.event,
                    release: planned.release,
                    declared_cost: release.declared_cost(),
                    value: release.value(),
                    deadline: release.admission_deadline(),
                    fate: AperiodicFate::Unserved,
                });
            }
        }
        outcomes.sort_by_key(|o| (o.release, o.event));
        trace.outcomes = outcomes;
    }
    // One reservation for all records: the job count is computable from the
    // spec, so the record vector never grows incrementally (part of the
    // horizon-independent allocation discipline the zero-allocation
    // regression test in `rt-bench` pins).
    let job_total: usize = spec
        .periodic_tasks
        .iter()
        .map(|task| jobs_within(task, spec.horizon))
        .sum();
    trace.periodic_jobs.reserve(job_total);
    // Bucket the execution segments by task in one pass over the trace
    // rather than one filtered scan per task: O(segments + tasks) instead of
    // O(tasks × segments), which otherwise dominates post-run cost for large
    // task sets. Two passes (count, then fill) keep every bucket
    // right-sized, preserving the horizon-independent allocation count.
    let slots = spec
        .periodic_tasks
        .iter()
        .map(|task| task.id.index() + 1)
        .max()
        .unwrap_or(0);
    let mut counts = vec![0usize; slots];
    for segment in &trace.segments {
        if let ExecUnit::Task(id) = segment.unit {
            counts[id.index()] += 1;
        }
    }
    let mut buckets: Vec<Vec<(Instant, Instant)>> = counts
        .iter()
        .map(|&count| Vec::with_capacity(count))
        .collect();
    for segment in &trace.segments {
        if let ExecUnit::Task(id) = segment.unit {
            buckets[id.index()].push((segment.start, segment.end));
        }
    }
    for task in &spec.periodic_tasks {
        for record in reconstruct_periodic_records(&buckets[task.id.index()], task, spec.horizon) {
            trace.periodic_jobs.push(record);
        }
    }

    debug_assert!(trace.check_invariants().is_ok());
}

/// Number of releases of `task` strictly before `horizon`.
fn jobs_within(task: &PeriodicTask, horizon: Instant) -> usize {
    let first = task.release_of(0);
    if first >= horizon {
        return 0;
    }
    let window = horizon.since(first).ticks();
    (1 + (window - 1) / task.period.ticks()) as usize
}

/// Rebuilds the periodic job records of one task from its trace segments:
/// the k-th job completes when the task has accumulated `(k+1) · cost` of
/// processor time.
fn reconstruct_periodic_records(
    segments: &[(Instant, Instant)],
    task: &PeriodicTask,
    horizon: Instant,
) -> Vec<PeriodicJobRecord> {
    let mut records = Vec::with_capacity(jobs_within(task, horizon));
    let mut segment_index = 0usize;
    // Processor time of the current segment already attributed to earlier jobs.
    let mut consumed_in_segment = Span::ZERO;
    let mut activation = 0u64;
    loop {
        let release = task.release_of(activation);
        if release >= horizon {
            break;
        }
        let mut needed = task.cost;
        let mut completed = None;
        while !needed.is_zero() {
            let Some(&(start, end)) = segments.get(segment_index) else {
                break;
            };
            let available = end.since(start).minus(consumed_in_segment);
            if available <= needed {
                needed = needed.minus(available);
                segment_index += 1;
                consumed_in_segment = Span::ZERO;
                if needed.is_zero() {
                    completed = Some(end);
                }
            } else {
                consumed_in_segment += needed;
                completed = Some(start + consumed_in_segment);
                needed = Span::ZERO;
            }
        }
        records.push(PeriodicJobRecord {
            task: task.id,
            activation,
            release,
            deadline: task.deadline_of(activation),
            completed,
        });
        activation += 1;
        if completed.is_none() {
            // Later jobs cannot have completed either: record them as
            // incomplete and stop.
            while task.release_of(activation) < horizon {
                records.push(PeriodicJobRecord {
                    task: task.id,
                    activation,
                    release: task.release_of(activation),
                    deadline: task.deadline_of(activation),
                    completed: None,
                });
                activation += 1;
            }
            break;
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::{Priority, ServerPolicyKind, ServerSpec, SystemSpec};

    fn table1(policy: ServerPolicyKind, capacity: u64, events: &[(u64, u64)]) -> SystemSpec {
        let mut b = SystemSpec::builder("table-1");
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
        for &(release, cost) in events {
            b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        }
        b.horizon_server_periods(10);
        b.build().unwrap()
    }

    #[test]
    fn execution_produces_outcomes_for_every_released_event() {
        let spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2), (6, 2), (40, 3)]);
        let trace = execute(&spec, &ExecutionConfig::ideal());
        assert_eq!(trace.outcomes.len(), 3);
        assert!(trace.outcomes.iter().all(|o| o.is_served()));
        assert!(trace.check_invariants().is_ok());
    }

    #[test]
    fn execution_matches_simulation_for_scenario_1() {
        // When every handler fits in the capacity at its activation, the
        // implementation and the textbook policy coincide; compare against
        // the simulator.
        let spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2), (6, 2)]);
        let executed = execute(&spec, &ExecutionConfig::ideal());
        let simulated = rtss_sim_simulate(&spec);
        let exec_responses: Vec<_> = executed
            .outcomes
            .iter()
            .map(|o| o.response_time())
            .collect();
        let sim_responses: Vec<_> = simulated
            .outcomes
            .iter()
            .map(|o| o.response_time())
            .collect();
        assert_eq!(exec_responses, sim_responses);
    }

    /// Minimal local re-implementation shim so this crate's tests do not
    /// depend on `rtss-sim` (which would create a dev-dependency cycle with
    /// the workspace layering); the integration tests at the workspace root
    /// compare against the real simulator.
    fn rtss_sim_simulate(spec: &SystemSpec) -> Trace {
        // Scenario 1 is simple enough to compute by hand: both events are
        // served immediately at their release for 2 time units.
        let mut trace = Trace::new(spec.horizon);
        for event in &spec.aperiodics {
            trace.push_outcome(AperiodicOutcome {
                event: event.id,
                release: event.release,
                declared_cost: event.declared_cost,
                value: event.value,
                deadline: event.absolute_deadline(),
                fate: AperiodicFate::Served {
                    started: event.release,
                    completed: event.release + event.actual_cost,
                },
            });
        }
        trace
    }

    #[test]
    fn periodic_records_are_reconstructed() {
        let spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2)]);
        let trace = execute(&spec, &ExecutionConfig::ideal());
        // 10 jobs per task over 10 periods.
        assert_eq!(trace.periodic_jobs.len(), 20);
        assert!(trace.all_periodic_deadlines_met());
        // tau1's first job runs after the server: released 0, completed 4.
        let tau1_first = trace
            .periodic_jobs
            .iter()
            .find(|j| j.task == spec.periodic_tasks[0].id && j.activation == 0)
            .unwrap();
        assert_eq!(tau1_first.completed, Some(Instant::from_units(4)));
    }

    #[test]
    fn overheads_reduce_the_served_ratio() {
        // Heavy traffic: with reference overheads strictly fewer events
        // complete than with the ideal runtime.
        let events: Vec<(u64, u64)> = (0..25).map(|i| (i * 2, 3)).collect();
        let spec = table1(ServerPolicyKind::Polling, 4, &events);
        let ideal = execute(&spec, &ExecutionConfig::ideal());
        let real = execute(&spec, &ExecutionConfig::reference());
        let served = |t: &Trace| t.outcomes.iter().filter(|o| o.is_served()).count();
        assert!(served(&real) <= served(&ideal));
        assert!(real.overhead_time() > Span::ZERO);
        assert_eq!(ideal.overhead_time(), Span::ZERO);
    }

    #[test]
    fn deferrable_execution_served_ratio_not_lower_than_polling() {
        let events: Vec<(u64, u64)> = (0..12).map(|i| (i * 4 + 1, 2)).collect();
        let ps_spec = table1(ServerPolicyKind::Polling, 3, &events);
        let ds_spec = table1(ServerPolicyKind::Deferrable, 3, &events);
        let ps = execute(&ps_spec, &ExecutionConfig::reference());
        let ds = execute(&ds_spec, &ExecutionConfig::reference());
        let served = |t: &Trace| t.outcomes.iter().filter(|o| o.is_served()).count();
        assert!(served(&ds) >= served(&ps));
    }

    #[test]
    fn systems_without_servers_run_their_periodic_tasks_only() {
        let mut b = SystemSpec::builder("no-server");
        b.periodic(
            "tau",
            Span::from_units(2),
            Span::from_units(5),
            Priority::new(10),
        );
        b.horizon(Instant::from_units(20));
        let spec = b.build().unwrap();
        let trace = execute(&spec, &ExecutionConfig::ideal());
        assert!(trace.outcomes.is_empty());
        assert_eq!(trace.periodic_jobs.len(), 4);
        assert!(trace.all_periodic_deadlines_met());
    }

    #[test]
    fn execution_is_deterministic() {
        let events: Vec<(u64, u64)> = (0..10).map(|i| (i * 3 + 1, 2)).collect();
        let spec = table1(ServerPolicyKind::Deferrable, 3, &events);
        let a = execute(&spec, &ExecutionConfig::reference());
        let b = execute(&spec, &ExecutionConfig::reference());
        assert_eq!(a, b);
    }

    #[test]
    fn overrun_injected_event_is_aborted_at_its_declared_cost() {
        // e0 declares 2 but a fault injects 2 extra units of demand. The
        // declared cost becomes a hard service cap: the handler runs 0..2 and
        // is cut off with the first-class `Aborted` fate (not `Interrupted`,
        // which is reserved for capacity-bound cutoffs of honest releases).
        let mut spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2)]);
        spec.faults =
            rt_model::FaultPlan::new().overrun(spec.aperiodics[0].id, Span::from_units(2));
        let trace = execute(&spec, &ExecutionConfig::ideal());
        assert_eq!(trace.outcomes.len(), 1);
        match trace.outcomes[0].fate {
            AperiodicFate::Aborted { at } => assert_eq!(at, Instant::from_units(2)),
            ref other => panic!("expected an enforcement abort, got {other:?}"),
        }
        let segments: Vec<_> = trace
            .segments_of(ExecUnit::Handler(spec.aperiodics[0].id))
            .map(|s| (s.start, s.end))
            .collect();
        assert_eq!(
            segments,
            vec![(Instant::from_units(0), Instant::from_units(2))]
        );
    }

    #[test]
    fn arrival_faults_shift_and_drop_releases_before_the_engine_runs() {
        let mut spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2), (6, 2)]);
        spec.faults = rt_model::FaultPlan::new()
            .jitter(spec.aperiodics[0].id, Span::from_units(6))
            .drop_arrival(spec.aperiodics[1].id);
        let trace = execute(&spec, &ExecutionConfig::ideal());
        // The dropped arrival never reaches the engine; the jittered one is
        // released — and served — at its shifted instant.
        assert_eq!(trace.outcomes.len(), 1);
        assert_eq!(trace.outcomes[0].release, Instant::from_units(6));
        assert!(trace.outcomes[0].is_served());
    }

    #[test]
    fn capacity_mode_change_waits_for_quiescence_and_caps_the_refill() {
        // DS capacity 3: e0 (cost 3) is in service 0..3 when the change at 1
        // (capacity → 1) comes due, so it applies at the completion decision
        // instant. e1 (cost 1, released 4) then has to wait for the period-6
        // replenishment, which refills to the *new* capacity only.
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(0, 3), (4, 1)]);
        spec.faults = rt_model::FaultPlan::new().mode_change(
            rt_model::ModeChange::at(Instant::from_units(1), 0).with_capacity(Span::from_units(1)),
        );
        let trace = execute(&spec, &ExecutionConfig::ideal());
        let started = |i: usize| match trace.outcomes[i].fate {
            AperiodicFate::Served { started, .. } => started,
            ref other => panic!("expected served, got {other:?}"),
        };
        assert_eq!(started(0), Instant::from_units(0));
        assert_eq!(started(1), Instant::from_units(6));
    }

    #[test]
    fn policy_swap_to_background_lifts_the_capacity_cap() {
        // e0 exhausts the DS capacity at 0..2, so e1 (released 3) would wait
        // for the period-6 replenishment. The scheduled swap to Background at
        // 4 removes the budget entirely: the lane wakes on the one-shot
        // mode-change timer and serves the backlog 4..6 instead.
        let mut spec = table1(ServerPolicyKind::Deferrable, 2, &[(0, 2), (3, 2)]);
        spec.faults = rt_model::FaultPlan::new().mode_change(
            rt_model::ModeChange::at(Instant::from_units(4), 0)
                .with_policy(ServerPolicyKind::Background),
        );
        let trace = execute(&spec, &ExecutionConfig::ideal());
        assert_eq!(trace.outcomes.len(), 2);
        match trace.outcomes[1].fate {
            AperiodicFate::Served { started, completed } => {
                assert_eq!(started, Instant::from_units(4));
                assert_eq!(completed, Instant::from_units(6));
            }
            ref other => panic!("expected served after the swap, got {other:?}"),
        }
    }

    #[test]
    fn background_spec_is_executed_at_low_priority() {
        let mut b = SystemSpec::builder("bg");
        b.server(ServerSpec::background(Priority::new(1)));
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(20),
        );
        b.aperiodic(Instant::from_units(0), Span::from_units(2));
        b.horizon(Instant::from_units(30));
        let spec = b.build().unwrap();
        let trace = execute(&spec, &ExecutionConfig::ideal());
        assert_eq!(trace.outcomes.len(), 1);
        // Served only after tau1's first job (0..2): response 4.
        assert_eq!(trace.outcomes[0].response_time(), Some(Span::from_units(4)));
    }
}
