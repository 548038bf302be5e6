//! The RTSS simulation engine: one table-driven decision loop for preemptive
//! systems with aperiodic task servers — fixed-priority by default, EDF when
//! [`SystemSpec::scheduling`] says so.
//!
//! The engine advances from decision point to decision point (periodic
//! release, aperiodic arrival, server replenishment, job completion,
//! capacity exhaustion, mode change, horizon) instead of ticking a quantum,
//! so simulation time is exact and the cost of a run is proportional to the
//! number of scheduling decisions, not to the length of the horizon.
//!
//! The simulated policies are the literature-exact ones ("this is not a
//! simulation of our implementations", paper §5): handlers are resumable,
//! there is no server overhead and no timer overhead, so the interrupted
//! ratio of a simulation is always zero. The capacity rules live in the
//! crate's `policy` module; the naive oracle every rule here is checked
//! against is [`crate::simulate_reference`].
//!
//! # The driver
//!
//! [`simulate`] freezes the spec into [`SimTables`] and runs one `Driver`
//! instantiation per server-policy kind × scheduling policy (selected from
//! the frozen policy set), so capacity accounting is direct field
//! arithmetic with no enum dispatch; systems mixing kinds or swapping
//! policies run the `AnyLanePolicy` instantiation. With `t` periodic tasks
//! and `S` server lanes one decision costs:
//!
//! * **next decision point** — aperiodic arrivals are a cursor into the
//!   release-sorted event list (O(1)); periodic releases ride a per-*rate
//!   group* wheel: tasks sharing `(offset, period)` release together
//!   forever, so one heap entry covers the whole group; lane replenishments
//!   are one field each (O(S));
//! * **runner choice** — under fixed priorities the ready tasks are a
//!   `ReadyBits` occupancy bitmap (find-highest-set scan) with the exact
//!   tie-breaks of a `(priority, Reverse(index))` heap; under EDF they are a
//!   heap keyed on the front job's absolute deadline with lazily discarded
//!   stale entries. Server lanes are swept linearly and win ties against
//!   tasks, earlier install index before later.
//!
//! # Multi-server systems
//!
//! Every server of [`SystemSpec::servers`] owns a *lane*: its capacity state,
//! its own pending queue and its admission machine. Arrivals are routed by
//! [`rt_model::AperiodicEvent::server`]. Within a lane,
//! [`rt_model::QueueDiscipline`] picks the job: FIFO (the textbook order —
//! resumable servers never need the implementation's cost skip) or earliest
//! absolute deadline (an O(backlog) sweep per dispatch). Under EDF lanes are
//! ranked by their replenishment-derived deadlines
//! (`LanePolicy::edf_deadline`).
//!
//! # On-line admission
//!
//! Each lane embeds the `rt-admission` decision machine
//! ([`rt_admission::ServerAdmission`]) its [`rt_model::ServerSpec`]
//! configures, fed through the allocation-free `on_arrival_into` with a
//! reused scratch buffer; `AcceptAll` lanes skip it entirely. Rejected
//! events become [`AperiodicFate::Rejected`] records and displaced ones
//! [`AperiodicFate::Aborted`]. Decisions depend only on the arrival history,
//! so they are identical to the execution engine's for the same system.
//!
//! # Fault injection & mode changes
//!
//! * **Arrival faults** (release jitter, dropped arrivals) are resolved by
//!   [`SystemSpec::apply_arrival_faults`] when the tables are frozen.
//! * **Cost overruns** give the faulted job a service cap equal to its
//!   declared budget; exhausting it mid-job surfaces as
//!   [`AperiodicFate::Aborted`] and releases the job's admission-plan slot.
//! * **Mode changes** apply at the first *quiescent* decision point at or
//!   after their instant (no in-service job on the lane — in-flight work
//!   drains first), reconfiguring the lane's statics, capacity state and
//!   admission machine.
//!
//! # Same-instant batching
//!
//! Between two consecutive decision points nothing new can become due, so
//! when the chosen runner finishes a job strictly inside its window the next
//! pick is forced. A server runner keeps serving its queue until the window
//! closes, the queue drains or capacity runs out; a task runner exit re-picks
//! *within the window* (tasks cannot move a lane replenishment) instead of
//! paying a full `process_due_events` + `next_decision_point` re-entry. A
//! server runner can move one (sporadic consumption schedules
//! replenishments), so server exits re-enter the full loop. Under EDF a
//! completed periodic job forces a re-pick: its successor has a later
//! deadline. The traces are byte-identical to the oracle's one job per
//! dispatch (pinned by the differential tests, the fuzzer and the goldens).
//!
//! # Per-decision allocations: zero
//!
//! Trace vectors, job queues, the wheel and the ready structures are
//! preallocated from the tables, so a steady-state decision performs no heap
//! allocation; the only amortised growth left is a pending queue exceeding
//! its initial estimate and the admission machine's displacement repacks
//! (O(backlog), overload-only).

use crate::policy::{
    apply_mode_change, AnyLanePolicy, BackgroundLane, DeferrableLane, LanePolicy, PollingLane,
    SporadicLane,
};
use crate::tables::{ArrivalTable, PolicySet, SimTables};
use rt_admission::{ArrivingEvent, ServerAdmission};
use rt_model::{
    AdmissionPolicy, AperiodicFate, AperiodicOutcome, EventId, ExecUnit, Instant,
    PeriodicJobRecord, QueueDiscipline, SchedulingPolicy, ServerPolicyKind, ServerSpec, Span,
    SystemSpec, Trace,
};
use rt_observe::{AdmissionVerdict, NoopProbe, Probe};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulates the execution of the system under its configured server
/// policies and scheduling policy, returning the full trace.
///
/// ```
/// use rt_model::{Instant, Priority, ServerSpec, Span, SystemSpec};
///
/// let mut b = SystemSpec::builder("doc");
/// b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
/// b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
/// b.aperiodic(Instant::from_units(0), Span::from_units(2));
/// b.horizon_server_periods(4);
/// let trace = rtss_sim::simulate(&b.build().unwrap());
/// // The textbook polling server picks the event up at its activation.
/// assert_eq!(trace.outcomes[0].response_time(), Some(Span::from_units(2)));
/// ```
///
/// # Panics
/// Panics when the specification fails validation; callers are expected to
/// build specs through [`rt_model::SystemBuilder`], which validates.
pub fn simulate(spec: &SystemSpec) -> Trace {
    spec.validate()
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("simulate() requires a valid system specification");
    SimTables::freeze_valid(spec).simulate()
}

/// Simulates with an attached [`Probe`] observing every decision, dispatch,
/// slice, release, admission verdict and mode change of the run. Every
/// probe call site is gated on `P::ENABLED`, so the trace is byte-identical
/// to [`simulate`]'s — probes observe, they never decide (pinned by
/// `tests/probe_transparency.rs`). Pass `&mut probe` to keep the recording:
///
/// ```
/// use rt_model::{Instant, Priority, ServerSpec, Span, SystemSpec};
/// use rt_observe::MetricsProbe;
///
/// let mut b = SystemSpec::builder("observed");
/// b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
/// b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
/// b.aperiodic(Instant::from_units(0), Span::from_units(2));
/// b.horizon_server_periods(4);
/// let spec = b.build().unwrap();
///
/// let mut probe = MetricsProbe::new();
/// let trace = rtss_sim::simulate_with_probe(&spec, &mut probe);
/// assert_eq!(trace.render_canonical(), rtss_sim::simulate(&spec).render_canonical());
/// assert!(probe.counters.decisions > 0);
/// ```
///
/// # Panics
/// Panics when the specification fails validation.
pub fn simulate_with_probe<P: Probe>(spec: &SystemSpec, probe: P) -> Trace {
    spec.validate()
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("simulate_with_probe() requires a valid system specification");
    SimTables::freeze_valid(spec).simulate_with_probe(probe)
}

/// Convenience wrapper: simulates the same traffic under a different server
/// policy (applied to every server of the system) without rebuilding the
/// whole specification.
pub fn simulate_with_policy(spec: &SystemSpec, policy: ServerPolicyKind) -> Trace {
    let mut spec = spec.clone();
    for server in &mut spec.servers {
        server.policy = policy;
    }
    simulate(&spec)
}

impl SimTables<'_> {
    /// Runs the driver instantiation the tables select.
    pub fn simulate(&self) -> Trace {
        self.simulate_with_probe(NoopProbe)
    }

    /// Runs the driver with an attached probe; the trace is byte-identical
    /// to [`Self::simulate`]'s. Pass `&mut probe` to keep the recording.
    pub fn simulate_with_probe<PR: Probe>(&self, probe: PR) -> Trace {
        match (self.lane_set, self.scheduling()) {
            (PolicySet::Polling, SchedulingPolicy::FixedPriority) => {
                Driver::<PollingLane, PR, false>::new(self, probe).run()
            }
            (PolicySet::Polling, SchedulingPolicy::Edf) => {
                Driver::<PollingLane, PR, true>::new(self, probe).run()
            }
            (PolicySet::Deferrable, SchedulingPolicy::FixedPriority) => {
                Driver::<DeferrableLane, PR, false>::new(self, probe).run()
            }
            (PolicySet::Deferrable, SchedulingPolicy::Edf) => {
                Driver::<DeferrableLane, PR, true>::new(self, probe).run()
            }
            (PolicySet::Background, SchedulingPolicy::FixedPriority) => {
                Driver::<BackgroundLane, PR, false>::new(self, probe).run()
            }
            (PolicySet::Background, SchedulingPolicy::Edf) => {
                Driver::<BackgroundLane, PR, true>::new(self, probe).run()
            }
            (PolicySet::Sporadic, SchedulingPolicy::FixedPriority) => {
                Driver::<SporadicLane, PR, false>::new(self, probe).run()
            }
            (PolicySet::Sporadic, SchedulingPolicy::Edf) => {
                Driver::<SporadicLane, PR, true>::new(self, probe).run()
            }
            (PolicySet::Mixed, SchedulingPolicy::FixedPriority) => {
                Driver::<AnyLanePolicy, PR, false>::new(self, probe).run()
            }
            (PolicySet::Mixed, SchedulingPolicy::Edf) => {
                Driver::<AnyLanePolicy, PR, true>::new(self, probe).run()
            }
        }
    }
}

/// The admission plan of one lane.
enum LaneAdmission {
    /// `AcceptAll`: an unconditional accept (the machine would only bump
    /// counters the trace never sees).
    Pass,
    /// Stateful policy: the machine the execution engine embeds too.
    Machine(ServerAdmission),
}

impl LaneAdmission {
    fn for_server(spec: &ServerSpec) -> Self {
        if spec.admission == AdmissionPolicy::AcceptAll {
            LaneAdmission::Pass
        } else {
            LaneAdmission::Machine(ServerAdmission::for_server(spec))
        }
    }
}

/// One pending aperiodic job (indexes the frozen arrival stream).
#[derive(Debug, Clone, Copy)]
struct ApJob {
    arrival: u32,
    remaining: Span,
    /// Enforced service cap left (the arrival's cap counting down); hitting
    /// zero with work remaining is an enforcement abort.
    cap_left: Span,
    started: Option<Instant>,
    deadline: Instant,
}

/// One pending periodic job.
#[derive(Debug, Clone, Copy)]
struct PJob {
    activation: u64,
    release: Instant,
    deadline: Instant,
    remaining: Span,
}

/// One server lane.
struct Lane<P> {
    policy: P,
    queue: VecDeque<ApJob>,
    admission: LaneAdmission,
}

impl<P: LanePolicy> Lane<P> {
    fn is_ready(&self) -> bool {
        !self.queue.is_empty() && !self.policy.available().is_zero()
    }
}

/// The fixed-priority ready set as an occupancy bitmap: one 256-bit priority
/// occupancy word plus one task-index row per priority level. `peek` is the
/// highest set priority bit then the lowest set index bit — exactly a
/// `(priority, Reverse(index))` max-heap's top — with no comparisons and no
/// rebalancing. Bits are cleared eagerly when a queue drains, so there are
/// no stale entries.
struct ReadyBits {
    /// Words per priority row (`ceil(tasks / 64)`, at least 1).
    words: usize,
    /// Which priority levels have at least one ready task.
    occ: [u64; 4],
    /// Per-priority task-index bitmaps, 256 rows of `words` words.
    rows: Vec<u64>,
}

impl ReadyBits {
    fn new(tasks: usize) -> Self {
        let words = tasks.div_ceil(64).max(1);
        ReadyBits {
            words,
            occ: [0; 4],
            rows: vec![0; 256 * words],
        }
    }

    fn mark(&mut self, level: u8, index: usize) {
        let level = level as usize;
        self.rows[level * self.words + index / 64] |= 1u64 << (index % 64);
        self.occ[level / 64] |= 1u64 << (level % 64);
    }

    fn clear(&mut self, level: u8, index: usize) {
        let level = level as usize;
        let row = &mut self.rows[level * self.words..(level + 1) * self.words];
        row[index / 64] &= !(1u64 << (index % 64));
        if row.iter().all(|&w| w == 0) {
            self.occ[level / 64] &= !(1u64 << (level % 64));
        }
    }

    /// Highest ready priority level and its lowest task index.
    fn peek(&self) -> Option<(u8, usize)> {
        let (word, bits) = (0..4)
            .rev()
            .map(|w| (w, self.occ[w]))
            .find(|&(_, b)| b != 0)?;
        let level = word * 64 + (63 - bits.leading_zeros() as usize);
        let row = &self.rows[level * self.words..(level + 1) * self.words];
        let (k, w) = row
            .iter()
            .enumerate()
            .find(|&(_, &w)| w != 0)
            .map(|(k, &w)| (k, w))
            // rt-lint: allow(panic, reason = "the priority level was found via its non-zero occupancy summary bit, so one word in it is non-zero")
            .expect("occupied priority level has a set index bit");
        Some((level as u8, k * 64 + w.trailing_zeros() as usize))
    }
}

/// Which entity the driver decided to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runner {
    Server(usize),
    Task(usize),
}

/// The monomorphized decision loop: one instantiation per lane-policy type ×
/// scheduling policy (`EDF` const-folds the dispatcher branch away).
struct Driver<'a, P, PR, const EDF: bool> {
    sys: &'a SimTables<'a>,
    now: Instant,
    /// Per-task pending job queues (indexes match `sys.tasks`).
    pending: Vec<VecDeque<PJob>>,
    lanes: Vec<Lane<P>>,
    /// Per-run lane statics: borrowed from the spec on the fault-free path,
    /// copied only when the plan schedules mode changes (applied changes
    /// rewrite the copy).
    statics: Cow<'a, [ServerSpec]>,
    /// Which mode-change records have been applied (per-record flags, not a
    /// cursor: a busy lane defers its record without blocking other lanes').
    mode_applied: Vec<bool>,
    /// Arrivals with no server to run on, reported unserved at the horizon.
    orphans: Vec<u32>,
    next_arrival: usize,
    /// The release wheel: min-first by `(next release, group index)`; one
    /// live entry per rate group, below the horizon.
    wheel: BinaryHeap<Reverse<(Instant, u32)>>,
    /// Releases taken so far per group (the members' activation counter).
    released: Vec<u64>,
    /// Fixed-priority ready set (unused under EDF).
    ready: ReadyBits,
    /// EDF ready set, min-first by `(front-job deadline, task index)`. An
    /// entry is live only while the task has pending jobs *and* its front
    /// job still carries the recorded deadline (unused under fixed
    /// priorities).
    ready_edf: BinaryHeap<Reverse<(Instant, usize)>>,
    /// Whether task `i` has pending jobs (EDF staleness check).
    has_pending: Vec<bool>,
    /// Reused buffer for admission-displaced event ids.
    aborted_scratch: Vec<EventId>,
    /// The observation hooks. Every call site is gated on `PR::ENABLED`, so
    /// the [`NoopProbe`] instantiation compiles to the unobserved loop.
    probe: PR,
    /// The unit whose last slice ended with work remaining — the candidate
    /// for a preemption report when the next dispatch picks someone else.
    /// Only maintained when `PR::ENABLED`.
    incomplete: Option<ExecUnit>,
    trace: Trace,
}

impl<'a, P: LanePolicy, PR: Probe, const EDF: bool> Driver<'a, P, PR, EDF> {
    fn new(sys: &'a SimTables<'a>, probe: PR) -> Self {
        let mut wheel = BinaryHeap::with_capacity(sys.groups.len());
        for (g, group) in sys.groups.iter().enumerate() {
            if group.first < sys.horizon() {
                wheel.push(Reverse((group.first, g as u32)));
            }
        }
        let lanes = sys
            .lanes()
            .iter()
            .map(|spec| Lane {
                policy: P::init(spec),
                queue: VecDeque::new(),
                admission: LaneAdmission::for_server(spec),
            })
            .collect();
        let mut trace = Trace::new(sys.horizon());
        trace.segments.reserve(sys.segment_hint);
        trace.outcomes.reserve(sys.arrival_count);
        trace.periodic_jobs.reserve(sys.job_count);
        let mode_changes = sys.spec().faults.mode_changes.len();
        Driver {
            sys,
            now: Instant::ZERO,
            pending: sys.tasks.iter().map(|_| VecDeque::new()).collect(),
            lanes,
            statics: if mode_changes == 0 {
                Cow::Borrowed(sys.lanes())
            } else {
                Cow::Owned(sys.lanes().to_vec())
            },
            mode_applied: vec![false; mode_changes],
            orphans: Vec::new(),
            next_arrival: 0,
            wheel,
            released: vec![0; sys.groups.len()],
            ready: ReadyBits::new(if EDF { 0 } else { sys.tasks.len() }),
            ready_edf: BinaryHeap::new(),
            has_pending: vec![false; sys.tasks.len()],
            aborted_scratch: Vec::new(),
            probe,
            incomplete: None,
            trace,
        }
    }

    fn run(mut self) -> Trace {
        if PR::ENABLED {
            self.probe.attach(self.lanes.len());
        }
        while self.now < self.sys.horizon() {
            self.process_due_events();
            let next = self.next_decision_point();
            debug_assert!(next > self.now, "decision points must advance time");
            // Window inner loop: re-pick without a full dispatcher re-entry
            // while only *task* runners have executed — nothing is due
            // strictly inside the window and tasks cannot move lane
            // replenishments, so `process_due_events` would be a no-op and
            // the decision point is unchanged. A server runner CAN schedule
            // an earlier replenishment (sporadic consumption), so it breaks
            // back to the full loop.
            loop {
                // One `decision` report per `pick_runner` call.
                if PR::ENABLED {
                    self.probe.decision(self.now);
                }
                match self.pick_runner() {
                    None => {
                        if PR::ENABLED {
                            self.probe.slice(ExecUnit::Idle, self.now, next);
                        }
                        self.trace.push_segment(ExecUnit::Idle, self.now, next);
                        self.now = next;
                        break;
                    }
                    Some(Runner::Server(s)) => {
                        self.run_server(s, next);
                        break;
                    }
                    Some(Runner::Task(i)) => {
                        self.run_task(i, next);
                        if self.now >= next {
                            break;
                        }
                    }
                }
            }
        }
        self.finalise();
        self.trace
    }

    /// Marks task `i` ready in the active policy's structure. Must be called
    /// after the job was pushed; only acts on the empty→non-empty transition
    /// (under EDF the entry is keyed by the front job's deadline).
    fn mark_ready(&mut self, i: usize) {
        if !self.has_pending[i] {
            self.has_pending[i] = true;
            if EDF {
                let deadline = self.pending[i]
                    .front()
                    // rt-lint: allow(panic, reason = "mark_ready is called exactly when a job was pushed onto this queue")
                    .expect("mark_ready requires a pending job")
                    .deadline;
                self.ready_edf.push(Reverse((deadline, i)));
            } else {
                self.ready.mark(self.sys.tasks[i].priority.level(), i);
            }
        }
    }

    fn process_due_events(&mut self) {
        let sys = self.sys;
        // Mode changes first: a same-instant arrival must be admitted under
        // the reconfigured lane, as the execution engine applies due changes
        // before routing a fired event.
        self.apply_due_mode_changes();
        // Aperiodic arrivals next, in spec order (the admission machines are
        // order-sensitive), so that an event arriving exactly at a server
        // activation is visible to it (the polling server would otherwise
        // discard its fresh capacity).
        while self.next_arrival < sys.arrival_count
            && sys.arrival_release(self.next_arrival) <= self.now
        {
            let arrival = sys.arrival(self.next_arrival);
            let index = self.next_arrival as u32;
            self.next_arrival += 1;
            if PR::ENABLED {
                self.probe.release(self.now);
            }
            match self.lanes.get_mut(arrival.server) {
                Some(lane) => {
                    let mut scratch = std::mem::take(&mut self.aborted_scratch);
                    let accepted = match &mut lane.admission {
                        LaneAdmission::Pass => true,
                        LaneAdmission::Machine(m) => {
                            m.on_arrival_into(
                                &ArrivingEvent {
                                    event: arrival.id,
                                    release: arrival.release,
                                    declared_cost: arrival.declared_cost,
                                    deadline: arrival.deadline,
                                    value: arrival.value,
                                },
                                &mut scratch,
                            )
                            .0
                        }
                    };
                    for &aborted in &scratch {
                        self.abort_pending(arrival.server, aborted);
                    }
                    scratch.clear();
                    self.aborted_scratch = scratch;
                    if accepted {
                        self.lanes[arrival.server].queue.push_back(ApJob {
                            arrival: index,
                            remaining: arrival.demand,
                            cap_left: arrival.cap,
                            started: None,
                            deadline: arrival.lane_deadline,
                        });
                        if PR::ENABLED {
                            self.probe.admission(
                                arrival.server,
                                AdmissionVerdict::Accepted,
                                self.now,
                            );
                            let depth = self.lanes[arrival.server].queue.len() as u64;
                            self.probe.queue_depth(arrival.server, depth);
                        }
                    } else {
                        if PR::ENABLED {
                            self.probe.admission(
                                arrival.server,
                                AdmissionVerdict::Rejected,
                                self.now,
                            );
                        }
                        self.trace.push_outcome(outcome(
                            &arrival,
                            AperiodicFate::Rejected { at: self.now },
                        ));
                    }
                }
                None => self.orphans.push(index),
            }
        }
        // Periodic releases: pop due rate groups, release one job per
        // member. Jobs of distinct tasks land in disjoint queues and the
        // ready structures are order-insensitive within one instant, so
        // group-pop order and per-task order coincide observationally.
        while let Some(&Reverse((at, g))) = self.wheel.peek() {
            if at > self.now {
                break;
            }
            self.wheel.pop();
            let g = g as usize;
            let group = &sys.groups[g];
            let activation = self.released[g];
            for &m in &group.members {
                let m = m as usize;
                let task = &sys.tasks[m];
                self.pending[m].push_back(PJob {
                    activation,
                    release: at,
                    deadline: at + task.deadline,
                    remaining: task.cost,
                });
                if PR::ENABLED {
                    self.probe.release(self.now);
                }
                self.mark_ready(m);
            }
            self.released[g] = activation + 1;
            let next = group.first + group.period.saturating_mul(activation + 1);
            if next < sys.horizon() {
                self.wheel.push(Reverse((next, g as u32)));
            }
        }
        // Lane replenishments, in install order.
        for (lane, table) in self.lanes.iter_mut().zip(self.statics.iter()) {
            let queue_empty = lane.queue.is_empty();
            lane.policy.replenish_due(table, self.now, queue_empty);
        }
    }

    /// Applies every mode change due at the current instant whose lane is
    /// quiescent — no in-service (started, unfinished) job in its queue; a
    /// busy lane keeps its record pending and retries at the next decision
    /// point. Applying a record rewrites the lane's run-local statics,
    /// reconfigures its policy state and rebuilds the admission plan from
    /// the updated spec. The admitted backlog is grandfathered: it stays
    /// queued and is never displaced by post-change arrivals.
    fn apply_due_mode_changes(&mut self) {
        let sys = self.sys;
        if sys.spec().faults.mode_changes.is_empty() {
            return;
        }
        for (k, change) in sys.spec().faults.mode_changes.iter().enumerate() {
            if self.mode_applied[k] || change.at > self.now {
                continue;
            }
            if self.lanes[change.server]
                .queue
                .iter()
                .any(|job| job.started.is_some())
            {
                continue;
            }
            let statics = &mut self.statics.to_mut()[change.server];
            apply_mode_change(statics, change);
            let lane = &mut self.lanes[change.server];
            lane.policy.reconfigure(statics, change);
            lane.admission = LaneAdmission::for_server(statics);
            self.mode_applied[k] = true;
            if PR::ENABLED {
                self.probe.mode_change(change.server, self.now);
            }
        }
    }

    /// Removes an admitted-but-displaced job from a lane's queue, recording
    /// it aborted (the value-density drop rule). Mirrors the execution
    /// engine's in-service exemption: a job the (resumable) server has
    /// already started keeps its in-flight fate, exactly as the framework's
    /// non-resumable dispatch removes a release from its queue when service
    /// begins. Only never-started queue entries are dropped.
    fn abort_pending(&mut self, lane_index: usize, event_id: EventId) {
        let sys = self.sys;
        let table = &self.statics[lane_index];
        let lane = &mut self.lanes[lane_index];
        let Some(position) = lane.queue.iter().position(|job| {
            job.started.is_none() && sys.arrival(job.arrival as usize).id == event_id
        }) else {
            return;
        };
        let job = lane
            .queue
            .remove(position)
            // rt-lint: allow(panic, reason = "the position was selected from this queue two lines above; losing it mid-dispatch is an engine bug worth a crash over a corrupted trace")
            .expect("position came from the queue");
        if lane.queue.is_empty() {
            lane.policy.on_queue_emptied(table);
        }
        if PR::ENABLED {
            self.probe
                .admission(lane_index, AdmissionVerdict::Aborted, self.now);
        }
        self.trace.push_outcome(outcome(
            &sys.arrival(job.arrival as usize),
            AperiodicFate::Aborted { at: self.now },
        ));
    }

    /// Next instant the scheduling decision could change: arrival cursor,
    /// wheel peek, capacity-limited lane replenishments — all O(1) per
    /// source (the capacity-limited test is const-folded per instantiation).
    fn next_decision_point(&self) -> Instant {
        let sys = self.sys;
        let mut next = sys.horizon();
        if self.next_arrival < sys.arrival_count {
            next = next.min(sys.arrival_release(self.next_arrival));
        }
        if let Some(&Reverse((at, _))) = self.wheel.peek() {
            next = next.min(at);
        }
        for lane in &self.lanes {
            if lane.policy.is_capacity_limited() {
                next = next.min(lane.policy.next_replenishment());
            }
        }
        for (k, change) in sys.spec().faults.mode_changes.iter().enumerate() {
            if !self.mode_applied[k] && change.at > self.now {
                next = next.min(change.at);
            }
        }
        next.max(self.now + Span::from_ticks(1))
            .min(sys.horizon().max(self.now + Span::from_ticks(1)))
    }

    fn pick_runner(&mut self) -> Option<Runner> {
        if EDF {
            self.pick_runner_edf()
        } else {
            self.pick_runner_fp()
        }
    }

    // rt-lint: zero-alloc
    fn pick_runner_fp(&mut self) -> Option<Runner> {
        let mut best_server: Option<(u8, usize)> = None;
        for (s, lane) in self.lanes.iter().enumerate() {
            if !lane.is_ready() {
                continue;
            }
            let level = self.statics[s].priority.level();
            match best_server {
                None => best_server = Some((level, s)),
                Some((p, _)) if level > p => best_server = Some((level, s)),
                _ => {}
            }
        }
        let top_task = self.ready.peek();
        match (best_server, top_task) {
            (None, None) => None,
            (Some((_, s)), None) => Some(Runner::Server(s)),
            (None, Some((_, i))) => Some(Runner::Task(i)),
            (Some((server_level, s)), Some((level, i))) => {
                // Strict preemption: equal priority goes to the server.
                if level > server_level {
                    Some(Runner::Task(i))
                } else {
                    Some(Runner::Server(s))
                }
            }
        }
    }

    // rt-lint: zero-alloc
    fn pick_runner_edf(&mut self) -> Option<Runner> {
        let mut best_server: Option<(Instant, usize)> = None;
        for (s, lane) in self.lanes.iter().enumerate() {
            if !lane.is_ready() {
                continue;
            }
            let deadline = lane.policy.edf_deadline(&self.statics[s], self.now);
            match best_server {
                None => best_server = Some((deadline, s)),
                Some((d, _)) if deadline < d => best_server = Some((deadline, s)),
                _ => {}
            }
        }
        let top_task = loop {
            match self.ready_edf.peek() {
                None => break None,
                Some(&Reverse((deadline, i))) => {
                    let live = self.has_pending[i]
                        && self.pending[i]
                            .front()
                            .is_some_and(|job| job.deadline == deadline);
                    if live {
                        break Some((deadline, i));
                    }
                    self.ready_edf.pop();
                }
            }
        };
        match (best_server, top_task) {
            (None, None) => None,
            (Some((_, s)), None) => Some(Runner::Server(s)),
            (None, Some((_, i))) => Some(Runner::Task(i)),
            (Some((server_deadline, s)), Some((deadline, i))) => {
                // Ties go to the server.
                if deadline < server_deadline {
                    Some(Runner::Task(i))
                } else {
                    Some(Runner::Server(s))
                }
            }
        }
    }

    /// Serves lane `s` until the window closes, capacity runs out or the
    /// queue drains. The pick within the lane is its queue discipline,
    /// re-evaluated per slice, so a newly arrived urgent job takes over at
    /// the next dispatch.
    // rt-lint: zero-alloc
    fn run_server(&mut self, s: usize, next: Instant) {
        let sys = self.sys;
        // A mode change deferred by the quiescence rule (due before this
        // window opened, lane busy then) may become applicable the moment a
        // job completes: force a dispatcher re-entry instead of batching on,
        // so the change lands at the instant the oracle applies it.
        let deferred_change = sys
            .spec()
            .faults
            .mode_changes
            .iter()
            .enumerate()
            .any(|(k, c)| !self.mode_applied[k] && c.server == s && c.at <= self.now);
        let table = &self.statics[s];
        let lane = &mut self.lanes[s];
        loop {
            let position = match table.discipline {
                QueueDiscipline::FifoSkip => 0,
                QueueDiscipline::DeadlineOrdered => {
                    let mut best = 0;
                    for (k, job) in lane.queue.iter().enumerate() {
                        if job.deadline < lane.queue[best].deadline {
                            best = k;
                        }
                    }
                    best
                }
            };
            let job = lane
                .queue
                .get_mut(position)
                // rt-lint: allow(panic, reason = "the lane is run only while its queue is non-empty; a silent fallback would corrupt the trace")
                .expect("server runner requires pending work");
            let window = next.since(self.now);
            let slice = job
                .remaining
                .min(job.cap_left)
                .min(lane.policy.available())
                .min(window);
            debug_assert!(!slice.is_zero(), "picked server cannot make progress");
            let arrival = sys.arrival(job.arrival as usize);
            if job.started.is_none() {
                job.started = Some(self.now);
            }
            if PR::ENABLED {
                let unit = ExecUnit::Handler(arrival.id);
                if let Some(prev) = self.incomplete.take() {
                    if prev != unit {
                        self.probe.preemption(prev, self.now);
                    }
                }
                self.probe.dispatch(unit, self.now);
                self.probe.slice(unit, self.now, self.now + slice);
            }
            self.trace
                .push_segment(ExecUnit::Handler(arrival.id), self.now, self.now + slice);
            job.remaining = job.remaining.minus(slice);
            job.cap_left = job.cap_left.minus(slice);
            if PR::ENABLED {
                self.incomplete = (!job.remaining.is_zero() && !job.cap_left.is_zero())
                    .then_some(ExecUnit::Handler(arrival.id));
            }
            lane.policy.consume(table, slice, self.now);
            self.now += slice;
            if job.remaining.is_zero() {
                // rt-lint: allow(panic, reason = "a job only completes after executing, and execution records the start instant")
                let started = job.started.expect("a completed job has started");
                self.trace.push_outcome(outcome(
                    &arrival,
                    AperiodicFate::Served {
                        started,
                        completed: self.now,
                    },
                ));
                lane.queue.remove(position);
                if lane.queue.is_empty() {
                    lane.policy.on_queue_emptied(table);
                }
            } else if job.cap_left.is_zero() {
                // Budget enforcement: the job exhausted its declared budget
                // with work remaining — cut it off, surface the overrun as an
                // abort and release its slot in the admission plan so
                // equation-(5) stops charging for work that will never run.
                if PR::ENABLED {
                    self.probe.cap_exhausted(s, self.now);
                }
                self.trace
                    .push_outcome(outcome(&arrival, AperiodicFate::Aborted { at: self.now }));
                lane.queue.remove(position);
                if lane.queue.is_empty() {
                    lane.policy.on_queue_emptied(table);
                }
                if let LaneAdmission::Machine(machine) = &mut lane.admission {
                    machine.on_abort(arrival.id, self.now);
                }
            }
            if self.now >= next || deferred_change || !lane.is_ready() {
                break;
            }
        }
    }

    /// Runs task `index` until the window closes or (under EDF) a completion
    /// forces a re-pick.
    // rt-lint: zero-alloc
    fn run_task(&mut self, index: usize, next: Instant) {
        let task = &self.sys.tasks[index];
        let queue = &mut self.pending[index];
        loop {
            let job = queue
                .front_mut()
                // rt-lint: allow(panic, reason = "the task runner is entered only while the task has pending jobs")
                .expect("task runner requires pending work");
            let window = next.since(self.now);
            let slice = job.remaining.min(window);
            debug_assert!(!slice.is_zero());
            if PR::ENABLED {
                let unit = ExecUnit::Task(task.id);
                if let Some(prev) = self.incomplete.take() {
                    if prev != unit {
                        self.probe.preemption(prev, self.now);
                    }
                }
                self.probe.dispatch(unit, self.now);
                self.probe.slice(unit, self.now, self.now + slice);
            }
            self.trace
                .push_segment(ExecUnit::Task(task.id), self.now, self.now + slice);
            job.remaining = job.remaining.minus(slice);
            if PR::ENABLED && !job.remaining.is_zero() {
                self.incomplete = Some(ExecUnit::Task(task.id));
            }
            self.now += slice;
            if job.remaining.is_zero() {
                let done = *job;
                self.trace.push_periodic_job(PeriodicJobRecord {
                    task: task.id,
                    activation: done.activation,
                    release: done.release,
                    deadline: done.deadline,
                    completed: Some(self.now),
                });
                queue.pop_front();
                if queue.is_empty() {
                    self.has_pending[index] = false;
                    if !EDF {
                        self.ready.clear(task.priority.level(), index);
                    }
                    break;
                }
                if EDF {
                    // Re-key to the new front deadline and force a re-pick.
                    // rt-lint: allow(panic, reason = "the queue was checked non-empty in the branch condition just above")
                    let deadline = queue.front().expect("non-empty checked above").deadline;
                    self.ready_edf.push(Reverse((deadline, index)));
                    break;
                }
            }
            if self.now >= next {
                break;
            }
        }
    }

    fn finalise(&mut self) {
        let sys = self.sys;
        for lane in &mut self.lanes {
            for job in lane.queue.drain(..) {
                self.trace.push_outcome(outcome(
                    &sys.arrival(job.arrival as usize),
                    AperiodicFate::Unserved,
                ));
            }
        }
        for index in std::mem::take(&mut self.orphans) {
            self.trace.push_outcome(outcome(
                &sys.arrival(index as usize),
                AperiodicFate::Unserved,
            ));
        }
        for (i, queue) in self.pending.iter_mut().enumerate() {
            for job in queue.drain(..) {
                self.trace.push_periodic_job(PeriodicJobRecord {
                    task: sys.tasks[i].id,
                    activation: job.activation,
                    release: job.release,
                    deadline: job.deadline,
                    completed: None,
                });
            }
        }
        self.trace.outcomes.sort_by_key(|o| (o.release, o.event));
        debug_assert!(self.trace.check_invariants().is_ok());
    }
}

/// Builds the outcome record of one frozen arrival.
fn outcome(arrival: &ArrivalTable, fate: AperiodicFate) -> AperiodicOutcome {
    AperiodicOutcome {
        event: arrival.id,
        release: arrival.release,
        declared_cost: arrival.declared_cost,
        value: arrival.value,
        deadline: arrival.deadline,
        fate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::simulate_reference;
    use rt_model::Priority;

    /// The paper's Table 1 task set with a configurable server policy and
    /// aperiodic traffic.
    fn table1(policy: ServerPolicyKind, capacity: u64, events: &[(u64, u64)]) -> SystemSpec {
        let mut b = SystemSpec::builder("table-1");
        let server = ServerSpec {
            policy,
            capacity: Span::from_units(capacity),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline: rt_model::QueueDiscipline::FifoSkip,
            admission: Default::default(),
        };
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
        for &(release, cost) in events {
            b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        }
        b.horizon_server_periods(10);
        b.build().unwrap()
    }

    fn response_of(trace: &Trace, nth: usize) -> Option<Span> {
        trace.outcomes[nth].response_time()
    }

    #[test]
    fn scenario1_polling_server_serves_both_events_immediately() {
        // Figure 2: e1@0 and e2@6, both cost 2, PS capacity 3.
        let spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2), (6, 2)]);
        let trace = simulate(&spec);
        assert_eq!(response_of(&trace, 0), Some(Span::from_units(2)));
        assert_eq!(response_of(&trace, 1), Some(Span::from_units(2)));
        assert!(trace.all_periodic_deadlines_met());
        assert!(trace.check_invariants().is_ok());
    }

    #[test]
    fn scenario2_literature_polling_server_splits_h2_across_instances() {
        // Figure 3 traffic: e1@2 and e2@4, both cost 2. Under the *textbook*
        // PS, h2 starts at 8, is suspended at 9 when the capacity runs out
        // and resumes at 12, completing at 13 (the paper points out its
        // implementation cannot do this).
        let spec = table1(ServerPolicyKind::Polling, 3, &[(2, 2), (4, 2)]);
        let trace = simulate(&spec);
        // h1 is served 6..8 -> response 6.
        assert_eq!(response_of(&trace, 0), Some(Span::from_units(6)));
        // h2 completes at 13 -> response 9.
        assert_eq!(response_of(&trace, 1), Some(Span::from_units(9)));
        // Check the actual service segments of h2: [8,9) and [12,13).
        let h2 = spec.aperiodics[1].id;
        let segs: Vec<_> = trace.segments_of(ExecUnit::Handler(h2)).collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(
            (segs[0].start, segs[0].end),
            (Instant::from_units(8), Instant::from_units(9))
        );
        assert_eq!(
            (segs[1].start, segs[1].end),
            (Instant::from_units(12), Instant::from_units(13))
        );
        assert!(trace.all_periodic_deadlines_met());
    }

    #[test]
    fn deferrable_server_serves_mid_period() {
        // Same traffic as scenario 2, DS capacity 3: e1@2 is served as soon
        // as it arrives because the DS retained its capacity.
        let spec = table1(ServerPolicyKind::Deferrable, 3, &[(2, 2), (4, 2)]);
        let trace = simulate(&spec);
        // e1 served 2..4 -> response 2.
        assert_eq!(response_of(&trace, 0), Some(Span::from_units(2)));
        // e2@4: remaining capacity 1 -> served 4..5, then resumes at 6..7.
        assert_eq!(response_of(&trace, 1), Some(Span::from_units(3)));
    }

    #[test]
    fn deferrable_beats_polling_on_average_response_time() {
        let events = &[(1, 2), (7, 2), (14, 2), (20, 1), (27, 2)];
        let ps = simulate(&table1(ServerPolicyKind::Polling, 3, events));
        let ds = simulate(&table1(ServerPolicyKind::Deferrable, 3, events));
        let avg = |t: &Trace| {
            let served: Vec<Span> = t
                .outcomes
                .iter()
                .filter_map(|o| o.response_time())
                .collect();
            served.iter().map(|s| s.as_units()).sum::<f64>() / served.len() as f64
        };
        assert!(
            avg(&ds) < avg(&ps),
            "DS must give better average response times"
        );
    }

    #[test]
    fn background_servicing_waits_for_idle_time() {
        let mut b = SystemSpec::builder("bg");
        b.server(ServerSpec::background(Priority::new(1)));
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
        b.aperiodic(Instant::from_units(0), Span::from_units(2));
        b.horizon(Instant::from_units(30));
        let spec = b.build().unwrap();
        let trace = simulate(&spec);
        // The background handler only runs after tau1 (0..2) and tau2 (2..3):
        // served 3..5, response 5.
        assert_eq!(response_of(&trace, 0), Some(Span::from_units(5)));
    }

    #[test]
    fn unserved_events_are_reported_at_the_horizon() {
        // Saturate the PS with far more work than ten periods can absorb.
        let events: Vec<(u64, u64)> = (0..20).map(|i| (i * 3, 3)).collect();
        let spec = table1(ServerPolicyKind::Polling, 3, &events);
        let trace = simulate(&spec);
        assert_eq!(trace.outcomes.len(), 20);
        let unserved = trace.outcomes.iter().filter(|o| !o.is_served()).count();
        assert!(
            unserved > 0,
            "an overloaded server must leave events unserved"
        );
        // Simulations never interrupt anything.
        assert!(trace.outcomes.iter().all(|o| !o.is_interrupted()));
    }

    #[test]
    fn periodic_tasks_always_meet_deadlines_in_the_paper_configuration() {
        let events: Vec<(u64, u64)> = (0..15).map(|i| (i * 4, 3)).collect();
        for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
            let spec = table1(policy, 3, &events);
            let trace = simulate(&spec);
            assert!(
                trace.all_periodic_deadlines_met(),
                "{policy:?}: the server must not jeopardise the periodic tasks"
            );
        }
    }

    #[test]
    fn processor_time_is_conserved() {
        let spec = table1(ServerPolicyKind::Deferrable, 3, &[(1, 2), (5, 3), (13, 2)]);
        let trace = simulate(&spec);
        let busy: Span = trace
            .segments
            .iter()
            .filter(|s| s.unit != ExecUnit::Idle)
            .map(|s| s.duration())
            .sum();
        assert_eq!(busy + trace.idle_time(), Span::from_units(60));
    }

    #[test]
    fn simulate_with_policy_overrides_the_server() {
        let spec = table1(ServerPolicyKind::Polling, 3, &[(2, 2)]);
        let ds_trace = simulate_with_policy(&spec, ServerPolicyKind::Deferrable);
        // Under DS the event is served on arrival.
        assert_eq!(
            ds_trace.outcomes[0].response_time(),
            Some(Span::from_units(2))
        );
    }

    #[test]
    fn edf_simulation_orders_tasks_by_deadline() {
        // Two tasks, no server: the lower-priority short-period task must
        // run first under EDF.
        let mut b = SystemSpec::builder("edf-order");
        b.periodic(
            "long",
            Span::from_units(4),
            Span::from_units(20),
            Priority::new(50),
        );
        b.periodic(
            "short",
            Span::from_units(1),
            Span::from_units(5),
            Priority::new(1),
        );
        b.scheduling(rt_model::SchedulingPolicy::Edf);
        b.horizon(Instant::from_units(20));
        let spec = b.build().unwrap();
        for trace in [simulate(&spec), simulate_reference(&spec)] {
            let first = trace.segments.first().unwrap();
            assert_eq!(first.unit, ExecUnit::Task(spec.periodic_tasks[1].id));
            assert!(trace.all_periodic_deadlines_met());
            assert!(trace.check_invariants().is_ok());
        }
    }

    #[test]
    fn edf_simulation_agrees_with_the_oracle() {
        // The driver and the oracle must stay bit-identical under EDF,
        // servers included.
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(1, 2), (5, 3), (13, 2)]);
        spec.scheduling = rt_model::SchedulingPolicy::Edf;
        assert_eq!(simulate(&spec), simulate_reference(&spec));
    }

    #[test]
    fn edf_reduces_to_fp_when_priorities_follow_deadlines() {
        // Table 1: server and both tasks share period 6 (implicit
        // deadlines), and priorities descend with spawn order — at every
        // instant the deadline order equals the priority order, so the EDF
        // trace must be byte-identical to the fixed-priority one.
        for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
            let fp = table1(policy, 3, &[(0, 2), (2, 2), (4, 2), (13, 1)]);
            let mut edf = fp.clone();
            edf.scheduling = rt_model::SchedulingPolicy::Edf;
            assert_eq!(
                simulate(&fp).render_canonical(),
                simulate(&edf).render_canonical(),
                "{policy:?}: deadline-monotonic reduction must hold"
            );
        }
        // Background servicing reduces too, but only with the conventional
        // *lowest* priority (its EDF rank is Instant::MAX, i.e. last): the
        // table1 fixture's top-priority background server deliberately
        // violates the reduction premise and is excluded.
        let mut b = SystemSpec::builder("bg-reduction");
        b.server(ServerSpec::background(Priority::new(1)));
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
        for &(release, cost) in &[(0u64, 2u64), (2, 2), (13, 1)] {
            b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        }
        b.horizon(Instant::from_units(60));
        let fp = b.build().unwrap();
        let mut edf = fp.clone();
        edf.scheduling = rt_model::SchedulingPolicy::Edf;
        assert_eq!(
            simulate(&fp).render_canonical(),
            simulate(&edf).render_canonical(),
            "background: deadline-monotonic reduction must hold at the lowest priority"
        );
    }

    #[test]
    fn deadline_ordered_lane_serves_urgent_events_first() {
        // Two events queue up while the server has no capacity; once it
        // replenishes, FIFO serves the earlier arrival but the
        // deadline-ordered lane serves the more urgent one.
        let events: &[(u64, u64)] = &[(0, 3), (1, 2), (2, 2)];
        let fifo = table1(ServerPolicyKind::Polling, 3, events);
        let mut edd = fifo.clone();
        edd.servers[0].discipline = rt_model::QueueDiscipline::DeadlineOrdered;
        // e1 (released 1) gets a loose deadline, e2 (released 2) a tight one.
        edd.aperiodics[1].relative_deadline = Some(Span::from_units(30));
        edd.aperiodics[2].relative_deadline = Some(Span::from_units(5));
        let fifo_trace = simulate(&fifo);
        let edd_trace = simulate(&edd);
        let order = |t: &Trace| -> Vec<u32> {
            let mut seen = Vec::new();
            for seg in &t.segments {
                if let ExecUnit::Handler(id) = seg.unit {
                    if !seen.contains(&id.raw()) {
                        seen.push(id.raw());
                    }
                }
            }
            seen
        };
        assert_eq!(order(&fifo_trace), vec![0, 1, 2], "FIFO serves by arrival");
        assert_eq!(
            order(&edd_trace),
            vec![0, 2, 1],
            "deadline order serves the urgent event first"
        );
        assert_eq!(edd_trace, simulate_reference(&edd));
    }

    #[test]
    fn deadline_ordered_without_deadlines_matches_fifo() {
        let events: &[(u64, u64)] = &[(0, 2), (1, 2), (3, 1), (13, 2)];
        let fifo = table1(ServerPolicyKind::Deferrable, 3, events);
        let mut edd = fifo.clone();
        edd.servers[0].discipline = rt_model::QueueDiscipline::DeadlineOrdered;
        assert_eq!(
            simulate(&fifo).render_canonical(),
            simulate(&edd).render_canonical(),
            "deadline order keyed by release must degenerate to FIFO"
        );
    }

    #[test]
    fn injected_overruns_are_cut_off_at_the_declared_budget() {
        // e1@0 declares 2 but demands 4: the PS serves exactly the declared
        // budget and enforcement aborts the rest; the unaffected e2@6 is
        // served exactly as in the fault-free run.
        let mut spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2), (6, 2)]);
        let e1 = spec.aperiodics[0].id;
        spec.faults = rt_model::FaultPlan::new().overrun(e1, Span::from_units(2));
        let trace = simulate(&spec);
        assert_eq!(
            trace.outcomes[0].fate,
            AperiodicFate::Aborted {
                at: Instant::from_units(2)
            }
        );
        assert_eq!(response_of(&trace, 1), Some(Span::from_units(2)));
        assert!(trace.all_periodic_deadlines_met());
        assert_eq!(trace, simulate_reference(&spec));
    }

    #[test]
    fn arrival_faults_reshape_the_stream_before_simulation() {
        // Jitter moves e1@0 to 3; the drop removes e2 entirely. The faulted
        // run must be byte-identical to simulating the reshaped stream.
        let base = table1(ServerPolicyKind::Deferrable, 3, &[(0, 2), (6, 2)]);
        let mut faulted = base.clone();
        let e1 = faulted.aperiodics[0].id;
        let e2 = faulted.aperiodics[1].id;
        faulted.faults = rt_model::FaultPlan::new()
            .jitter(e1, Span::from_units(3))
            .drop_arrival(e2);
        let trace = simulate(&faulted);
        assert_eq!(trace.outcomes.len(), 1);
        assert_eq!(trace.outcomes[0].release, Instant::from_units(3));
        let mut reshaped = base.clone();
        reshaped.aperiodics[0].release = Instant::from_units(3);
        reshaped.aperiodics.remove(1);
        assert_eq!(
            trace.render_canonical(),
            simulate(&reshaped).render_canonical()
        );
    }

    #[test]
    fn mode_changes_wait_for_quiescence_before_reconfiguring() {
        // DS capacity 3: e1@1 (cost 3) is in service when the capacity cut
        // to 1 falls due at t=2 — the change waits for e1 to drain (t=4),
        // so e1 keeps its full-capacity service; e2@4 then lives under the
        // shrunk server and needs two one-unit periods.
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(1, 3), (4, 2)]);
        spec.faults = rt_model::FaultPlan::new().mode_change(
            rt_model::ModeChange::at(Instant::from_units(2), 0).with_capacity(Span::from_units(1)),
        );
        let trace = simulate(&spec);
        assert_eq!(
            trace.outcomes[0].fate,
            AperiodicFate::Served {
                started: Instant::from_units(1),
                completed: Instant::from_units(4),
            },
            "in-service work drains under the old configuration"
        );
        let e2 = spec.aperiodics[1].id;
        let segs: Vec<_> = trace.segments_of(ExecUnit::Handler(e2)).collect();
        assert_eq!(segs.len(), 2, "e2 is served in one-unit slices");
        assert_eq!(
            (segs[0].start, segs[0].end),
            (Instant::from_units(6), Instant::from_units(7))
        );
        assert_eq!(
            (segs[1].start, segs[1].end),
            (Instant::from_units(12), Instant::from_units(13))
        );
        assert_eq!(trace, simulate_reference(&spec));
    }

    #[test]
    fn policy_swap_to_background_lifts_the_capacity_limit() {
        // DS capacity 3 exhausted by e1; e2 would wait for the t=6
        // replenishment, but the swap to background servicing at t=4 frees
        // it immediately (at the server's priority).
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(0, 3), (1, 3)]);
        spec.faults = rt_model::FaultPlan::new().mode_change(
            rt_model::ModeChange::at(Instant::from_units(4), 0)
                .with_policy(ServerPolicyKind::Background),
        );
        let trace = simulate(&spec);
        assert_eq!(
            trace.outcomes[1].fate,
            AperiodicFate::Served {
                started: Instant::from_units(4),
                completed: Instant::from_units(7),
            }
        );
        assert_eq!(trace, simulate_reference(&spec));
    }

    #[test]
    fn empty_system_is_all_idle() {
        let mut b = SystemSpec::builder("empty");
        b.periodic(
            "tau1",
            Span::from_units(1),
            Span::from_units(10),
            Priority::new(10),
        );
        b.horizon(Instant::from_units(20));
        let spec = b.build().unwrap();
        let trace = simulate(&spec);
        assert_eq!(
            trace.busy_time(ExecUnit::Task(spec.periodic_tasks[0].id)),
            Span::from_units(2)
        );
        assert_eq!(trace.idle_time(), Span::from_units(18));
    }
}
