//! The execution world's decision loop: a table-driven driver that runs the
//! *real* task-server bodies over precomputed SRP-style tables.
//!
//! Every execution entry point — `execute`, `execute_with_probe`,
//! [`ExecutionPlan::run`], [`ExecutionPlan::run_with_probe`] and the compile
//! layer's `CompiledSystem::execute` — runs this driver, under fixed
//! priorities and EDF alike. The naive `rtsj-emu` engine, reached through
//! [`crate::system::execute_reference`], is the oracle it is tested
//! against.
//!
//! ## What is precomputed (the `SubstratePlan`)
//!
//! The plan's install table already lays out every thread, event and
//! install-time timer; the driver reads it as is. On top of it, an RTFM-style
//! analyze pass (after Real-Time For the Masses' compile-time Stack Resource
//! Policy ceilings) derives, once per system in [`ExecutionPlan::prepare`]:
//!
//! * a **static dispatch order** — every schedulable ranked by
//!   (priority desc, spawn index asc), the oracle's fixed-priority
//!   tie-break, so dispatching is a find-first-set scan over a rank bitmap;
//! * a **release wheel** — periodic schedulables grouped by (first release,
//!   period) with a per-group *preemption ceiling* (the best rank in the
//!   group), so a release drain costs O(groups) when nothing is due and the
//!   "does this release preempt the running thread?" question is one integer
//!   compare against the ceiling;
//! * a **segment reservation hint**, so the trace records into preallocated
//!   storage.
//!
//! ## What stays real
//!
//! The server bodies are the very same [`PollingServerBody`](crate::PollingServerBody),
//! [`EventDrivenServerBody`](crate::EventDrivenServerBody) and
//! [`SporadicServerBody`](crate::SporadicServerBody) state machines the
//! oracle runs, built by the same lane constructor, pumped through the
//! public [`BodyCtx`] protocol with the oracle's exact ordering (deadline,
//! action, fires, timers), and the replenishment hooks are the shared
//! [`ServerShared::on_replenish`](crate::ServerShared::on_replenish) rules.
//! The driver only replaces the *scheduling substrate* around them —
//! timer scans, ready-set sweeps, hook closures — with table-driven
//! equivalents, which is why its traces are byte-identical to the oracle's.
//!
//! ## EDF
//!
//! `const EDF: bool` picks the ready structure, like `rtss-sim`'s driver:
//! under EDF a `(deadline, thread)` min-heap with lazily discarded stale
//! entries replaces the rank bitmap scan (the bitmap stays the runnable
//! set). Deadlines come from the same places as in the oracle: install-time
//! server deadlines, the per-release re-key `release + relative_deadline`
//! of every periodic schedulable (constrained for tasks whose deadline
//! differs from their period), and the deadlines server bodies publish.
//!
//! ## Probes
//!
//! The driver carries `rt-observe`'s monomorphized [`Probe`]: every hook
//! site is gated on `PR::ENABLED`, so the [`NoopProbe`](rt_observe::NoopProbe)
//! instantiation compiles to the unobserved loop. Admission verdicts happen
//! in the shared lanes, whose always-on tallies are handed to
//! [`Probe::lane_totals`] at the end of the run.
//!
//! ## Complexity per decision
//!
//! With `t` threads, `g` wheel groups and `s` servers: a drain is O(g + s)
//! when nothing is due (one compare per group/static timer, one cursor peek
//! for the arrival stream); an FP dispatch is O(1) when the ceiling check
//! proves the running thread keeps the processor, O(t/64) for the bitmap
//! scan otherwise; an EDF dispatch is an amortized O(log t) heap peek;
//! per-release work is O(1) amortized and allocation-free (the handler
//! templates are `Copy`, the scratch buffers are reused).

use crate::handler::QueuedRelease;
use crate::install::{install_lane, EventKind, Grid, InstallTable, Timer};
use crate::state::SharedServer;
use crate::system::{finalise_trace, ExecutionPlan, PlannedEvent};
use rt_model::{ExecUnit, Instant, Priority, SchedulingPolicy, Span, SystemSpec, Trace};
use rt_observe::Probe;
use rtsj_emu::{Action, BodyCtx, Completion, PeriodicThreadBody, ThreadBody};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Safety net against non-progressing bodies, mirroring the oracle's guard.
const MAX_ZERO_TIME_STEPS: u32 = 100_000;

/// One release-wheel group: periodic schedulables sharing a release grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SubstrateGroup {
    /// First release instant of the grid.
    pub(crate) first: Instant,
    /// Release period of the grid.
    pub(crate) period: Span,
    /// Member thread ids (spawn order: servers first, then tasks).
    pub(crate) members: Vec<u32>,
    /// Preemption ceiling: the best (smallest) dispatch rank in the group.
    /// A running thread with a rank below this value cannot be preempted by
    /// any release of the group — the SRP-style O(1) preemption test.
    pub(crate) ceiling: u32,
}

/// The precomputed scheduling substrate of one system: the static dispatch
/// order, the release wheel with preemption ceilings, and the trace
/// reservation hint. See the module docs for the derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SubstratePlan {
    /// Thread id → dispatch rank (0 = dispatched first).
    pub(crate) rank_of: Vec<u32>,
    /// Dispatch rank → thread id (the inverse of [`Self::rank_of`]).
    pub(crate) order: Vec<u32>,
    /// The release wheel.
    pub(crate) groups: Vec<SubstrateGroup>,
    /// Reservation hint for the trace's segment storage (an upper-bound
    /// estimate; undershooting only costs a reallocation).
    pub(crate) segment_hint: usize,
}

impl SubstratePlan {
    /// Derives the substrate from the install table in O(threads · groups +
    /// timers): ranks over the table's priorities in spawn order, wheel
    /// groups over its periodic grids. `arrivals` is the number of planned
    /// servable events.
    pub(crate) fn analyze(table: &InstallTable, horizon: Instant, arrivals: usize) -> Self {
        let priorities: Vec<Priority> = table.threads.iter().map(|t| t.priority).collect();
        let (rank_of, order) = rank_tables(&priorities);

        let mut groups: Vec<SubstrateGroup> = Vec::new();
        for (tid, grid) in table
            .threads
            .iter()
            .enumerate()
            .filter_map(|(tid, t)| Some((tid as u32, t.grid?)))
        {
            match groups
                .iter_mut()
                .find(|g| g.first == grid.next && g.period == grid.period)
            {
                Some(g) => g.members.push(tid),
                None => groups.push(SubstrateGroup {
                    first: grid.next,
                    period: grid.period,
                    members: vec![tid],
                    ceiling: u32::MAX,
                }),
            }
        }
        for group in &mut groups {
            group.ceiling = group
                .members
                .iter()
                .map(|&m| rank_of[m as usize])
                .min()
                .unwrap_or(u32::MAX);
        }

        let horizon = horizon.ticks();
        let releases_before_horizon = |first: u64, period: u64| -> u64 {
            if first >= horizon || period == 0 {
                0
            } else {
                (horizon - first).div_ceil(period)
            }
        };
        // One activity per periodic release, per period of a periodic timer
        // and per planned arrival.
        let mut activity = arrivals as u64;
        for grid in table.threads.iter().filter_map(|t| t.grid) {
            activity += releases_before_horizon(grid.next.ticks(), grid.period.ticks());
        }
        for period in table.timers.iter().filter_map(|t| t.period) {
            activity += releases_before_horizon(0, period.ticks());
        }
        let segment_hint = usize::try_from(activity.saturating_mul(4))
            .unwrap_or(usize::MAX)
            .saturating_add(64);

        SubstratePlan {
            rank_of,
            order,
            groups,
            segment_hint,
        }
    }
}

/// Builds the (thread → rank, rank → thread) tables for the oracle's
/// fixed-priority dispatch order: priority descending, spawn index ascending.
fn rank_tables(priorities: &[Priority]) -> (Vec<u32>, Vec<u32>) {
    let mut order: Vec<u32> = (0..priorities.len() as u32).collect();
    order.sort_by_key(|&tid| (Reverse(priorities[tid as usize]), tid));
    let mut rank_of = vec![0u32; priorities.len()];
    for (rank, &tid) in order.iter().enumerate() {
        rank_of[tid as usize] = rank as u32;
    }
    (rank_of, order)
}

/// Runs `plan` on the driver, monomorphized over the plan's scheduling
/// policy and the probe.
pub(crate) fn run_driver<PR: Probe>(plan: &ExecutionPlan<'_>, probe: PR) -> Trace {
    match plan.spec.scheduling {
        SchedulingPolicy::FixedPriority => FastDriver::<PR, false>::new(plan, probe).execute(),
        SchedulingPolicy::Edf => FastDriver::<PR, true>::new(plan, probe).execute(),
    }
}

/// Mirror of the oracle's thread status.
#[derive(Debug, Clone, Copy)]
enum Status {
    Ready(Completion),
    Computing {
        remaining: Span,
        budget: Option<Span>,
        unit: ExecUnit,
        consumed: Span,
    },
    BlockedForPeriod,
    BlockedUntil(Instant),
    BlockedOnEvent,
    Terminated,
}

/// A schedulable body: the periodic workers inline (no heap box), the server
/// state machines boxed.
enum Body {
    Task(PeriodicThreadBody),
    Server(Box<dyn ThreadBody>),
}

/// The status a thread enters when its body asks to compute `amount` on
/// `unit`, optionally under a `Timed` budget (the oracle's zero-amount and
/// zero-budget short-circuits included).
#[inline]
fn compute(amount: Span, budget: Option<Span>, unit: ExecUnit) -> Status {
    if amount.is_zero() {
        Status::Ready(Completion::Computed {
            consumed: Span::ZERO,
        })
    } else if budget == Some(Span::ZERO) {
        Status::Ready(Completion::Interrupted {
            consumed: Span::ZERO,
        })
    } else {
        Status::Computing {
            remaining: amount,
            budget,
            unit,
            consumed: Span::ZERO,
        }
    }
}

/// Pre-pumps an effect-free periodic worker through its period start: the
/// real [`PeriodicThreadBody`] yields its `Compute` action (it never touches
/// the ctx — no fires, timers or deadlines), and the thread transitions
/// straight into the computing state without a separate dispatch round. The
/// pump it elides is trace-silent, so traces are unaffected.
#[inline]
fn start_period(body: &mut PeriodicThreadBody, now: Instant) -> Status {
    let mut ctx = BodyCtx::new(now);
    let action = body.next_action(&mut ctx, Completion::PeriodStarted);
    debug_assert!(ctx.take_fire_requests().is_empty());
    debug_assert!(ctx.take_timer_requests().is_empty());
    debug_assert!(ctx.take_deadline_request().is_none());
    match action {
        Action::Compute { amount, unit } => compute(amount, None, unit),
        _ => unreachable!("a periodic worker always computes at a period start"),
    }
}

struct ThreadSlot {
    body: Body,
    periodic: Option<Grid>,
    status: Status,
    /// The EDF dispatching key (maintained under EDF only).
    deadline: Instant,
}

struct EventSlot {
    kind: EventKind,
    pending: u32,
    waiter: Option<usize>,
}

/// Runtime state of one release-wheel group.
struct WheelGroup<'p> {
    next: Instant,
    period: Span,
    members: &'p [u32],
    ceiling: u32,
}

struct FastDriver<'p, PR: Probe, const EDF: bool> {
    // --- immutable tables ---
    plan: &'p ExecutionPlan<'p>,
    plan_events: &'p [PlannedEvent],
    rank_of: &'p [u32],
    order: &'p [u32],
    horizon: Instant,
    timer_fire: Span,
    /// Event index of the first planned servable event.
    first_sae: usize,
    /// Conceptual timer index of the first servable-event fire timer (they
    /// are numbered after every install-time timer), keeping the (timer
    /// creation order, occurrence instant) fire order exact.
    sae_base: usize,

    // --- mutable run state ---
    now: Instant,
    threads: Vec<ThreadSlot>,
    shareds: Vec<SharedServer>,
    events: Vec<EventSlot>,
    /// The install-time timers (per-lane replenishments and mode-change
    /// wake-ups). Servable-event fire timers are not materialized: the
    /// planned events are release-sorted, so a single cursor replays them.
    static_timers: Vec<Timer>,
    groups: Vec<WheelGroup<'p>>,
    sae_cursor: usize,
    /// Runtime-armed one-shots (SS chunk replenishments): (fire instant,
    /// conceptual timer index, event index).
    dynamic: BinaryHeap<Reverse<(Instant, usize, usize)>>,
    next_timer_idx: usize,
    until_wakes: Vec<(Instant, usize)>,
    /// Ready/Computing bitmap indexed by dispatch rank.
    runnable: Vec<u64>,
    /// FP: best (smallest) rank made runnable since the last dispatch
    /// decision; the ceiling-gated preemption test compares it to the
    /// running rank.
    woken_min_rank: u32,
    /// FP: the thread the last full scan dispatched, with its rank.
    running: Option<(usize, u32)>,
    /// EDF: runnable threads min-first by `(deadline, thread)` — the
    /// oracle's spawn-order tie-break. An entry is live only while its
    /// thread is runnable *and* still keyed by the recorded deadline.
    ready_edf: BinaryHeap<Reverse<(Instant, usize)>>,
    pending_overhead: Span,
    /// Earliest instant at which anything can become due (timer, wheel grid
    /// point, planned release, timed wake). Maintained exactly: recomputed by
    /// [`Self::drain`], lowered in place when a pump arms a timer or a timed
    /// wait. Lets the run loop skip the drain entirely between due points
    /// and reuse the value as the compute-slice preemption limit.
    next_due: Instant,
    zero_steps: u32,
    trace: Trace,
    /// The observation hooks, every call site gated on `PR::ENABLED`.
    probe: PR,
    /// The unit whose last compute slice ended with work remaining — the
    /// candidate for a preemption report when the next dispatch picks
    /// someone else. Only maintained when `PR::ENABLED`.
    incomplete: Option<ExecUnit>,
    // --- reused scratch ---
    due_scratch: Vec<(usize, Instant, usize)>,
    fire_queue: VecDeque<usize>,
}

impl<'p, PR: Probe, const EDF: bool> FastDriver<'p, PR, EDF> {
    fn new(plan: &'p ExecutionPlan<'_>, mut probe: PR) -> Self {
        let spec: &SystemSpec = &plan.spec;
        let (table, substrate) = (&plan.install, &plan.substrate);
        let thread_count = table.threads.len();
        if PR::ENABLED {
            probe.attach(spec.servers.len());
        }

        let mut shareds: Vec<SharedServer> = Vec::with_capacity(spec.servers.len());
        let threads: Vec<ThreadSlot> = table
            .threads
            .iter()
            .enumerate()
            .map(|(tid, thread)| {
                let body = if tid < spec.servers.len() {
                    let (shared, body) =
                        install_lane(spec, tid, thread.events, plan.config.overhead);
                    shareds.push(shared);
                    Body::Server(body)
                } else {
                    let task = &spec.periodic_tasks[tid - spec.servers.len()];
                    Body::Task(PeriodicThreadBody::new(task.cost, ExecUnit::Task(task.id)))
                };
                ThreadSlot {
                    body,
                    periodic: thread.grid,
                    status: Status::Ready(Completion::Started),
                    deadline: thread.deadline,
                }
            })
            .collect();
        let events: Vec<EventSlot> = table
            .events
            .iter()
            .map(|&kind| EventSlot {
                kind,
                pending: 0,
                waiter: None,
            })
            .collect();
        let sae_base = table.timers.len();
        let next_timer_idx = sae_base + plan.events.len();

        // Steady-state allocation freedom: reserve the outcome and segment
        // storage up front (each lane records at most one outcome per
        // planned release).
        for shared in &shareds {
            shared.borrow_mut().outcomes.reserve(plan.events.len() + 1);
        }
        let mut trace = Trace::new(spec.horizon);
        trace.segments.reserve(substrate.segment_hint);

        let word_count = thread_count.div_ceil(64).max(1);
        let mut driver = FastDriver {
            plan,
            plan_events: &plan.events,
            rank_of: &substrate.rank_of,
            order: &substrate.order,
            horizon: spec.horizon,
            timer_fire: plan.config.overhead.timer_fire,
            first_sae: table.first_sae,
            sae_base,
            now: Instant::ZERO,
            threads,
            shareds,
            events,
            static_timers: table.timers.clone(),
            groups: substrate
                .groups
                .iter()
                .map(|g| WheelGroup {
                    next: g.first,
                    period: g.period,
                    members: &g.members,
                    ceiling: g.ceiling,
                })
                .collect(),
            sae_cursor: 0,
            dynamic: BinaryHeap::new(),
            next_timer_idx,
            until_wakes: Vec::new(),
            runnable: vec![0u64; word_count],
            woken_min_rank: u32::MAX,
            running: None,
            ready_edf: BinaryHeap::with_capacity(if EDF { thread_count } else { 0 }),
            pending_overhead: Span::ZERO,
            next_due: Instant::ZERO,
            zero_steps: 0,
            trace,
            probe,
            incomplete: None,
            due_scratch: Vec::new(),
            fire_queue: VecDeque::new(),
        };
        for tid in 0..driver.threads.len() {
            driver.mark_runnable(tid);
        }
        driver
    }

    /// Runs the decision loop to the horizon, hands the lane tallies to the
    /// probe and finalises the trace.
    fn execute(mut self) -> Trace {
        self.run();
        if PR::ENABLED {
            for (lane, shared) in self.shareds.iter().enumerate() {
                let totals = shared.borrow().totals;
                self.probe.lane_totals(lane, &totals);
            }
        }
        finalise_trace(self.plan, &self.shareds, &mut self.trace);
        self.trace
    }

    #[inline]
    fn is_runnable(&self, tid: usize) -> bool {
        let rank = self.rank_of[tid];
        self.runnable[(rank / 64) as usize] & (1u64 << (rank % 64)) != 0
    }

    #[inline]
    fn mark_runnable(&mut self, tid: usize) {
        if EDF && !self.is_runnable(tid) {
            self.ready_edf
                .push(Reverse((self.threads[tid].deadline, tid)));
        }
        let rank = self.rank_of[tid];
        self.runnable[(rank / 64) as usize] |= 1u64 << (rank % 64);
        self.woken_min_rank = self.woken_min_rank.min(rank);
    }

    #[inline]
    fn unmark_runnable(&mut self, tid: usize) {
        let rank = self.rank_of[tid];
        self.runnable[(rank / 64) as usize] &= !(1u64 << (rank % 64));
    }

    /// Re-keys a thread's EDF deadline; a runnable thread gets a fresh heap
    /// entry (the old one turns stale and is discarded lazily by
    /// [`Self::pick`]). A no-op under fixed priorities.
    #[inline]
    fn set_deadline(&mut self, tid: usize, deadline: Instant) {
        if EDF && self.threads[tid].deadline != deadline {
            self.threads[tid].deadline = deadline;
            if self.is_runnable(tid) {
                self.ready_edf.push(Reverse((deadline, tid)));
            }
        }
    }

    /// The thread to dispatch. Under EDF, the earliest-deadline runnable
    /// thread (stale heap entries are popped). Under fixed priorities, the
    /// first set bit of the rank bitmap, with the ceiling-gated fast resume:
    /// while the previously dispatched thread is still mid-computation and
    /// everything woken since the last decision ranks below it, it keeps
    /// the processor without a scan.
    // rt-lint: zero-alloc
    fn pick(&mut self) -> Option<usize> {
        if EDF {
            while let Some(&Reverse((deadline, tid))) = self.ready_edf.peek() {
                if self.is_runnable(tid) && self.threads[tid].deadline == deadline {
                    return Some(tid);
                }
                self.ready_edf.pop();
            }
            return None;
        }
        if let Some((tid, rank)) = self.running {
            if self.woken_min_rank > rank
                && matches!(self.threads[tid].status, Status::Computing { .. })
            {
                self.woken_min_rank = u32::MAX;
                return Some(tid);
            }
        }
        self.woken_min_rank = u32::MAX;
        let (word_index, word) = self
            .runnable
            .iter()
            .enumerate()
            .find(|(_, &word)| word != 0)?;
        let rank = word_index * 64 + word.trailing_zeros() as usize;
        let tid = self.order[rank] as usize;
        self.running = Some((tid, rank as u32));
        Some(tid)
    }

    fn note_progress(&mut self, advanced: Span) {
        if advanced.is_zero() {
            self.zero_steps += 1;
            assert!(
                self.zero_steps < MAX_ZERO_TIME_STEPS,
                "driver made {MAX_ZERO_TIME_STEPS} scheduling decisions at {now} without \
                 advancing time: a ThreadBody is not making progress",
                now = self.now
            );
        } else {
            self.zero_steps = 0;
        }
    }

    /// Everything due at or before `now`: timed wakes and wheel releases
    /// first, then the timer fires replayed in (timer creation order,
    /// occurrence instant) order — the oracle's exact drain semantics.
    fn drain(&mut self) {
        if !self.until_wakes.is_empty() {
            let mut i = 0;
            while i < self.until_wakes.len() {
                let (at, tid) = self.until_wakes[i];
                if at <= self.now {
                    self.until_wakes.swap_remove(i);
                    if matches!(self.threads[tid].status, Status::BlockedUntil(t) if t == at) {
                        self.threads[tid].status = Status::Ready(Completion::TimeReached);
                        self.mark_runnable(tid);
                    }
                } else {
                    i += 1;
                }
            }
        }

        for gi in 0..self.groups.len() {
            while self.groups[gi].next <= self.now {
                let mut released_any = false;
                for mi in 0..self.groups[gi].members.len() {
                    let tid = self.groups[gi].members[mi] as usize;
                    let slot = &mut self.threads[tid];
                    if !matches!(slot.status, Status::BlockedForPeriod) {
                        continue;
                    }
                    // rt-lint: allow(panic, reason = "only periodic schedulables are enrolled in the timer wheel groups")
                    let periodic = slot.periodic.as_mut().expect("wheel members are periodic");
                    if periodic.next > self.now {
                        continue;
                    }
                    let deadline = periodic.take();
                    slot.status = match &mut slot.body {
                        Body::Task(body) => start_period(body, self.now),
                        Body::Server(_) => Status::Ready(Completion::PeriodStarted),
                    };
                    if EDF {
                        slot.deadline = deadline;
                        self.mark_runnable(tid);
                    } else {
                        let rank = self.rank_of[tid];
                        self.runnable[(rank / 64) as usize] |= 1u64 << (rank % 64);
                    }
                    if PR::ENABLED {
                        self.probe.release(self.now);
                    }
                    released_any = true;
                }
                if released_any {
                    // One O(1) update for the whole group: the precomputed
                    // ceiling is the best rank any member can contribute.
                    self.woken_min_rank = self.woken_min_rank.min(self.groups[gi].ceiling);
                }
                let period = self.groups[gi].period;
                self.groups[gi].next += period;
            }
        }

        let mut due = std::mem::take(&mut self.due_scratch);
        debug_assert!(due.is_empty());
        for (index, timer) in self.static_timers.iter_mut().enumerate() {
            while timer.next <= self.now {
                due.push((index, timer.next, timer.event));
                timer.next = match timer.period {
                    Some(period) => timer.next + period,
                    None => Instant::MAX,
                };
            }
        }
        while self.sae_cursor < self.plan_events.len()
            && self.plan_events[self.sae_cursor].release <= self.now
        {
            due.push((
                self.sae_base + self.sae_cursor,
                self.plan_events[self.sae_cursor].release,
                self.first_sae + self.sae_cursor,
            ));
            self.sae_cursor += 1;
        }
        while let Some(&Reverse((at, index, event))) = self.dynamic.peek() {
            if at > self.now {
                break;
            }
            self.dynamic.pop();
            due.push((index, at, event));
        }
        due.sort_unstable();
        for &(_, _, event) in &due {
            self.pending_overhead += self.timer_fire;
            self.fire_event(event);
        }
        due.clear();
        self.due_scratch = due;
        self.next_due = self.earliest_due();
        debug_assert!(
            self.next_due > self.now,
            "drain must consume everything due"
        );
    }

    /// Recomputes the earliest-due instant over every timed source (the
    /// cache invariant of [`Self::next_due`]).
    fn earliest_due(&self) -> Instant {
        let mut next = Instant::MAX;
        for timer in &self.static_timers {
            next = next.min(timer.next);
        }
        if self.sae_cursor < self.plan_events.len() {
            next = next.min(self.plan_events[self.sae_cursor].release);
        }
        if let Some(&Reverse((at, _, _))) = self.dynamic.peek() {
            next = next.min(at);
        }
        for group in &self.groups {
            next = next.min(group.next);
        }
        for &(at, _) in &self.until_wakes {
            next = next.min(at);
        }
        next
    }

    /// Fires an event now: run its (static) hook, cascade, then wake or
    /// credit — the oracle's `fire_event_now` over the hook table.
    fn fire_event(&mut self, event: usize) {
        self.fire_queue.push_back(event);
        while let Some(event) = self.fire_queue.pop_front() {
            if PR::ENABLED {
                self.probe.fire(self.now);
            }
            match self.events[event].kind {
                EventKind::Plain => {}
                EventKind::Replenish { rule, lane, wakeup } => {
                    if self.shareds[lane].borrow_mut().on_replenish(rule, self.now) {
                        self.fire_queue.push_back(wakeup);
                    }
                }
                EventKind::Sae {
                    lane,
                    wakeup,
                    plan_index,
                } => {
                    let planned = &self.plan_events[plan_index];
                    let accepted = self.shareds[lane].borrow_mut().released(
                        QueuedRelease::new(planned.event, planned.handler, self.now),
                        self.now,
                    );
                    if accepted {
                        if let Some(wakeup) = wakeup {
                            self.fire_queue.push_back(wakeup);
                        }
                    }
                }
            }
            match self.events[event].waiter.take() {
                None => {
                    self.events[event].pending = self.events[event].pending.saturating_add(1);
                }
                Some(tid) => {
                    self.threads[tid].status = Status::Ready(Completion::EventFired);
                    self.mark_runnable(tid);
                }
            }
        }
    }

    /// Specialized pump for the periodic workers: [`PeriodicThreadBody`]
    /// never touches its ctx (debug-asserted in [`start_period`]), so the
    /// request plumbing of the generic pump is skipped, and an in-place
    /// release transitions straight into the computing state.
    fn pump_task(&mut self, tid: usize, completion: Completion) {
        let now = self.now;
        let slot = &mut self.threads[tid];
        let Body::Task(body) = &mut slot.body else {
            unreachable!("pump_task requires a periodic worker")
        };
        let mut ctx = BodyCtx::new(now);
        let action = body.next_action(&mut ctx, completion);
        debug_assert!(ctx.take_fire_requests().is_empty());
        debug_assert!(ctx.take_timer_requests().is_empty());
        debug_assert!(ctx.take_deadline_request().is_none());
        match action {
            Action::Compute { amount, unit } => slot.status = compute(amount, None, unit),
            Action::WaitForNextPeriod => {
                let periodic = slot
                    .periodic
                    .as_mut()
                    // rt-lint: allow(panic, reason = "WaitForNextPeriod is emitted only by periodic workers, which carry period parameters")
                    .expect("periodic workers have a period");
                if periodic.next <= now {
                    // Released in place; the wheel's grid point for this
                    // release (if still ahead) drains as a no-op.
                    let deadline = periodic.take();
                    slot.status = start_period(body, now);
                    self.set_deadline(tid, deadline);
                    if PR::ENABLED {
                        self.probe.release(now);
                    }
                } else {
                    slot.status = Status::BlockedForPeriod;
                    self.unmark_runnable(tid);
                }
            }
            _ => unreachable!("periodic workers only compute or wait for their period"),
        }
    }

    /// Pumps a Ready thread's body once, applying its action and requests
    /// with the oracle's ordering: deadline, action, fires, timers.
    fn pump(&mut self, tid: usize) {
        let Status::Ready(completion) = self.threads[tid].status else {
            unreachable!("pump requires a Ready thread")
        };
        let Body::Server(body) = &mut self.threads[tid].body else {
            return self.pump_task(tid, completion);
        };
        let mut ctx = BodyCtx::new(self.now);
        let action = body.next_action(&mut ctx, completion);
        // A published deadline re-keys first, so a release crossed by the
        // action below overrides it with the fresh job's deadline.
        if let Some(deadline) = ctx.take_deadline_request() {
            self.set_deadline(tid, deadline);
        }

        let status = match action {
            Action::Compute { amount, unit } => compute(amount, None, unit),
            Action::ComputeInterruptible {
                amount,
                budget,
                unit,
            } => compute(amount, Some(budget), unit),
            Action::WaitForNextPeriod => {
                let periodic = self.threads[tid]
                    .periodic
                    .as_mut()
                    // rt-lint: allow(panic, reason = "WaitForNextPeriod is emitted only by periodic workers, which carry period parameters")
                    .expect("WaitForNextPeriod requires a periodic schedulable");
                if periodic.next <= self.now {
                    // Released in place; the wheel's grid point for this
                    // release (if still ahead) drains as a no-op.
                    let deadline = periodic.take();
                    self.set_deadline(tid, deadline);
                    if PR::ENABLED {
                        self.probe.release(self.now);
                    }
                    Status::Ready(Completion::PeriodStarted)
                } else {
                    Status::BlockedForPeriod
                }
            }
            Action::WaitUntil(at) if at <= self.now => Status::Ready(Completion::TimeReached),
            Action::WaitUntil(at) => {
                self.until_wakes.push((at, tid));
                self.next_due = self.next_due.min(at);
                Status::BlockedUntil(at)
            }
            Action::WaitForEvent(event) => {
                let event = &mut self.events[event.raw()];
                if event.pending > 0 {
                    event.pending -= 1;
                    Status::Ready(Completion::EventFired)
                } else {
                    debug_assert!(
                        event.waiter.is_none(),
                        "framework events have at most one waiter"
                    );
                    event.waiter = Some(tid);
                    Status::BlockedOnEvent
                }
            }
            Action::Terminate => Status::Terminated,
        };
        if !matches!(status, Status::Ready(_) | Status::Computing { .. }) {
            self.unmark_runnable(tid);
        }
        self.threads[tid].status = status;

        for event in ctx.take_fire_requests() {
            self.fire_event(event.raw());
        }
        for (at, event) in ctx.take_timer_requests() {
            if at <= self.now {
                self.pending_overhead += self.timer_fire;
                self.fire_event(event.raw());
            } else {
                let index = self.next_timer_idx;
                self.next_timer_idx += 1;
                self.dynamic.push(Reverse((at, index, event.raw())));
                self.next_due = self.next_due.min(at);
            }
        }
    }

    /// The next instant the runnable set could change: the cached
    /// earliest-due instant — clamped to the horizon, floored one tick
    /// ahead. Spurious wheel points (a grid instant none of the group's
    /// members is blocked on) merely split a compute or idle span;
    /// `Trace::push_segment` merges the pieces back, so traces are
    /// unaffected.
    #[inline]
    fn next_preemption_time(&self) -> Instant {
        self.next_due
            .min(self.horizon)
            .max(self.now + Span::from_ticks(1))
    }

    /// The decision loop over the substrate tables.
    // rt-lint: zero-alloc
    fn run(&mut self) {
        while self.now < self.horizon {
            if self.now >= self.next_due {
                self.drain();
            }

            if !self.pending_overhead.is_zero() {
                let slice = self.pending_overhead.min(self.horizon.since(self.now));
                if PR::ENABLED {
                    self.probe
                        .slice(ExecUnit::TimerOverhead, self.now, self.now + slice);
                }
                self.trace
                    .push_segment(ExecUnit::TimerOverhead, self.now, self.now + slice);
                self.now += slice;
                self.pending_overhead = self.pending_overhead.minus(slice);
                self.note_progress(slice);
                continue;
            }

            if PR::ENABLED {
                self.probe.decision(self.now);
            }
            let Some(tid) = self.pick() else {
                let next = self.next_preemption_time();
                debug_assert!(next > self.now);
                if PR::ENABLED {
                    self.probe.slice(ExecUnit::Idle, self.now, next);
                }
                self.trace.push_segment(ExecUnit::Idle, self.now, next);
                self.now = next;
                self.zero_steps = 0;
                continue;
            };

            if matches!(self.threads[tid].status, Status::Ready(_)) {
                self.pump(tid);
                self.note_progress(Span::ZERO);
                // Fused dispatch (fixed priorities): when the pump left this
                // thread computing, woke nothing that outranks it and
                // charged no overhead, the next decision would re-pick it —
                // slice immediately.
                if EDF
                    || !self.pending_overhead.is_zero()
                    || self.woken_min_rank <= self.rank_of[tid]
                    || !matches!(self.threads[tid].status, Status::Computing { .. })
                {
                    continue;
                }
                self.woken_min_rank = u32::MAX;
            }

            let limit = self.next_preemption_time();
            debug_assert!(limit > self.now);
            let window = limit.since(self.now);
            let Status::Computing {
                remaining,
                budget,
                unit,
                consumed,
            } = &mut self.threads[tid].status
            else {
                unreachable!("pick returned a non-runnable thread");
            };
            let mut slice = (*remaining).min(window);
            if let Some(budget) = *budget {
                slice = slice.min(budget);
            }
            debug_assert!(!slice.is_zero(), "computations always make progress");
            let unit = *unit;
            if PR::ENABLED {
                if let Some(prev) = self.incomplete.take() {
                    if prev != unit {
                        self.probe.preemption(prev, self.now);
                    }
                }
                self.probe.dispatch(unit, self.now);
                self.probe.slice(unit, self.now, self.now + slice);
            }
            self.trace.push_segment(unit, self.now, self.now + slice);
            self.now += slice;
            *remaining = remaining.minus(slice);
            *consumed += slice;
            if let Some(budget) = budget {
                *budget = budget.minus(slice);
            }
            if PR::ENABLED {
                // A budget cut ends the job (the body sees `Interrupted`),
                // so only a genuinely unfinished computation is a preemption
                // candidate.
                self.incomplete =
                    (!remaining.is_zero() && *budget != Some(Span::ZERO)).then_some(unit);
            }
            if remaining.is_zero() {
                let consumed = *consumed;
                self.threads[tid].status = Status::Ready(Completion::Computed { consumed });
            } else if *budget == Some(Span::ZERO) {
                let consumed = *consumed;
                self.threads[tid].status = Status::Ready(Completion::Interrupted { consumed });
            }
            self.note_progress(slice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{execute_reference, ExecutionConfig};
    use rt_model::{ServerPolicyKind, ServerSpec};

    fn table1(policy: ServerPolicyKind, capacity: u64, events: &[(u64, u64)]) -> SystemSpec {
        let mut b = SystemSpec::builder("fastpath-table-1");
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

    /// The driver matches the oracle on `spec` under both dispatching
    /// policies.
    fn assert_driver_matches_the_oracle(spec: &SystemSpec, config: &ExecutionConfig) {
        for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
            let mut spec = spec.clone();
            spec.scheduling = scheduling;
            let plan = ExecutionPlan::prepare(&spec, config).expect("valid spec");
            let oracle = execute_reference(&spec, config);
            let driver = plan.run();
            assert_eq!(
                oracle.render_canonical(),
                driver.render_canonical(),
                "{scheduling:?}: the driver diverged from the oracle"
            );
            assert_eq!(oracle, driver);
        }
    }

    #[test]
    fn driver_matches_the_oracle_across_policies_and_overheads() {
        let events: Vec<(u64, u64)> = (0..12).map(|i| (i * 3 + 1, 2)).collect();
        for policy in [
            ServerPolicyKind::Polling,
            ServerPolicyKind::Deferrable,
            ServerPolicyKind::Background,
            ServerPolicyKind::Sporadic,
        ] {
            let spec = table1(policy, 3, &events);
            assert_driver_matches_the_oracle(&spec, &ExecutionConfig::ideal());
            assert_driver_matches_the_oracle(&spec, &ExecutionConfig::reference());
        }
    }

    #[test]
    fn driver_matches_the_oracle_with_faults_and_mode_changes() {
        let mut spec = table1(ServerPolicyKind::Deferrable, 3, &[(0, 3), (4, 1), (9, 2)]);
        spec.faults = rt_model::FaultPlan::new()
            .overrun(spec.aperiodics[2].id, Span::from_units(2))
            .mode_change(
                rt_model::ModeChange::at(Instant::from_units(1), 0)
                    .with_capacity(Span::from_units(1)),
            );
        assert_driver_matches_the_oracle(&spec, &ExecutionConfig::reference());

        let mut spec = table1(ServerPolicyKind::Deferrable, 2, &[(0, 2), (3, 2)]);
        spec.faults = rt_model::FaultPlan::new().mode_change(
            rt_model::ModeChange::at(Instant::from_units(4), 0)
                .with_policy(ServerPolicyKind::Sporadic)
                .with_capacity(Span::from_units(2))
                .with_period(Span::from_units(6)),
        );
        assert_driver_matches_the_oracle(&spec, &ExecutionConfig::reference());
    }

    #[test]
    fn substrate_ranks_follow_priority_then_spawn_order() {
        let spec = table1(ServerPolicyKind::Polling, 3, &[(0, 2)]);
        let plan = ExecutionPlan::prepare(&spec, &ExecutionConfig::ideal()).unwrap();
        let substrate = &plan.substrate;
        // Server (priority 30) ranks first, then tau1 (20), then tau2 (10).
        assert_eq!(substrate.order, vec![0, 1, 2]);
        assert_eq!(substrate.rank_of, vec![0, 1, 2]);
        // One wheel group: all three share the (0, period 6) grid.
        assert_eq!(substrate.groups.len(), 1);
        assert_eq!(substrate.groups[0].members, vec![0, 1, 2]);
        assert_eq!(substrate.groups[0].ceiling, 0);
    }
}
