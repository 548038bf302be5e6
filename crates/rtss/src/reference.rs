//! The naive simulation oracle: [`simulate_reference`].
//!
//! Its value is being obviously right, so it stays naive: every decision
//! rescans every task and every lane (O(t + S) per decision), serves exactly
//! one slice per dispatch, runs every lane through `AnyLanePolicy` and every
//! arrival through the full admission machine, and carries no probe. The
//! engine's driver ([`crate::engine`]) must reproduce its traces byte for
//! byte; the differential tests, the seeded fuzzer and the goldens pin that.
//!
//! The scheduling rules it states are the engine's: decision points are
//! arrivals, releases, replenishments, pending mode changes and the horizon;
//! due mode changes apply first (on quiescent lanes only), then arrivals in
//! spec order, then periodic releases, then lane replenishments in install
//! order; the runner is the highest-priority (FP) or earliest-deadline (EDF)
//! ready entity, servers winning ties against tasks and the earlier index
//! winning within each group.

use crate::policy::{apply_mode_change, AnyLanePolicy, LanePolicy};
use rt_admission::{ArrivingEvent, ServerAdmission};
use rt_model::{
    AperiodicEvent, AperiodicFate, AperiodicOutcome, EventId, ExecUnit, Instant, PeriodicJobRecord,
    PeriodicTask, QueueDiscipline, SchedulingPolicy, ServerSpec, Span, SystemSpec, Trace,
};
use std::collections::VecDeque;

/// Simulates with the naive oracle loop: linear scans, one job slice per
/// dispatch. Produces bit-identical traces to [`crate::simulate`]; kept as
/// the reference implementation for differential tests.
///
/// # Panics
/// Panics when the specification fails validation.
pub fn simulate_reference(spec: &SystemSpec) -> Trace {
    spec.validate()
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("simulate_reference() requires a valid system specification");
    match spec.apply_arrival_faults() {
        Some(normalized) => Oracle::new(&normalized).run(),
        None => Oracle::new(spec).run(),
    }
}

/// One pending job: a periodic activation or an aperiodic event.
#[derive(Debug, Clone)]
struct Job {
    /// Activation number (periodic) or spec event index (aperiodic).
    index: u64,
    release: Instant,
    /// Absolute deadline (periodic), or the lane-service deadline key
    /// (aperiodic: the event's absolute deadline, else its release).
    deadline: Instant,
    remaining: Span,
    /// Service budget left before enforcement cuts the job off: the
    /// declared cost for overrun-injected events, [`Span::MAX`] otherwise.
    cap_left: Span,
    started: Option<Instant>,
}

struct Task<'a> {
    task: &'a PeriodicTask,
    next_activation: u64,
    pending: VecDeque<Job>,
}

struct Lane {
    spec: ServerSpec,
    policy: AnyLanePolicy,
    queue: VecDeque<Job>,
    admission: ServerAdmission,
}

impl Lane {
    fn is_ready(&self) -> bool {
        !self.queue.is_empty() && !self.policy.available().is_zero()
    }
}

#[derive(Debug, Clone, Copy)]
enum Runner {
    Server(usize),
    Task(usize),
}

struct Oracle<'a> {
    spec: &'a SystemSpec,
    now: Instant,
    tasks: Vec<Task<'a>>,
    lanes: Vec<Lane>,
    /// Arrivals with no server to run on, reported unserved at the horizon.
    orphans: Vec<usize>,
    next_arrival: usize,
    mode_applied: Vec<bool>,
    trace: Trace,
}

fn outcome(event: &AperiodicEvent, fate: AperiodicFate) -> AperiodicOutcome {
    AperiodicOutcome {
        event: event.id,
        release: event.release,
        declared_cost: event.declared_cost,
        value: event.value,
        deadline: event.absolute_deadline(),
        fate,
    }
}

impl<'a> Oracle<'a> {
    fn new(spec: &'a SystemSpec) -> Self {
        Oracle {
            spec,
            now: Instant::ZERO,
            tasks: spec
                .periodic_tasks
                .iter()
                .map(|task| Task {
                    task,
                    next_activation: 0,
                    pending: VecDeque::new(),
                })
                .collect(),
            lanes: spec
                .servers
                .iter()
                .map(|s| Lane {
                    spec: s.clone(),
                    policy: AnyLanePolicy::init(s),
                    queue: VecDeque::new(),
                    admission: ServerAdmission::for_server(s),
                })
                .collect(),
            orphans: Vec::new(),
            next_arrival: 0,
            mode_applied: vec![false; spec.faults.mode_changes.len()],
            trace: Trace::new(spec.horizon),
        }
    }

    fn run(mut self) -> Trace {
        while self.now < self.spec.horizon {
            self.process_due_events();
            let next = self.next_decision_point();
            match self.pick_runner() {
                None => {
                    self.trace.push_segment(ExecUnit::Idle, self.now, next);
                    self.now = next;
                }
                Some(Runner::Server(s)) => self.serve(s, next),
                Some(Runner::Task(i)) => self.run_task(i, next),
            }
        }
        self.finalise();
        self.trace
    }

    fn process_due_events(&mut self) {
        let spec = self.spec;
        for (k, change) in spec.faults.mode_changes.iter().enumerate() {
            let lane = &mut self.lanes[change.server];
            if self.mode_applied[k]
                || change.at > self.now
                || lane.queue.iter().any(|job| job.started.is_some())
            {
                continue;
            }
            apply_mode_change(&mut lane.spec, change);
            lane.policy.reconfigure(&lane.spec, change);
            lane.admission = ServerAdmission::for_server(&lane.spec);
            self.mode_applied[k] = true;
        }
        while let Some(event) = spec.aperiodics.get(self.next_arrival) {
            if event.release > self.now {
                break;
            }
            let index = self.next_arrival;
            self.next_arrival += 1;
            let Some(lane) = self.lanes.get_mut(event.server) else {
                self.orphans.push(index);
                continue;
            };
            let verdict = lane.admission.on_arrival(&ArrivingEvent {
                event: event.id,
                release: event.release,
                declared_cost: event.declared_cost,
                deadline: event.absolute_deadline(),
                value: event.value,
            });
            for aborted in verdict.aborted {
                self.abort_pending(event.server, aborted);
            }
            if !verdict.accepted {
                self.trace
                    .push_outcome(outcome(event, AperiodicFate::Rejected { at: self.now }));
                continue;
            }
            let extra = spec.faults.overrun_extra(event.id);
            self.lanes[event.server].queue.push_back(Job {
                index: index as u64,
                release: event.release,
                deadline: event.absolute_deadline().unwrap_or(event.release),
                remaining: event.actual_cost + extra,
                cap_left: if extra.is_zero() {
                    Span::MAX
                } else {
                    event.declared_cost
                },
                started: None,
            });
        }
        for t in &mut self.tasks {
            loop {
                let release = t.task.release_of(t.next_activation);
                if release > self.now || release >= spec.horizon {
                    break;
                }
                t.pending.push_back(Job {
                    index: t.next_activation,
                    release,
                    deadline: t.task.deadline_of(t.next_activation),
                    remaining: t.task.cost,
                    cap_left: Span::MAX,
                    started: None,
                });
                t.next_activation += 1;
            }
        }
        for lane in &mut self.lanes {
            let queue_empty = lane.queue.is_empty();
            lane.policy.replenish_due(&lane.spec, self.now, queue_empty);
        }
    }

    /// Drops a never-started job an admission decision displaced.
    fn abort_pending(&mut self, lane_index: usize, event_id: EventId) {
        let spec = self.spec;
        let lane = &mut self.lanes[lane_index];
        let position = lane.queue.iter().position(|job| {
            job.started.is_none() && spec.aperiodics[job.index as usize].id == event_id
        });
        if let Some(job) = position.and_then(|p| lane.queue.remove(p)) {
            if lane.queue.is_empty() {
                lane.policy.on_queue_emptied(&lane.spec);
            }
            let event = &spec.aperiodics[job.index as usize];
            self.trace
                .push_outcome(outcome(event, AperiodicFate::Aborted { at: self.now }));
        }
    }

    fn next_decision_point(&self) -> Instant {
        let horizon = self.spec.horizon;
        let mut next = horizon;
        if let Some(event) = self.spec.aperiodics.get(self.next_arrival) {
            next = next.min(event.release);
        }
        for t in &self.tasks {
            next = next.min(t.task.release_of(t.next_activation));
        }
        for lane in &self.lanes {
            if lane.policy.is_capacity_limited() {
                next = next.min(lane.policy.next_replenishment());
            }
        }
        for (k, change) in self.spec.faults.mode_changes.iter().enumerate() {
            if !self.mode_applied[k] && change.at > self.now {
                next = next.min(change.at);
            }
        }
        let tick = self.now + Span::from_ticks(1);
        next.max(tick).min(horizon.max(tick))
    }

    /// The ready entity to run; ties go to servers, then to the earlier
    /// index.
    fn pick_runner(&self) -> Option<Runner> {
        let edf = self.spec.scheduling == SchedulingPolicy::Edf;
        // Rank: lower runs first (negated priority, or absolute deadline).
        let mut best: Option<(u64, Runner)> = None;
        let mut offer = |rank: u64, runner: Runner| {
            if best.is_none_or(|(b, _)| rank < b) {
                best = Some((rank, runner));
            }
        };
        for (s, lane) in self.lanes.iter().enumerate() {
            if lane.is_ready() {
                let rank = if edf {
                    lane.policy.edf_deadline(&lane.spec, self.now).ticks()
                } else {
                    u64::from(u8::MAX - lane.spec.priority.level())
                };
                offer(rank, Runner::Server(s));
            }
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if let Some(job) = t.pending.front() {
                let rank = if edf {
                    job.deadline.ticks()
                } else {
                    u64::from(u8::MAX - t.task.priority.level())
                };
                offer(rank, Runner::Task(i));
            }
        }
        best.map(|(_, runner)| runner)
    }

    /// Serves one slice of lane `s`'s chosen job.
    fn serve(&mut self, s: usize, next: Instant) {
        let spec = self.spec;
        let now = self.now;
        let lane = &mut self.lanes[s];
        let position = match lane.spec.discipline {
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
        let job = &mut lane.queue[position];
        let slice = job
            .remaining
            .min(job.cap_left)
            .min(lane.policy.available())
            .min(next.since(now));
        let event = &spec.aperiodics[job.index as usize];
        let started = *job.started.get_or_insert(now);
        self.trace
            .push_segment(ExecUnit::Handler(event.id), now, now + slice);
        job.remaining = job.remaining.minus(slice);
        job.cap_left = job.cap_left.minus(slice);
        lane.policy.consume(&lane.spec, slice, now);
        self.now = now + slice;
        let fate = if job.remaining.is_zero() {
            AperiodicFate::Served {
                started,
                completed: self.now,
            }
        } else if job.cap_left.is_zero() {
            // Budget enforcement: the overrun surfaces as an abort and frees
            // the job's slot in the admission plan.
            lane.admission.on_abort(event.id, self.now);
            AperiodicFate::Aborted { at: self.now }
        } else {
            return;
        };
        lane.queue.remove(position);
        if lane.queue.is_empty() {
            lane.policy.on_queue_emptied(&lane.spec);
        }
        self.trace.push_outcome(outcome(event, fate));
    }

    /// Runs one slice of task `i`'s oldest pending job.
    fn run_task(&mut self, i: usize, next: Instant) {
        let t = &mut self.tasks[i];
        let now = self.now;
        let Some(job) = t.pending.front_mut() else {
            return;
        };
        let slice = job.remaining.min(next.since(now));
        self.trace
            .push_segment(ExecUnit::Task(t.task.id), now, now + slice);
        job.remaining = job.remaining.minus(slice);
        self.now = now + slice;
        if job.remaining.is_zero() {
            self.trace.push_periodic_job(PeriodicJobRecord {
                task: t.task.id,
                activation: job.index,
                release: job.release,
                deadline: job.deadline,
                completed: Some(self.now),
            });
            t.pending.pop_front();
        }
    }

    /// Records the fate of everything that did not finish within the horizon.
    fn finalise(&mut self) {
        let spec = self.spec;
        let queued = self.lanes.iter_mut().flat_map(|l| l.queue.drain(..));
        let unserved: Vec<usize> = queued
            .map(|job| job.index as usize)
            .chain(self.orphans.drain(..))
            .collect();
        for index in unserved {
            let event = &spec.aperiodics[index];
            self.trace
                .push_outcome(outcome(event, AperiodicFate::Unserved));
        }
        for t in &mut self.tasks {
            for job in t.pending.drain(..) {
                self.trace.push_periodic_job(PeriodicJobRecord {
                    task: t.task.id,
                    activation: job.index,
                    release: job.release,
                    deadline: job.deadline,
                    completed: None,
                });
            }
        }
        self.trace.outcomes.sort_by_key(|o| (o.release, o.event));
    }
}
