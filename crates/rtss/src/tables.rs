//! The frozen simulation tables: a validated [`SystemSpec`] laid out as the
//! fixed rows the engine's driver reads ([`SimTables`]).
//!
//! Freezing is O(tasks + servers), independent of the aperiodic traffic
//! volume: the tables *borrow* the source spec ([`Cow`], owned only when
//! arrival faults force a normalised copy), and arrival rows are assembled
//! on demand from the borrowed events, with injected overruns resolved
//! through a small sorted side table. Compiling a system with 10⁵ pending
//! arrivals costs the same as compiling one with 10².

use rt_model::{
    EventId, Instant, ModelError, Priority, SchedulingPolicy, ServerPolicyKind, ServerSpec, Span,
    SystemSpec, TaskId,
};
use std::borrow::Cow;

/// One periodic task, frozen: exactly the fields the decision loop touches,
/// laid out flat (the name and spec bookkeeping stay behind in the spec).
#[derive(Debug, Clone)]
pub(crate) struct TaskTable {
    /// The task's identifier.
    pub id: TaskId,
    /// Worst-case cost of one job.
    pub cost: Span,
    /// Relative deadline (absolute deadline = release + this).
    pub deadline: Span,
    /// Fixed priority.
    pub priority: Priority,
}

/// A release-rate group: every task sharing `(offset, period)` releases at
/// the same instants forever, so the release wheel tracks the group, not the
/// tasks. Same-instant releases land in distinct per-task queues and the
/// ready structures are order-insensitive at one instant, so group order is
/// unobservable in the trace.
#[derive(Debug, Clone)]
pub(crate) struct ReleaseGroup {
    /// First release (the common task offset).
    pub first: Instant,
    /// The common period.
    pub period: Span,
    /// Member task indices, ascending.
    pub members: Vec<u32>,
}

/// One aperiodic arrival as the decision loop sees it: outcome fields plus
/// the lane-service deadline precomputed. Assembled on demand
/// ([`SimTables::arrival`]), never materialised.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrivalTable {
    pub(crate) id: EventId,
    /// Routed server index (may be out of range: orphan).
    pub(crate) server: usize,
    pub(crate) release: Instant,
    /// Demand actually executed: the real cost plus any injected overrun.
    pub(crate) demand: Span,
    /// Service cap enforced against the demand: the declared cost for
    /// overrun-injected jobs, [`Span::MAX`] otherwise.
    pub(crate) cap: Span,
    pub(crate) declared_cost: Span,
    /// Absolute deadline, if the event carries one.
    pub(crate) deadline: Option<Instant>,
    /// Deadline key of deadline-ordered lane service: the absolute deadline,
    /// or the release when the event has none (degenerating to FIFO).
    pub(crate) lane_deadline: Instant,
    pub(crate) value: u64,
}

/// Which single server-policy kind every lane shares, selecting the
/// monomorphized driver instantiation ([`PolicySet::Mixed`] falls back to
/// the per-call kind branch of `AnyLanePolicy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolicySet {
    Polling,
    Deferrable,
    Background,
    Sporadic,
    Mixed,
}

/// A validated [`SystemSpec`] frozen into the engine's dispatch tables.
/// [`crate::simulate`] freezes and runs in one call; freezing once and
/// running many times is [`SimTables::freeze`] then [`SimTables::simulate`].
///
/// ```
/// use rt_model::{Instant, Priority, ServerSpec, Span, SystemSpec};
/// use rtss_sim::SimTables;
///
/// let mut b = SystemSpec::builder("doc");
/// b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
/// b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
/// b.aperiodic(Instant::from_units(0), Span::from_units(2));
/// b.horizon_server_periods(4);
/// let spec = b.build().unwrap();
///
/// let tables = SimTables::freeze(&spec).unwrap();
/// assert_eq!(tables.simulate(), rtss_sim::simulate(&spec));
/// ```
#[derive(Debug, Clone)]
pub struct SimTables<'a> {
    /// The source spec, after arrival faults: borrowed from the caller, or
    /// owned when arrival faults required normalisation.
    spec: Cow<'a, SystemSpec>,
    pub(crate) tasks: Vec<TaskTable>,
    pub(crate) groups: Vec<ReleaseGroup>,
    /// In-horizon prefix length of the (release, id)-sorted arrival stream;
    /// [`Self::arrival`] indexes into that prefix.
    pub(crate) arrival_count: usize,
    /// Injected cost overruns, sorted by event id for binary search.
    overruns: Vec<(EventId, Span)>,
    pub(crate) lane_set: PolicySet,
    /// Exact periodic-job count within the horizon (trace preallocation).
    pub(crate) job_count: usize,
    /// Segment-vector preallocation hint.
    pub(crate) segment_hint: usize,
}

impl<'a> SimTables<'a> {
    /// Structurally validates `spec` and freezes it.
    ///
    /// Workload validation — the O(events) id/sortedness/routing sweep — is
    /// the spec builder's job and is re-asserted here in debug builds only.
    ///
    /// # Errors
    /// Returns the [`ModelError`] of [`SystemSpec::validate_structure`] when
    /// the task/server tables are not well formed.
    pub fn freeze(spec: &'a SystemSpec) -> Result<SimTables<'a>, ModelError> {
        spec.validate_structure()?;
        debug_assert!(
            spec.validate_workload().is_ok(),
            "freeze() requires a workload-valid spec: {:?}",
            spec.validate_workload()
        );
        Ok(SimTables::freeze_valid(spec))
    }

    /// Freezes a spec the caller has already validated.
    pub(crate) fn freeze_valid(spec: &'a SystemSpec) -> SimTables<'a> {
        // Arrival faults (release jitter, dropped arrivals) are a pure spec
        // normalisation, resolved here once; fault-free specs stay borrowed.
        let spec: Cow<'a, SystemSpec> = match spec.apply_arrival_faults() {
            Some(faulted) => Cow::Owned(faulted),
            None => Cow::Borrowed(spec),
        };
        let tasks: Vec<TaskTable> = spec
            .periodic_tasks
            .iter()
            .map(|t| TaskTable {
                id: t.id,
                cost: t.cost,
                deadline: t.deadline,
                priority: t.priority,
            })
            .collect();

        // Group tasks by (offset, period); first-seen order, members
        // ascending by construction.
        let mut groups: Vec<ReleaseGroup> = Vec::new();
        let mut job_count = 0usize;
        for (i, t) in spec.periodic_tasks.iter().enumerate() {
            let first = t.release_of(0);
            let key = (first, t.period);
            match groups.iter_mut().find(|g| (g.first, g.period) == key) {
                Some(group) => group.members.push(i as u32),
                None => groups.push(ReleaseGroup {
                    first,
                    period: t.period,
                    members: vec![i as u32],
                }),
            }
            if first < spec.horizon {
                let window = spec.horizon.since(first).ticks();
                // Releases at first, first+p, ... strictly below the horizon.
                job_count += (1 + (window - 1) / t.period.ticks()) as usize;
            }
        }

        // Arrivals at or past the horizon are invisible to the decision loop
        // (it stops strictly before the horizon) and produce no outcome. The
        // stream is (release, id)-sorted, so the in-horizon traffic is a
        // prefix — one binary search, no walk, no copy.
        let arrival_count = spec.workload().within_horizon_count();

        let mut overruns: Vec<(EventId, Span)> = spec
            .faults
            .overruns
            .iter()
            .map(|o| (o.event, o.extra))
            .collect();
        overruns.sort_unstable_by_key(|&(id, _)| id);

        // A scheduled policy swap changes a lane's kind at runtime, which the
        // single-kind drivers cannot represent: fall back to the mixed lane,
        // which rebuilds its variant on the swap.
        let lane_set = match spec.servers.split_first() {
            _ if spec.faults.has_policy_swap() => PolicySet::Mixed,
            None => PolicySet::Background,
            Some((head, tail)) if tail.iter().all(|l| l.policy == head.policy) => {
                match head.policy {
                    ServerPolicyKind::Polling => PolicySet::Polling,
                    ServerPolicyKind::Deferrable => PolicySet::Deferrable,
                    ServerPolicyKind::Background => PolicySet::Background,
                    ServerPolicyKind::Sporadic => PolicySet::Sporadic,
                }
            }
            Some(_) => PolicySet::Mixed,
        };

        SimTables {
            tasks,
            groups,
            arrival_count,
            overruns,
            lane_set,
            job_count,
            segment_hint: job_count + 2 * arrival_count + 64,
            spec,
        }
    }

    /// The validated source specification, after arrival faults.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The simulation horizon.
    pub fn horizon(&self) -> Instant {
        self.spec.horizon
    }

    /// The scheduling policy the driver dispatches under.
    pub(crate) fn scheduling(&self) -> SchedulingPolicy {
        self.spec.scheduling
    }

    /// The server lanes' install-time statics, in install order.
    pub(crate) fn lanes(&self) -> &[ServerSpec] {
        &self.spec.servers
    }

    /// Assembles the `index`-th in-horizon arrival row from the borrowed
    /// spec event: a handful of field copies plus one binary search in the
    /// overrun side table, no allocation.
    #[inline]
    pub(crate) fn arrival(&self, index: usize) -> ArrivalTable {
        debug_assert!(index < self.arrival_count);
        let e = &self.spec.aperiodics[index];
        let extra = match self.overruns.binary_search_by_key(&e.id, |&(id, _)| id) {
            Ok(k) => self.overruns[k].1,
            Err(_) => Span::ZERO,
        };
        ArrivalTable {
            id: e.id,
            server: e.server,
            release: e.release,
            demand: e.actual_cost + extra,
            cap: if extra.is_zero() {
                Span::MAX
            } else {
                e.declared_cost
            },
            declared_cost: e.declared_cost,
            deadline: e.absolute_deadline(),
            lane_deadline: e.absolute_deadline().unwrap_or(e.release),
            value: e.value,
        }
    }

    /// Release instant of the `index`-th in-horizon arrival (the loop's
    /// next-arrival peek, cheaper than assembling the full row).
    #[inline]
    pub(crate) fn arrival_release(&self, index: usize) -> Instant {
        self.spec.aperiodics[index].release
    }
}
