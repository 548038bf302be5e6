//! The SRP-style analyze pass: derives the execution fast path's
//! [`SubstratePlan`] (static dispatch order, release wheel with preemption
//! ceilings, trace reservation hint) from the compiled tables.
//!
//! This is the table-driven twin of [`SubstratePlan::analyze`]: the same
//! structure, but computed in O(tasks + servers) from the simulator's
//! already-frozen [`SimTables`] rows instead of re-walking a spec —
//! compilation stays free of per-event work, and the ceilings come out of
//! the same priority ranking the simulation tables use.
//!
//! Thread layout matches `ExecutionPlan::run`'s spawn order exactly: server
//! lanes first (thread id = lane index), then periodic tasks (thread id =
//! `lanes.len() + task index`). That ordering is what makes the static ranks
//! reproduce the engine's `(priority, Reverse(thread id))` ready-heap
//! tie-break by construction.

use rt_model::{Instant, Priority, ServerPolicyKind};
use rt_taskserver::{rank_tables, SubstrateGroup, SubstratePlan};
use rtss_sim::SimTables;

/// Builds the execution substrate from the frozen simulation tables.
pub(crate) fn build_substrate(tables: &SimTables<'_>) -> SubstratePlan {
    let (lanes, tasks, groups) = (tables.lanes(), tables.tasks(), tables.groups());
    let mut priorities: Vec<Priority> = Vec::with_capacity(lanes.len() + tasks.len());
    priorities.extend(lanes.iter().map(|l| l.priority));
    priorities.extend(tasks.iter().map(|t| t.priority));
    let (rank_of, order) = rank_tables(&priorities);

    // The release wheel: polling lanes activate on the (0, period) grid, the
    // periodic tasks ride the already-grouped (first, period) rate groups.
    // Same first-seen group order and member order as the analyze pass on
    // the spec (servers in lane order, then tasks in spec order).
    let mut wheel: Vec<SubstrateGroup> = Vec::new();
    let push_member =
        |wheel: &mut Vec<SubstrateGroup>, first: Instant, period, tid: u32| match wheel
            .iter_mut()
            .find(|g| g.first == first && g.period == period)
        {
            Some(g) => g.members.push(tid),
            None => wheel.push(SubstrateGroup {
                first,
                period,
                members: vec![tid],
                ceiling: u32::MAX,
            }),
        };
    for (lane_index, lane) in lanes.iter().enumerate() {
        if lane.policy == ServerPolicyKind::Polling {
            push_member(&mut wheel, Instant::ZERO, lane.period, lane_index as u32);
        }
    }
    for group in groups {
        for &member in &group.members {
            push_member(
                &mut wheel,
                group.first,
                group.period,
                lanes.len() as u32 + member,
            );
        }
    }
    for group in &mut wheel {
        group.ceiling = group
            .members
            .iter()
            .map(|&m| rank_of[m as usize])
            .min()
            .unwrap_or(u32::MAX);
    }

    // Reservation hint: every activity source produces a bounded number of
    // trace segments (job slices, handler slices, timer-overhead slices,
    // idle gaps between them).
    let horizon_ticks = tables.horizon().ticks();
    let mut activity = tables.job_count() as u64 + tables.arrival_count() as u64;
    for lane in lanes {
        match lane.policy {
            ServerPolicyKind::Polling | ServerPolicyKind::Deferrable => {
                let period = lane.period.ticks();
                if period > 0 && horizon_ticks > 0 {
                    activity += horizon_ticks.div_ceil(period);
                }
            }
            ServerPolicyKind::Background | ServerPolicyKind::Sporadic => {}
        }
    }
    let segment_hint = usize::try_from(activity.saturating_mul(4))
        .unwrap_or(usize::MAX)
        .saturating_add(64);

    SubstratePlan {
        rank_of,
        order,
        groups: wheel,
        segment_hint,
    }
}
