//! Seeded random-system generator shared by the differential fuzzers
//! (`fuzz_differential.rs`) and the probe-transparency suite
//! (`probe_transparency.rs`): random systems across the full configuration
//! space — server policies × queue disciplines × admission policies ×
//! scheduling policies, single- and multi-lane, with randomly injected cost
//! overruns, arrival faults and mode changes — valid by construction and
//! deterministic per seed.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtsj_event_framework::model::{
    AdmissionPolicy, Instant, ModeChange, Priority, QueueDiscipline, SchedulingPolicy,
    ServerPolicyKind, ServerSpec, Span, SystemSpec,
};

/// Draws a random system spec, valid by construction, from the case seed.
///
/// Priority ties come from a second stream seeded from the case seed, which
/// the main stream never sees, so a case without a tie draws the same system
/// whether or not ties are drawn: in about one case in four both lanes of a
/// two-lane system share a priority, and independently both tasks of a
/// two-task system do. Ties exercise the spawn-order tie-break both worlds'
/// drivers share with their oracles.
pub fn random_spec(seed: u64) -> SystemSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ties = StdRng::seed_from_u64(seed ^ 0x7135_7135_7135_7135);
    let (lane_tie, task_tie) = (ties.gen_range(0..4u64) == 0, ties.gen_range(0..4u64) == 0);
    let policies = [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
        ServerPolicyKind::Background,
    ];
    let disciplines = [QueueDiscipline::FifoSkip, QueueDiscipline::DeadlineOrdered];
    let admissions = [
        AdmissionPolicy::AcceptAll,
        AdmissionPolicy::DeadlinePredictive,
        AdmissionPolicy::ValueDensity,
    ];
    let mut b = SystemSpec::builder(format!("fuzz-{seed}"));

    let n_servers = rng.gen_range(1..=2u64) as usize;
    let mut lanes = Vec::new();
    for lane in 0..n_servers {
        let policy = policies[rng.gen_range(0..policies.len() as u64) as usize];
        let priority = Priority::new(if lane_tie { 30 } else { 30 - lane as u8 });
        let server = if policy == ServerPolicyKind::Background {
            ServerSpec::background(priority)
        } else {
            let period = Span::from_units(rng.gen_range(5..=8));
            ServerSpec {
                policy,
                capacity: Span::from_units(rng.gen_range(2..=4u64)),
                period,
                priority,
                discipline: disciplines[rng.gen_range(0..2u64) as usize],
                admission: admissions[rng.gen_range(0..3u64) as usize],
            }
        };
        lanes.push(server.clone());
        b.add_server(server);
    }

    for task in 0..rng.gen_range(1..=2u64) {
        let period = Span::from_units(rng.gen_range(6..=12));
        b.periodic(
            format!("tau{task}"),
            Span::from_units(rng.gen_range(1..=2)),
            period,
            Priority::new(if task_tie { 20 } else { 20 - task as u8 }),
        );
    }

    let horizon = 48u64;
    // Releases must be sorted before insertion.
    let mut arrivals: Vec<(u64, usize)> = (0..rng.gen_range(0..=10u64))
        .map(|_| {
            let release = rng.gen_range(0..horizon);
            let lane = rng.gen_range(0..n_servers as u64) as usize;
            (release, lane)
        })
        .collect();
    arrivals.sort();
    for (release, lane) in arrivals {
        let max_cost = if lanes[lane].policy.is_capacity_limited() {
            lanes[lane].capacity.ticks() / Span::from_units(1).ticks()
        } else {
            4
        };
        let cost = Span::from_units(rng.gen_range(1..=max_cost.max(1)));
        let id = b.aperiodic_for(lane, Instant::from_units(release), cost);
        let event = b.last_aperiodic_mut().expect("event just added");
        if rng.gen_range(0..4u64) != 0 {
            event.relative_deadline = Some(Span::from_units(rng.gen_range(4..=16)));
        }
        event.value = rng.gen_range(1..=8);
        // Random fault tags: a cost overrun beyond the declared budget
        // and/or an arrival perturbation, each on ~1 in 4 events.
        if rng.gen_range(0..4u64) == 0 {
            let extra = Span::from_units(rng.gen_range(1..=3));
            *b.faults_mut() = std::mem::take(b.faults_mut()).overrun(id, extra);
        }
        if rng.gen_range(0..4u64) == 0 {
            *b.faults_mut() = if rng.gen_range(0..2u64) == 0 {
                std::mem::take(b.faults_mut()).drop_arrival(id)
            } else {
                std::mem::take(b.faults_mut()).jitter(id, Span::from_units(rng.gen_range(1..=4)))
            };
        }
    }

    // At most one mode change per lane, drawn from the legal trajectory
    // moves of the lane's policy.
    for (lane, server) in lanes.iter().enumerate() {
        if rng.gen_range(0..3u64) != 0 {
            continue;
        }
        let at = Instant::from_units(rng.gen_range(6..horizon));
        let change = match server.policy {
            ServerPolicyKind::Polling => ModeChange::at(at, lane).with_capacity(Span::from_units(
                rng.gen_range(1..=server.capacity.ticks() / Span::from_units(1).ticks()),
            )),
            ServerPolicyKind::Deferrable | ServerPolicyKind::Sporadic => {
                if rng.gen_range(0..2u64) == 0 {
                    ModeChange::at(at, lane).with_capacity(Span::from_units(
                        rng.gen_range(1..=server.capacity.ticks() / Span::from_units(1).ticks()),
                    ))
                } else {
                    ModeChange::at(at, lane).with_policy(ServerPolicyKind::Background)
                }
            }
            ServerPolicyKind::Background => continue,
        };
        *b.faults_mut() = std::mem::take(b.faults_mut()).mode_change(change);
    }
    b.faults_mut().normalise();

    b.scheduling(if rng.gen_range(0..2u64) == 0 {
        SchedulingPolicy::FixedPriority
    } else {
        SchedulingPolicy::Edf
    });
    b.horizon(Instant::from_units(horizon));
    b.build()
        .unwrap_or_else(|e| panic!("fuzz case {seed} generated an invalid spec: {e:?}"))
}
