//! Differential tests for the admission/overload subsystem.
//!
//! Three guarantees are pinned here:
//!
//! 1. **AcceptAll is invisible** — stamping the default admission policy on
//!    a system (even one carrying deadlines and value tags) produces traces
//!    byte-identical to the unstamped system across the whole engine matrix
//!    (scheduling × driver and oracle), on both engines. Together with the
//!    53 pre-admission goldens this proves the admission layer
//!    reduces to today's behaviour when switched off.
//! 2. **Cross-engine decision identity** — `DeadlinePredictive` decisions
//!    are a pure function of the arrival history (`rt-admission`), so the
//!    execution engine (ideal overheads) and the simulator classify every
//!    event identically (accepted vs rejected), under fixed priorities and
//!    under EDF, single- and multi-server.
//! 3. **The 4× burst acceptance criterion** — under a sustained 4× overload
//!    burst, `DeadlinePredictive` admission yields **zero deadline misses
//!    among accepted events on both engines** (fixed priorities, ideal
//!    overheads), while `AcceptAll` thrashes on the same traffic.
//!
//! Beyond these, a seeded sweep checks that the plan keeps every admitted
//! deadline of a Deferrable lane in the execution world, and two fixed
//! inputs pin where it does not for Polling and Sporadic lanes (see the
//! `rt-admission` crate docs).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtsj_event_framework::model::{
    AdmissionPolicy, AperiodicFate, Instant, Priority, QueueDiscipline, SchedulingPolicy,
    ServerPolicyKind, ServerSpec, Span, SystemSpec, Trace,
};
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::taskserver::{execute, execute_reference, ExecutionConfig};

mod common;
use common::traces::assert_traces_eq;

/// A sustained 4× overload burst into a polling server: server bandwidth
/// 5/10 = 0.5, arrival bandwidth one cost-2 event per unit = 2.0. Every
/// event carries a 30-unit relative deadline and a cycling value tag.
fn overload_burst(policy: AdmissionPolicy, scheduling: SchedulingPolicy) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("burst-{}-{scheduling:?}", policy.label()));
    b.server(
        ServerSpec::polling(Span::from_units(5), Span::from_units(10), Priority::new(30))
            .with_admission(policy),
    );
    b.periodic(
        "tau1",
        Span::from_units(2),
        Span::from_units(10),
        Priority::new(20),
    );
    for t in 0..200u64 {
        b.aperiodic(Instant::from_units(t), Span::from_units(2));
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(30));
        event.value = (t % 7 + 1) * event.declared_cost.ticks();
    }
    b.scheduling(scheduling);
    b.horizon(Instant::from_units(200));
    b.build().expect("burst system is valid")
}

/// The 2-server variant: a deferrable and a sporadic server with round-robin
/// routed, deadline-tagged traffic, both under the given admission policy.
fn multi_server_burst(policy: AdmissionPolicy, scheduling: SchedulingPolicy) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("burst-multi-{}", policy.label()));
    b.add_server(
        ServerSpec::deferrable(Span::from_units(3), Span::from_units(6), Priority::new(33))
            .with_admission(policy),
    );
    b.add_server(
        ServerSpec::sporadic(Span::from_units(2), Span::from_units(8), Priority::new(32))
            .with_admission(policy),
    );
    b.periodic(
        "tau1",
        Span::from_units(2),
        Span::from_units(12),
        Priority::new(20),
    );
    for t in 0..120u64 {
        b.aperiodic_for(
            (t % 2) as usize,
            Instant::from_units(t),
            Span::from_units(2),
        );
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(24));
        event.value = (t % 5 + 1) * event.declared_cost.ticks();
    }
    b.scheduling(scheduling);
    b.horizon(Instant::from_units(120));
    b.build().expect("multi-server burst is valid")
}

/// Per-event classification: true = rejected at arrival.
fn rejection_profile(trace: &Trace) -> Vec<(u32, bool)> {
    trace
        .outcomes
        .iter()
        .map(|o| (o.event.raw(), o.is_rejected()))
        .collect()
}

fn accepted_misses(trace: &Trace) -> usize {
    trace
        .outcomes
        .iter()
        .filter(|o| {
            o.missed_deadline_after_acceptance() && o.deadline.is_some_and(|d| d <= trace.horizon)
        })
        .count()
}

#[test]
fn accept_all_reduces_byte_identically_across_the_engine_matrix() {
    for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
        let stamped = overload_burst(AdmissionPolicy::AcceptAll, scheduling);
        let mut unstamped = stamped.clone();
        for server in &mut unstamped.servers {
            server.admission = AdmissionPolicy::default();
        }
        // Execution: driver and oracle.
        let config = ExecutionConfig::reference();
        let reference = execute(&unstamped, &config).render_canonical();
        assert_eq!(
            execute(&stamped, &config).render_canonical(),
            reference,
            "{scheduling:?}"
        );
        assert_eq!(
            execute_reference(&stamped, &config).render_canonical(),
            reference,
            "{scheduling:?} (oracle)"
        );
        // Simulation: engine and oracle.
        let reference = simulate(&unstamped).render_canonical();
        assert_eq!(simulate(&stamped).render_canonical(), reference);
        assert_eq!(simulate_reference(&stamped).render_canonical(), reference);
    }
}

#[test]
fn predictive_decisions_agree_across_engines_and_engine_modes() {
    for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
        for spec in [
            overload_burst(AdmissionPolicy::DeadlinePredictive, scheduling),
            multi_server_burst(AdmissionPolicy::DeadlinePredictive, scheduling),
        ] {
            let executed = execute(&spec, &ExecutionConfig::ideal());
            let simulated = simulate(&spec);
            assert_eq!(
                rejection_profile(&executed),
                rejection_profile(&simulated),
                "{}: accept/reject traces must be identical across engines",
                spec.name
            );
            assert!(
                executed.outcomes.iter().any(|o| o.is_rejected()),
                "{}: the burst must actually trigger rejections",
                spec.name
            );
            // Engine and oracle agree too.
            assert_traces_eq(&spec.name, &simulate_reference(&spec), &simulate(&spec));
            assert_traces_eq(
                &spec.name,
                &execute_reference(&spec, &ExecutionConfig::ideal()),
                &executed,
            );
        }
    }
}

/// The tentpole acceptance criterion: on the 4× burst, predictive admission
/// yields zero deadline misses among accepted events on both engines, with
/// identical accept/reject traces — while accept-all misses heavily on the
/// same traffic.
#[test]
fn predictive_admission_eliminates_misses_among_accepted_on_both_engines() {
    let predictive = overload_burst(
        AdmissionPolicy::DeadlinePredictive,
        SchedulingPolicy::FixedPriority,
    );
    let executed = execute(&predictive, &ExecutionConfig::ideal());
    let simulated = simulate(&predictive);
    assert_eq!(
        rejection_profile(&executed),
        rejection_profile(&simulated),
        "identical accept/reject traces"
    );
    assert_eq!(
        accepted_misses(&executed),
        0,
        "execution: accepted events must all meet their deadlines"
    );
    assert_eq!(
        accepted_misses(&simulated),
        0,
        "simulation: accepted events must all meet their deadlines"
    );
    // The policy is not vacuous: a healthy share is accepted and served.
    let served = executed.outcomes.iter().filter(|o| o.is_served()).count();
    assert!(served >= 20, "only {served} events served");
    // Accept-all on the same traffic misses massively.
    let accept_all = overload_burst(AdmissionPolicy::AcceptAll, SchedulingPolicy::FixedPriority);
    for trace in [
        execute(&accept_all, &ExecutionConfig::ideal()),
        simulate(&accept_all),
    ] {
        let misses = accepted_misses(&trace);
        assert!(
            misses > 50,
            "accept-all must thrash under the 4x burst (got {misses} misses)"
        );
    }
}

/// A displacement decision must never abort work an engine has already
/// started: the simulator (which serves *earlier* than the virtual plan —
/// here a deferrable server picks the event up on arrival) keeps the
/// in-service event's served fate, exactly like the execution engine whose
/// dispatch removed it from the queue. Regression for the cross-engine
/// divergence where the simulator aborted a mid-service job.
#[test]
fn displacement_never_aborts_in_service_work() {
    let mut b = SystemSpec::builder("abort-in-service");
    b.server(
        ServerSpec::deferrable(Span::from_units(4), Span::from_units(6), Priority::new(30))
            .with_admission(AdmissionPolicy::ValueDensity),
    );
    // A: cheap, deadline-free, arrives mid-instance — the DS serves it
    // immediately, but the virtual (polling-conservative) plan only starts
    // it at the next activation.
    b.aperiodic(Instant::from_units(1), Span::from_units(3));
    b.last_aperiodic_mut().unwrap().value = 1;
    // B: very dense with a tight deadline — it displaces A *virtually*.
    b.aperiodic(Instant::from_units(2), Span::from_units(3));
    {
        let event = b.last_aperiodic_mut().unwrap();
        event.relative_deadline = Some(Span::from_units(9));
        event.value = 1_000_000;
    }
    b.horizon(Instant::from_units(30));
    let spec = b.build().unwrap();
    let executed = execute(&spec, &ExecutionConfig::ideal());
    let simulated = simulate(&spec);
    for (name, trace) in [("execution", &executed), ("simulation", &simulated)] {
        let a = trace.outcomes.iter().find(|o| o.event.raw() == 0).unwrap();
        assert!(
            a.is_served(),
            "{name}: the in-service event must keep its served fate, got {:?}",
            a.fate
        );
    }
}

/// Value-density admission accrues at least as much value as predictive
/// admission on value-skewed traffic, and every displaced event is recorded
/// as a first-class aborted outcome.
#[test]
fn value_density_displacement_is_recorded_and_pays_off() {
    let dover = overload_burst(
        AdmissionPolicy::ValueDensity,
        SchedulingPolicy::FixedPriority,
    );
    let executed = execute(&dover, &ExecutionConfig::ideal());
    let simulated = simulate(&dover);
    // Decisions are shared state: the rejection profiles agree here too.
    assert_eq!(rejection_profile(&executed), rejection_profile(&simulated));
    for (name, trace) in [("execution", &executed), ("simulation", &simulated)] {
        let aborted = trace.outcomes.iter().filter(|o| o.is_aborted()).count();
        assert!(aborted > 0, "{name}: the drop rule must displace something");
        // Every event has exactly one outcome.
        let mut ids: Vec<u32> = trace.outcomes.iter().map(|o| o.event.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), dover.aperiodics.len(), "{name}");
    }
}

/// An injected overrun that aborts in service must release its
/// equation-(5) plan slot: later arrivals are admitted against the real
/// residual load, not a ghost of the aborted job. The fates are pinned
/// byte-exactly on both engines (and their compiled counterparts).
#[test]
fn an_overrun_abort_releases_its_equation5_slot() {
    use rtsj_event_framework::compile::execute_compiled;
    use rtsj_event_framework::model::AperiodicFate;

    let mut b = SystemSpec::builder("abort-releases-slot");
    b.server(
        ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30))
            .with_admission(AdmissionPolicy::DeadlinePredictive),
    );
    // e0 declares 2 units but demands 5: enforcement cuts it off at 2.
    let e0 = b.aperiodic(Instant::from_units(0), Span::from_units(2));
    b.last_aperiodic_mut().unwrap().relative_deadline = Some(Span::from_units(20));
    // e1's deadline only holds if e0's slot is gone when e1 arrives.
    b.aperiodic(Instant::from_units(6), Span::from_units(3));
    b.last_aperiodic_mut().unwrap().relative_deadline = Some(Span::from_units(8));
    b.aperiodic(Instant::from_units(12), Span::from_units(2));
    b.last_aperiodic_mut().unwrap().relative_deadline = Some(Span::from_units(6));
    *b.faults_mut() = std::mem::take(b.faults_mut()).overrun(e0, Span::from_units(3));
    b.horizon(Instant::from_units(30));
    let spec = b.build().expect("slot-release system is valid");

    let config = ExecutionConfig::ideal();
    let simulated = simulate(&spec);
    let executed = execute(&spec, &config);
    assert_traces_eq(&spec.name, &simulate_reference(&spec), &simulated);
    assert_eq!(
        executed.render_canonical(),
        execute_compiled(&spec, &config).render_canonical()
    );
    for trace in [&simulated, &executed] {
        let fates: Vec<AperiodicFate> = trace.outcomes.iter().map(|o| o.fate).collect();
        assert_eq!(
            fates,
            vec![
                AperiodicFate::Aborted {
                    at: Instant::from_units(2)
                },
                AperiodicFate::Served {
                    started: Instant::from_units(6),
                    completed: Instant::from_units(9),
                },
                AperiodicFate::Served {
                    started: Instant::from_units(12),
                    completed: Instant::from_units(14),
                },
            ],
            "fates diverged on {}",
            trace.outcomes.len()
        );
        // The only accepted miss is the injected overrun itself — the
        // containment guarantee covers the unaffected events.
        assert_eq!(accepted_misses(trace), 1);
        assert!(trace
            .outcomes
            .iter()
            .filter(|o| o.event != e0)
            .all(|o| o.completed_by_deadline()));
    }
}

/// A random single-lane system for the execution-world admission check:
/// one top-priority server of the given policy with `DeadlinePredictive`
/// admission and FIFO-with-skip service, two periodic tasks below it under
/// fixed priorities, and twelve deadline-tagged events whose costs fit the
/// capacity.
fn random_admission_system(policy: ServerPolicyKind, rng: &mut StdRng) -> SystemSpec {
    let capacity = rng.gen_range(1u64..=4);
    let period = rng.gen_range(capacity + 1..=capacity + 6);
    let mut b = SystemSpec::builder(format!("admit-{policy:?}"));
    b.server(
        ServerSpec {
            policy,
            capacity: Span::from_units(capacity),
            period: Span::from_units(period),
            priority: Priority::new(30),
            discipline: QueueDiscipline::FifoSkip,
            admission: AdmissionPolicy::default(),
        }
        .with_admission(AdmissionPolicy::DeadlinePredictive),
    );
    b.periodic(
        "tau0",
        Span::from_units(rng.gen_range(1u64..=2)),
        Span::from_units(rng.gen_range(6u64..=12)),
        Priority::new(20),
    );
    b.periodic(
        "tau1",
        Span::from_units(1),
        Span::from_units(rng.gen_range(8u64..=15)),
        Priority::new(19),
    );
    let mut releases: Vec<u64> = (0..12).map(|_| rng.gen_range(0u64..=60)).collect();
    releases.sort_unstable();
    for release in releases {
        let cost = rng.gen_range(1u64..=capacity);
        b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        b.last_aperiodic_mut()
            .expect("event just added")
            .relative_deadline = Some(Span::from_units(rng.gen_range(cost..=cost + 18)));
    }
    b.scheduling(SchedulingPolicy::FixedPriority);
    b.horizon(Instant::from_units(96));
    b.build().expect("random admission systems are valid")
}

/// The equation-(5) plan is the only arrival-time predictor, and on a
/// top-priority Deferrable lane with ideal overheads it is a guarantee for
/// the execution world: every event it admits is served by its deadline.
#[test]
fn predictive_admission_keeps_every_admitted_deadline_on_deferrable_executions() {
    let mut rng = StdRng::seed_from_u64(0xAD31_5510);
    let mut admitted = 0;
    for seed in 0..500 {
        let spec = random_admission_system(ServerPolicyKind::Deferrable, &mut rng);
        let executed = execute(&spec, &ExecutionConfig::ideal());
        assert_eq!(
            accepted_misses(&executed),
            0,
            "seed {seed}: an admitted event missed its deadline in {:#?}",
            spec.aperiodics
        );
        admitted += executed.outcomes.iter().filter(|o| o.is_accepted()).count();
    }
    assert!(admitted > 1000, "only {admitted} events admitted");
}

/// The plan is no guarantee for a Polling lane either: an event arriving
/// at the very instant the plan's backlog virtually completes is planned
/// into the next instance, but the execution's server, still active in its
/// instance, serves it at once. The plan then books later arrivals behind
/// work that is already done, into an instance the execution forfeits.
/// Event 2 (released at 21, cost 1, deadline 24) is admitted against a
/// planned completion of 23; the execution completes it at 25.
#[test]
fn polling_execution_can_finish_an_admitted_event_late() {
    let mut b = SystemSpec::builder("admit-polling-late");
    b.server(
        ServerSpec::polling(Span::from_units(3), Span::from_units(4), Priority::new(30))
            .with_admission(AdmissionPolicy::DeadlinePredictive),
    );
    for (release, cost, deadline) in [(14u64, 1u64, 15u64), (17, 2, 5), (21, 1, 3)] {
        b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        b.last_aperiodic_mut()
            .expect("event just added")
            .relative_deadline = Some(Span::from_units(deadline));
    }
    b.horizon(Instant::from_units(40));
    let spec = b.build().expect("pinned polling system is valid");
    let fates: Vec<AperiodicFate> = execute(&spec, &ExecutionConfig::ideal())
        .outcomes
        .iter()
        .map(|o| o.fate)
        .collect();
    let served = |started, completed| AperiodicFate::Served {
        started: Instant::from_units(started),
        completed: Instant::from_units(completed),
    };
    assert_eq!(fates, vec![served(16, 17), served(17, 19), served(24, 25)]);
}

/// The plan is no guarantee for a Sporadic lane: its replenishments follow
/// the consumption chunks, not the plan's aligned instance grid, so an
/// execution can finish an admitted event late. Pinned on one input: event
/// 4 (released at 24, cost 3, deadline 40) is admitted, the execution
/// completes it at 41 and the simulator's textbook sporadic server at 36.
#[test]
fn sporadic_execution_can_finish_an_admitted_event_late() {
    let mut b = SystemSpec::builder("admit-sporadic-late");
    b.server(
        ServerSpec::sporadic(Span::from_units(3), Span::from_units(5), Priority::new(30))
            .with_admission(AdmissionPolicy::DeadlinePredictive),
    );
    b.periodic(
        "tau0",
        Span::from_units(2),
        Span::from_units(7),
        Priority::new(20),
    );
    b.periodic(
        "tau1",
        Span::from_units(1),
        Span::from_units(10),
        Priority::new(19),
    );
    for (release, cost, deadline) in [
        (10u64, 3u64, 3u64),
        (20, 3, 8),
        (20, 2, 8),
        (23, 2, 14),
        (24, 3, 16),
        (29, 1, 9),
        (33, 1, 12),
        (34, 3, 10),
        (37, 3, 19),
        (48, 3, 6),
        (56, 1, 9),
        (58, 2, 16),
    ] {
        b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        b.last_aperiodic_mut()
            .expect("event just added")
            .relative_deadline = Some(Span::from_units(deadline));
    }
    b.horizon(Instant::from_units(96));
    let spec = b.build().expect("pinned sporadic system is valid");
    let completion = |trace: &Trace| {
        let event = &trace.outcomes[4];
        assert_eq!(event.deadline, Some(Instant::from_units(40)));
        assert!(event.is_accepted(), "event 4 is admitted");
        match event.fate {
            AperiodicFate::Served { completed, .. } => completed,
            fate => panic!("event 4 must be served, got {fate:?}"),
        }
    };
    assert_eq!(
        completion(&execute(&spec, &ExecutionConfig::ideal())),
        Instant::from_units(41)
    );
    assert_eq!(completion(&simulate(&spec)), Instant::from_units(36));
}
