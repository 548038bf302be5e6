//! Compiled-system differential tests. On the simulation side the
//! simulator's driver — reached through both `rtss_sim::simulate` and
//! `CompiledSystem::simulate` — must reproduce the naive
//! `simulate_reference` oracle byte for byte on every system shape: server
//! policies × queue disciplines × admission policies × scheduling policies,
//! single- and multi-server, plus randomly generated systems. On the
//! execution side the compiled ceiling-table fast path must agree with
//! `rt_taskserver::execute` across scheduler/queue configurations.
//!
//! These tests pin the fast paths — the monomorphized lane policies, the
//! ready bitmap, the release-group wheel, the in-window re-pick, the SRP
//! ceiling tables — to the oracles without relying on stored fixtures. The
//! golden files additionally pin them to the recorded history.

use rtsj_event_framework::compile::{execute_compiled, CompiledSystem};
use rtsj_event_framework::model::{
    AdmissionPolicy, Instant, Priority, QueueDiscipline, SchedulingPolicy, ServerPolicyKind,
    ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::prelude::SchedulerKind;
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::sysgen::{GeneratorParams, RandomSystemGenerator};
use rtsj_event_framework::taskserver::{execute, ExecutionConfig, QueueKind};

mod common;
use common::invariants::assert_trace_invariants;
use common::traces::assert_traces_eq;

/// Asserts the simulator's driver, directly and through the compiled
/// system, reproduces the oracle.
fn assert_compiled_simulation_agrees(spec: &SystemSpec) {
    let engine = simulate(spec);
    assert_traces_eq(&spec.name, &simulate_reference(spec), &engine);
    let compiled = CompiledSystem::compile(spec).expect("valid spec");
    assert_traces_eq(&spec.name, &engine, &compiled.simulate());
    assert_trace_invariants(spec, &engine);
}

/// Asserts the compiled execution plan agrees byte-for-byte with the direct
/// interpreted execution under one configuration.
fn assert_compiled_execution_agrees(spec: &SystemSpec, config: ExecutionConfig) {
    let compiled = execute_compiled(spec, &config);
    let interpreted = execute(spec, &config);
    assert_eq!(
        compiled.render_canonical(),
        interpreted.render_canonical(),
        "compiled and interpreted executions diverged on {}",
        spec.name
    );
    assert_eq!(compiled, interpreted);
    assert_trace_invariants(spec, &compiled);
}

/// The Table 1 pair under a configurable server, discipline, admission and
/// scheduling policy.
fn system(
    policy: ServerPolicyKind,
    discipline: QueueDiscipline,
    admission: AdmissionPolicy,
    scheduling: SchedulingPolicy,
    events: &[(u64, u64)],
) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("compiled-{policy:?}-{discipline:?}-{admission:?}"));
    let server = match policy {
        ServerPolicyKind::Background => ServerSpec::background(Priority::new(1)),
        _ => ServerSpec {
            policy,
            capacity: Span::from_units(3),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline,
            admission,
        },
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
        let id = b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        // Deadlines make the admission predictors and deadline-ordered
        // service meaningful; values drive the density drop rule.
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(6 + u64::from(id.raw()) % 5));
        event.value = 1 + u64::from(id.raw()) * 3 % 7;
    }
    b.scheduling(scheduling);
    b.horizon(Instant::from_units(60));
    b.build().unwrap()
}

/// Paper scenarios plus a saturating burst.
const SCENARIOS: [&[(u64, u64)]; 5] = [
    &[(0, 2), (6, 2)],
    &[(2, 2), (4, 2)],
    &[(1, 2), (7, 2), (14, 2), (20, 1), (27, 2)],
    &[],
    &[
        (0, 2),
        (1, 2),
        (2, 3),
        (3, 1),
        (5, 2),
        (8, 3),
        (9, 1),
        (13, 2),
        (14, 3),
        (20, 2),
        (21, 2),
        (22, 2),
    ],
];

#[test]
fn compiled_simulation_matches_across_the_full_matrix() {
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
        ServerPolicyKind::Background,
    ] {
        for discipline in [QueueDiscipline::FifoSkip, QueueDiscipline::DeadlineOrdered] {
            for admission in [
                AdmissionPolicy::AcceptAll,
                AdmissionPolicy::DeadlinePredictive,
                AdmissionPolicy::ValueDensity,
            ] {
                for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
                    for events in SCENARIOS {
                        let spec = system(policy, discipline, admission, scheduling, events);
                        assert_compiled_simulation_agrees(&spec);
                    }
                }
            }
        }
    }
}

#[test]
fn compiled_execution_matches_across_configurations() {
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        for events in SCENARIOS {
            let spec = system(
                policy,
                QueueDiscipline::FifoSkip,
                AdmissionPolicy::AcceptAll,
                SchedulingPolicy::FixedPriority,
                events,
            );
            for queue in [QueueKind::Fifo, QueueKind::ListOfLists] {
                for scheduler in [SchedulerKind::Indexed, SchedulerKind::LinearScan] {
                    let config = ExecutionConfig::reference()
                        .with_queue(queue)
                        .with_scheduler(scheduler);
                    assert_compiled_execution_agrees(&spec, config);
                }
            }
            assert_compiled_execution_agrees(&spec, ExecutionConfig::ideal());
        }
    }
}

#[test]
fn compiled_execution_plan_is_reusable() {
    let spec = system(
        ServerPolicyKind::Deferrable,
        QueueDiscipline::FifoSkip,
        AdmissionPolicy::AcceptAll,
        SchedulingPolicy::FixedPriority,
        SCENARIOS[2],
    );
    let compiled = CompiledSystem::compile(&spec).expect("valid spec");
    let config = ExecutionConfig::reference();
    let plan = compiled.execution_plan(&config);
    let first = plan.run();
    let second = plan.run();
    assert_eq!(first, second, "plan reruns must be deterministic");
    assert_eq!(first, execute(&spec, &config));
}

#[test]
fn compiled_simulation_matches_on_multi_server_systems() {
    // Mixed-policy lanes take the driver's AnyLanePolicy instantiation;
    // same-priority lanes exercise the install-order tie-break.
    for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
        let mut b = SystemSpec::builder("compiled-multi");
        b.add_server(ServerSpec::polling(
            Span::from_units(2),
            Span::from_units(8),
            Priority::new(40),
        ));
        b.add_server(ServerSpec::deferrable(
            Span::from_units(2),
            Span::from_units(10),
            Priority::new(40),
        ));
        b.add_server(ServerSpec::sporadic(
            Span::from_units(2),
            Span::from_units(12),
            Priority::new(35),
        ));
        b.periodic(
            "tau1",
            Span::from_units(2),
            Span::from_units(7),
            Priority::new(20),
        );
        b.periodic(
            "tau2",
            Span::from_units(3),
            Span::from_units(13),
            Priority::new(10),
        );
        for (i, &(release, cost)) in [(0u64, 2u64), (3, 1), (5, 2), (9, 2), (12, 1), (15, 2)]
            .iter()
            .enumerate()
        {
            b.aperiodic_for(i % 3, Instant::from_units(release), Span::from_units(cost));
        }
        b.scheduling(scheduling);
        b.horizon(Instant::from_units(80));
        let spec = b.build().unwrap();
        assert_compiled_simulation_agrees(&spec);
        assert_compiled_execution_agrees(&spec, ExecutionConfig::reference());
    }
}

#[test]
fn compiled_simulation_matches_on_generated_systems() {
    for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
        for (density, deviation) in [(1u32, 0u32), (2, 1), (3, 2)] {
            let generator =
                RandomSystemGenerator::new(GeneratorParams::paper_set(density, deviation), policy)
                    .expect("paper parameters are valid");
            for index in 0..4 {
                let spec = generator.generate_one(index);
                assert_compiled_simulation_agrees(&spec);
                assert_compiled_execution_agrees(&spec, ExecutionConfig::reference());
            }
        }
    }
}

#[test]
fn compiled_simulation_matches_without_servers_and_with_orphans() {
    // No servers: arrivals become orphans, reported unserved at the horizon.
    let mut b = SystemSpec::builder("compiled-orphans");
    b.periodic(
        "tau",
        Span::from_units(2),
        Span::from_units(5),
        Priority::new(10),
    );
    b.aperiodic(Instant::from_units(3), Span::from_units(1));
    b.horizon(Instant::from_units(20));
    let spec = b.build().unwrap();
    assert_compiled_simulation_agrees(&spec);
}

#[test]
fn compiled_homogeneous_rate_groups_match() {
    // Many tasks sharing (offset, period) collapse to one wheel group — the
    // shape the 300-task benchmark point has; pin it at a testable size.
    for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
        let mut b = SystemSpec::builder("compiled-groups");
        b.server(ServerSpec::deferrable(
            Span::from_units(1),
            Span::from_units(10),
            Priority::new(99),
        ));
        for i in 0..24u8 {
            b.periodic(
                format!("tau{i}"),
                Span::from_ticks(300),
                Span::from_units(10),
                Priority::new(1 + (i % 9) * 10),
            );
        }
        for i in 0..12u64 {
            b.aperiodic(Instant::from_units(i * 8), Span::from_ticks(500));
        }
        b.scheduling(scheduling);
        b.horizon(Instant::from_units(100));
        let spec = b.build().unwrap();
        assert_compiled_simulation_agrees(&spec);
    }
}

#[test]
fn trace_mismatches_are_reported_at_the_first_differing_record() {
    let spec = system(
        ServerPolicyKind::Polling,
        QueueDiscipline::FifoSkip,
        AdmissionPolicy::AcceptAll,
        SchedulingPolicy::FixedPriority,
        SCENARIOS[4],
    );
    let expected = simulate(&spec);
    assert!(common::traces::first_divergence(&expected, &expected).is_ok());
    let mut actual = expected.clone();
    actual.segments[7].end += Span::from_ticks(1);
    let report = common::traces::first_divergence(&expected, &actual).unwrap_err();
    assert!(
        report.starts_with("first differing segment at index 7 "),
        "{report}"
    );
    // Both sides show the ±5-entry window around the divergence.
    assert_eq!(report.matches("  > [7]").count(), 2, "{report}");
    assert_eq!(report.matches("[2]").count(), 2, "{report}");
    assert_eq!(report.matches("[12]").count(), 2, "{report}");
    assert!(
        !report.contains("[1]") && !report.contains("[13]"),
        "{report}"
    );

    let mut actual = expected.clone();
    actual.outcomes.pop();
    let report = common::traces::first_divergence(&expected, &actual).unwrap_err();
    assert!(
        report.starts_with("first differing outcome at index "),
        "{report}"
    );
}
