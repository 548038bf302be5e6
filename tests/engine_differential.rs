//! Differential determinism tests: each world's table-driven driver must
//! produce traces identical to its naive linear-scan oracle — same
//! segments, same outcomes, same periodic job records, event by event — on
//! the paper scenarios, on randomly generated systems and on tie-heavy
//! inputs.
//!
//! The oracles (`execute_reference`, `simulate_reference`) rescan every
//! schedulable at every decision, so these tests pin the drivers to the
//! seed behaviour without relying on stored fixtures (the golden files in
//! `tests/goldens/` additionally pin both to the recorded history).

use rtsj_event_framework::model::{
    Instant, Priority, SchedulingPolicy, ServerPolicyKind, ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::sysgen::{GeneratorParams, RandomSystemGenerator};
use rtsj_event_framework::taskserver::{execute, execute_reference, ExecutionConfig};

mod common;
use common::invariants::assert_trace_invariants;
use common::traces::assert_traces_eq;

/// Asserts the execution driver reproduces the oracle on one system under
/// one configuration.
fn assert_execution_agrees(spec: &SystemSpec, config: ExecutionConfig) {
    let driver = execute(spec, &config);
    assert_traces_eq(&spec.name, &execute_reference(spec, &config), &driver);
    assert_trace_invariants(spec, &driver);
}

/// Asserts the simulator's driver reproduces its oracle on one system.
fn assert_simulation_agrees(spec: &SystemSpec) {
    let driver = simulate(spec);
    assert_traces_eq(&spec.name, &simulate_reference(spec), &driver);
    assert_trace_invariants(spec, &driver);
}

/// The Table 1 pair with the given policy and traffic.
fn table1(policy: ServerPolicyKind, events: &[(u64, u64)]) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("diff-{policy:?}"));
    let server = match policy {
        ServerPolicyKind::Background => ServerSpec::background(Priority::new(1)),
        _ => ServerSpec {
            policy,
            capacity: Span::from_units(3),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline: rt_model::QueueDiscipline::FifoSkip,
            admission: Default::default(),
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
        b.aperiodic(Instant::from_units(release), Span::from_units(cost));
    }
    // Fixed horizon: `horizon_server_periods` would explode for the
    // background server, whose "period" is not a real activation period.
    b.horizon(Instant::from_units(60));
    b.build().unwrap()
}

#[test]
fn paper_scenarios_agree_between_schedulers() {
    let scenarios: [&[(u64, u64)]; 4] = [
        &[(0, 2), (6, 2)],
        &[(2, 2), (4, 2)],
        &[(1, 2), (7, 2), (14, 2), (20, 1), (27, 2)],
        &[],
    ];
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        for events in scenarios {
            let spec = table1(policy, events);
            assert_execution_agrees(&spec, ExecutionConfig::reference());
            assert_execution_agrees(&spec, ExecutionConfig::ideal());
            assert_simulation_agrees(&spec);
        }
    }
}

#[test]
fn generated_systems_agree_between_schedulers() {
    // The paper's six sets are (density, deviation) pairs; sweep a diagonal
    // of them plus both policies, several systems per generator.
    for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
        for (density, deviation) in [(1u32, 0u32), (2, 1), (3, 2)] {
            let generator =
                RandomSystemGenerator::new(GeneratorParams::paper_set(density, deviation), policy)
                    .expect("paper parameters are valid");
            for index in 0..4 {
                let spec = generator.generate_one(index);
                assert_execution_agrees(&spec, ExecutionConfig::reference());
                assert_simulation_agrees(&spec);
            }
        }
    }
}

#[test]
fn saturated_traffic_agrees_between_schedulers() {
    // Heavy overload exercises the skip/interrupt/unserved paths where
    // stale heap entries are most likely to accumulate.
    let events: Vec<(u64, u64)> = (0..40).map(|i| (i * 3 / 2, 1 + i % 3)).collect();
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        let spec = table1(policy, &events);
        assert_execution_agrees(&spec, ExecutionConfig::reference());
        assert_simulation_agrees(&spec);
    }
}

/// Every tie the dispatchers must break by spawn order at once: two
/// equal-priority deferrable servers, each with a backlog at t = 0, above two
/// equal-priority, equal-period tasks released together. Under EDF the
/// servers' deadlines (their first replenishment) and the tasks' deadlines
/// are pairwise equal too.
fn tie_system(scheduling: SchedulingPolicy) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("ties-{}", scheduling.label()));
    for _ in 0..2 {
        b.add_server(ServerSpec::deferrable(
            Span::from_units(2),
            Span::from_units(6),
            Priority::new(30),
        ));
    }
    for name in ["tau1", "tau2"] {
        b.periodic(
            name,
            Span::from_units(1),
            Span::from_units(6),
            Priority::new(20),
        );
    }
    for (server, release, cost) in [
        (0, 0, 2),
        (1, 0, 2),
        (0, 0, 1),
        (1, 0, 1),
        (1, 7, 2),
        (0, 7, 2),
    ] {
        b.aperiodic_for(server, Instant::from_units(release), Span::from_units(cost));
    }
    b.scheduling(scheduling);
    b.horizon(Instant::from_units(36));
    b.build().expect("tie systems are valid")
}

#[test]
fn equal_priority_and_equal_deadline_ties_agree_between_driver_and_oracle() {
    for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
        let spec = tie_system(scheduling);
        assert_execution_agrees(&spec, ExecutionConfig::reference());
        assert_execution_agrees(&spec, ExecutionConfig::ideal());
        assert_simulation_agrees(&spec);
    }
}
