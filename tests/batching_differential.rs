//! Same-instant batching differential tests.
//!
//! The drivers serve every job due inside one decision window from a single
//! dispatcher entry (`rtss-sim`'s driver) and drain everything due once per
//! due instant (the execution driver). These tests pin the optimisation to
//! the one-job-per-dispatch oracles — `simulate_reference` and
//! `execute_reference` — on workloads built around coincident
//! work: bursts of ≥3 aperiodic events released at the same instant,
//! releases colliding with server activations, and backlogged periodic
//! tasks with several pending jobs in one window.

use rtsj_event_framework::model::{
    Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec,
};
use rtsj_event_framework::simulator::{simulate, simulate_reference};
use rtsj_event_framework::taskserver::{execute, execute_reference, ExecutionConfig};

mod common;
use common::traces::assert_traces_eq;

/// Asserts the batched engines and their one-job-per-dispatch oracles
/// produce the same trace on `spec`.
fn assert_batching_is_invisible(spec: &SystemSpec) {
    assert_traces_eq(&spec.name, &simulate_reference(spec), &simulate(spec));
    for config in [ExecutionConfig::reference(), ExecutionConfig::ideal()] {
        assert_traces_eq(
            &spec.name,
            &execute_reference(spec, &config),
            &execute(spec, &config),
        );
    }
}

/// The Table 1 pair under `policy` with the given aperiodic traffic.
fn table1(policy: ServerPolicyKind, events: &[(u64, u64)]) -> SystemSpec {
    let mut b = SystemSpec::builder(format!("batch-{policy:?}"));
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
    b.horizon(Instant::from_units(96));
    b.build().unwrap()
}

#[test]
fn coincident_bursts_are_batched_transparently() {
    // Four events at one instant (mid-period), then three more exactly at a
    // server activation instant: the server's queue holds several jobs per
    // window, so the batched dispatch loop runs multiple iterations.
    let burst: &[(u64, u64)] = &[(5, 1), (5, 1), (5, 2), (5, 1), (12, 1), (12, 1), (12, 1)];
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        assert_batching_is_invisible(&table1(policy, burst));
    }
}

#[test]
fn saturating_burst_at_time_zero_is_batched_transparently() {
    // Ten cost-2 events all at t = 0 overload the capacity-3 servers for
    // many periods: the queue stays backlogged, so every server window
    // serves as much as capacity allows and the burst also collides with
    // the initial periodic releases at t = 0.
    let burst: Vec<(u64, u64)> = (0..10).map(|_| (0, 2)).collect();
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Background,
    ] {
        assert_batching_is_invisible(&table1(policy, &burst));
    }
}

#[test]
fn backlogged_periodic_task_is_batched_transparently() {
    // tau_high (cost 8, period 18) starves tau_low (cost 3, period 8) past a
    // full period: at t = 8 tau_low has two pending jobs and completes the
    // first strictly inside its window, so the batched engine serves the
    // second from the same dispatch.
    let mut b = SystemSpec::builder("batch-backlog");
    b.server(ServerSpec::background(Priority::new(1)));
    b.periodic(
        "tau_high",
        Span::from_units(8),
        Span::from_units(18),
        Priority::new(20),
    );
    b.periodic(
        "tau_low",
        Span::from_units(3),
        Span::from_units(8),
        Priority::new(10),
    );
    b.aperiodic(Instant::from_units(4), Span::from_units(1));
    b.aperiodic(Instant::from_units(4), Span::from_units(1));
    b.aperiodic(Instant::from_units(4), Span::from_units(1));
    b.horizon(Instant::from_units(72));
    assert_batching_is_invisible(&b.build().unwrap());
}
