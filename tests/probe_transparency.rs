//! Probe-transparency differential suite.
//!
//! The `rt-observe` layer promises that attaching a probe never changes what
//! an engine computes: every hook site is gated on `Probe::ENABLED`, reads
//! engine state without mutating it, and reports through `&mut` side
//! channels only. This suite pins that promise:
//!
//! * **transparency** — canonical traces are byte-identical with `NoopProbe`
//!   vs a recording [`MetricsProbe`] across the scheduling × admission ×
//!   server-policy matrix, on the simulator (through `simulate_with_probe`
//!   and through a compiled system) and the execution driver (through
//!   `execute_with_probe`), under fixed priorities and EDF;
//! * **entry-point agreement** — the simulator's driver reports
//!   *identical* [`MetricsProbe`] contents (same hook sites, same call
//!   counts, same virtual-time arguments) whether it runs on freshly frozen
//!   tables (`simulate_with_probe`) or on a compiled system's retained ones
//!   (`CompiledSystem::simulate_with_probe`);
//! * **fuzz extension** — the same seeded generator the cross-engine fuzzer
//!   uses (`tests/common/specgen.rs`) drives randomized transparency and
//!   agreement checks, so the matrix keeps covering whatever the fuzz
//!   grammar can produce.
//!
//! The execution world is transparency-checked but *not* metrics-compared to
//! the simulation world: its substrate (non-resumable handlers, overhead
//! phases, event fires) is structurally different, so its counter stream
//! is its own reference.

use rtsj_event_framework::compile::CompiledSystem;
use rtsj_event_framework::model::{
    AdmissionPolicy, Instant, Priority, SchedulingPolicy, ServerPolicyKind, ServerSpec, Span,
    SystemSpec,
};
use rtsj_event_framework::observe::{chrome_trace_json, MetricsProbe, SpanProbe, UnitNames};
use rtsj_event_framework::simulator::{simulate, simulate_with_probe};
use rtsj_event_framework::taskserver::{execute, execute_with_probe, ExecutionConfig};

mod common;
use common::specgen::random_spec;
use common::traces::assert_traces_eq;

/// One Table-1-shaped spec per matrix point.
fn matrix_spec(
    policy: ServerPolicyKind,
    admission: AdmissionPolicy,
    scheduling: SchedulingPolicy,
) -> SystemSpec {
    let mut b = SystemSpec::builder(format!(
        "probe-matrix-{policy:?}-{admission:?}-{scheduling:?}"
    ));
    if policy == ServerPolicyKind::Background {
        b.server(ServerSpec::background(Priority::new(30)));
    } else {
        b.server(ServerSpec {
            policy,
            capacity: Span::from_units(3),
            period: Span::from_units(6),
            priority: Priority::new(30),
            discipline: rtsj_event_framework::model::QueueDiscipline::FifoSkip,
            admission,
        });
    }
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
    // Enough traffic to exercise accepts, skips, rejections and backlog.
    for (release, cost) in [(0, 2), (1, 3), (6, 2), (7, 1), (13, 3), (14, 2), (40, 3)] {
        let id = b.aperiodic(Instant::from_units(release), Span::from_units(cost));
        let event = b.last_aperiodic_mut().expect("event just added");
        event.relative_deadline = Some(Span::from_units(8));
        event.value = 1 + (id.index() as u64 % 4);
    }
    b.scheduling(scheduling);
    // Ten 6-unit server periods; the Background points (sentinel period)
    // fall through to the builder default, which lands on the same 60 units.
    b.horizon_server_periods(10);
    b.build().expect("matrix specs are valid by construction")
}

fn matrix() -> Vec<SystemSpec> {
    let mut specs = Vec::new();
    for policy in [
        ServerPolicyKind::Polling,
        ServerPolicyKind::Deferrable,
        ServerPolicyKind::Sporadic,
        ServerPolicyKind::Background,
    ] {
        for admission in [
            AdmissionPolicy::AcceptAll,
            AdmissionPolicy::DeadlinePredictive,
            AdmissionPolicy::ValueDensity,
        ] {
            for scheduling in [SchedulingPolicy::FixedPriority, SchedulingPolicy::Edf] {
                specs.push(matrix_spec(policy, admission, scheduling));
            }
        }
    }
    specs
}

/// Asserts the three engines each produce byte-identical canonical traces
/// with and without a recording probe attached.
fn assert_probe_transparent(spec: &SystemSpec) {
    let mut probe = MetricsProbe::new();
    assert_traces_eq(
        &format!("{}: simulator under observation", spec.name),
        &simulate(spec),
        &simulate_with_probe(spec, &mut probe),
    );

    let compiled = compile(spec);
    let mut probe = MetricsProbe::new();
    assert_traces_eq(
        &format!(
            "{}: compiled system's simulation under observation",
            spec.name
        ),
        &compiled.simulate(),
        &compiled.simulate_with_probe(&mut probe),
    );

    for config in [ExecutionConfig::reference(), ExecutionConfig::ideal()] {
        let mut probe = MetricsProbe::new();
        assert_traces_eq(
            &format!("{}: execution driver under observation", spec.name),
            &execute(spec, &config),
            &execute_with_probe(spec, &config, &mut probe),
        );
    }
}

fn compile(spec: &SystemSpec) -> CompiledSystem<'_> {
    CompiledSystem::compile(spec).expect("probe specs are valid")
}

/// Asserts the simulator's two entry points report identical probe
/// contents (counters and every histogram) for `spec`.
fn assert_sim_engines_agree(spec: &SystemSpec) {
    let mut fresh = MetricsProbe::new();
    let trace_i = simulate_with_probe(spec, &mut fresh);
    let mut compiled = MetricsProbe::new();
    let trace_c = compile(spec).simulate_with_probe(&mut compiled);
    assert_traces_eq(
        &format!("{}: engines before metrics were compared", spec.name),
        &trace_i,
        &trace_c,
    );
    fresh.absorb_trace(&trace_i);
    compiled.absorb_trace(&trace_c);
    assert_eq!(
        fresh, compiled,
        "{}: identical traces but different probe contents — the hook \
         stream depends on how the tables were frozen",
        spec.name
    );
}

#[test]
fn recording_probes_are_transparent_across_the_matrix() {
    for spec in matrix() {
        assert_probe_transparent(&spec);
    }
}

#[test]
fn interpreted_and_compiled_simulators_report_identical_metrics() {
    for spec in matrix() {
        assert_sim_engines_agree(&spec);
    }
}

#[test]
fn observed_runs_count_real_work() {
    // Spot-check the hook stream is live, not vacuously equal: the Table 1
    // polling system makes decisions, dispatches and accepts events.
    let spec = matrix_spec(
        ServerPolicyKind::Polling,
        AdmissionPolicy::AcceptAll,
        SchedulingPolicy::FixedPriority,
    );
    let mut probe = MetricsProbe::new();
    let trace = simulate_with_probe(&spec, &mut probe);
    probe.absorb_trace(&trace);
    assert!(probe.counters.decisions > 0);
    assert!(probe.counters.dispatches > 0);
    assert!(probe.counters.releases > 0);
    assert!(probe.counters.admission_accepted > 0);
    assert!(probe.response.count() > 0);
    assert!(probe.queue_depth.count() > 0);
}

#[test]
fn span_probes_are_transparent_and_export_chrome_trace_json() {
    let spec = matrix_spec(
        ServerPolicyKind::Deferrable,
        AdmissionPolicy::DeadlinePredictive,
        SchedulingPolicy::FixedPriority,
    );
    let mut spans = SpanProbe::new();
    let observed = simulate_with_probe(&spec, &mut spans);
    assert_traces_eq("span recording", &simulate(&spec), &observed);
    let json = chrome_trace_json(&spans, &UnitNames::from_spec(&spec));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""), "no duration spans recorded");
}

#[test]
fn seeded_fuzz_probe_transparency() {
    // Same derivation as the cross-engine fuzzer, offset into its own seed
    // stream so the two suites cover different cases.
    let cases = std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60u64);
    let base = std::env::var("FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x0B0B_5EED_u64);
    for case in 0..cases {
        let seed = base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case);
        let spec = random_spec(seed);
        assert_probe_transparent(&spec);
        assert_sim_engines_agree(&spec);
    }
}
