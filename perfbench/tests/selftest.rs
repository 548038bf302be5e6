//! Self-tests of the benchmark, on small sizes so they run in seconds.

use perfbench::reference::Reference;
use perfbench::stats::{tail_p99, TAIL_MIN_SAMPLES};
use perfbench::verify::Expected;
use perfbench::{run, Options, Report, Sizes, Workload};

fn small(workload: Workload) -> Sizes {
    Sizes {
        systems_per_set: if workload == Workload::LongHorizon {
            0
        } else {
            8
        },
        long_tasks: 20,
        long_horizon_units: 2_000,
        reference: Reference {
            workers: 2,
            schedules_per_worker: 20,
            records: 2_000,
            nominal_s: 0.001,
        },
    }
}

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        sizes: small(workload),
        expected: None,
        nproc: 2,
        out_dir: None,
    }
}

fn is_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The names `BENCHMARK.json` declares under `key` (a flat scan: every
/// `"name": "<value>"` inside the key's array).
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("array closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn metric_and_workload_names_are_well_formed_and_declared() {
    let workloads = declared("workloads");
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    for workload in Workload::ALL {
        assert!(is_name(workload.name()));
        let timed = run(&options(workload, false));
        let traced = run(&options(workload, true));
        assert_eq!(names(&timed), declared("end_to_end"), "{}", workload.name());
        assert_eq!(names(&traced), declared("per_layer"), "{}", workload.name());
        for m in timed.metrics.iter().chain(&traced.metrics) {
            assert!(is_name(&m.name), "{}", m.name);
            assert!(m.value.is_finite(), "{}", m.name);
        }
        assert!(timed.correct && traced.correct, "{}", workload.name());
    }
}

#[test]
fn p99_is_not_reported_below_a_thousand_runs() {
    let samples: Vec<f64> = (0..TAIL_MIN_SAMPLES - 1).map(|i| i as f64).collect();
    assert_eq!(tail_p99(&samples), None);
    // 8 systems per set: 192 runs per repeat, so the report falls back to
    // the slowest run and says so.
    let report = run(&options(Workload::PaperSweep, false));
    assert_eq!(report.attempted % 192, 0);
    assert!(report
        .header
        .iter()
        .any(|l| l.contains("run_ms_p99 basis=max")));
    let p99 = report.metric("run_ms_p99").expect("reported");
    assert!(p99 >= report.metric("run_ms_p50").expect("reported"));
}

#[test]
fn a_corrupted_digest_raises_the_fail_ratio_instead_of_aborting() {
    let mut opts = options(Workload::LongHorizon, false);
    let clean = run(&opts);
    assert_eq!(clean.failed, 0);
    assert_eq!(clean.metric("pass_ratio"), Some(1.0));
    // Record the true digest for one world and a corrupted one for the other.
    let sim = clean.cell_digests[0].clone();
    assert_eq!(sim.0, "long/sim");
    let expected: Expected = Box::leak(Box::new([("long/sim", sim.1), ("long/exec", 0xdead_beef)]));
    opts.expected = Some(expected);
    let corrupted = run(&opts);
    assert!(!corrupted.correct);
    assert_eq!(
        corrupted.failed * 2,
        corrupted.attempted,
        "exec runs fail, sim runs pass"
    );
    assert_eq!(corrupted.metric("pass_ratio"), Some(0.5));
    assert!(corrupted.metric("wall_s").expect("still measured") > 0.0);
}

#[test]
fn count_metrics_repeat_exactly_across_traced_runs() {
    const COUNTS: [&str; 7] = [
        "trace.segments",
        "trace.periodic_jobs",
        "trace.outcomes",
        "observe.decisions",
        "observe.dispatches",
        "observe.preemptions",
        "analysis.rta_feasible",
    ];
    for workload in [Workload::OverloadFaults, Workload::LongHorizon] {
        let a = run(&options(workload, true));
        let b = run(&options(workload, true));
        for name in COUNTS {
            assert_eq!(a.metric(name), b.metric(name), "{} {name}", workload.name());
        }
        assert!(a.metric("trace.segments").expect("reported") > 0.0);
        assert!(a.metric("observe.decisions").expect("reported") > 0.0);
    }
}
