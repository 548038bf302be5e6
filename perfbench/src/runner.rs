//! Repeats a workload for the allotted time and turns the repeats into the
//! report: end-to-end metrics from untraced repeats, per-layer metrics from
//! traced ones.

use crate::spans::{self, SpanRec, Tracer, LAYERS};
use crate::stats::{max, median, min, tail_p99};
use crate::verify::Expected;
use crate::workloads::{
    admission_stage, library_tables_agree, observe_stage, setup, timed_job, JobResult, Sizes,
    Workload,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A set-up shorter than this is repeated within a repeat, and the median
/// pass reported, so that sub-millisecond set-ups still give a steady
/// figure.
const SETUP_FLOOR: Duration = Duration::from_millis(20);
const SETUP_MAX_PASSES: usize = 50;
/// Pairs of 1-worker / `nproc`-worker library table runs behind
/// `harness.fanout_speedup`.
const FANOUT_PAIRS: usize = 3;
/// Runs per cell whose spans go into the exported trace (every span outside
/// a run is exported). `rt_bench::validate_chrome_trace` takes time
/// quadratic in the file size, so the export samples runs rather than
/// carrying all of them.
const EXPORTED_RUNS_PER_CELL: usize = 4;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Time budget of the run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
    /// Cell digests to check, when recorded for this seed and size.
    pub expected: Option<Expected>,
    /// Available hardware threads.
    pub nproc: usize,
    /// Where the traced run writes its Chrome trace.
    pub out_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The benchmark's report for one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Human-readable header lines (host, sizes, verification).
    pub header: Vec<String>,
    /// Every check passed.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed verification.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Folded digest per cell, from the first repeat.
    pub cell_digests: Vec<(String, u64)>,
}

impl Report {
    /// The value of the metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// One repeat: set-up passes, then the timed job between two passes of the
/// reference load.
struct Repeat {
    setup_s: Vec<f64>,
    /// Mean of the two reference passes.
    reference_s: f64,
    wall_s: f64,
    job: JobResult,
    spans: Vec<SpanRec>,
    systems: usize,
    runs: usize,
    cell_names: Vec<String>,
    /// Cell of each case; run `r` is case `r - 1`.
    case_cells: Vec<usize>,
}

fn repeat(opts: &Options, t: &mut Tracer) -> Repeat {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let mut spans = Vec::new();
    while setup_s.len() < SETUP_MAX_PASSES
        && setup_s.iter().sum::<f64>() < SETUP_FLOOR.as_secs_f64()
    {
        let start = Instant::now();
        let p = setup(opts.workload, &opts.sizes, opts.seed, t);
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
        // Only the pass whose systems the job runs keeps its spans.
        spans = t.take();
    }
    let p = prepared.expect("the set-up loop runs at least once");
    // On either side of the job, so that together they see the host in the
    // state the job sees.
    let before = opts.sizes.reference.time_s();
    let start = Instant::now();
    let job = timed_job(&p, opts.workload.workers(opts.nproc), opts.expected, t);
    let wall_s = start.elapsed().as_secs_f64();
    let reference_s = (before + opts.sizes.reference.time_s()) / 2.0;
    spans.extend(t.take());
    Repeat {
        setup_s,
        reference_s,
        wall_s,
        job,
        spans,
        systems: p.systems.len(),
        runs: p.cases.len(),
        case_cells: p.cases.iter().map(|c| c.cell).collect(),
        cell_names: p.cells.into_iter().map(|c| c.name).collect(),
    }
}

/// Keeps repeating while the next repeat is predicted to end within
/// `budget`; always makes at least one.
fn repeat_within<R>(budget: f64, mut one: impl FnMut() -> R) -> Vec<R> {
    let start = Instant::now();
    let mut done = vec![one()];
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / done.len() as f64 > budget {
            return done;
        }
        done.push(one());
    }
}

/// Runs the workload as `opts` asks and builds its report.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        timed(opts)
    }
}

fn timed(opts: &Options) -> Report {
    let repeats = repeat_within(opts.seconds, || repeat(opts, &mut Tracer::off()));
    let mut report = base_report(opts, &repeats.iter().collect::<Vec<_>>());
    let tail_basis = if repeats.iter().all(|r| tail_p99(&r.job.run_ms).is_some()) {
        "p99"
    } else {
        "max (fewer than 1000 runs per repeat)"
    };
    // Per repeat: set-up passes, wall, p50 and p99 (or the slowest run).
    let timings: Vec<[Vec<f64>; 4]> = repeats
        .iter()
        .map(|r| {
            let p99 = tail_p99(&r.job.run_ms).unwrap_or_else(|| max(&r.job.run_ms));
            [
                r.setup_s.clone(),
                vec![r.wall_s],
                vec![median(&r.job.run_ms)],
                vec![p99],
            ]
        })
        .collect();
    // Each repeat's host speed relative to nominal, from the reference load
    // around its job (see `reference`).
    let scales: Vec<f64> = repeats
        .iter()
        .map(|r| ratio(opts.sizes.reference.nominal_s, r.reference_s))
        .collect();
    let median_of = |i: usize, scaled: bool| {
        let values: Vec<f64> = timings
            .iter()
            .zip(&scales)
            .flat_map(|(t, &scale)| {
                let factor = if scaled { scale } else { 1.0 };
                t[i].iter().map(move |v| v * factor)
            })
            .collect();
        median(&values)
    };
    let setup: Vec<f64> = timings.iter().flat_map(|t| t[0].iter().copied()).collect();
    let walls: Vec<f64> = repeats.iter().map(|r| r.wall_s).collect();
    let references: Vec<f64> = repeats.iter().map(|r| r.reference_s).collect();
    report.header.push(format!(
        "# timing repeats={} setup_passes={} setup_s_range={:.4}..{:.4} wall_s_range={:.4}..{:.4} \
         run_ms_p99 basis={tail_basis}",
        repeats.len(),
        setup.len(),
        min(&setup),
        max(&setup),
        min(&walls),
        max(&walls)
    ));
    report.header.push(format!(
        "# scale reference_s={:.6} range={:.4}..{:.4} nominal_s={} scale={:.6} \
         unscaled setup_s={:.6} wall_s={:.6} run_ms_p50={:.6} run_ms_p99={:.6}",
        median(&references),
        min(&references),
        max(&references),
        opts.sizes.reference.nominal_s,
        median(&scales),
        median_of(0, false),
        median_of(1, false),
        median_of(2, false),
        median_of(3, false)
    ));
    report.metrics = vec![
        metric("setup_s", median_of(0, true), "s"),
        metric("wall_s", median_of(1, true), "s"),
        metric("run_ms_p50", median_of(2, true), "ms"),
        metric("run_ms_p99", median_of(3, true), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric(
            "pass_ratio",
            1.0 - ratio(report.failed as f64, report.attempted as f64),
            "ratio",
        ),
    ];
    report
}

fn traced(opts: &Options) -> Report {
    let started = Instant::now();
    let mut t = Tracer::on(started);
    let workers = opts.workload.workers(opts.nproc);

    // Stages only the traced run makes, on a set-up of their own.
    let prepared = setup(opts.workload, &opts.sizes, opts.seed, &mut Tracer::off());
    let counters = observe_stage(&prepared, &mut t);
    let admission = admission_stage(&prepared, &mut t);
    drop(prepared);
    let mut extra_spans = t.take();
    // The fan-out stage's library-table spans below are exported but kept
    // out of self time: the engines run untraced inside them.
    let extra_self = spans::self_time_by_layer(&extra_spans);

    // Alternate untraced and traced repeats: their wall-time difference is
    // the tracing overhead. Half the budget; the fan-out stage takes the rest.
    let pairs = repeat_within(opts.seconds / 2.0, || {
        let plain = repeat(opts, &mut Tracer::off());
        let traced = repeat(opts, &mut t);
        (plain, traced)
    });
    let (plain, traced): (Vec<Repeat>, Vec<Repeat>) = pairs.into_iter().unzip();

    // Harness fan-out through the repository's own table entry points,
    // cross-checked against the timed job's aggregates.
    let mut speedups = Vec::new();
    let mut tables_agree = true;
    for _ in 0..FANOUT_PAIRS {
        let mut time_tables = |w: usize| {
            let start = Instant::now();
            let agree = t.span("harness.table", |_| {
                library_tables_agree(opts.workload, &opts.sizes, opts.seed, w, &traced[0].job)
            });
            (agree, start.elapsed().as_secs_f64())
        };
        let (one_ok, one_s) = time_tables(1);
        let (many_ok, many_s) = time_tables(workers);
        match (one_ok, many_ok) {
            (Some(a), Some(b)) => {
                tables_agree &= a && b;
                speedups.push(one_s / many_s);
            }
            _ => break,
        }
    }
    extra_spans.extend(t.take());

    let all: Vec<&Repeat> = traced.iter().chain(&plain).collect();
    let mut report = base_report(opts, &all);
    report.correct = report.failed == 0 && tables_agree;
    if !tables_agree {
        report.header.push(
            "# verify MISMATCH between the timed job's aggregates and the library tables".into(),
        );
    }

    // Per-layer figures: the median over traced repeats, plus the stages.
    let per_repeat: Vec<Vec<Metric>> = traced.iter().map(|r| layer_metrics(r, workers)).collect();
    let mut m: Vec<Metric> = per_repeat[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let values: Vec<f64> = per_repeat.iter().map(|r| r[i].value).collect();
            metric(&first.name, median(&values), first.unit)
        })
        .collect();
    for self_ms in &mut m {
        if let Some(layer) = self_ms.name.strip_suffix(".self_ms") {
            self_ms.value += extra_self[layer] as f64 / 1e6;
        }
    }
    let decisions = admission.decisions as f64;
    let plain_wall: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    m.extend([
        metric(
            "admission.decide_ns",
            ratio(admission.decide_ns as f64, decisions),
            "ns",
        ),
        metric(
            "admission.reject_ratio",
            ratio(admission.rejected as f64, decisions),
            "ratio",
        ),
        metric(
            "admission.abort_ratio",
            ratio(admission.aborted as f64, decisions),
            "ratio",
        ),
        metric("observe.decisions", counters.decisions as f64, "count"),
        metric("observe.dispatches", counters.dispatches as f64, "count"),
        metric("observe.preemptions", counters.preemptions as f64, "count"),
        metric("harness.fanout_speedup", median(&speedups), "ratio"),
        metric(
            "tracing.overhead_ms",
            (median(&traced_wall) - median(&plain_wall)) * 1e3,
            "ms",
        ),
    ]);
    report.metrics = m;
    report.header.push(format!(
        "# tracing pairs={} fanout_pairs={} elapsed_s={:.3}",
        traced.len(),
        speedups.len(),
        started.elapsed().as_secs_f64()
    ));

    let mut exported = sampled_spans(&traced[0]);
    exported.extend(extra_spans);
    match export_trace(opts, &exported) {
        Ok(line) => report.header.push(line),
        Err(err) => {
            report.correct = false;
            report.header.push(format!("# trace-export FAILED: {err}"));
        }
    }
    report
}

/// Per-layer metrics read off one traced repeat, self times last.
fn layer_metrics(r: &Repeat, workers: usize) -> Vec<Metric> {
    let s = &r.spans;
    let c = &r.job.counts;
    let total = |name: &str| spans::total_ns(s, name) as f64;
    let med = |name: &str| median(&spans::durations_ns(s, name));
    let mut m = vec![
        metric("sysgen.generate_ms", total("sysgen.generate") / 1e6, "ms"),
        metric("model.validate_ms", total("model.validate") / 1e6, "ms"),
        metric("analysis.rta_us", med("analysis.rta") / 1e3, "us"),
        metric("compile.compile_us", med("compile.compile") / 1e3, "us"),
        metric(
            "compile.sim_ns_per_segment",
            ratio(total("compile.simulate"), c.sim_segments as f64),
            "ns",
        ),
        metric(
            "compile.exec_ns_per_segment",
            ratio(total("compile.execute"), c.exec_segments as f64),
            "ns",
        ),
        metric(
            "rtss.sim_ns_per_segment",
            ratio(total("rtss.simulate"), c.sim_segments as f64),
            "ns",
        ),
        metric("rtss.sim_us_per_run", med("rtss.simulate") / 1e3, "us"),
        metric(
            "exec.exec_ns_per_segment",
            ratio(total("exec.execute"), c.exec_segments as f64),
            "ns",
        ),
        metric("exec.exec_us_per_run", med("exec.execute") / 1e3, "us"),
        metric("trace.render_ms", total("trace.render") / 1e6, "ms"),
        metric("trace.render_mb", c.render_bytes as f64 / 1e6, "MB"),
        metric("trace.invariants_ms", total("trace.invariants") / 1e6, "ms"),
        metric("trace.segments", c.segments as f64, "count"),
        metric("trace.periodic_jobs", c.periodic_jobs as f64, "count"),
        metric("trace.outcomes", c.outcomes as f64, "count"),
        metric("metrics.measure_us", med("metrics.measure") / 1e3, "us"),
        metric(
            "metrics.aggregate_ms",
            total("metrics.aggregate") / 1e6,
            "ms",
        ),
        metric(
            "harness.busy_ratio",
            ratio(
                total("harness.run"),
                workers as f64 * total("harness.fanout"),
            ),
            "ratio",
        ),
        metric("analysis.rta_feasible", r.job.rta.1 as f64, "count"),
    ];
    let self_ns = spans::self_time_by_layer(s);
    m.extend(LAYERS.iter().map(|layer| {
        metric(
            &format!("{layer}.self_ms"),
            self_ns[layer] as f64 / 1e6,
            "ms",
        )
    }));
    m
}

/// The header and counts common to both runs; digests and sizes come from
/// the first repeat.
fn base_report(opts: &Options, repeats: &[&Repeat]) -> Report {
    let first = repeats[0];
    let attempted = repeats.iter().map(|r| r.job.attempted).sum();
    let failed = repeats.iter().map(|r| r.job.failed).sum();
    let (rta_checked, rta_ok) = first.job.rta;
    let header = vec![
        format!(
            "# perfbench workload={} seed={} trace={} seconds={}",
            opts.workload.name(),
            opts.seed,
            u8::from(opts.trace),
            opts.seconds
        ),
        format!(
            "# host nproc={} workers={} rustc=\"{}\" git={}",
            opts.nproc,
            opts.workload.workers(opts.nproc),
            env!("PERFBENCH_RUSTC"),
            git_rev()
        ),
        format!(
            "# sizes systems_per_set={} long_tasks={} long_horizon_units={} systems={} runs_per_repeat={}",
            opts.sizes.systems_per_set,
            opts.sizes.long_tasks,
            opts.sizes.long_horizon_units,
            first.systems,
            first.runs
        ),
        format!(
            "# verify digests={} attempted={attempted} failed={failed} fp_rta_feasible={rta_ok}/{rta_checked}",
            if opts.expected.is_some() { "recorded" } else { "not-recorded-for-this-seed-or-size" }
        ),
    ];
    Report {
        header,
        correct: failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
        cell_digests: first
            .cell_names
            .iter()
            .cloned()
            .zip(first.job.cell_digests.iter().copied())
            .collect(),
    }
}

/// The spans of a repeat outside any run, plus those of the first
/// [`EXPORTED_RUNS_PER_CELL`] runs of each cell.
fn sampled_spans(r: &Repeat) -> Vec<SpanRec> {
    let cells = &r.case_cells;
    let sampled = |run: u64| {
        let case = run as usize - 1;
        case < EXPORTED_RUNS_PER_CELL || cells[case - EXPORTED_RUNS_PER_CELL] != cells[case]
    };
    r.spans
        .iter()
        .filter(|s| s.run == 0 || sampled(s.run))
        .cloned()
        .collect()
}

fn export_trace(opts: &Options, spans: &[SpanRec]) -> Result<String, String> {
    let json = spans::chrome_trace_json(spans);
    let summary = rt_bench::validate_chrome_trace(&json)?;
    let Some(dir) = &opts.out_dir else {
        return Ok(format!("# trace spans={} (not written)", summary.spans));
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!(
        "# trace spans={} file={}",
        summary.spans,
        path.display()
    ))
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: finite(value),
        unit,
    }
}

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` next to the benchmark's
/// directory; `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(name) => read(git.join(name)).or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        }),
    };
    rev.map_or_else(|| "unknown".into(), |r| r.chars().take(12).collect())
}
