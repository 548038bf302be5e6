//! The three workloads: what each generates (set-up), the timed job that runs
//! and verifies every system, and the stages only the traced run adds.

use crate::reference::Reference;
use crate::spans::{SpanRec, Tracer};
use crate::verify::{self, Expected};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_admission::{ArrivingEvent, ServerAdmission};
use rt_compile::CompiledSystem;
use rt_experiments::{
    generate_fault_set, generate_overload_set, generate_set, parallel_map, reproduce_faults_table,
    reproduce_overload_table, reproduce_table_with_workers, run_system, EvaluationMode, PaperTable,
    TableConfig, FAULT_SCENARIOS, OVERLOAD_LOADS, OVERLOAD_POLICIES,
};
use rt_metrics::{
    ContainmentAggregate, ContainmentMeasures, OverloadAggregate, ResultTable, RunMeasures,
    SetAggregate, SET_ORDER,
};
use rt_model::{Instant, Priority, ServerPolicyKind, ServerSpec, Span, SystemSpec};
use rt_observe::{Counters, MetricsProbe};
use rt_taskserver::ExecutionConfig;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's six sets under PS and DS, simulated and executed.
    PaperSweep,
    /// One 300-task DS system at horizon 10^5 on all four engine paths.
    LongHorizon,
    /// The overload sweep cells plus the six fault scenarios.
    OverloadFaults,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::LongHorizon,
        Workload::OverloadFaults,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::LongHorizon => "long_horizon",
            Workload::OverloadFaults => "overload_faults",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Harness workers for the timed job: `nproc`, except on
    /// `long_horizon`, whose two worlds run one after the other so that at
    /// most two full-horizon traces are alive at once.
    pub fn workers(self, nproc: usize) -> usize {
        match self {
            Workload::LongHorizon => 1,
            _ => nproc.max(1),
        }
    }
}

/// How much each workload generates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Systems per generated set (paper sets, overload cells, fault rows).
    pub systems_per_set: usize,
    /// Periodic tasks of the long-horizon system.
    pub long_tasks: usize,
    /// Horizon of the long-horizon system, in time units.
    pub long_horizon_units: u64,
    /// Reference load timed next to the job in every repeat.
    pub reference: Reference,
}

impl Sizes {
    /// The sizes the benchmark runs, and the digests are recorded at, for
    /// a host with `nproc` hardware threads. One pass of the reference load
    /// takes about a sixth of a paper-sized job and a tenth of the
    /// long-horizon one. The long-horizon reference is all memory phase: its
    /// job is dominated by rendering a 300 MB trace, which the memory phase
    /// tracks and the compute phase does not.
    pub fn default_for(workload: Workload, nproc: usize) -> Sizes {
        let systems_per_set = match workload {
            Workload::PaperSweep => 1000,
            Workload::LongHorizon => 0,
            Workload::OverloadFaults => 1000,
        };
        let reference = match workload {
            Workload::PaperSweep | Workload::OverloadFaults => Reference {
                workers: workload.workers(nproc),
                schedules_per_worker: 400,
                records: 250_000,
                nominal_s: 0.1,
            },
            Workload::LongHorizon => Reference {
                workers: workload.workers(nproc),
                schedules_per_worker: 0,
                records: 3_000_000,
                nominal_s: 0.75,
            },
        };
        Sizes {
            systems_per_set,
            long_tasks: 300,
            long_horizon_units: 100_000,
            reference,
        }
    }
}

/// Simulation (rtss) or execution (rt-taskserver on rtsj-emu).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// The discrete-event simulator.
    Sim,
    /// The task-server framework on the emulated RTSJ runtime.
    Exec,
}

impl World {
    fn of(mode: EvaluationMode) -> World {
        match mode {
            EvaluationMode::Simulation | EvaluationMode::CompiledSimulation => World::Sim,
            EvaluationMode::Execution | EvaluationMode::CompiledExecution => World::Exec,
        }
    }

    fn label(self) -> &'static str {
        match self {
            World::Sim => "sim",
            World::Exec => "exec",
        }
    }
}

/// Which aggregate a cell's runs fold into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// `SetAggregate` (paper tables).
    Set,
    /// `OverloadAggregate` (overload sweep).
    Overload,
    /// `ContainmentAggregate` (fault table).
    Containment,
}

/// One aggregated group of runs: a table cell in one world.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Name the recorded digests are keyed by.
    pub name: String,
    /// World every run of the cell goes through.
    pub world: World,
    /// Aggregate the cell folds into.
    pub fold: Fold,
}

/// One run: a system through its cell's world.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Index into [`Prepared::systems`].
    pub system: usize,
    /// Index into [`Prepared::cells`].
    pub cell: usize,
    /// Whether the run also computes the system's FP-RTA verdict.
    pub rta: bool,
}

/// A workload after set-up: generated, validated systems and the runs to
/// make over them.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Generated systems.
    pub systems: Vec<SystemSpec>,
    /// `SystemSpec::validate` verdict per system.
    pub valid: Vec<bool>,
    /// Aggregated cells, in table order.
    pub cells: Vec<Cell>,
    /// Runs, grouped by cell, in system order within a cell.
    pub cases: Vec<Case>,
}

impl Prepared {
    fn new() -> Prepared {
        Prepared {
            systems: Vec::new(),
            valid: Vec::new(),
            cells: Vec::new(),
            cases: Vec::new(),
        }
    }

    /// Appends generated systems, returning their index range.
    fn push_systems(&mut self, systems: Vec<SystemSpec>) -> Range<usize> {
        let start = self.systems.len();
        self.systems.extend(systems);
        start..self.systems.len()
    }

    /// Adds a cell whose runs are `systems` in `world`.
    fn push_cell(&mut self, name: String, world: World, fold: Fold, systems: Range<usize>) {
        let cell = self.cells.len();
        self.cells.push(Cell { name, world, fold });
        self.cases.extend(systems.map(|system| Case {
            system,
            cell,
            rta: world == World::Sim,
        }));
    }
}

/// The table configuration the workloads generate with.
pub fn table_config(sizes: &Sizes, seed: u64) -> TableConfig {
    TableConfig {
        systems_per_set: sizes.systems_per_set,
        seed,
        ..TableConfig::default()
    }
}

/// Generates and validates the workload's systems (the part `setup_s`
/// times).
pub fn setup(workload: Workload, sizes: &Sizes, seed: u64, t: &mut Tracer) -> Prepared {
    let mut p = Prepared::new();
    let config = table_config(sizes, seed);
    match workload {
        Workload::PaperSweep => {
            let mut sets = Vec::new();
            for policy in [ServerPolicyKind::Polling, ServerPolicyKind::Deferrable] {
                for &set in &SET_ORDER {
                    let systems = t.span("sysgen.generate", |_| generate_set(set, policy, &config));
                    sets.push((policy, p.push_systems(systems)));
                }
            }
            for table in PaperTable::all() {
                let world = World::of(table.mode());
                let of_policy = sets.iter().filter(|(policy, _)| *policy == table.policy());
                for (&set, (_, systems)) in SET_ORDER.iter().zip(of_policy) {
                    let name = format!(
                        "{}/{}/{}-{}",
                        table.policy().label(),
                        world.label(),
                        set.0,
                        set.1
                    );
                    p.push_cell(name, world, Fold::Set, systems.clone());
                }
            }
        }
        Workload::LongHorizon => {
            let system = t.span("model.build", |_| {
                long_horizon_system(seed, sizes.long_tasks, sizes.long_horizon_units)
            });
            let systems = p.push_systems(vec![system]);
            for world in [World::Sim, World::Exec] {
                let name = format!("long/{}", world.label());
                p.push_cell(name, world, Fold::Set, systems.clone());
            }
        }
        Workload::OverloadFaults => {
            for &load in &OVERLOAD_LOADS {
                for &policy in &OVERLOAD_POLICIES {
                    let systems = t.span("sysgen.generate", |_| {
                        generate_overload_set(load, policy, &config)
                    });
                    let systems = p.push_systems(systems);
                    // Execution before simulation, as an `OverloadRow` lists them.
                    for world in [World::Exec, World::Sim] {
                        let name = format!("overload/{load}x/{}/{}", policy.label(), world.label());
                        p.push_cell(name, world, Fold::Overload, systems.clone());
                    }
                }
            }
            for &scenario in &FAULT_SCENARIOS {
                let systems = t.span("sysgen.generate", |_| generate_fault_set(scenario, &config));
                let systems = p.push_systems(systems);
                for world in [World::Exec, World::Sim] {
                    let name = format!("faults/{}/{}", scenario.label(), world.label());
                    p.push_cell(name, world, Fold::Containment, systems.clone());
                }
            }
        }
    }
    p.valid = t.span("model.validate", |_| {
        p.systems.iter().map(|s| s.validate().is_ok()).collect()
    });
    p
}

/// The long-horizon system: `n` periodic tasks (period 10, total periodic
/// utilisation ≈ 0.8) under a highest-priority deferrable server
/// (capacity 1, period 10), with `n` aperiodic events, one per `horizon/n`
/// slot — the shape of `engine_scaling`'s `scaled_system(n, horizon)`. The
/// seed places each event inside its slot and draws its cost from 400–600
/// ticks.
pub fn long_horizon_system(seed: u64, n: usize, horizon_units: u64) -> SystemSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = SystemSpec::builder(format!("long-{n}-{horizon_units}-{seed}"));
    b.server(ServerSpec::deferrable(
        Span::from_units(1),
        Span::from_units(10),
        Priority::new(99),
    ));
    let cost_ticks = (8_000 / n.max(1) as u64).max(1);
    for i in 0..n {
        b.periodic(
            format!("t{i}"),
            Span::from_ticks(cost_ticks),
            Span::from_units(10),
            Priority::new(1 + (i % 90) as u8),
        );
    }
    let spacing = (horizon_units / n.max(1) as u64).max(1);
    for j in 0..n as u64 {
        let release = j * spacing + rng.gen_range(0..spacing);
        let cost = rng.gen_range(400..=600);
        b.aperiodic(Instant::from_units(release), Span::from_ticks(cost));
    }
    b.horizon(Instant::from_units(horizon_units));
    b.build()
        .expect("the long-horizon system is well formed by construction")
}

/// The measures a run folds into its cell's aggregate.
#[derive(Debug, Clone, Copy)]
pub enum Measures {
    /// For `Fold::Set` and `Fold::Overload`.
    Run(RunMeasures),
    /// For `Fold::Containment`.
    Containment(ContainmentMeasures),
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The run's cell.
    pub cell: usize,
    /// Wall-clock time of the run, ms; `None` when it did not complete.
    pub ms: Option<f64>,
    /// Trace invariants hold and the compiled twin is identical.
    pub ok: bool,
    /// Digest of the canonical rendering.
    pub digest: u64,
    /// Size of the canonical rendering.
    pub render_bytes: u64,
    /// Trace segments.
    pub segments: u64,
    /// Periodic-job records.
    pub periodic_jobs: u64,
    /// Aperiodic outcomes.
    pub outcomes: u64,
    /// Measures for the cell's aggregate.
    pub measures: Option<Measures>,
    /// FP-RTA verdict, on runs that compute one.
    pub rta_feasible: Option<bool>,
    /// Spans the run recorded.
    pub spans: Vec<SpanRec>,
}

/// Runs one case and verifies its output. A panic inside the system counts
/// as a failed run, not an aborted benchmark.
pub fn run_case(p: &Prepared, case: &Case, mut t: Tracer) -> RunOutcome {
    let mut out = RunOutcome {
        cell: case.cell,
        ms: None,
        ok: false,
        digest: 0,
        render_bytes: 0,
        segments: 0,
        periodic_jobs: 0,
        outcomes: 0,
        measures: None,
        rta_feasible: None,
        spans: Vec::new(),
    };
    if !p.valid[case.system] {
        return out;
    }
    let spec = &p.systems[case.system];
    let cell = &p.cells[case.cell];
    let start = std::time::Instant::now();
    let completed = catch_unwind(AssertUnwindSafe(|| {
        t.span("harness.run", |t| {
            run_checked(spec, cell, case.rta, t, &mut out)
        })
    }));
    if completed.is_ok() {
        out.ms = Some(start.elapsed().as_secs_f64() * 1e3);
    } else {
        out.ok = false;
    }
    out.spans = t.take();
    out
}

fn run_checked(spec: &SystemSpec, cell: &Cell, rta: bool, t: &mut Tracer, out: &mut RunOutcome) {
    let config = ExecutionConfig::reference();
    let trace = match cell.world {
        // `run_system` is the harness's default engine for each world.
        World::Sim => t.span("rtss.simulate", |_| {
            run_system(spec, EvaluationMode::Simulation)
        }),
        World::Exec => t.span("exec.execute", |_| {
            run_system(spec, EvaluationMode::Execution)
        }),
    };
    let identical = match t.span("compile.compile", |_| CompiledSystem::compile(spec)) {
        Ok(compiled) => {
            let twin = match cell.world {
                World::Sim => t.span("compile.simulate", |_| compiled.simulate()),
                World::Exec => t.span("compile.execute", |_| compiled.execute(&config)),
            };
            t.span("trace.compare", |_| twin == trace)
        }
        Err(_) => false,
    };
    let invariants = t.span("trace.invariants", |_| trace.check_invariants().is_ok());
    let rendered = t.span("trace.render", |_| trace.render_canonical());
    out.digest = t.span("trace.digest", |_| {
        verify::digest_bytes(rendered.as_bytes())
    });
    out.render_bytes = rendered.len() as u64;
    drop(rendered);
    out.measures = Some(t.span("metrics.measure", |_| match cell.fold {
        Fold::Containment => {
            Measures::Containment(ContainmentMeasures::from_trace(&trace, &spec.faults))
        }
        Fold::Set | Fold::Overload => Measures::Run(RunMeasures::from_trace(&trace)),
    }));
    if rta {
        out.rta_feasible = Some(t.span("analysis.rta", |_| {
            rt_analysis::periodic_set_feasible_with_servers(&spec.periodic_tasks, &spec.servers)
        }));
    }
    out.ok = identical && invariants;
    out.segments = trace.segments.len() as u64;
    out.periodic_jobs = trace.periodic_jobs.len() as u64;
    out.outcomes = trace.outcomes.len() as u64;
}

/// A cell's aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellAgg {
    /// Paper-table cell.
    Set(SetAggregate),
    /// Overload-sweep cell.
    Overload(OverloadAggregate),
    /// Fault-table cell.
    Containment(ContainmentAggregate),
}

/// Sizes of the traces one timed job produced (default engines only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Trace segments.
    pub segments: u64,
    /// Periodic-job records.
    pub periodic_jobs: u64,
    /// Aperiodic outcomes.
    pub outcomes: u64,
    /// Bytes of canonical rendering.
    pub render_bytes: u64,
    /// Segments of simulation-world traces.
    pub sim_segments: u64,
    /// Segments of execution-world traces.
    pub exec_segments: u64,
}

/// The timed job's result.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Wall-clock time of every completed run, ms.
    pub run_ms: Vec<f64>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed verification (or did not complete).
    pub failed: u64,
    /// One aggregate per cell.
    pub cells: Vec<CellAgg>,
    /// One folded digest per cell.
    pub cell_digests: Vec<u64>,
    /// Trace sizes.
    pub counts: Counts,
    /// Systems whose FP-RTA verdict was computed, and how many passed.
    pub rta: (u64, u64),
}

/// The timed job: every run with its verification, then the aggregation
/// into the workload's tables and the digest check.
pub fn timed_job(
    p: &Prepared,
    workers: usize,
    expected: Option<Expected>,
    t: &mut Tracer,
) -> JobResult {
    let outcomes = t.span("harness.fanout", |t| {
        let ctx = t.context();
        let mut outcomes = parallel_map(&p.cases, workers, |i, case| {
            run_case(p, case, ctx.tracer(i as u64 + 1))
        });
        for outcome in &mut outcomes {
            t.absorb(std::mem::take(&mut outcome.spans));
        }
        outcomes
    });
    t.span("metrics.aggregate", |_| summarize(p, &outcomes, expected))
}

fn summarize(p: &Prepared, outcomes: &[RunOutcome], expected: Option<Expected>) -> JobResult {
    let mut by_cell: Vec<Vec<&RunOutcome>> = vec![Vec::new(); p.cells.len()];
    for o in outcomes {
        by_cell[o.cell].push(o);
    }
    let mut job = JobResult {
        run_ms: outcomes.iter().filter_map(|o| o.ms).collect(),
        attempted: 0,
        failed: 0,
        cells: Vec::with_capacity(p.cells.len()),
        cell_digests: Vec::with_capacity(p.cells.len()),
        counts: Counts::default(),
        rta: (0, 0),
    };
    for (cell, runs) in p.cells.iter().zip(&by_cell) {
        let run_measures = || -> Vec<RunMeasures> {
            runs.iter()
                .filter_map(|o| match o.measures {
                    Some(Measures::Run(m)) => Some(m),
                    _ => None,
                })
                .collect()
        };
        job.cells.push(match cell.fold {
            Fold::Set => CellAgg::Set(SetAggregate::from_runs(&run_measures())),
            Fold::Overload => CellAgg::Overload(OverloadAggregate::from_runs(&run_measures())),
            Fold::Containment => {
                let measures: Vec<ContainmentMeasures> = runs
                    .iter()
                    .filter_map(|o| match o.measures {
                        Some(Measures::Containment(m)) => Some(m),
                        _ => None,
                    })
                    .collect();
                CellAgg::Containment(ContainmentAggregate::from_runs(&measures))
            }
        });
        let digest = runs
            .iter()
            .fold(verify::EMPTY, |acc, o| verify::fold(acc, o.digest));
        job.cell_digests.push(digest);
        let digest_ok = expected.is_none_or(|table| {
            table
                .iter()
                .any(|&(name, d)| name == cell.name && d == digest)
        });
        for o in runs {
            job.attempted += 1;
            if !o.ok || !digest_ok {
                job.failed += 1;
            }
            let c = &mut job.counts;
            c.segments += o.segments;
            c.periodic_jobs += o.periodic_jobs;
            c.outcomes += o.outcomes;
            c.render_bytes += o.render_bytes;
            match cell.world {
                World::Sim => c.sim_segments += o.segments,
                World::Exec => c.exec_segments += o.segments,
            }
            if let Some(feasible) = o.rta_feasible {
                job.rta.0 += 1;
                job.rta.1 += u64::from(feasible);
            }
        }
    }
    job
}

/// The `SetAggregate` of a paper-table cell.
fn set_agg(job: &JobResult, cell: usize) -> Option<SetAggregate> {
    match job.cells.get(cell)? {
        CellAgg::Set(a) => Some(*a),
        _ => None,
    }
}

/// Runs the repository's own table harness over the workload at `workers`
/// threads and reports whether it agrees with the timed job's aggregates.
/// `None` on workloads the harness does not cover.
pub fn library_tables_agree(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    workers: usize,
    job: &JobResult,
) -> Option<bool> {
    let config = table_config(sizes, seed);
    match workload {
        Workload::PaperSweep => Some(PaperTable::all().iter().enumerate().all(|(ti, &table)| {
            let library = reproduce_table_with_workers(table, &config, workers);
            let ours: Option<Vec<_>> = SET_ORDER
                .iter()
                .enumerate()
                .map(|(s, &set)| set_agg(job, ti * SET_ORDER.len() + s).map(|a| (set, a)))
                .collect();
            ours.is_some_and(|sets| ResultTable::new(table.caption(), sets) == library)
        })),
        Workload::OverloadFaults => {
            let overload = reproduce_overload_table(&config, workers);
            let faults = reproduce_faults_table(&config, workers);
            let overload_ok = overload.rows.iter().enumerate().all(|(i, row)| {
                job.cells.get(2 * i) == Some(&CellAgg::Overload(row.execution))
                    && job.cells.get(2 * i + 1) == Some(&CellAgg::Overload(row.simulation))
            });
            let base = 2 * overload.rows.len();
            let faults_ok = faults.rows.iter().enumerate().all(|(i, row)| {
                job.cells.get(base + 2 * i) == Some(&CellAgg::Containment(row.execution))
                    && job.cells.get(base + 2 * i + 1)
                        == Some(&CellAgg::Containment(row.simulation))
            });
            Some(overload_ok && faults_ok)
        }
        Workload::LongHorizon => None,
    }
}

/// Probe counters of every valid system's simulation through
/// `simulate_with_probe` with a `MetricsProbe`.
pub fn observe_stage(p: &Prepared, t: &mut Tracer) -> Counters {
    t.span("observe.probe", |_| {
        let mut probe = MetricsProbe::new();
        for (spec, _) in p.systems.iter().zip(&p.valid).filter(|(_, &valid)| valid) {
            let _ = rtss_sim::simulate_with_probe(spec, &mut probe);
        }
        probe.counters
    })
}

/// Admission decisions replayed through `ServerAdmission::on_arrival`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionTally {
    /// Arrivals decided.
    pub decisions: u64,
    /// Arrivals refused.
    pub rejected: u64,
    /// Admitted events displaced by later arrivals.
    pub aborted: u64,
    /// Time spent deciding, ns (arrival loops only).
    pub decide_ns: u64,
}

/// Replays every valid system's in-horizon arrivals (after arrival faults)
/// through a fresh `ServerAdmission` per server, in release order.
pub fn admission_stage(p: &Prepared, t: &mut Tracer) -> AdmissionTally {
    t.span("admission.replay", |_| {
        let mut tally = AdmissionTally::default();
        for (spec, _) in p.systems.iter().zip(&p.valid).filter(|(_, &valid)| valid) {
            let faulted = spec.apply_arrival_faults();
            let spec = faulted.as_ref().unwrap_or(spec);
            let mut lanes: Vec<ServerAdmission> = spec
                .servers
                .iter()
                .map(ServerAdmission::for_server)
                .collect();
            let start = std::time::Instant::now();
            for e in spec.workload().within_horizon() {
                let Some(lane) = lanes.get_mut(e.server) else {
                    continue;
                };
                let verdict = lane.on_arrival(&ArrivingEvent {
                    event: e.id,
                    release: e.release,
                    declared_cost: e.declared_cost,
                    deadline: e.absolute_deadline(),
                    value: e.value,
                });
                tally.decisions += 1;
                tally.rejected += u64::from(!verdict.accepted);
                tally.aborted += verdict.aborted.len() as u64;
            }
            tally.decide_ns += start.elapsed().as_nanos() as u64;
        }
        tally
    })
}
