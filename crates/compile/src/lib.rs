//! # rt-compile — a validated spec frozen for both worlds
//!
//! [`CompiledSystem::compile`] freezes a structurally validated
//! [`SystemSpec`] once and runs it through both worlds:
//!
//! * **simulation** — the frozen [`rtss_sim::SimTables`] and the simulator's
//!   one decision loop. [`CompiledSystem::simulate`] is exactly
//!   [`rtss_sim::simulate`] without re-freezing, so a compiled system can be
//!   simulated many times for the cost of one freeze;
//! * **execution** — an RTFM-style analyze pass (after Real-Time For the
//!   Masses' compile-time Stack Resource Policy ceilings) derives the
//!   execution fast path's [`SubstratePlan`] from the same tables: every
//!   schedulable is ranked into a *static dispatch order*, periodic releases
//!   are folded into a *release wheel* whose groups carry precomputed
//!   *preemption ceilings*, and [`CompiledSystem::execute`] drives the real
//!   server bodies through `rt-taskserver`'s specialized
//!   `run_with_substrate` loop — release drains are wheel walks, the "does
//!   this wake preempt?" question is one integer compare against the group
//!   ceiling, and dispatching is a find-first-set bitmap scan. Under EDF the
//!   plan transparently falls back to the emulator's general run.
//!
//! Compilation is O(tasks + servers), independent of the aperiodic traffic
//! volume: the tables borrow the source spec and handler names live in
//! `rt-model`'s interned symbol table ([`rt_model::NameId`]), so the
//! execution plan's handler templates are plain `Copy` scalars. The
//! `compile-cost` group of the `engine_scaling` benchmark pins that
//! flatness. Execution traces are byte-identical to `rt_taskserver::execute`
//! (pinned by `tests/compiled_differential.rs` and the compiled goldens).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;

use rt_model::{ModelError, SystemSpec, Trace};
use rt_observe::Probe;
use rt_taskserver::{ExecutionConfig, ExecutionPlan, SubstratePlan};
use rtss_sim::SimTables;

/// A validated [`SystemSpec`] frozen into the simulator's dispatch tables
/// plus the execution fast path's substrate. Borrows the spec it was
/// compiled from (owned only when arrival faults force a normalised copy),
/// so compiling is O(tasks + servers) with zero per-event allocations.
///
/// ```
/// use rt_model::{Instant, Priority, ServerSpec, Span, SystemSpec};
/// use rt_compile::CompiledSystem;
/// use rt_taskserver::ExecutionConfig;
///
/// let mut b = SystemSpec::builder("doc");
/// b.server(ServerSpec::polling(Span::from_units(3), Span::from_units(6), Priority::new(30)));
/// b.periodic("tau1", Span::from_units(2), Span::from_units(6), Priority::new(20));
/// b.aperiodic(Instant::from_units(0), Span::from_units(2));
/// b.horizon_server_periods(4);
/// let spec = b.build().unwrap();
///
/// let compiled = CompiledSystem::compile(&spec).unwrap();
/// assert_eq!(compiled.simulate(), rtss_sim::simulate(&spec));
/// let config = ExecutionConfig::reference();
/// assert_eq!(compiled.execute(&config), rt_taskserver::execute(&spec, &config));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSystem<'a> {
    tables: SimTables<'a>,
    /// The execution fast path's precomputed scheduling substrate.
    substrate: SubstratePlan,
}

impl<'a> CompiledSystem<'a> {
    /// Structurally validates `spec` and freezes it for both worlds.
    ///
    /// # Errors
    /// Returns the [`ModelError`] of [`SystemSpec::validate_structure`] when
    /// the task/server tables are not well formed; a compiled system always
    /// corresponds to a structurally valid spec.
    pub fn compile(spec: &'a SystemSpec) -> Result<CompiledSystem<'a>, ModelError> {
        let tables = SimTables::freeze(spec)?;
        let substrate = analyze::build_substrate(&tables);
        Ok(CompiledSystem { tables, substrate })
    }

    /// The validated source specification this system was compiled from
    /// (after arrival faults).
    pub fn spec(&self) -> &SystemSpec {
        self.tables.spec()
    }

    /// The execution fast path's precomputed substrate: static dispatch
    /// ranks, the release wheel with preemption ceilings, reservation hints.
    pub fn substrate(&self) -> &SubstratePlan {
        &self.substrate
    }

    /// Runs the simulator's driver on the frozen tables: the trace of
    /// [`rtss_sim::simulate`].
    pub fn simulate(&self) -> Trace {
        self.tables.simulate()
    }

    /// Runs the simulator's driver with an attached [`Probe`]; the trace is
    /// byte-identical to [`Self::simulate`] — probes observe, they never
    /// decide. Pass `&mut probe` to keep the recording.
    pub fn simulate_with_probe<PR: Probe>(&self, probe: PR) -> Trace {
        self.tables.simulate_with_probe(probe)
    }

    /// Prepares the compiled schedulable table for the execution engine: the
    /// installation plan (server shares, thread specs, servable handlers,
    /// fire schedule) is computed once here and reusable across
    /// [`ExecutionPlan::run`] calls. Validation is not repeated — the
    /// compiled system already holds a validated spec.
    pub fn execution_plan(&self, config: &ExecutionConfig) -> ExecutionPlan<'_> {
        ExecutionPlan::prepare_prevalidated(self.spec(), config)
    }

    /// Executes the compiled schedulable table on the `rtsj-emu` engine
    /// through the ceiling-table fast path (general fallback under EDF),
    /// producing a trace byte-identical to `rt_taskserver::execute` for the
    /// same spec and configuration.
    pub fn execute(&self, config: &ExecutionConfig) -> Trace {
        self.execution_plan(config)
            .run_with_substrate(&self.substrate)
    }
}

/// Compiles and executes in one call (the drop-in compiled counterpart of
/// `rt_taskserver::execute`).
///
/// # Panics
/// Panics when the specification fails structural validation, exactly like
/// the interpreted entry point.
pub fn execute_compiled(spec: &SystemSpec, config: &ExecutionConfig) -> Trace {
    CompiledSystem::compile(spec)
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs, mirroring the interpreted API")
        .expect("execute_compiled() requires a valid system specification")
        .execute(config)
}
