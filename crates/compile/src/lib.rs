//! # rt-compile — a validated spec frozen for both worlds
//!
//! [`CompiledSystem::compile`] freezes a structurally validated
//! [`SystemSpec`] once into the simulator's [`rtss_sim::SimTables`] and runs
//! it through both worlds:
//!
//! * **simulation** — [`CompiledSystem::simulate`] is exactly
//!   [`rtss_sim::simulate`] without re-freezing, so a compiled system can be
//!   simulated many times for the cost of one freeze;
//! * **execution** — [`CompiledSystem::execution_plan`] prepares
//!   `rt-taskserver`'s [`ExecutionPlan`] without re-validating the spec, and
//!   [`CompiledSystem::execute`] runs it on the execution world's one
//!   table-driven driver (fixed priorities and EDF alike), the same loop
//!   `rt_taskserver::execute` runs.
//!
//! Compilation is O(tasks + servers), independent of the aperiodic traffic
//! volume: the tables borrow the source spec and handler names live in
//! `rt-model`'s interned symbol table ([`rt_model::NameId`]), so the
//! execution plan's handler templates are plain `Copy` scalars. The
//! `compile-cost` group of the `engine_scaling` benchmark pins that
//! flatness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rt_model::{ModelError, SystemSpec, Trace};
use rt_observe::Probe;
use rt_taskserver::{ExecutionConfig, ExecutionPlan};
use rtss_sim::SimTables;

/// A validated [`SystemSpec`] frozen into the simulator's dispatch tables.
/// Borrows the spec it was compiled from (owned only when arrival faults
/// force a normalised copy), so compiling is O(tasks + servers) with zero
/// per-event allocations.
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
}

impl<'a> CompiledSystem<'a> {
    /// Structurally validates `spec` and freezes it for both worlds.
    ///
    /// # Errors
    /// Returns the [`ModelError`] of [`SystemSpec::validate_structure`] when
    /// the task/server tables are not well formed; a compiled system always
    /// corresponds to a structurally valid spec.
    pub fn compile(spec: &'a SystemSpec) -> Result<CompiledSystem<'a>, ModelError> {
        Ok(CompiledSystem {
            tables: SimTables::freeze(spec)?,
        })
    }

    /// The validated source specification this system was compiled from
    /// (after arrival faults).
    pub fn spec(&self) -> &SystemSpec {
        self.tables.spec()
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

    /// Prepares the compiled schedulable table for the execution driver: the
    /// installation plan (servable handlers, fire schedule, the driver's
    /// dispatch substrate) is computed once here and reusable across
    /// [`ExecutionPlan::run`] calls. Validation is not repeated — the
    /// compiled system already holds a validated spec.
    pub fn execution_plan(&self, config: &ExecutionConfig) -> ExecutionPlan<'_> {
        ExecutionPlan::prepare_prevalidated(self.spec(), config)
    }

    /// Executes the compiled schedulable table on the execution driver,
    /// producing the trace of `rt_taskserver::execute` for the same spec and
    /// configuration.
    pub fn execute(&self, config: &ExecutionConfig) -> Trace {
        self.execution_plan(config).run()
    }
}

/// Compiles and executes in one call (the drop-in compiled counterpart of
/// `rt_taskserver::execute`).
///
/// # Panics
/// Panics when the specification fails structural validation, as does
/// `rt_taskserver::execute`.
pub fn execute_compiled(spec: &SystemSpec, config: &ExecutionConfig) -> Trace {
    CompiledSystem::compile(spec)
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs, mirroring rt_taskserver::execute")
        .expect("execute_compiled() requires a valid system specification")
        .execute(config)
}
