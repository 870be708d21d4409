//! The engine seam: one dispatch point every simulation engine
//! implements.
//!
//! [`Experiment::run_until_nanos`](crate::Experiment::run_until_nanos)
//! used to hardcode three engine modes inline; this module lifts that
//! into an [`Engine`] trait with one implementation per
//! [`EngineKind`], so capability checks (fault schedules, shared
//! buffer policies, `--sim-threads`) live next to the engine that
//! defines them instead of in a growing if-chain. Adding an engine
//! means adding an impl here — the experiment layer never changes.

use crate::config::EngineKind;
use crate::experiment::{ConfigError, Experiment};
use crate::world::RunResults;

/// One simulation engine: its capabilities and its run entry point.
pub(crate) trait Engine {
    /// The [`EngineKind`] this engine implements.
    fn kind(&self) -> EngineKind;
    /// Whether the engine honours an attached
    /// [`FaultSchedule`](pmsb_faults::FaultSchedule).
    fn supports_faults(&self) -> bool {
        false
    }
    /// Whether the engine models the shared buffer policies
    /// ([`crate::buffer::BufferPolicy`] other than `Static`).
    fn supports_shared_buffers(&self) -> bool {
        false
    }
    /// Whether `sim_threads > 1` changes how the engine runs. Engines
    /// answering `false` are single-threaded by design; a requested
    /// thread count is ignored (with a stderr note, see [`run`]).
    fn uses_sim_threads(&self) -> bool {
        false
    }
    /// Runs the (validated) experiment until `end_nanos`.
    fn run(&self, e: Experiment, end_nanos: u64) -> RunResults;
}

struct PacketEngine;

impl Engine for PacketEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Packet
    }
    fn supports_faults(&self) -> bool {
        true
    }
    fn supports_shared_buffers(&self) -> bool {
        true
    }
    fn uses_sim_threads(&self) -> bool {
        true
    }
    fn run(&self, e: Experiment, end_nanos: u64) -> RunResults {
        let threads = e.sim_threads.min(e.topology.num_switches());
        if threads > 1 {
            return crate::parallel::run_sharded(&e, threads, end_nanos);
        }
        e.build_world().run_until_nanos(end_nanos)
    }
}

struct FluidEngine;

impl Engine for FluidEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Fluid
    }
    fn run(&self, e: Experiment, end_nanos: u64) -> RunResults {
        crate::fluid::run(&e, end_nanos)
    }
}

struct HybridEngine;

impl Engine for HybridEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Hybrid
    }
    fn run(&self, e: Experiment, end_nanos: u64) -> RunResults {
        crate::fluid::run(&e, end_nanos)
    }
}

struct RegionalEngine;

impl Engine for RegionalEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Regional
    }
    fn supports_shared_buffers(&self) -> bool {
        // The packet region runs the real `SharedPool` admission at its
        // hot ports; ports outside the region stay fluid (where a
        // standing queue at the marking onset never contends for pool
        // space anyway).
        true
    }
    fn run(&self, e: Experiment, end_nanos: u64) -> RunResults {
        crate::fluid::run(&e, end_nanos)
    }
}

/// The engine implementing `kind`.
fn engine_for(kind: EngineKind) -> &'static dyn Engine {
    match kind {
        EngineKind::Packet => &PacketEngine,
        EngineKind::Fluid => &FluidEngine,
        EngineKind::Hybrid => &HybridEngine,
        EngineKind::Regional => &RegionalEngine,
    }
}

/// Checks `e` against its engine's capabilities: fault schedules and
/// shared buffer policies need an engine that models them.
pub(crate) fn check_capabilities(e: &Experiment) -> Result<(), ConfigError> {
    let engine = engine_for(e.engine);
    if !engine.supports_faults() && e.faults.is_some() {
        return Err(ConfigError::new(format!(
            "the {} engine does not support fault schedules (packet only)",
            engine.kind().name()
        )));
    }
    if !engine.supports_shared_buffers() && e.switch_cfg.buffer.is_shared() {
        return Err(ConfigError::new(format!(
            "the {} engine supports only the 'static' buffer policy, \
             got '{}' (accepted: static|dt:ALPHA|delay[:MICROS] on the packet and \
             regional engines, static only on fluid/hybrid)",
            engine.kind().name(),
            e.switch_cfg.buffer.name()
        )));
    }
    Ok(())
}

/// Validates `e` ([`Experiment::validate`]) and runs it on its engine.
///
/// # Panics
///
/// Panics with the validation error when the experiment cannot run as
/// configured (a capability its engine does not implement, or a region
/// port outside the topology).
pub(crate) fn run(e: Experiment, end_nanos: u64) -> RunResults {
    if let Err(err) = e.validate() {
        panic!("{err}");
    }
    let engine = engine_for(e.engine);
    if !engine.uses_sim_threads() && e.sim_threads > 1 {
        eprintln!(
            "note: --sim-threads {} ignored: the {} engine is single-threaded by design \
             (results are byte-identical across thread counts)",
            e.sim_threads,
            engine.kind().name()
        );
    }
    engine.run(e, end_nanos)
}
