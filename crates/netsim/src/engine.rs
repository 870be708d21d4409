//! Engine dispatch: what each [`EngineKind`] can run, and the one place
//! a validated experiment is handed to its engine.

use crate::config::EngineKind;
use crate::experiment::{ConfigError, Experiment};
use crate::fluid::MAX_QUEUES;
use crate::world::RunResults;

/// Checks `e` against its engine's capabilities: fault schedules need
/// the packet engine, shared buffer policies the packet or regional
/// engine, and the flow-level engines model at most [`MAX_QUEUES`]
/// queues per port.
pub(crate) fn check_capabilities(e: &Experiment) -> Result<(), ConfigError> {
    let name = e.engine.name();
    if e.engine != EngineKind::Packet && e.faults.is_some() {
        return Err(ConfigError::new(format!(
            "the {name} engine does not support fault schedules (packet only)"
        )));
    }
    // The regional engine's packet region runs the real `SharedPool`
    // admission at its hot ports; ports outside the region stay fluid
    // (where a standing queue at the marking onset never contends for
    // pool space anyway).
    let shared_buffers = matches!(e.engine, EngineKind::Packet | EngineKind::Regional);
    if !shared_buffers && e.switch_cfg.buffer.is_shared() {
        return Err(ConfigError::new(format!(
            "the {name} engine supports only the 'static' buffer policy, \
             got '{}' (accepted: static|dt:ALPHA|delay[:MICROS] on the packet and \
             regional engines, static only on fluid/hybrid)",
            e.switch_cfg.buffer.name()
        )));
    }
    let queues = e.switch_cfg.scheduler.num_queues();
    if e.engine != EngineKind::Packet && queues > MAX_QUEUES {
        return Err(ConfigError::new(format!(
            "the {name} engine models at most {MAX_QUEUES} queues per port, got {queues} \
             (accepted: 1..={MAX_QUEUES} queues on fluid/hybrid/regional, any number on packet)"
        )));
    }
    Ok(())
}

/// Validates `e` ([`Experiment::validate`]) and runs it on its engine.
/// Only the packet engine shards; the flow-level engines are
/// single-threaded by design and ignore a requested thread count with a
/// stderr note.
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
    match e.engine {
        EngineKind::Packet => {
            let threads = e.sim_threads.min(e.topology.num_switches());
            if threads > 1 {
                return crate::parallel::run_sharded(&e, threads, end_nanos);
            }
            e.build_world().run_until_nanos(end_nanos)
        }
        EngineKind::Fluid | EngineKind::Hybrid | EngineKind::Regional => {
            if e.sim_threads > 1 {
                eprintln!(
                    "note: --sim-threads {} ignored: the {} engine is single-threaded by design \
                     (results are byte-identical across thread counts)",
                    e.sim_threads,
                    e.engine.name()
                );
            }
            crate::fluid::run(&e, end_nanos)
        }
    }
}
