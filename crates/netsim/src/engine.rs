//! Engine dispatch: what each [`EngineKind`] can run, and the one place
//! a validated experiment is handed to its engine.

use crate::config::{EcnResponse, EngineKind, TransportConfig, TransportKind};
use crate::experiment::{ConfigError, Experiment};
use crate::fluid::MAX_QUEUES;
use crate::world::RunResults;

/// Checks `e` against its engine's capabilities: fault schedules need
/// the packet engine, shared buffer policies the packet or regional
/// engine, and the flow-level engines model at most [`MAX_QUEUES`]
/// queues per port and only the default transport laws (per-packet
/// ACKs, and DCTCP's own reaction at gain 1/16).
pub(crate) fn check_capabilities(e: &Experiment) -> Result<(), ConfigError> {
    let name = e.engine.name();
    if e.engine != EngineKind::Packet {
        if e.faults.is_some() {
            return Err(ConfigError::new(format!(
                "the {name} engine does not support fault schedules (packet only)"
            )));
        }
        let unmodelled = |setting: String, accepted: &str| {
            Err(ConfigError::new(format!(
                "the {name} engine does not model {setting} (accepted: {accepted} on \
                 fluid/hybrid/regional, any value on packet)"
            )))
        };
        let t = &e.transport;
        let dctcp = t.kind == TransportKind::Dctcp;
        if t.ack_every_packets > 1 {
            let n = t.ack_every_packets;
            return unmodelled(format!("transport.ack_every_packets = {n}"), "1");
        }
        if dctcp && t.ecn_response == EcnResponse::Classic {
            let setting = "transport.ecn_response = Classic under DCTCP";
            return unmodelled(setting.to_string(), "Dctcp");
        }
        let default_g = TransportConfig::default().g;
        if dctcp && t.g != default_g {
            let setting = format!("DCTCP transport.g = {}", t.g);
            return unmodelled(setting, &default_g.to_string());
        }
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
        EngineKind::Packet => e.build_world().run_until_nanos(end_nanos),
        EngineKind::Fluid | EngineKind::Hybrid | EngineKind::Regional => {
            crate::fluid::run(&e, end_nanos)
        }
    }
}
