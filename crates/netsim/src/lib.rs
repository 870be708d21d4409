#![warn(missing_docs)]

//! A packet-level discrete-event datacenter network simulator.
//!
//! This crate is the evaluation substrate for PMSB — the role NS-3 plays in
//! the paper. It models:
//!
//! * store-and-forward **switches** with multi-queue output ports
//!   ([`pmsb_sched`] schedulers), per-switch shared memory pools with
//!   pluggable allocation ([`buffer::BufferPolicy`]: static, Dynamic
//!   Threshold, delay-driven), and pluggable ECN marking
//!   ([`pmsb::marking`]) at enqueue or dequeue,
//! * **hosts** running DCTCP ([`transport`]) with per-packet ACKs,
//!   timestamp-echo RTT measurement, fast retransmit/recovery and RTO,
//!   optionally applying the PMSB(e) end-host rule,
//! * point-to-point **links** with serialization and propagation delay,
//! * static routing with per-flow **ECMP**, and the paper's topologies
//!   ([`topology::dumbbell`], [`topology::leaf_spine`]),
//! * deterministic **fault injection** ([`pmsb_faults::FaultSchedule`]
//!   via [`experiment::Experiment::faults`]): link down/up, rate
//!   degradation, probabilistic loss/corruption, buffer shrink — with
//!   ECMP re-hashing around dead links,
//! * tracing: per-queue throughput, buffer occupancy, RTT samples, flow
//!   completion times.
//!
//! The high-level entry point is [`experiment::Experiment`]:
//!
//! ```
//! use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig, SchedulerConfig};
//!
//! // 2 senders -> 1 receiver through one switch; PMSB marking over DWRR.
//! let mut exp = Experiment::dumbbell(2, 2)
//!     .marking(MarkingConfig::Pmsb { port_threshold_pkts: 12 })
//!     .scheduler(SchedulerConfig::Dwrr { weights: vec![1, 1] });
//! exp.add_flow(FlowDesc::bulk(0, 2, 0, 200_000)); // host 0 -> host 2, queue 0
//! exp.add_flow(FlowDesc::bulk(1, 2, 1, 200_000)); // host 1 -> host 2, queue 1
//! let result = exp.run_for_millis(50);
//! assert_eq!(result.fct.len(), 2); // both flows completed
//! ```

pub mod buffer;
pub mod config;
mod engine;
pub mod experiment;
pub mod fluid;
pub mod packet;
mod parallel;
mod partition;
pub mod routing;
mod slab;
pub mod topology;
pub mod trace;
pub mod transport;
pub mod world;

pub use buffer::BufferPolicy;
pub use config::{
    EngineKind, HostConfig, MarkingConfig, RegionSpec, SchedulerConfig, SwitchConfig,
    TransportConfig,
};
pub use experiment::{ConfigError, Experiment, ExperimentResult, FlowDesc};
pub use packet::{Packet, PacketKind};
pub use world::{EnginePath, Event, StreamStats, World};
