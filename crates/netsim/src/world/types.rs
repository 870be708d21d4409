//! Plain data carried by the world: node/link references, flow
//! descriptors, the per-flow transport slot, streaming aggregates, and
//! the harvested run results.
//!
//! Splitting these out of the event-loop module keeps them reusable by
//! the embeddable packet region ([`crate::fluid`]) without pulling in
//! the whole-world machinery.

use std::collections::HashMap;

use pmsb_metrics::fct::FctRecorder;
use pmsb_metrics::QuantileSketch;

use crate::trace::{FaultReport, PortTrace};
use crate::transport::{SenderStats, TransportReceiver, TransportSender};

/// A node address: hosts and switches live in separate index spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// Host by index.
    Host(usize),
    /// Switch by index.
    Switch(usize),
}

/// One end of a point-to-point link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkAttach {
    pub(crate) peer: NodeRef,
    /// Port index on the peer that faces back at this end (0 when the
    /// peer is a host). Lets fault injection resolve one cable to both of
    /// its directed ends.
    pub(crate) peer_port: usize,
    pub(crate) rate_bps: u64,
    pub(crate) delay_nanos: u64,
}

/// A flow to inject at a given time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDesc {
    /// Sending host index.
    pub src_host: usize,
    /// Receiving host index.
    pub dst_host: usize,
    /// Service class (mapped to `service % num_queues` at each port).
    pub service: usize,
    /// Bytes to transfer; `u64::MAX` = long-lived flow.
    pub size_bytes: u64,
    /// Application rate cap in bits/second (`None` = unlimited).
    pub app_rate_bps: Option<u64>,
    /// Absolute start time in nanoseconds.
    pub start_nanos: u64,
}

impl FlowDesc {
    /// A bulk transfer of `size_bytes` starting at t=0.
    pub fn bulk(src_host: usize, dst_host: usize, service: usize, size_bytes: u64) -> Self {
        FlowDesc {
            src_host,
            dst_host,
            service,
            size_bytes,
            app_rate_bps: None,
            start_nanos: 0,
        }
    }

    /// A long-lived (never-ending) flow starting at t=0.
    pub fn long_lived(src_host: usize, dst_host: usize, service: usize) -> Self {
        FlowDesc::bulk(src_host, dst_host, service, u64::MAX)
    }

    /// Caps the application's offered rate.
    pub fn with_app_rate_bps(mut self, rate: u64) -> Self {
        self.app_rate_bps = Some(rate);
        self
    }

    /// Sets the start time.
    pub fn starting_at(mut self, nanos: u64) -> Self {
        self.start_nanos = nanos;
        self
    }

    /// Source, destination and service as a [`Packet`](crate::packet::Packet)
    /// carries them.
    ///
    /// # Panics
    ///
    /// Panics if a host index does not fit in `u32` or the service in
    /// `u16`; [`Experiment::validate`](crate::experiment::Experiment::validate)
    /// rejects such a flow.
    pub(crate) fn packet_ids(&self) -> (u32, u32, u16) {
        let host = |h: usize| u32::try_from(h).expect("host indices fit in u32");
        let service = u16::try_from(self.service)
            .unwrap_or_else(|_| panic!("flow service {} is above u16::MAX", self.service));
        (host(self.src_host), host(self.dst_host), service)
    }
}

/// One [`FlowSlab`](crate::slab::FlowSlab) slot of per-flow transport
/// state. In static mode every registered flow holds its slot (slot
/// index == flow id) for the whole run; in streaming mode a flow takes a
/// slot at arrival and frees it once both halves are done, so resident
/// memory is bounded by the *concurrent* flow population, not the total
/// flow count.
pub(crate) struct FlowSlot {
    pub(crate) sender: Option<TransportSender>,
    pub(crate) receiver: Option<TransportReceiver>,
    /// Fire time of the earliest outstanding [`Event::Rto`](super::Event)
    /// for this flow (`u64::MAX` when none). Senders re-arm the
    /// retransmission timer on every ACK; instead of scheduling one event
    /// per re-arm, at most one timer event stays in flight per flow and a
    /// stale fire re-arms at the sender's live deadline
    /// ([`Sender::rto_deadline`](crate::transport::Sender::rto_deadline)).
    pub(crate) rto_next_fire: u64,
    /// Destination host and service, kept here so streaming teardown can
    /// address the Fin without a getter on the transport.
    pub(crate) dst_host: u32,
    pub(crate) service: u16,
}

impl FlowSlot {
    pub(crate) fn empty() -> Self {
        FlowSlot {
            sender: None,
            receiver: None,
            rto_next_fire: u64::MAX,
            dst_host: 0,
            service: 0,
        }
    }
}

/// Runtime carried only by a world in streaming mode: the lazy flow
/// source plus the bounded-memory result aggregates that replace the
/// per-flow maps of a static run.
pub(crate) struct StreamRuntime {
    /// Flows in nondecreasing `start_nanos` order, pulled one at a time.
    pub(crate) source: Box<dyn Iterator<Item = FlowDesc> + Send>,
    /// The flow pulled from the source whose arrival event is in flight.
    pub(crate) next_desc: Option<FlowDesc>,
    /// Id of the next flow to arrive.
    pub(crate) next_flow_id: u64,
    /// Also record every completed flow in the exhaustive [`FctRecorder`]
    /// (for differential sketch-vs-exact validation on small runs).
    pub(crate) record_exact: bool,
    pub(crate) injected: u64,
    pub(crate) completed: u64,
    pub(crate) bytes_completed: u64,
    pub(crate) agg: SenderStats,
    pub(crate) sketch: QuantileSketch,
}

/// Bounded-size results of a streaming run (see `World::set_stream`).
#[derive(Debug, Clone)]
pub struct StreamStats {
    /// Mergeable FCT quantile sketch over every completed flow.
    pub sketch: QuantileSketch,
    /// Flows whose sender was instantiated (started) during the run.
    pub injected: u64,
    /// Flows fully acknowledged before the end of the run.
    pub completed: u64,
    /// Payload bytes of completed flows.
    pub bytes_completed: u64,
    /// Sender counters summed over all flows (completed and live).
    pub agg_sender: SenderStats,
    /// Peak live slab population — the memory high-water mark in flow
    /// slots.
    pub slab_high_water: u64,
}

/// Folds one sender's counters into an aggregate.
pub(crate) fn add_sender_stats(agg: &mut SenderStats, s: &SenderStats) {
    agg.marks_seen += s.marks_seen;
    agg.marks_ignored += s.marks_ignored;
    agg.retransmissions += s.retransmissions;
    agg.timeouts += s.timeouts;
    agg.loss_episodes += s.loss_episodes;
    agg.recovery_nanos += s.recovery_nanos;
}

/// Which execution path produced a [`RunResults`]. It names the
/// engine, not the results, so it stays out of campaign records and run
/// fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePath {
    /// The packet engine's event loop.
    Packet,
    /// The flow-level fluid engine.
    Fluid,
    /// The fluid engine with per-port packet micro-simulations.
    Hybrid,
    /// The fluid engine with a non-empty packet region. A regional run
    /// whose hot set comes out empty is the fluid engine byte for byte
    /// and reports [`EnginePath::Fluid`].
    Regional {
        /// Switch ports the region simulated at packet level, after
        /// deduplication.
        hot_ports: usize,
    },
}

impl std::fmt::Display for EnginePath {
    /// Comma-separated, the form `pmsb-sim` prints after `engine_path,`:
    /// `packet`, `fluid`, `hybrid` or `regional,hot_ports=N`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnginePath::Packet => write!(f, "packet"),
            EnginePath::Fluid => write!(f, "fluid"),
            EnginePath::Hybrid => write!(f, "hybrid"),
            EnginePath::Regional { hot_ports } => write!(f, "regional,hot_ports={hot_ports}"),
        }
    }
}

/// Results harvested from a finished run.
#[derive(Debug)]
pub struct RunResults {
    /// Completed flows.
    pub fct: FctRecorder,
    /// Per-flow RTT samples (only when RTT tracing was on).
    pub rtt_nanos_by_flow: HashMap<u64, Vec<u64>>,
    /// Traces of watched ports, keyed by `(switch, port)`.
    pub port_traces: HashMap<(usize, usize), PortTrace>,
    /// Per-flow sender counters.
    pub sender_stats: HashMap<u64, SenderStats>,
    /// Packets tail-dropped anywhere in the network.
    pub drops: u64,
    /// CE marks applied by switches.
    pub marks: u64,
    /// Simulated time at the end of the run, nanoseconds.
    pub end_nanos: u64,
    /// Total events scheduled on the FEL over the run (simulator work,
    /// the denominator for events/sec benchmarks).
    pub events: u64,
    /// Packets delivered to a node (host or switch hop) over the run.
    pub deliveries: u64,
    /// What fault injection did; `None` when no schedule was attached
    /// (`drops` stays congestive buffer drops only — injected losses are
    /// counted here).
    pub faults: Option<FaultReport>,
    /// Streaming-mode aggregates; `None` on a static run. When present,
    /// the per-flow maps above stay empty (that is the point: bounded
    /// memory) and `fct` holds records only if exact recording was on.
    pub stream: Option<StreamStats>,
    /// Shared-buffer pool contention counters, folded over every switch
    /// running a shared policy; `None` under the default
    /// [`crate::buffer::BufferPolicy::Static`] (no pools in play). Pool
    /// rejections are already included in `drops`.
    pub shared_buffer: Option<pmsb_metrics::contention::ContentionSummary>,
    /// The execution path that produced these results.
    pub engine_path: EnginePath,
}
