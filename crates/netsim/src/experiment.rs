//! High-level experiment builder: topology + scheme + flows → results.

use crate::packet::HEADER_BYTES;
use crate::topology;
use pmsb::MarkPoint;
use pmsb_workload::PatternSpec;

pub use crate::config::{
    EngineKind, HostConfig, MarkingConfig, RegionSpec, SchedulerConfig, SwitchConfig,
    TransportConfig, TransportKind,
};
pub use crate::trace::TraceConfig;
pub use crate::world::{EnginePath, FlowDesc, RunResults, StreamStats};
pub use pmsb_faults::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};

/// What a finished experiment returns; see [`RunResults`] for the fields.
pub type ExperimentResult = RunResults;

/// Fastest link [`Experiment::validate`] accepts: 10⁹ Gbps. The engines
/// form a few small multiples of the link rate in `u64` (up to 15× in
/// the hybrid's rate buckets, 8× in the delay-driven pool's drain-rate
/// average); above this rate they would wrap.
const MAX_LINK_RATE_GBPS: u64 = 1_000_000_000;

/// Longest one-hop propagation delay [`Experiment::validate`] accepts:
/// 1 s. Every event time is `now` plus a handful of hop delays in `u64`
/// nanoseconds, so a bounded hop keeps that sum from wrapping.
const MAX_LINK_DELAY_NANOS: u64 = 1_000_000_000;

/// Which fabric the experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Topology {
    /// `num_senders` senders → 1 receiver through one switch.
    Dumbbell { num_senders: usize },
    /// Leaf–spine fabric.
    LeafSpine {
        leaves: usize,
        spines: usize,
        hosts_per_leaf: usize,
    },
    /// Three-tier fat-tree with parameter `k` (`k³/4` hosts).
    FatTree { k: usize },
}

impl Topology {
    /// Switches in the fabric.
    pub(crate) fn num_switches(&self) -> usize {
        match *self {
            Topology::Dumbbell { .. } => 1,
            Topology::LeafSpine { leaves, spines, .. } => leaves + spines,
            Topology::FatTree { k } => 5 * k * k / 4,
        }
    }

    /// Ports on `switch` (which must be below [`Topology::num_switches`]),
    /// following the index layouts of the [`crate::topology`] builders.
    fn num_ports(&self, switch: usize) -> usize {
        match *self {
            Topology::Dumbbell { num_senders } => num_senders + 1,
            Topology::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
            } => {
                if switch < leaves {
                    hosts_per_leaf + spines
                } else {
                    leaves
                }
            }
            Topology::FatTree { k } => k,
        }
    }
}

/// Why an [`Experiment`] cannot run as configured; the message names
/// the accepted values. See [`Experiment::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    pub(crate) fn new(message: String) -> Self {
        ConfigError(message)
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// A streaming workload attached to an experiment (see
/// [`Experiment::stream`]).
#[derive(Debug, Clone)]
pub(crate) struct StreamSpec {
    pub(crate) pattern: PatternSpec,
    pub(crate) seed: u64,
    pub(crate) total_flows: u64,
    pub(crate) record_exact: bool,
}

/// A declarative experiment: pick a topology, a marking scheme, a
/// scheduler and flows; run; harvest results.
///
/// # Example
///
/// ```
/// use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig, SchedulerConfig};
///
/// let mut exp = Experiment::dumbbell(2, 2)
///     .marking(MarkingConfig::PerPort { threshold_pkts: 16 })
///     .scheduler(SchedulerConfig::Wfq { weights: vec![1, 1] });
/// exp.add_flow(FlowDesc::bulk(0, 2, 0, 100_000));
/// let res = exp.run_for_millis(20);
/// assert_eq!(res.fct.len(), 1);
/// ```
#[derive(Debug)]
pub struct Experiment {
    pub(crate) topology: Topology,
    pub(crate) switch_cfg: SwitchConfig,
    pub(crate) host_cfg: HostConfig,
    pub(crate) transport: TransportConfig,
    pub(crate) link_rate_bps: u64,
    pub(crate) link_delay_nanos: u64,
    trace: TraceConfig,
    pub(crate) flows: Vec<FlowDesc>,
    /// `None` = mirror the switch marking onto host NICs (the NS-3-style
    /// default); `Some(cfg)` overrides it.
    host_nic_marking: Option<MarkingConfig>,
    pub(crate) faults: Option<FaultSchedule>,
    /// Streaming workload; `None` = the static `flows` list.
    pub(crate) stream: Option<StreamSpec>,
    /// Which engine executes the run (DESIGN.md §11).
    pub(crate) engine: EngineKind,
    /// Which switch ports the regional engine promotes to packet level
    /// (DESIGN.md §13); ignored by the other engines.
    pub(crate) region: RegionSpec,
}

impl Experiment {
    /// A dumbbell with `num_senders` senders (hosts `0..num_senders`), one
    /// receiver (host `num_senders`), and `num_queues` equal-weight DWRR
    /// queues per port. 10 Gbps links, 5 µs propagation (≈ 22 µs unloaded
    /// RTT).
    pub fn dumbbell(num_senders: usize, num_queues: usize) -> Self {
        Experiment {
            topology: Topology::Dumbbell { num_senders },
            switch_cfg: SwitchConfig {
                scheduler: SchedulerConfig::Dwrr {
                    weights: vec![1; num_queues],
                },
                ..SwitchConfig::default()
            },
            host_cfg: HostConfig::default(),
            transport: TransportConfig::default(),
            link_rate_bps: 10_000_000_000,
            link_delay_nanos: 5_000,
            trace: TraceConfig::off(),
            flows: Vec::new(),
            host_nic_marking: None,
            faults: None,
            stream: None,
            engine: EngineKind::Packet,
            region: RegionSpec::Auto,
        }
    }

    /// The paper's §VI-B fabric: 4 leaves × 12 hosts, 4 spines, 10 Gbps,
    /// 8 equal-weight queues. Per-link delay is 9 µs so the unloaded
    /// inter-rack RTT (8 link traversals + serialization ≈ 80 µs) sits
    /// just under the paper's 85.2 µs PMSB(e) threshold — a mark carried
    /// by an unqueued ACK is ignored, any real queueing is honoured.
    pub fn paper_leaf_spine() -> Self {
        Experiment {
            topology: Topology::LeafSpine {
                leaves: 4,
                spines: 4,
                hosts_per_leaf: 12,
            },
            switch_cfg: SwitchConfig {
                scheduler: SchedulerConfig::Dwrr {
                    weights: vec![1; 8],
                },
                ..SwitchConfig::default()
            },
            host_cfg: HostConfig::default(),
            transport: TransportConfig::default(),
            link_rate_bps: 10_000_000_000,
            link_delay_nanos: 9_000,
            trace: TraceConfig::off(),
            flows: Vec::new(),
            host_nic_marking: None,
            faults: None,
            stream: None,
            engine: EngineKind::Packet,
            region: RegionSpec::Auto,
        }
    }

    /// A `k`-ary fat-tree fabric ([`topology::fat_tree`]): `k³/4` hosts,
    /// `(5/4)k²` switches, full bisection bandwidth with per-flow ECMP
    /// over the `(k/2)²` equal-cost core paths. 10 Gbps links with 1 µs
    /// propagation, 8 equal-weight DWRR queues — the maximum inter-pod
    /// unloaded RTT (12 link traversals ≈ 12 µs plus serialization) stays
    /// well under the PMSB(e) threshold scale, so the selective-blindness
    /// rule keeps its meaning on the deeper fabric.
    ///
    /// # Panics
    ///
    /// Panics (at build time) unless `k` is even and at least 4.
    pub fn fat_tree(k: usize) -> Self {
        let mut e = Experiment::paper_leaf_spine();
        e.topology = Topology::FatTree { k };
        e.link_delay_nanos = 1_000;
        e
    }

    /// A custom leaf–spine fabric.
    pub fn leaf_spine(leaves: usize, spines: usize, hosts_per_leaf: usize) -> Self {
        let mut e = Experiment::paper_leaf_spine();
        e.topology = Topology::LeafSpine {
            leaves,
            spines,
            hosts_per_leaf,
        };
        e
    }

    /// Sets the ECN marking scheme.
    pub fn marking(mut self, marking: MarkingConfig) -> Self {
        self.switch_cfg.marking = marking;
        self
    }

    /// Sets the packet scheduler (and thereby the queue count/weights).
    pub fn scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.switch_cfg.scheduler = scheduler;
        self
    }

    /// Sets where the marking decision runs (enqueue vs dequeue).
    pub fn mark_point(mut self, point: MarkPoint) -> Self {
        self.switch_cfg.mark_point = point;
        self
    }

    /// Overrides the marking discipline at host NICs. By default hosts
    /// mirror the switch marking (like installing the same queue disc on
    /// every NS-3 device); pass [`MarkingConfig::None`] to disable NIC
    /// marking entirely.
    pub fn host_nic_marking(mut self, marking: MarkingConfig) -> Self {
        self.host_nic_marking = Some(marking);
        self
    }

    /// Overrides the transport parameters.
    pub fn transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Enables PMSB(e) at every sender with the given RTT threshold.
    pub fn pmsbe_rtt_threshold_nanos(mut self, nanos: u64) -> Self {
        self.transport.pmsbe_rtt_threshold_nanos = Some(nanos);
        self
    }

    /// Selects the transport state machine endpoints run (default DCTCP),
    /// keeping the other transport parameters.
    pub fn transport_kind(mut self, kind: TransportKind) -> Self {
        self.transport.kind = kind;
        self
    }

    /// Sets all link rates in bits per second (default 10 Gbps).
    /// [`Experiment::validate`] rejects 0 and rates above 10⁹ Gbps.
    pub fn link_rate_bps(mut self, bps: u64) -> Self {
        self.link_rate_bps = bps;
        self
    }

    /// Sets all links' propagation delay in nanoseconds.
    pub fn link_delay_nanos(mut self, nanos: u64) -> Self {
        self.link_delay_nanos = nanos;
        self
    }

    /// Sets the per-port buffer budget in bytes (under a shared
    /// [`crate::buffer::BufferPolicy`] the switch pool totals the sum of
    /// its ports' budgets, so policies compare at equal memory).
    pub fn buffer_bytes(mut self, bytes: u64) -> Self {
        self.switch_cfg.buffer_bytes = bytes;
        self
    }

    /// Selects the switch buffer allocation policy (default
    /// [`crate::buffer::BufferPolicy::Static`]: private per-port buffers,
    /// byte-identical to the pre-pool simulator). The shared policies —
    /// Dynamic Threshold and delay-driven — route every enqueue through
    /// the switch's memory pool (DESIGN.md §12). Packet engine only.
    pub fn buffer(mut self, policy: crate::buffer::BufferPolicy) -> Self {
        self.switch_cfg.buffer = policy;
        self
    }

    /// Installs a trace configuration.
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Attaches a fault schedule (link dynamics, loss, corruption, buffer
    /// shrink). Targets are validated against the topology when the world
    /// is built; an out-of-range target panics at run start.
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Does nothing: every run uses one thread. Kept only for the
    /// benchmark in `perfbench/`, its one caller.
    #[deprecated(note = "every run uses one thread")]
    pub fn sim_threads(self, _threads: usize) -> Self {
        self
    }

    /// Selects the simulation engine (default [`EngineKind::Packet`]).
    /// The fluid, hybrid, and regional engines replace per-packet
    /// simulation with a flow-level max-min rate solve (DESIGN.md §11,
    /// §13); they support static and streaming workloads but not fault
    /// schedules or port traces.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Selects which switch ports the regional engine simulates at
    /// packet level (default [`RegionSpec::Auto`]: a deterministic
    /// first-pass fluid solve flags the hot set). Ignored by the other
    /// engines; an empty explicit port list degenerates to the plain
    /// fluid engine with byte-identical results.
    pub fn region(mut self, spec: RegionSpec) -> Self {
        self.region = spec;
        self
    }

    /// Dumbbell only: watches the bottleneck (receiver-facing) port with
    /// the given occupancy sample interval, keeping any other trace
    /// settings.
    ///
    /// # Panics
    ///
    /// Panics on a non-dumbbell topology.
    pub fn watch_bottleneck(mut self, sample_interval_nanos: u64) -> Self {
        let Topology::Dumbbell { num_senders } = self.topology else {
            panic!("watch_bottleneck only applies to the dumbbell topology");
        };
        self.trace.sample_interval_nanos = Some(sample_interval_nanos);
        self.trace.watch_ports = vec![(0, num_senders)];
        self
    }

    /// Enables per-ACK RTT recording at every sender.
    pub fn record_rtt(mut self) -> Self {
        self.trace.record_rtt = true;
        self
    }

    /// The current transport configuration (for deriving thresholds).
    pub fn transport_config(&self) -> &TransportConfig {
        &self.transport
    }

    /// Number of hosts the chosen topology provides.
    pub fn num_hosts(&self) -> usize {
        match self.topology {
            Topology::Dumbbell { num_senders } => num_senders + 1,
            Topology::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
            Topology::FatTree { k } => k * k * k / 4,
        }
    }

    /// Attaches a streaming workload: `total_flows` flows drawn lazily
    /// from `pattern` with `seed`, injected as they arrive and torn down
    /// as they complete, so memory is bounded by the concurrent flow
    /// population. Mutually exclusive with [`Experiment::add_flow`];
    /// results come back in [`RunResults::stream`].
    pub fn stream(mut self, pattern: PatternSpec, seed: u64, total_flows: u64) -> Self {
        assert!(
            self.flows.is_empty(),
            "stream() and add_flow() are mutually exclusive"
        );
        self.stream = Some(StreamSpec {
            pattern,
            seed,
            total_flows,
            record_exact: false,
        });
        self
    }

    /// Additionally records every streamed FCT in the exhaustive
    /// recorder — for differential sketch-vs-exact validation on small
    /// runs. Call after [`Experiment::stream`].
    pub fn stream_record_exact(mut self) -> Self {
        self.stream
            .as_mut()
            .expect("stream_record_exact() requires stream()")
            .record_exact = true;
        self
    }

    /// Registers a flow.
    pub fn add_flow(&mut self, flow: FlowDesc) {
        self.flows.push(flow);
    }

    /// Registers many flows.
    pub fn add_flows(&mut self, flows: impl IntoIterator<Item = FlowDesc>) {
        self.flows.extend(flows);
    }

    /// Checks, without running anything, that the fabric can carry
    /// traffic (a dumbbell has a sender, the scheduler has queues with
    /// positive weights, links have a rate, every static flow's
    /// endpoints exist and its application rate, if any, is above 0),
    /// that link rate and delay stay within the range
    /// the simulator's integer arithmetic carries, that every flow's
    /// service and the MSS's frame fit the [`crate::packet::Packet`]
    /// fields that carry them (16 and 32 bits), that the configured
    /// engine supports what the
    /// experiment asks of it (fault schedules, shared buffer policies,
    /// at most 16 queues per port and the default transport laws on the
    /// flow-level engines)
    /// and that every explicit region port exists in the topology.
    /// [`Experiment::run_until_nanos`] panics with the same error;
    /// callers that take configuration from users should call this
    /// first.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.topology == (Topology::Dumbbell { num_senders: 0 }) {
            return Err(ConfigError::new(
                "a dumbbell with 0 senders carries no traffic (accepted: at least 1 sender)"
                    .to_string(),
            ));
        }
        let weights = self.switch_cfg.scheduler.weights();
        if weights.is_empty() || weights.contains(&0) {
            return Err(ConfigError::new(format!(
                "scheduler weights {weights:?} cannot serve every queue \
                 (accepted: at least one queue, every weight above 0)"
            )));
        }
        if self.link_rate_bps == 0 {
            return Err(ConfigError::new(
                "links of 0 bps carry no traffic (accepted: a link rate above 0)".to_string(),
            ));
        }
        if self.link_rate_bps > MAX_LINK_RATE_GBPS * 1_000_000_000 {
            return Err(ConfigError::new(format!(
                "link rates above {MAX_LINK_RATE_GBPS} Gbps overflow the simulator's rate \
                 arithmetic (accepted: 1 bps up to {MAX_LINK_RATE_GBPS} Gbps)"
            )));
        }
        if self.link_delay_nanos > MAX_LINK_DELAY_NANOS {
            return Err(ConfigError::new(format!(
                "a one-hop delay of {} ns overflows the simulator's clock arithmetic \
                 (accepted: 0..={MAX_LINK_DELAY_NANOS} ns)",
                self.link_delay_nanos
            )));
        }
        let frame = self.transport.mss.saturating_add(HEADER_BYTES);
        if frame > u64::from(u32::MAX) {
            return Err(ConfigError::new(format!(
                "an MSS of {} bytes makes frames past the packet's 32-bit length \
                 (accepted: an MSS of at most {} bytes)",
                self.transport.mss,
                u64::from(u32::MAX) - HEADER_BYTES
            )));
        }
        let hosts = self.num_hosts();
        for f in &self.flows {
            if f.src_host.max(f.dst_host) >= hosts {
                return Err(ConfigError::new(format!(
                    "flow {}>{} names a host the topology lacks (accepted: hosts 0..{hosts})",
                    f.src_host, f.dst_host
                )));
            }
            if f.service > usize::from(u16::MAX) {
                return Err(ConfigError::new(format!(
                    "flow {}>{} has service {}, past the packet's 16-bit service field \
                     (accepted: services 0..={})",
                    f.src_host,
                    f.dst_host,
                    f.service,
                    u16::MAX
                )));
            }
            if f.app_rate_bps == Some(0) {
                return Err(ConfigError::new(format!(
                    "flow {}>{} has an application rate of 0 bps and never sends \
                     (accepted: a rate of at least 1 bps)",
                    f.src_host, f.dst_host
                )));
            }
        }
        crate::engine::check_capabilities(self)?;
        if let (EngineKind::Regional, RegionSpec::Ports(ports)) = (self.engine, &self.region) {
            let switches = self.topology.num_switches();
            for &(s, p) in ports {
                if s >= switches {
                    return Err(ConfigError::new(format!(
                        "region port {s}:{p} names switch {s}, but the topology has \
                         {switches} switches (accepted: SWITCH:PORT with SWITCH in 0..{switches})"
                    )));
                }
                let num_ports = self.topology.num_ports(s);
                if p >= num_ports {
                    return Err(ConfigError::new(format!(
                        "region port {s}:{p} names port {p}, but switch {s} has {num_ports} \
                         ports (accepted: {s}:PORT with PORT in 0..{num_ports})"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Builds the world and runs until `end_nanos` on the configured
    /// engine (dispatched in `crate::engine`).
    ///
    /// # Panics
    ///
    /// Panics with the [`Experiment::validate`] error when the
    /// experiment cannot run as configured.
    pub fn run_until_nanos(mut self, end_nanos: u64) -> ExperimentResult {
        self.host_cfg.nic_marking = self
            .host_nic_marking
            .take()
            .unwrap_or_else(|| self.switch_cfg.marking.clone());
        self.host_cfg.nic_mark_point = self.switch_cfg.mark_point;
        crate::engine::run(self, end_nanos)
    }

    /// Builds one fully wired, traced, faulted, flow-loaded world from
    /// this spec. Expects `host_cfg.nic_marking` to have been resolved by
    /// [`Experiment::run_until_nanos`].
    pub(crate) fn build_world(&self) -> crate::world::World {
        let mut world = match self.topology {
            Topology::Dumbbell { num_senders } => topology::dumbbell(
                num_senders,
                self.link_rate_bps,
                self.link_delay_nanos,
                &self.switch_cfg,
                &self.host_cfg,
                self.transport,
            ),
            Topology::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
            } => topology::leaf_spine(
                leaves,
                spines,
                hosts_per_leaf,
                self.link_rate_bps,
                self.link_delay_nanos,
                &self.switch_cfg,
                &self.host_cfg,
                self.transport,
            ),
            Topology::FatTree { k } => topology::fat_tree(
                k,
                self.link_rate_bps,
                self.link_delay_nanos,
                &self.switch_cfg,
                &self.host_cfg,
                self.transport,
            ),
        };
        world.set_trace(self.trace.clone());
        if let Some(schedule) = &self.faults {
            world.set_faults(schedule.clone());
        }
        for f in &self.flows {
            world.add_flow(*f);
        }
        if let Some(sp) = &self.stream {
            let source = sp
                .pattern
                .flows(self.num_hosts(), sp.seed, sp.total_flows)
                .map(|f| FlowDesc {
                    src_host: f.src_host,
                    dst_host: f.dst_host,
                    service: f.service,
                    size_bytes: f.size_bytes,
                    app_rate_bps: None,
                    start_nanos: f.start_nanos,
                });
            world.set_stream(Box::new(source), sp.record_exact);
        }
        world
    }

    /// Builds the world and runs for `millis` simulated milliseconds
    /// (saturating at the end of the nanosecond clock).
    pub fn run_for_millis(self, millis: u64) -> ExperimentResult {
        self.run_until_nanos(millis.saturating_mul(1_000_000))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcnResponse;

    #[test]
    fn builder_methods_compose() {
        let e = Experiment::dumbbell(4, 2)
            .marking(MarkingConfig::Tcn {
                threshold_nanos: 39_000,
            })
            .scheduler(SchedulerConfig::Wfq {
                weights: vec![1, 1],
            })
            .mark_point(MarkPoint::Dequeue)
            .link_rate_bps(1_000_000_000)
            .link_delay_nanos(2_000)
            .buffer_bytes(512 * 1024)
            .record_rtt();
        assert_eq!(e.num_hosts(), 5);
    }

    #[test]
    fn dumbbell_bottleneck_watch_runs() {
        let mut e = Experiment::dumbbell(2, 2).watch_bottleneck(50_000);
        e.add_flow(FlowDesc::bulk(0, 2, 0, 500_000));
        e.add_flow(FlowDesc::bulk(1, 2, 1, 500_000));
        let res = e.run_for_millis(20);
        assert_eq!(res.fct.len(), 2);
        let trace = &res.port_traces[&(0, 2)];
        assert!(!trace.port_occupancy_pkts.is_empty());
        assert!(trace.queue_throughput[0].total_bytes() > 0);
    }

    #[test]
    fn paper_leaf_spine_smoke() {
        let mut e = Experiment::paper_leaf_spine();
        assert_eq!(e.num_hosts(), 48);
        e.add_flow(FlowDesc::bulk(0, 47, 3, 200_000));
        e.add_flow(FlowDesc::bulk(13, 25, 5, 200_000));
        let res = e.run_for_millis(50);
        assert_eq!(res.fct.len(), 2);
    }

    #[test]
    fn pmsbe_threshold_flows_through() {
        let mut e = Experiment::dumbbell(2, 2)
            .marking(MarkingConfig::PerPort { threshold_pkts: 12 })
            .pmsbe_rtt_threshold_nanos(40_000);
        e.add_flow(FlowDesc::bulk(0, 2, 0, 300_000));
        let res = e.run_for_millis(20);
        assert_eq!(res.fct.len(), 1);
    }

    #[test]
    fn topology_port_counts_match_the_built_worlds() {
        for e in [
            Experiment::dumbbell(3, 2),
            Experiment::leaf_spine(3, 2, 5),
            Experiment::fat_tree(4),
        ] {
            let w = e.build_world();
            assert_eq!(e.topology.num_switches(), w.num_switches());
            for s in 0..w.num_switches() {
                assert_eq!(e.topology.num_ports(s), w.num_ports(s), "switch {s}");
            }
        }
    }

    #[test]
    fn validate_names_what_the_engine_cannot_run() {
        let shared = crate::buffer::BufferPolicy::DynamicThreshold { alpha: 1.0 };
        let err = Experiment::fat_tree(4)
            .engine(EngineKind::Fluid)
            .buffer(shared)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("static|dt:ALPHA|delay[:MICROS]"));
        assert!(Experiment::fat_tree(4).buffer(shared).validate().is_ok());

        let queues = |n, engine| Experiment::dumbbell(2, n).engine(engine).validate();
        for engine in [EngineKind::Fluid, EngineKind::Hybrid, EngineKind::Regional] {
            assert!(queues(16, engine).is_ok(), "{}", engine.name());
            let err = queues(17, engine).unwrap_err().to_string();
            assert!(
                err.contains("at most 16 queues per port, got 17")
                    && err.contains("accepted: 1..=16 queues"),
                "{err}"
            );
        }
        assert!(queues(20, EngineKind::Packet).is_ok());

        // The flow-level engines model per-packet ACKs and DCTCP's own
        // reaction at gain 1/16; anything else would silently run plain
        // DCTCP.
        let with_transport = |engine, t| {
            Experiment::fat_tree(4)
                .transport(t)
                .engine(engine)
                .validate()
        };
        let base = TransportConfig::default();
        let unmodelled = [
            (
                TransportConfig {
                    ack_every_packets: 2,
                    ..base
                },
                "transport.ack_every_packets = 2",
            ),
            (
                TransportConfig {
                    ecn_response: EcnResponse::Classic,
                    ..base
                },
                "transport.ecn_response = Classic",
            ),
            (
                TransportConfig { g: 0.125, ..base },
                "DCTCP transport.g = 0.125",
            ),
        ];
        for (t, field) in unmodelled {
            for engine in [EngineKind::Fluid, EngineKind::Hybrid, EngineKind::Regional] {
                let err = with_transport(engine, t).unwrap_err().to_string();
                assert!(
                    err.contains(&format!("the {} engine", engine.name())) && err.contains(field),
                    "{err}"
                );
            }
            assert!(with_transport(EngineKind::Packet, t).is_ok(), "{field}");
        }
        // NewReno reads neither DCTCP's gain nor its ECN response.
        let newreno = TransportConfig {
            kind: TransportKind::NewReno,
            ecn_response: EcnResponse::Classic,
            g: 0.125,
            ..base
        };
        assert!(with_transport(EngineKind::Fluid, newreno).is_ok());

        let regional = |ports| {
            Experiment::fat_tree(4)
                .engine(EngineKind::Regional)
                .region(RegionSpec::Ports(ports))
                .validate()
        };
        let err = regional(vec![(999, 0)]).unwrap_err().to_string();
        assert!(
            err.contains("has 20 switches") && err.contains("0..20"),
            "{err}"
        );
        let err = regional(vec![(3, 4)]).unwrap_err().to_string();
        assert!(
            err.contains("switch 3 has 4 ports") && err.contains("0..4"),
            "{err}"
        );
        assert!(regional(vec![(19, 3)]).is_ok());
        // Region ports mean nothing to the other engines.
        assert!(Experiment::fat_tree(4)
            .region(RegionSpec::Ports(vec![(999, 0)]))
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_fabrics_that_cannot_carry_traffic() {
        let err = |e: Experiment| e.validate().unwrap_err().to_string();
        assert!(err(Experiment::dumbbell(0, 2)).contains("at least 1 sender"));
        let no_queues = "accepted: at least one queue, every weight above 0";
        assert!(err(Experiment::dumbbell(2, 0)).contains(no_queues));
        let zero_weight = Experiment::dumbbell(2, 2).scheduler(SchedulerConfig::Wfq {
            weights: vec![1, 0],
        });
        assert!(err(zero_weight).contains(no_queues));
        assert!(err(Experiment::dumbbell(2, 2).link_rate_bps(0)).contains("a link rate above 0"));
        let rates = "accepted: 1 bps up to 1000000000 Gbps";
        let max_bps = 1_000_000_000 * 1_000_000_000;
        for bps in [max_bps + 1, 18_446_744_073_000_000_000, u64::MAX] {
            assert!(err(Experiment::dumbbell(2, 2).link_rate_bps(bps)).contains(rates));
        }
        for bps in [1, 2_500_000_000, max_bps] {
            assert!(Experiment::dumbbell(2, 2)
                .link_rate_bps(bps)
                .validate()
                .is_ok());
        }
        let delays = "accepted: 0..=1000000000 ns";
        for nanos in [1_000_000_001, u64::MAX] {
            assert!(err(Experiment::dumbbell(2, 2).link_delay_nanos(nanos)).contains(delays));
        }
        for nanos in [0, 1_000_000_000] {
            assert!(Experiment::dumbbell(2, 2)
                .link_delay_nanos(nanos)
                .validate()
                .is_ok());
        }
        let mut stray = Experiment::dumbbell(2, 2);
        stray.add_flow(FlowDesc::bulk(0, 99, 0, 1_000));
        assert!(err(stray).contains("flow 0>99"));
        let mut fine = Experiment::dumbbell(2, 2);
        fine.add_flow(FlowDesc::bulk(1, 2, 0, 1_000));
        assert!(fine.validate().is_ok());
    }

    /// A packet carries the service in 16 bits and its frame length in
    /// 32: a service or an MSS past them is a `ConfigError`, not a
    /// silent wrap.
    #[test]
    fn validate_rejects_services_and_frames_past_the_packet_fields() {
        let with_service = |service| {
            let mut e = Experiment::dumbbell(2, 2);
            e.add_flow(FlowDesc::bulk(0, 2, service, 1_000));
            e.validate()
        };
        let err = with_service(65_536).unwrap_err().to_string();
        assert!(
            err.contains("flow 0>2") && err.contains("accepted: services 0..=65535"),
            "{err}"
        );
        assert!(with_service(65_535).is_ok());
        let with_mss = |mss| {
            Experiment::dumbbell(2, 2)
                .transport(TransportConfig {
                    mss,
                    ..TransportConfig::default()
                })
                .validate()
        };
        let err = with_mss(1 << 32).unwrap_err().to_string();
        assert!(
            err.contains("accepted: an MSS of at most 4294967255 bytes"),
            "{err}"
        );
        assert!(with_mss(u64::MAX).is_err());
        assert!(with_mss(u64::from(u32::MAX) - HEADER_BYTES).is_ok());
    }

    #[test]
    fn validate_rejects_a_flow_with_a_zero_application_rate() {
        let with_rate = |bps| {
            let mut e = Experiment::dumbbell(2, 2);
            e.add_flow(FlowDesc::bulk(0, 2, 0, 1_000).with_app_rate_bps(bps));
            e.validate()
        };
        let err = with_rate(0).unwrap_err().to_string();
        assert!(
            err.contains("flow 0>2") && err.contains("accepted: a rate of at least 1 bps"),
            "{err}"
        );
        assert!(with_rate(1).is_ok());
    }

    #[test]
    #[should_panic(expected = "has 20 switches")]
    fn running_an_invalid_experiment_panics_with_the_validation_error() {
        let mut e = Experiment::fat_tree(4)
            .engine(EngineKind::Regional)
            .region(RegionSpec::Ports(vec![(999, 0)]));
        e.add_flow(FlowDesc::bulk(0, 5, 0, 10_000));
        let _ = e.run_for_millis(1);
    }

    #[test]
    #[should_panic(expected = "dumbbell")]
    fn watch_bottleneck_rejects_leaf_spine() {
        let _ = Experiment::paper_leaf_spine().watch_bottleneck(1000);
    }
}
