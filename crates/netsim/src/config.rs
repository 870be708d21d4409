//! Switch, host and transport configuration.

use pmsb::marking::{MarkingScheme, MqEcn, PerPool, PerPort, PerQueue, Pmsb, Red, Tcn};
use pmsb::MarkPoint;
use pmsb_sched::{Dwrr, Fifo, HierSpWfq, Scheduler, StrictPriority, Wfq, Wrr};

use crate::packet::MTU_WIRE_BYTES;

/// Which ECN marking discipline switch ports run.
///
/// Thresholds are given in the paper's unit — full-MTU packets (1500 B
/// wire) — and converted to bytes internally.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkingConfig {
    /// ECN disabled (plain drop-tail TCP behaviour).
    None,
    /// Per-queue marking, every queue using the full standard threshold.
    PerQueueStandard {
        /// `K` in packets.
        threshold_pkts: u64,
    },
    /// Per-queue marking with the standard threshold split by weight
    /// (Eq. 2).
    PerQueueFractional {
        /// Total (standard) threshold in packets, apportioned by weight.
        total_pkts: u64,
    },
    /// Plain per-port marking.
    PerPort {
        /// `Port-K` in packets.
        threshold_pkts: u64,
    },
    /// Per-service-pool marking (pool = whole switch).
    PerPool {
        /// Pool threshold in packets.
        threshold_pkts: u64,
    },
    /// MQ-ECN dynamic per-queue thresholds (round-based schedulers only).
    MqEcn {
        /// Standard threshold `C·RTT·λ` in packets.
        standard_pkts: u64,
    },
    /// TCN sojourn-time marking (dequeue only).
    Tcn {
        /// Sojourn threshold `T_k` in nanoseconds.
        threshold_nanos: u64,
    },
    /// PMSB: per-port marking with selective blindness (Algorithm 1).
    Pmsb {
        /// Port threshold in packets; per-queue filters derive from the
        /// scheduler weights (Eq. 6).
        port_threshold_pkts: u64,
    },
    /// Per-queue RED with a linear probability ramp (reference \[6\]).
    Red {
        /// Lower threshold in packets (no marking below).
        min_pkts: u64,
        /// Upper threshold in packets (always mark at or above).
        max_pkts: u64,
        /// Marking probability at the upper threshold.
        max_p: f64,
    },
}

impl MarkingConfig {
    /// Instantiates the marking scheme for a port with the given scheduler
    /// `weights`. `None` when ECN is disabled.
    pub fn build(&self, weights: &[u64]) -> Option<Box<dyn MarkingScheme>> {
        let pkt = MTU_WIRE_BYTES;
        match self {
            MarkingConfig::None => None,
            MarkingConfig::PerQueueStandard { threshold_pkts } => Some(Box::new(
                PerQueue::standard(threshold_pkts * pkt, weights.len()),
            )),
            MarkingConfig::PerQueueFractional { total_pkts } => {
                Some(Box::new(PerQueue::fractional(total_pkts * pkt, weights)))
            }
            MarkingConfig::PerPort { threshold_pkts } => {
                Some(Box::new(PerPort::new(threshold_pkts * pkt)))
            }
            MarkingConfig::PerPool { threshold_pkts } => {
                Some(Box::new(PerPool::new(threshold_pkts * pkt)))
            }
            MarkingConfig::MqEcn { standard_pkts } => Some(Box::new(MqEcn::new(
                standard_pkts * pkt,
                weights.iter().map(|w| w * pkt).collect(),
            ))),
            MarkingConfig::Tcn { threshold_nanos } => Some(Box::new(Tcn::new(*threshold_nanos))),
            MarkingConfig::Pmsb {
                port_threshold_pkts,
            } => Some(Box::new(Pmsb::new(
                port_threshold_pkts * pkt,
                weights.to_vec(),
            ))),
            MarkingConfig::Red {
                min_pkts,
                max_pkts,
                max_p,
            } => Some(Box::new(Red::new(
                min_pkts * pkt,
                max_pkts * pkt,
                *max_p,
                weights.len(),
            ))),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MarkingConfig::None => "none",
            MarkingConfig::PerQueueStandard { .. } => "per-queue-std",
            MarkingConfig::PerQueueFractional { .. } => "per-queue-frac",
            MarkingConfig::PerPort { .. } => "per-port",
            MarkingConfig::PerPool { .. } => "per-pool",
            MarkingConfig::MqEcn { .. } => "mq-ecn",
            MarkingConfig::Tcn { .. } => "tcn",
            MarkingConfig::Pmsb { .. } => "pmsb",
            MarkingConfig::Red { .. } => "red",
        }
    }
}

/// Which scheduler switch ports run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerConfig {
    /// Single FIFO queue.
    Fifo,
    /// Strict priority over `num_queues` queues (queue 0 highest).
    Sp {
        /// Number of queues.
        num_queues: usize,
    },
    /// Weighted round robin (packets).
    Wrr {
        /// Per-queue packet weights.
        weights: Vec<u64>,
    },
    /// Deficit weighted round robin (bytes).
    Dwrr {
        /// Per-queue weights (quantum = weight × 1 MTU).
        weights: Vec<u64>,
    },
    /// Weighted fair queueing.
    Wfq {
        /// Per-queue weights.
        weights: Vec<u64>,
    },
    /// Strict priority between groups, WFQ inside each group.
    SpWfq {
        /// `group_of[q]` = priority group of queue `q` (0 = highest).
        group_of: Vec<usize>,
        /// WFQ weight of each queue inside its group.
        weights: Vec<u64>,
    },
}

impl SchedulerConfig {
    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerConfig::Fifo => Box::new(Fifo::new()),
            SchedulerConfig::Sp { num_queues } => Box::new(StrictPriority::new(*num_queues)),
            SchedulerConfig::Wrr { weights } => Box::new(Wrr::new(weights.clone())),
            SchedulerConfig::Dwrr { weights } => {
                Box::new(Dwrr::new(weights.clone(), MTU_WIRE_BYTES))
            }
            SchedulerConfig::Wfq { weights } => Box::new(Wfq::new(weights.clone())),
            SchedulerConfig::SpWfq { group_of, weights } => {
                Box::new(HierSpWfq::new(group_of.clone(), weights.clone()))
            }
        }
    }

    /// The per-queue weights this configuration implies (used to derive
    /// marking thresholds).
    pub fn weights(&self) -> Vec<u64> {
        match self {
            SchedulerConfig::Fifo => vec![1],
            SchedulerConfig::Sp { num_queues } => vec![1; *num_queues],
            SchedulerConfig::Wrr { weights }
            | SchedulerConfig::Dwrr { weights }
            | SchedulerConfig::Wfq { weights }
            | SchedulerConfig::SpWfq { weights, .. } => weights.clone(),
        }
    }

    /// Number of queues per port (the length of [`Self::weights`],
    /// without building it).
    pub fn num_queues(&self) -> usize {
        match self {
            SchedulerConfig::Fifo => 1,
            SchedulerConfig::Sp { num_queues } => *num_queues,
            SchedulerConfig::Wrr { weights }
            | SchedulerConfig::Dwrr { weights }
            | SchedulerConfig::Wfq { weights }
            | SchedulerConfig::SpWfq { weights, .. } => weights.len(),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerConfig::Fifo => "fifo",
            SchedulerConfig::Sp { .. } => "sp",
            SchedulerConfig::Wrr { .. } => "wrr",
            SchedulerConfig::Dwrr { .. } => "dwrr",
            SchedulerConfig::Wfq { .. } => "wfq",
            SchedulerConfig::SpWfq { .. } => "sp+wfq",
        }
    }
}

/// Per-switch configuration (applied to every output port).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Scheduling policy.
    pub scheduler: SchedulerConfig,
    /// ECN marking discipline.
    pub marking: MarkingConfig,
    /// Where the marking decision runs.
    pub mark_point: MarkPoint,
    /// Buffer budget per output port, in bytes. Under
    /// [`crate::buffer::BufferPolicy::Static`] each port owns this
    /// privately; under the shared policies the switch pool's total is
    /// the sum of its ports' budgets (equal total memory either way).
    pub buffer_bytes: u64,
    /// How the switch's memory is allocated to queues (DESIGN.md §12):
    /// private per-port buffers (the default) or a shared pool with
    /// Dynamic-Threshold or delay-driven admission.
    pub buffer: crate::buffer::BufferPolicy,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            scheduler: SchedulerConfig::Dwrr {
                weights: vec![1; 8],
            },
            marking: MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            mark_point: MarkPoint::Enqueue,
            // 2 MB shared per port: generous for DCTCP's shallow standing
            // queues, small enough that slow-start bursts can drop.
            buffer_bytes: 2 * 1024 * 1024,
            buffer: crate::buffer::BufferPolicy::Static,
        }
    }
}

/// Per-host configuration.
///
/// Host NICs can run the same ECN discipline as switches (a one-queue
/// "port"): this mirrors the common NS-3 setup where the RED/ECN queue
/// disc is installed on every device, and it is what lets a *single* flow
/// at host line rate still see marking — its standing queue sits at its
/// own NIC, not at the (equal-speed) switch.
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// NIC egress buffer in bytes.
    pub nic_buffer_bytes: u64,
    /// ECN marking at the NIC queue ([`MarkingConfig::None`] disables).
    pub nic_marking: MarkingConfig,
    /// Where the NIC marking decision runs.
    pub nic_mark_point: MarkPoint,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            nic_buffer_bytes: 8 * 1024 * 1024,
            nic_marking: MarkingConfig::None,
            nic_mark_point: MarkPoint::Enqueue,
        }
    }
}

/// Which simulation engine an [`Experiment`](crate::Experiment) runs.
///
/// The packet engine simulates every segment through the full
/// switch/transport machinery; the fluid engine replaces the whole run
/// with a flow-level max-min rate solve plus steady-state
/// congestion-control response curves (DESIGN.md §11); the hybrid
/// engine is fluid everywhere except that saturated ports are
/// calibrated by per-port packet micro-simulations running the real
/// scheduler and marking scheme; the regional engine embeds a
/// persistent packet-level region at a selected hot set of switch
/// ports — real scheduler, marking scheme, shared pool and ACK filter
/// — inside an otherwise fluid run (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Full packet-level discrete-event simulation (the default).
    #[default]
    Packet,
    /// Flow-level fluid model with closed-form marking onset.
    Fluid,
    /// Fluid model with packet micro-simulated saturated ports.
    Hybrid,
    /// Fluid model with a persistent packet region at hot switch ports
    /// (select them with [`RegionSpec`]).
    Regional,
}

impl EngineKind {
    /// Short name for reports and CLI values.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Packet => "packet",
            EngineKind::Fluid => "fluid",
            EngineKind::Hybrid => "hybrid",
            EngineKind::Regional => "regional",
        }
    }
}

/// Which switch ports the regional engine promotes to packet-level
/// simulation (ignored by every other [`EngineKind`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RegionSpec {
    /// A deterministic first-pass fluid solve flags the hot set: the
    /// switch ports whose saturated-time integral is within a factor of
    /// four of the busiest port's (the default).
    #[default]
    Auto,
    /// Explicit `(switch, port)` list. An empty list degenerates to the
    /// plain fluid engine (byte-identical results).
    Ports(Vec<(usize, usize)>),
}

impl RegionSpec {
    /// Canonical name, identical to the CLI spelling that parses back to
    /// this spec (`auto`, `ports=SWITCH:PORT[,SWITCH:PORT...]`).
    pub fn name(&self) -> String {
        match self {
            RegionSpec::Auto => "auto".into(),
            RegionSpec::Ports(list) => {
                let pairs: Vec<String> = list.iter().map(|(s, p)| format!("{s}:{p}")).collect();
                format!("ports={}", pairs.join(","))
            }
        }
    }

    /// Parses a CLI region spec: `auto`, or
    /// `ports=SWITCH:PORT[,SWITCH:PORT...]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad input and listing the accepted
    /// variants.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let bad =
            || format!("unknown region spec '{spec}' (auto|ports=SWITCH:PORT[,SWITCH:PORT...])");
        if spec == "auto" {
            return Ok(RegionSpec::Auto);
        }
        let Some(list) = spec.strip_prefix("ports=") else {
            return Err(bad());
        };
        if list.is_empty() {
            return Err(format!(
                "region spec 'ports=' needs at least one SWITCH:PORT pair, got '{spec}' \
                 (auto|ports=SWITCH:PORT[,SWITCH:PORT...])"
            ));
        }
        let mut ports = Vec::new();
        for pair in list.split(',') {
            let parsed = pair
                .split_once(':')
                .and_then(|(s, p)| Some((s.parse().ok()?, p.parse().ok()?)));
            match parsed {
                Some(sp) => ports.push(sp),
                None => {
                    return Err(format!(
                        "region port '{pair}' is not SWITCH:PORT, got '{spec}' \
                         (auto|ports=SWITCH:PORT[,SWITCH:PORT...])"
                    ))
                }
            }
        }
        Ok(RegionSpec::Ports(ports))
    }
}

/// How a sender responds to honoured ECN-Echo signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EcnResponse {
    /// DCTCP: estimate the marked fraction `alpha` per window and cut
    /// `cwnd ← cwnd·(1 − α/2)` once per window.
    #[default]
    Dctcp,
    /// Classic ECN (RFC 3168): halve the window once per RTT on any mark,
    /// like a loss. Kept as a contrast baseline for ablations.
    Classic,
}

/// Which end-host transport the simulation runs.
///
/// Selects the ECN reaction of the one TCP state machine,
/// [`TransportSender`](crate::transport::TransportSender) /
/// [`TransportReceiver`](crate::transport::TransportReceiver), together
/// with [`TransportConfig::ecn_response`] (which only DCTCP reads); the
/// loss machinery is the same for every kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// DCTCP: per-window `alpha` EWMA with gentle multiplicative decrease.
    #[default]
    Dctcp,
    /// TCP NewReno with the classic RFC 3168 ECN response: halve at most
    /// once per RTT on ECN-Echo, CWR signalling, no `alpha` estimator.
    NewReno,
}

impl TransportKind {
    /// Short name for reports and CLI values.
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Dctcp => "dctcp",
            TransportKind::NewReno => "newreno",
        }
    }
}

/// Transport parameters (shared across transport kinds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportConfig {
    /// Which transport state machine endpoints run.
    pub kind: TransportKind,
    /// Maximum segment size (payload bytes).
    pub mss: u64,
    /// Initial congestion window in segments (the paper uses 16).
    pub init_cwnd_pkts: u64,
    /// DCTCP `g` (EWMA gain for `alpha`).
    pub g: f64,
    /// Minimum retransmission timeout, nanoseconds.
    pub rto_min_nanos: u64,
    /// RTO before any RTT sample, nanoseconds.
    pub rto_init_nanos: u64,
    /// Socket send-buffer bound on the congestion window, bytes.
    pub max_cwnd_bytes: u64,
    /// Congestion response to ECN marks under [`TransportKind::Dctcp`];
    /// NewReno always reacts per RFC 3168.
    pub ecn_response: EcnResponse,
    /// Receiver ACK coalescing: ACK every `m` data packets (1 = ACK every
    /// packet). With `m > 1` a DCTCP receiver runs the delayed-ACK ECE
    /// state machine: any change of the observed CE state forces an
    /// immediate ACK so the mark fraction survives coalescing. A NewReno
    /// receiver's ECE latch carries the mark through coalescing instead.
    pub ack_every_packets: u64,
    /// Delayed-ACK flush timeout, nanoseconds (only used when
    /// `ack_every_packets > 1`).
    pub delack_timeout_nanos: u64,
    /// PMSB(e): ignore ECN-Echo when the ACK's measured RTT is below this
    /// threshold (nanoseconds). `None` disables the end-host rule.
    pub pmsbe_rtt_threshold_nanos: Option<u64>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            kind: TransportKind::default(),
            mss: crate::packet::DEFAULT_MSS,
            init_cwnd_pkts: 16,
            g: 1.0 / 16.0,
            rto_min_nanos: 2_000_000,   // 2 ms
            rto_init_nanos: 10_000_000, // 10 ms
            max_cwnd_bytes: 1_500_000,  // ~1000 segments
            ecn_response: EcnResponse::Dctcp,
            ack_every_packets: 1,
            delack_timeout_nanos: 500_000, // 0.5 ms
            pmsbe_rtt_threshold_nanos: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marking_configs_build_the_right_scheme() {
        let w = vec![1u64, 3];
        assert!(MarkingConfig::None.build(&w).is_none());
        let names = [
            (
                MarkingConfig::PerQueueStandard { threshold_pkts: 16 },
                "per-queue",
            ),
            (
                MarkingConfig::PerQueueFractional { total_pkts: 16 },
                "per-queue",
            ),
            (MarkingConfig::PerPort { threshold_pkts: 16 }, "per-port"),
            (MarkingConfig::PerPool { threshold_pkts: 16 }, "per-pool"),
            (MarkingConfig::MqEcn { standard_pkts: 65 }, "mq-ecn"),
            (
                MarkingConfig::Tcn {
                    threshold_nanos: 78_200,
                },
                "tcn",
            ),
            (
                MarkingConfig::Pmsb {
                    port_threshold_pkts: 12,
                },
                "pmsb",
            ),
        ];
        for (cfg, want) in names {
            let m = cfg.build(&w).unwrap();
            assert_eq!(m.name(), want, "{cfg:?}");
        }
    }

    #[test]
    fn scheduler_configs_build_and_report_weights() {
        let cases: Vec<(SchedulerConfig, &str, usize)> = vec![
            (SchedulerConfig::Fifo, "fifo", 1),
            (SchedulerConfig::Sp { num_queues: 3 }, "sp", 3),
            (
                SchedulerConfig::Wrr {
                    weights: vec![1, 2],
                },
                "wrr",
                2,
            ),
            (
                SchedulerConfig::Dwrr {
                    weights: vec![1, 2],
                },
                "dwrr",
                2,
            ),
            (
                SchedulerConfig::Wfq {
                    weights: vec![1, 1],
                },
                "wfq",
                2,
            ),
            (
                SchedulerConfig::SpWfq {
                    group_of: vec![0, 1, 1],
                    weights: vec![1, 1, 1],
                },
                "sp+wfq",
                3,
            ),
        ];
        for (cfg, name, n) in cases {
            let s = cfg.build();
            assert_eq!(s.name(), name);
            assert_eq!(cfg.num_queues(), n);
            assert_eq!(cfg.weights().len(), n);
            assert_eq!(s.num_queues(), n);
        }
    }

    #[test]
    fn round_based_schedulers_expose_round_time() {
        assert!(SchedulerConfig::Dwrr {
            weights: vec![1, 1]
        }
        .build()
        .round_time_nanos()
        .is_some());
        assert!(SchedulerConfig::Wrr {
            weights: vec![1, 1]
        }
        .build()
        .round_time_nanos()
        .is_some());
        assert!(SchedulerConfig::Wfq {
            weights: vec![1, 1]
        }
        .build()
        .round_time_nanos()
        .is_none());
        assert!(SchedulerConfig::Sp { num_queues: 2 }
            .build()
            .round_time_nanos()
            .is_none());
    }

    #[test]
    fn region_specs_round_trip_through_parse() {
        for spec in [
            RegionSpec::Auto,
            RegionSpec::Ports(vec![(0, 2)]),
            RegionSpec::Ports(vec![(3, 1), (0, 0), (12, 25)]),
        ] {
            assert_eq!(RegionSpec::parse(&spec.name()), Ok(spec));
        }
    }

    #[test]
    fn region_spec_parse_rejects_bad_specs_listing_variants() {
        for bad in [
            "",
            "all",
            "ports",
            "ports=",
            "ports=1",
            "ports=1:2:3",
            "ports=x:1",
        ] {
            let err = RegionSpec::parse(bad).expect_err(bad);
            assert!(
                err.contains("auto|ports=SWITCH:PORT[,SWITCH:PORT...]"),
                "'{bad}' error must list variants: {err}"
            );
        }
        assert!(RegionSpec::parse("portsy")
            .unwrap_err()
            .contains("'portsy'"));
        assert!(RegionSpec::parse("ports=1:2,zz")
            .unwrap_err()
            .contains("'zz'"));
    }

    #[test]
    fn defaults_are_sane() {
        let t = TransportConfig::default();
        assert_eq!(t.kind, TransportKind::Dctcp);
        assert_eq!(t.kind.name(), "dctcp");
        assert_eq!(TransportKind::NewReno.name(), "newreno");
        assert_eq!(t.mss, 1460);
        assert_eq!(t.init_cwnd_pkts, 16);
        assert!(t.pmsbe_rtt_threshold_nanos.is_none());
        let s = SwitchConfig::default();
        assert_eq!(s.mark_point, MarkPoint::Enqueue);
        assert!(s.buffer_bytes > 0);
        assert_eq!(s.buffer, crate::buffer::BufferPolicy::Static);
    }
}
