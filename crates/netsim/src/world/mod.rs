//! The simulated network: hosts, switches, links, and the event loop.
//!
//! A [`World`] owns every node and implements
//! [`EventHandler`](pmsb_simcore::EventHandler); running it under
//! [`Simulation`] executes the packet-level model:
//!
//! * hosts emit transport segments through a FIFO NIC,
//! * switches classify arriving packets onto service queues, apply the
//!   configured ECN marking at enqueue and/or dequeue, schedule with the
//!   configured policy, and forward over links with serialization +
//!   propagation delay,
//! * ACKs flow back and drive the senders' congestion control.
//!
//! The module splits by layer: this file holds the network structure
//! (wiring, run lifecycle), `types` the plain data (flow
//! descriptors, the per-flow transport slot, run results), `faults` the
//! fault-injection runtime, `port` the embeddable marking-view adapter
//! shared with the flow-level engines, `host` the endpoint/NIC layer,
//! `switch` the port layer, and `events` the event pump. The transport
//! the endpoints run is selected by [`TransportConfig::kind`] — see
//! [`crate::transport`].

mod events;
mod faults;
mod host;
pub(crate) mod port;
mod switch;
mod types;

pub use events::Event;
pub use types::{EnginePath, FlowDesc, NodeRef, RunResults, StreamStats};

use types::add_sender_stats;

use std::collections::HashMap;
use std::ops::Range;

use pmsb::marking::MarkingScheme;
use pmsb_metrics::fct::FctRecorder;
use pmsb_metrics::QuantileSketch;
use pmsb_sched::{Fifo, MultiQueue};
use pmsb_simcore::{EventQueue, SimTime, Simulation};

use crate::config::{HostConfig, SwitchConfig, TransportConfig};
use crate::packet::Packet;
use crate::slab::{FlowSlab, SlotRef};
use crate::trace::{PortTrace, TraceConfig};
use crate::transport::{Sender as _, SenderStats, TransportSender};

use faults::{fault_desc, Fate, FaultRuntime, LinkEnd};
use host::Host;
use switch::{Switch, SwitchPort};
use types::{FlowSlot, LinkAttach, StreamRuntime};

/// The simulated network. Build with the `wire_*` methods (or the
/// [`crate::topology`] builders), add flows, then [`World::run_until_nanos`].
pub struct World {
    hosts: Vec<Host>,
    switches: Vec<Switch>,
    /// The distinct configs ports were wired with; a port keeps an
    /// index here and builds its [`PortQueues`] from it on first use.
    switch_cfgs: Vec<SwitchConfig>,
    /// The distinct configs hosts were added with, as `switch_cfgs`.
    host_cfgs: Vec<HostConfig>,
    transport: TransportConfig,
    trace: TraceConfig,
    flows: Vec<FlowDesc>,
    /// Per-flow transport state. The slab keeps hash lookups out of the
    /// per-event path; `HashMap`s reappear only at the result-export
    /// boundary in [`World::harvest`]. Static runs slot flows `0..n` in
    /// [`World::prepare`] (slot index == flow id) and never free;
    /// streaming runs slot a flow at arrival and free it at teardown.
    slab: FlowSlab<FlowSlot>,
    /// Present only in streaming mode; boxed so static worlds stay small.
    stream: Option<Box<StreamRuntime>>,
    fct: FctRecorder,
    marks: u64,
    end_nanos: u64,
    deliveries: u64,
    /// Present only when a fault schedule is attached; boxed so the
    /// common fault-free world stays small.
    faults: Option<Box<FaultRuntime>>,
}

impl World {
    /// Creates an empty network.
    pub fn new(transport: TransportConfig) -> Self {
        World {
            hosts: Vec::new(),
            switches: Vec::new(),
            switch_cfgs: Vec::new(),
            host_cfgs: Vec::new(),
            transport,
            trace: TraceConfig::off(),
            flows: Vec::new(),
            slab: FlowSlab::new(),
            stream: None,
            fct: FctRecorder::new(),
            marks: 0,
            end_nanos: 0,
            deliveries: 0,
            faults: None,
        }
    }

    /// Number of switches in the network.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts in the network.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of ports on `switch`.
    pub fn num_ports(&self, switch: usize) -> usize {
        self.switches[switch].ports.len()
    }

    /// Candidate output ports on `switch` towards `dst_host`, empty when
    /// there is no route (for topology validation and tests).
    pub fn route_candidates(&self, switch: usize, dst_host: usize) -> Range<usize> {
        self.switches[switch].routes.candidates(dst_host)
    }

    /// The node at the far end of `switch`'s `port`.
    pub fn port_peer(&self, switch: usize, port: usize) -> NodeRef {
        self.switches[switch].ports[port].link.peer
    }

    /// The ECMP-selected output port on `switch` towards `dst_host` for
    /// `flow_id` (for path-diversity tests).
    pub fn route_port_for(&self, switch: usize, dst_host: usize, flow_id: u64) -> usize {
        self.switches[switch].routes.port_for(dst_host, flow_id)
    }

    /// The switch a wired host attaches to.
    ///
    /// # Panics
    ///
    /// Panics if the host is not wired.
    pub fn host_switch(&self, host: usize) -> usize {
        let link = self.hosts[host].link.expect("host not wired");
        let NodeRef::Switch(s) = link.peer else {
            unreachable!("hosts attach to switches");
        };
        s
    }

    /// Adds a host; returns its index. Its NIC queue is built on the
    /// NIC's first packet.
    pub fn add_host(&mut self, cfg: HostConfig) -> usize {
        let cfg_idx = intern(&mut self.host_cfgs, &cfg);
        self.hosts.push(Host {
            nic: None,
            cfg: cfg_idx,
            nic_mark_point: cfg.nic_mark_point,
            nic_busy: false,
            link: None,
        });
        self.hosts.len() - 1
    }

    /// Adds a switch with no ports yet; returns its index. Its route
    /// table covers the hosts added so far (the builders add hosts
    /// first), so installing routes does not grow it.
    pub fn add_switch(&mut self) -> usize {
        self.switches.push(Switch {
            ports: Vec::new(),
            pool: crate::buffer::SharedPool::new(crate::buffer::BufferPolicy::Static),
            routes: crate::routing::RouteTable::new(self.hosts.len()),
        });
        self.switches.len() - 1
    }

    /// A wired port without queues: they are built on its first packet.
    fn new_port(&mut self, cfg: &SwitchConfig, link: LinkAttach) -> SwitchPort {
        SwitchPort {
            queues: None,
            cfg: intern(&mut self.switch_cfgs, cfg),
            mark_point: cfg.mark_point,
            busy: false,
            link,
            trace: None,
        }
    }

    /// Books a freshly-wired port's buffer budget into its switch's
    /// shared pool (a no-op pass-through under `Static`).
    fn pool_attach(&mut self, switch: usize, cfg: &SwitchConfig, rate_bps: u64) {
        self.switches[switch].pool.attach_port(
            cfg.buffer,
            cfg.buffer_bytes,
            cfg.scheduler.num_queues(),
            rate_bps,
        );
    }

    /// Connects `host` to `switch` with a bidirectional link; the switch
    /// side gets a port configured per `cfg`. Returns the new switch port
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if the host is already wired.
    pub fn wire_host(
        &mut self,
        host: usize,
        switch: usize,
        rate_bps: u64,
        delay_nanos: u64,
        cfg: &SwitchConfig,
    ) -> usize {
        assert!(self.hosts[host].link.is_none(), "host {host} already wired");
        let port_idx = self.switches[switch].ports.len();
        self.hosts[host].link = Some(LinkAttach {
            peer: NodeRef::Switch(switch),
            peer_port: port_idx,
            rate_bps,
            delay_nanos,
        });
        let link = LinkAttach {
            peer: NodeRef::Host(host),
            peer_port: 0,
            rate_bps,
            delay_nanos,
        };
        let port = self.new_port(cfg, link);
        self.switches[switch].ports.push(port);
        self.pool_attach(switch, cfg, rate_bps);
        port_idx
    }

    /// Connects two switches with a bidirectional link, creating one port
    /// on each side. Returns `(port_on_a, port_on_b)`.
    pub fn wire_switch_pair(
        &mut self,
        a: usize,
        b: usize,
        rate_bps: u64,
        delay_nanos: u64,
        cfg: &SwitchConfig,
    ) -> (usize, usize) {
        let pa = self.switches[a].ports.len();
        let pb = self.switches[b].ports.len();
        let link_ab = LinkAttach {
            peer: NodeRef::Switch(b),
            peer_port: pb,
            rate_bps,
            delay_nanos,
        };
        let link_ba = LinkAttach {
            peer: NodeRef::Switch(a),
            peer_port: pa,
            rate_bps,
            delay_nanos,
        };
        let port_a = self.new_port(cfg, link_ab);
        let port_b = self.new_port(cfg, link_ba);
        self.switches[a].ports.push(port_a);
        self.switches[b].ports.push(port_b);
        self.pool_attach(a, cfg, rate_bps);
        self.pool_attach(b, cfg, rate_bps);
        (pa, pb)
    }

    /// Sets the candidate output ports on `switch` towards `dst_host`: one
    /// contiguous range, over which per-flow ECMP picks
    /// `ports.start + ecmp_hash(flow) % ports.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty.
    pub fn set_route(&mut self, switch: usize, dst_host: usize, ports: Range<usize>) {
        self.switches[switch].routes.set(dst_host, ports);
    }

    /// Installs the trace configuration (call after wiring, before run).
    /// Watched ports build their queues here, so a port that never
    /// carries a packet still samples zero occupancy.
    ///
    /// # Panics
    ///
    /// Panics if a watched port does not exist.
    pub fn set_trace(&mut self, trace: TraceConfig) {
        for (s, p) in &trace.watch_ports {
            let port = &mut self.switches[*s].ports[*p];
            let num_queues = port.queues_mut(&self.switch_cfgs).mq.num_queues();
            port.trace = Some(PortTrace::new(num_queues, trace.throughput_bin_nanos));
        }
        self.trace = trace;
    }

    /// Registers a flow; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the flow is empty or src == dst.
    pub fn add_flow(&mut self, desc: FlowDesc) -> u64 {
        assert!(desc.size_bytes > 0, "flow must carry at least one byte");
        assert_ne!(desc.src_host, desc.dst_host, "flow to self");
        assert!(
            self.stream.is_none(),
            "add_flow and set_stream are mutually exclusive"
        );
        self.flows.push(desc);
        (self.flows.len() - 1) as u64
    }

    // ------------------------------------------------------------------
    // Streaming mode: lazy flow injection with slab reclamation.
    // ------------------------------------------------------------------

    /// Switches the world into streaming mode: flows are pulled lazily
    /// from `source` (which must yield nondecreasing `start_nanos`) and
    /// their transport state is recycled at completion, so resident
    /// memory is bounded by the concurrent flow population. Results come
    /// back as [`RunResults::stream`] aggregates instead of per-flow
    /// maps; `record_exact` additionally records every FCT in the
    /// exhaustive recorder (for differential validation on small runs —
    /// never on million-flow campaigns).
    ///
    /// # Panics
    ///
    /// Panics if flows were already registered with [`World::add_flow`].
    pub fn set_stream(
        &mut self,
        source: Box<dyn Iterator<Item = FlowDesc> + Send>,
        record_exact: bool,
    ) {
        assert!(
            self.flows.is_empty(),
            "add_flow and set_stream are mutually exclusive"
        );
        self.stream = Some(Box::new(StreamRuntime {
            source,
            next_desc: None,
            next_flow_id: 0,
            record_exact,
            injected: 0,
            completed: 0,
            bytes_completed: 0,
            agg: SenderStats::default(),
            sketch: QuantileSketch::new(),
        }));
    }

    /// The live sender of `flow_id`, if any.
    pub(super) fn sender_mut(&mut self, flow_id: u64) -> Option<&mut TransportSender> {
        self.slab.get_mut(flow_id)?.sender.as_mut()
    }

    /// Frees the flow's slot once both halves are gone. A no-op in
    /// static mode, where slots live for the whole run (that is what
    /// keeps static runs byte-identical to the pre-slab simulator).
    fn retire_slot_if_done(&mut self, flow_id: u64) {
        if self.stream.is_none() {
            return;
        }
        let Some(slot) = self.slab.get(flow_id) else {
            return;
        };
        if slot.sender.is_none() && slot.receiver.is_none() {
            self.slab.remove(flow_id);
        }
    }

    /// Handles [`Event::FlowArrival`]: assigns the next flow id, chains
    /// the following arrival, and instantiates the sender in a fresh slab
    /// slot.
    pub(super) fn inject_next_flow(&mut self, now: u64, queue: &mut EventQueue<Event>) {
        let (desc, flow_id, next_at) = {
            let st = self
                .stream
                .as_deref_mut()
                .expect("flow arrival without a streaming source");
            let desc = st.next_desc.take().expect("arrival without a pulled flow");
            let flow_id = st.next_flow_id;
            st.next_flow_id += 1;
            let next_at = st.source.next().map(|next| {
                debug_assert!(
                    next.start_nanos >= desc.start_nanos,
                    "stream must be time-ordered"
                );
                let at = next.start_nanos;
                st.next_desc = Some(next);
                at
            });
            (desc, flow_id, next_at)
        };
        if let Some(at) = next_at {
            queue.push(SimTime::from_nanos(at.max(now)), Event::FlowArrival);
        }
        let (src, dst, service) = desc.packet_ids();
        let mut sender = TransportSender::new(
            flow_id,
            src,
            dst,
            service,
            desc.size_bytes,
            desc.app_rate_bps,
            now,
            &self.transport,
        );
        let out = sender.start(now);
        self.slab.insert(
            flow_id,
            FlowSlot {
                sender: Some(sender),
                receiver: None,
                rto_next_fire: u64::MAX,
                dst_host: dst,
                service,
            },
        );
        self.stream.as_deref_mut().expect("checked above").injected += 1;
        self.process_sender_output(desc.src_host, flow_id, out, now, queue);
    }

    /// Runs the simulation until `end_nanos`, returning the harvested
    /// results. Consumes the world.
    pub fn run_until_nanos(self, end_nanos: u64) -> RunResults {
        let mut sim = self.prepare(end_nanos);
        sim.run_until(SimTime::from_nanos(end_nanos));
        let events = sim.queue.scheduled_count();
        sim.handler.harvest(end_nanos, events)
    }

    /// Slots static flows, sizes the FEL and seeds it with the initial
    /// events, returning the simulation ready to drive.
    fn prepare(mut self, end_nanos: u64) -> Simulation<World> {
        self.end_nanos = end_nanos;
        if self.stream.is_none() {
            // Static mode: flows 0..n slotted in order and never freed,
            // so slot index == flow id for the whole run.
            for id in 0..self.flows.len() as u64 {
                self.slab.insert(id, FlowSlot::empty());
            }
        }
        // Pre-size the FEL for the in-flight event population: a generous
        // per-flow share plus trace/timer headroom. Streaming runs hold one
        // arrival plus the concurrent flows' events — a flat reserve,
        // independent of the total flow count. Ports and NICs are not
        // pre-sized: each builds its queues on its first packet and its
        // rings grow from there, so memory follows the ports the traffic
        // uses, not the fabric's port count.
        let queue_capacity = if self.stream.is_some() {
            4096
        } else {
            256 + 16 * self.flows.len()
        };
        let mut sim = Simulation::new(self);
        sim.queue.reserve(queue_capacity);
        if sim.handler.stream.is_some() {
            let st = sim.handler.stream.as_deref_mut().expect("checked");
            if let Some(first) = st.source.next() {
                let at = first.start_nanos;
                st.next_desc = Some(first);
                sim.queue.push(SimTime::from_nanos(at), Event::FlowArrival);
            }
        }
        for id in 0..sim.handler.flows.len() {
            let f = sim.handler.flows[id];
            sim.queue.push(
                SimTime::from_nanos(f.start_nanos),
                Event::FlowStart { flow_id: id as u64 },
            );
        }
        if let Some(interval) = sim.handler.trace.sample_interval_nanos {
            sim.queue
                .push(SimTime::from_nanos(interval), Event::TraceSample);
        }
        if let Some(rt) = sim.handler.faults.as_deref() {
            // Pre-sorted and pushed in order: the FEL's (time, seq) FIFO
            // keeps same-time events aligned with the `next` cursor in
            // [`World::apply_next_fault`].
            for ev in &rt.events {
                sim.queue
                    .push(SimTime::from_nanos(ev.at_nanos), Event::Fault);
            }
        }
        sim
    }

    fn harvest(mut self, end_nanos: u64, events: u64) -> RunResults {
        let mut rtt = HashMap::new();
        let mut stats = HashMap::new();
        let mut drops = 0u64;
        for h in &self.hosts {
            drops += h.nic.as_ref().map_or(0, |n| n.mq.dropped_items());
        }
        if self.stream.is_none() {
            for slot in self.slab.values() {
                let Some(s) = slot.sender.as_ref() else {
                    continue;
                };
                stats.insert(s.flow_id(), s.stats());
                if let Some(samples) = s.rtt_samples() {
                    rtt.insert(s.flow_id(), samples.to_vec());
                }
            }
        }
        let slab_high_water = self.slab.high_water() as u64;
        let stream = self.stream.take().map(|mut st| {
            // Flows still live at the cutoff never reached `finish_flow`;
            // their counters belong in the aggregate too.
            for slot in self.slab.values() {
                if let Some(s) = slot.sender.as_ref() {
                    add_sender_stats(&mut st.agg, &s.stats());
                }
            }
            StreamStats {
                sketch: st.sketch,
                injected: st.injected,
                completed: st.completed,
                bytes_completed: st.bytes_completed,
                agg_sender: st.agg,
                slab_high_water,
            }
        });
        let mut traces = HashMap::new();
        let mut shared_buffer = None;
        for (si, sw) in self.switches.iter_mut().enumerate() {
            for (pi, port) in sw.ports.iter_mut().enumerate() {
                drops += port.queues.as_ref().map_or(0, |q| q.mq.dropped_items());
                if let Some(t) = port.trace.take() {
                    traces.insert((si, pi), t);
                }
            }
            if sw.pool.is_shared() {
                // Pool rejections are real drops.
                drops += sw.pool.shared_drops();
                shared_buffer
                    .get_or_insert_with(pmsb_metrics::contention::ContentionSummary::default)
                    .absorb(&sw.pool.summary());
            }
        }
        RunResults {
            fct: self.fct,
            rtt_nanos_by_flow: rtt,
            port_traces: traces,
            sender_stats: stats,
            drops,
            marks: self.marks,
            end_nanos,
            events,
            deliveries: self.deliveries,
            faults: self.faults.map(|rt| rt.report),
            stream,
            shared_buffer,
            engine_path: EnginePath::Packet,
        }
    }
}

/// A port's queueing state: its service queues with their boxed
/// scheduler, and its marking scheme. Switch ports and host NICs build
/// it on their first packet, so a port no packet crosses costs only its
/// link. Building reads no clock and no RNG: an unbuilt port behaves
/// exactly as an idle built one, and every reader takes it as empty.
struct PortQueues {
    mq: MultiQueue<Packet>,
    marker: Option<Box<dyn MarkingScheme>>,
}

// Each port builds once, so the builders stay out of line, off the
// packet path they are called from.
impl PortQueues {
    #[cold]
    #[inline(never)]
    fn switch_port(cfg: &SwitchConfig) -> Self {
        PortQueues {
            mq: MultiQueue::with_policy(cfg.scheduler.build(), cfg.port_buffer_policy()),
            marker: cfg.marking.build(&cfg.scheduler.weights()),
        }
    }

    /// A NIC: one FIFO queue, with NIC-level marking.
    #[cold]
    #[inline(never)]
    fn nic(cfg: &HostConfig) -> Self {
        PortQueues {
            mq: MultiQueue::new(Box::new(Fifo::new()), cfg.nic_buffer_bytes),
            marker: cfg.nic_marking.build(&[1]),
        }
    }
}

/// The index of `cfg` in `cfgs`, appending it when no equal entry is
/// there yet.
fn intern<T: PartialEq + Clone>(cfgs: &mut Vec<T>, cfg: &T) -> u32 {
    let idx = match cfgs.iter().position(|c| c == cfg) {
        Some(i) => i,
        None => {
            cfgs.push(cfg.clone());
            cfgs.len() - 1
        }
    };
    u32::try_from(idx).expect("config indices fit in u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MarkingConfig, SchedulerConfig, TransportKind};

    /// `num_senders` sender hosts plus one receiver (the last host) on a
    /// single switch; host NICs mirror the switch marking.
    fn star_world(num_senders: usize, marking: MarkingConfig) -> World {
        let cfg = SwitchConfig {
            scheduler: SchedulerConfig::Dwrr {
                weights: vec![1, 1],
            },
            marking,
            ..SwitchConfig::default()
        };
        star(num_senders, &cfg)
    }

    /// As [`star_world`], with every switch port configured per `cfg`.
    fn star(num_senders: usize, cfg: &SwitchConfig) -> World {
        let mut w = World::new(TransportConfig::default());
        let host_cfg = HostConfig {
            nic_marking: cfg.marking.clone(),
            ..HostConfig::default()
        };
        let s_idx = num_senders; // receiver host index
        for _ in 0..=s_idx {
            w.add_host(host_cfg.clone());
        }
        let s = w.add_switch();
        for h in 0..=s_idx {
            let p = w.wire_host(h, s, 10_000_000_000, 5_000, cfg);
            w.set_route(s, h, p..p + 1);
        }
        w
    }

    fn two_host_world(marking: MarkingConfig) -> World {
        star_world(1, marking)
    }

    #[test]
    fn single_flow_completes_with_sane_fct() {
        let mut w = two_host_world(MarkingConfig::None);
        w.add_flow(FlowDesc::bulk(0, 1, 0, 100_000));
        let res = w.run_until_nanos(50_000_000);
        assert_eq!(res.fct.len(), 1);
        let rec = res.fct.records()[0];
        // 100 KB over 10 Gbps with ~20 us RTT: at least the transfer time
        // (~80 us incl. RTT), well under a millisecond.
        let fct = rec.fct_nanos();
        assert!(fct > 20_000, "FCT {fct} too small");
        assert!(fct < 1_000_000, "FCT {fct} too large");
        assert_eq!(res.drops, 0);
    }

    #[test]
    fn two_flows_share_and_complete() {
        // Two senders converge on one receiver: the switch port congests.
        let mut w = star_world(
            2,
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
        );
        // Long enough for DCTCP to converge to the fair share.
        w.add_flow(FlowDesc::bulk(0, 2, 0, 20_000_000));
        w.add_flow(FlowDesc::bulk(1, 2, 1, 20_000_000));
        let res = w.run_until_nanos(200_000_000);
        assert_eq!(res.fct.len(), 2, "both flows complete");
        assert!(res.marks > 0, "congestion must trigger ECN marks");
        // Equal weights, equal sizes: completion times the same ballpark.
        let f: Vec<u64> = res.fct.records().iter().map(|r| r.fct_nanos()).collect();
        let ratio = f[0] as f64 / f[1] as f64;
        assert!((0.6..1.67).contains(&ratio), "unfair FCTs {f:?}");
    }

    #[test]
    fn long_lived_flow_reaches_line_rate() {
        let mut w = two_host_world(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        });
        w.add_flow(FlowDesc::bulk(0, 1, 0, 20_000_000));
        let res = w.run_until_nanos(1_000_000_000);
        assert_eq!(res.fct.len(), 1);
        let rec = res.fct.records()[0];
        // 20 MB at 10 Gbps line rate = 16 ms minimum (payload/goodput
        // ratio raises this slightly); ECN must not destroy throughput.
        let fct = rec.fct_nanos();
        assert!(fct < 18_000_000, "FCT {fct} => goodput below ~9 Gbps");
        assert_eq!(res.drops, 0, "ECN must prevent buffer overflow");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut w = two_host_world(MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            });
            w.add_flow(FlowDesc::bulk(0, 1, 0, 1_000_000));
            w.add_flow(FlowDesc::bulk(0, 1, 1, 500_000).starting_at(100_000));
            let res = w.run_until_nanos(100_000_000);
            res.fct
                .records()
                .iter()
                .map(|r| (r.flow_id, r.end_nanos))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ecn_keeps_buffer_near_threshold() {
        // A long flow with per-queue K=16 marking: buffer stays bounded
        // (far below what slow start would otherwise fill).
        let mut w = star_world(2, MarkingConfig::PerQueueStandard { threshold_pkts: 16 });
        w.set_trace(TraceConfig::watch_port(0, 2, 10_000));
        w.add_flow(FlowDesc::bulk(0, 2, 0, 50_000_000));
        w.add_flow(FlowDesc::bulk(1, 2, 1, 50_000_000));
        let res = w.run_until_nanos(60_000_000);
        let trace = &res.port_traces[&(0, 2)];
        // After slow start (first ~2 ms), occupancy must hover near the
        // 16-packet threshold, never exploding.
        let peak = trace.port_occupancy_pkts.peak_after(5_000_000).unwrap();
        assert!(peak < 50.0, "post-slow-start peak {peak} pkts too high");
        assert!(res.marks > 0);
    }

    #[test]
    fn app_rate_limited_flow_throttles() {
        let mut w = two_host_world(MarkingConfig::None);
        w.set_trace(TraceConfig::watch_port(0, 1, 100_000));
        w.add_flow(FlowDesc::long_lived(0, 1, 0).with_app_rate_bps(2_000_000_000));
        let res = w.run_until_nanos(20_000_000);
        let trace = &res.port_traces[&(0, 1)];
        // Mean throughput ~2 Gbps (payload/wire overhead makes it a bit
        // lower on goodput, but wire bytes are what the trace counts).
        let bins = trace.queue_throughput[0].num_bins();
        let mean = trace.mean_queue_gbps(0, bins / 2, bins);
        assert!((mean - 2.0).abs() < 0.3, "mean {mean} Gbps");
        assert_eq!(res.fct.len(), 0, "long-lived flow never completes");
    }

    #[test]
    fn reverse_direction_flow_works() {
        let mut w = two_host_world(MarkingConfig::None);
        w.add_flow(FlowDesc::bulk(1, 0, 0, 100_000));
        let res = w.run_until_nanos(50_000_000);
        assert_eq!(res.fct.len(), 1);
    }

    #[test]
    fn dynamic_threshold_shields_mice_from_pool_hogging() {
        // Drop-tail (no ECN), mice in queue 1 sharing the buffer with two
        // elephants in queue 0. Static private port buffers let the
        // elephants fill the receiver port and the mice's packets get
        // tail-dropped; the shared pool's DT policy caps the elephant
        // queue against the remaining free pool and leaves room.
        let run = |dt_alpha: Option<f64>| {
            let mut w = World::new(TransportConfig::default());
            let cfg = SwitchConfig {
                scheduler: SchedulerConfig::Dwrr {
                    weights: vec![1, 1],
                },
                marking: MarkingConfig::None,
                buffer_bytes: 48 * 1500,
                buffer: dt_alpha.map_or(crate::buffer::BufferPolicy::Static, |alpha| {
                    crate::buffer::BufferPolicy::DynamicThreshold { alpha }
                }),
                ..SwitchConfig::default()
            };
            let host_cfg = HostConfig::default();
            for _ in 0..4 {
                w.add_host(host_cfg.clone());
            }
            let s = w.add_switch();
            for h in 0..4 {
                let p = w.wire_host(h, s, 10_000_000_000, 5_000, &cfg);
                w.set_route(s, h, p..p + 1);
            }
            w.add_flow(FlowDesc::long_lived(0, 3, 0));
            w.add_flow(FlowDesc::long_lived(1, 3, 0));
            for i in 0..8u64 {
                w.add_flow(FlowDesc::bulk(2, 3, 1, 30_000).starting_at(3_000_000 + i * 3_000_000));
            }
            let res = w.run_until_nanos(60_000_000);
            let mice_timeouts: u64 = (2..10)
                .map(|f| res.sender_stats.get(&f).map(|s| s.timeouts).unwrap_or(0))
                .sum();
            let p99 = res
                .fct
                .stats(pmsb_metrics::fct::SizeClass::Small)
                .map(|s| s.p99)
                .unwrap_or(f64::INFINITY);
            (p99, mice_timeouts)
        };
        let (static_p99, static_rtos) = run(None);
        let (dt_p99, dt_rtos) = run(Some(1.0));
        assert!(static_rtos > 0, "static pool must RTO some mice");
        assert_eq!(dt_rtos, 0, "DT leaves room: no mice timeouts");
        assert!(
            dt_p99 * 10.0 < static_p99,
            "DT must shield the mice: static {static_p99} vs dt {dt_p99}"
        );
    }

    #[test]
    fn delayed_acks_complete_flows_end_to_end() {
        let mut w = two_host_world(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        });
        w.transport.ack_every_packets = 2;
        w.add_flow(FlowDesc::bulk(0, 1, 0, 1_000_000));
        // An odd tail segment exercises the delack flush timer.
        w.add_flow(FlowDesc::bulk(0, 1, 1, 3 * 1460));
        let res = w.run_until_nanos(200_000_000);
        assert_eq!(res.fct.len(), 2, "both flows complete under coalesced ACKs");
        for st in res.sender_stats.values() {
            assert_eq!(st.timeouts, 0, "delack flush must prevent RTOs: {st:?}");
        }
    }

    #[test]
    fn newreno_transport_completes_flows_end_to_end() {
        // The same fabric with the second transport: flows complete and
        // congestion still draws marks.
        let mut w = star_world(
            2,
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
        );
        w.transport.kind = TransportKind::NewReno;
        w.add_flow(FlowDesc::bulk(0, 2, 0, 5_000_000));
        w.add_flow(FlowDesc::bulk(1, 2, 1, 5_000_000));
        let res = w.run_until_nanos(200_000_000);
        assert_eq!(res.fct.len(), 2, "both NewReno flows complete");
        assert!(res.marks > 0, "congestion must trigger ECN marks");
    }

    #[test]
    fn newreno_and_dctcp_runs_differ() {
        // The transport axis must actually change the dynamics: same
        // workload, different transport, different completion schedule.
        let run = |kind: TransportKind| {
            let mut w = star_world(2, MarkingConfig::PerPort { threshold_pkts: 16 });
            w.transport.kind = kind;
            w.add_flow(FlowDesc::bulk(0, 2, 0, 10_000_000));
            w.add_flow(FlowDesc::bulk(1, 2, 1, 10_000_000));
            let res = w.run_until_nanos(500_000_000);
            assert_eq!(res.fct.len(), 2, "{kind:?} flows complete");
            res.fct
                .records()
                .iter()
                .map(|r| r.end_nanos)
                .collect::<Vec<_>>()
        };
        assert_ne!(
            run(TransportKind::Dctcp),
            run(TransportKind::NewReno),
            "transports must produce different schedules"
        );
    }

    /// A buffer fault that fires before the switch's ports have seen a
    /// packet builds them and caps them: the run equals one whose ports
    /// were configured with that buffer.
    #[test]
    fn a_buffer_fault_before_the_first_packet_caps_like_a_configured_buffer() {
        const CAP: u64 = 6 * 1500;
        let run = |buffer_bytes: u64, fault_at: Option<u64>| {
            let cfg = SwitchConfig {
                marking: MarkingConfig::None,
                buffer_bytes,
                ..SwitchConfig::default()
            };
            let mut w = star(2, &cfg);
            if let Some(at) = fault_at {
                let mut schedule = pmsb_faults::FaultSchedule::new(1);
                schedule.shrink_buffer(0, at, CAP);
                w.set_faults(schedule);
            }
            w.add_flow(FlowDesc::bulk(0, 2, 0, 300_000));
            w.add_flow(FlowDesc::bulk(1, 2, 1, 300_000));
            let res = w.run_until_nanos(200_000_000);
            let fcts: Vec<(u64, u64)> = res
                .fct
                .records()
                .iter()
                .map(|r| (r.flow_id, r.end_nanos))
                .collect();
            (res.drops, fcts)
        };
        let configured = run(CAP, None);
        assert!(configured.0 > 0, "a 6-packet buffer must tail-drop");
        assert_eq!(configured.1.len(), 2, "both flows complete");
        // The first packet reaches the switch after 1.2 us on the wire
        // and 5 us of propagation.
        let faulted = run(SwitchConfig::default().buffer_bytes, Some(1_000));
        assert_eq!(faulted, configured);
    }

    /// A watched port builds its queues when the trace is installed, so
    /// a port no packet crosses still samples, and samples zero.
    #[test]
    fn a_watched_port_without_traffic_traces_zero_occupancy() {
        let mut w = star_world(2, MarkingConfig::None);
        w.set_trace(TraceConfig::watch_port(0, 1, 10_000));
        w.add_flow(FlowDesc::bulk(0, 2, 0, 1_000_000));
        let res = w.run_until_nanos(2_000_000);
        let trace = &res.port_traces[&(0, 1)];
        assert_eq!(trace.port_occupancy_pkts.len(), 200);
        assert_eq!(trace.port_occupancy_pkts.peak(), Some(0.0));
        assert_eq!(trace.queue_occupancy_pkts.len(), 2);
        assert!(trace.queue_throughput.iter().all(|t| t.total_bytes() == 0));
    }

    /// One flow across a fat_tree(4) builds the queues of the ports its
    /// data and ACKs cross and the NICs of its two hosts; every other
    /// port and NIC stays unbuilt.
    #[test]
    fn a_one_flow_run_builds_only_the_ports_on_its_path() {
        let cfg = SwitchConfig::default();
        let host_cfg = HostConfig::default();
        let mut w = crate::topology::fat_tree(
            4,
            10_000_000_000,
            1_000,
            &cfg,
            &host_cfg,
            TransportConfig::default(),
        );
        let (src, dst) = (0, 13);
        w.add_flow(FlowDesc::bulk(src, dst, 0, 200_000));
        let end = 20_000_000;
        let mut sim = w.prepare(end);
        sim.run_until(SimTime::from_nanos(end));
        let w = &sim.handler;
        assert_eq!(w.fct.len(), 1, "the flow completes");
        let hops = |from: usize, to: usize| {
            let mut s = w.host_switch(from);
            let mut ports = Vec::new();
            loop {
                let p = w.route_port_for(s, to, 0);
                ports.push((s, p));
                match w.port_peer(s, p) {
                    NodeRef::Host(_) => return ports,
                    NodeRef::Switch(t) => s = t,
                }
            }
        };
        let mut path = hops(src, dst);
        path.extend(hops(dst, src));
        path.sort_unstable();
        let mut built = Vec::new();
        for (s, sw) in w.switches.iter().enumerate() {
            for (p, port) in sw.ports.iter().enumerate() {
                if port.queues.is_some() {
                    built.push((s, p));
                }
            }
        }
        assert_eq!(built, path);
        let nics: Vec<usize> = (0..w.hosts.len())
            .filter(|&h| w.hosts[h].nic.is_some())
            .collect();
        assert_eq!(nics, vec![src, dst]);
    }

    #[test]
    #[should_panic(expected = "flow to self")]
    fn rejects_self_flow() {
        let mut w = two_host_world(MarkingConfig::None);
        w.add_flow(FlowDesc::bulk(0, 0, 0, 1000));
    }
}
