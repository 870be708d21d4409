//! The switch layer: ports that build their queues on first use, ECMP
//! forwarding, the one transmit path every port and NIC shares, and
//! trace sampling.

use pmsb_sched::SchedItem as _;
use pmsb_simcore::{EventQueue, SimDuration, SimTime};

use crate::buffer::SharedPool;
use crate::config::SwitchConfig;
use crate::packet::{Packet, MTU_WIRE_BYTES};
use crate::routing::RouteTable;
use crate::trace::PortTrace;

use super::port::Port;
use super::{Event, Fate, LinkAttach, LinkEnd, World};

/// One output port: the outgoing link, and the [`Port`] it builds on
/// its first packet.
pub(super) struct SwitchPort {
    /// `None` until the port's first packet (or a trace or buffer fault
    /// that reads it); an unbuilt port is an empty, idle one.
    pub(super) queues: Option<Port<Packet>>,
    /// The port's config, as an index into `World::switch_cfgs`.
    pub(super) cfg: u32,
    pub(super) link: LinkAttach,
    pub(super) trace: Option<PortTrace>,
}

impl SwitchPort {
    /// The port, built from its config on first use; `index` is its
    /// place on the switch and so in the switch's pool.
    pub(super) fn queues_mut(&mut self, cfgs: &[SwitchConfig], index: usize) -> &mut Port<Packet> {
        let (cfg, rate_bps) = (&cfgs[self.cfg as usize], self.link.rate_bps);
        self.queues
            .get_or_insert_with(|| Port::switch(cfg, rate_bps, index))
    }
}

/// A switch: its ports, the shared memory pool they admit through (it
/// only counts under [`crate::buffer::BufferPolicy::Static`]), and the
/// routing table towards each host.
pub(super) struct Switch {
    pub(super) ports: Vec<SwitchPort>,
    pub(super) pool: SharedPool,
    pub(super) routes: RouteTable,
}

impl World {
    /// Starts serializing the next packet at `end` when its link is up
    /// and its port idle: the port departs it (marking it at the dequeue
    /// point) and the wire delivers it.
    pub(super) fn try_transmit(&mut self, end: LinkEnd, now: u64, queue: &mut EventQueue<Event>) {
        if let Some(rt) = self.faults.as_deref() {
            if !rt.end(end).up {
                return; // the link is down: packets stay parked
            }
        }
        let (port, pool, link, trace) = match end {
            LinkEnd::Host(h) => {
                let host = &mut self.hosts[h];
                (host.nic.as_mut(), None, host.link, None)
            }
            LinkEnd::SwitchPort(s, p) => {
                let Switch { ports, pool, .. } = &mut self.switches[s];
                let sp = &mut ports[p];
                (
                    sp.queues.as_mut(),
                    Some(pool),
                    Some(sp.link),
                    sp.trace.as_mut(),
                )
            }
        };
        // A port without queues has never held a packet.
        let Some((q, mut pkt, marked)) = port.and_then(|port| port.depart(now, pool)) else {
            return;
        };
        self.marks += u64::from(marked);
        if let Some(tr) = trace {
            tr.queue_throughput[q].add(now, pkt.len_bytes());
        }
        let link = link.expect("host transmits without a link");
        let mut rate_bps = link.rate_bps;
        let mut fate = Fate::Clean;
        if let Some(rt) = self.faults.as_deref_mut() {
            let st = rt.end_mut(end);
            if let Some(r) = st.rate_bps {
                rate_bps = r;
            }
            fate = st.fate();
            if matches!(fate, Fate::Lost) {
                rt.report.injected_drops += 1;
            }
        }
        let ser = SimDuration::for_bytes(pkt.len_bytes(), rate_bps).as_nanos();
        let (node, port) = end.node();
        queue.push(
            SimTime::from_nanos(now + ser),
            Event::TransmitDone { node, port },
        );
        match fate {
            // The wire time was spent but the packet never arrives.
            Fate::Lost => {}
            fate => {
                if matches!(fate, Fate::Corrupted) {
                    pkt.corrupted = true;
                }
                queue.push(
                    SimTime::from_nanos(now + ser + link.delay_nanos),
                    Event::Deliver {
                        node: link.peer,
                        packet: pkt,
                    },
                );
            }
        }
    }

    pub(super) fn deliver_to_switch(
        &mut self,
        switch: usize,
        pkt: Packet,
        now: u64,
        queue: &mut EventQueue<Event>,
    ) {
        let dst = pkt.dst_host as usize;
        let out_port = match self.faults.as_deref_mut() {
            None => self.switches[switch].routes.port_for(dst, pkt.flow_id),
            // ECMP re-hashes deterministically over the live candidates;
            // with everything up this equals the unmasked choice.
            Some(rt) => {
                let up = &rt.switches[switch];
                match self.switches[switch]
                    .routes
                    .port_for_masked(dst, pkt.flow_id, |p| up[p].up)
                {
                    Some(p) => p,
                    None => {
                        rt.report.unroutable_drops += 1;
                        return; // every candidate towards dst is down
                    }
                }
            }
        };
        let Switch { ports, pool, .. } = &mut self.switches[switch];
        let out = ports[out_port].queues_mut(&self.switch_cfgs, out_port);
        self.marks += u64::from(out.arrive(usize::from(pkt.service), pkt, now, Some(pool)));
        self.try_transmit(LinkEnd::SwitchPort(switch, out_port), now, queue);
    }

    pub(super) fn sample_traces(&mut self, now: u64) {
        for sw in &mut self.switches {
            for port in &mut sw.ports {
                // `set_trace` built every watched port.
                if let (Some(tr), Some(watched)) = (port.trace.as_mut(), port.queues.as_ref()) {
                    let mq = watched.mq();
                    let mut total = 0.0;
                    for q in 0..mq.num_queues() {
                        let pkts = mq.queue_bytes(q) as f64 / MTU_WIRE_BYTES as f64;
                        tr.queue_occupancy_pkts[q].sample(now, pkts);
                        total += pkts;
                    }
                    tr.port_occupancy_pkts.sample(now, total);
                }
            }
        }
    }
}
