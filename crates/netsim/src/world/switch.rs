//! The switch layer: multi-queue ports, ECN marking at enqueue/dequeue,
//! ECMP forwarding, and trace sampling.

use pmsb::marking::MarkingScheme;
use pmsb::MarkPoint;
use pmsb_sched::MultiQueue;
use pmsb_simcore::{EventQueue, SimDuration, SimTime};

use crate::buffer::{Admit, SharedPool};
use crate::packet::{Packet, MTU_WIRE_BYTES};
use crate::routing::RouteTable;
use crate::trace::PortTrace;

use super::{Event, Fate, LinkAttach, NodeRef, World};

/// One output port: service queues, marking scheme, and the outgoing link.
pub(super) struct SwitchPort {
    pub(super) mq: MultiQueue<Packet>,
    pub(super) marker: Option<Box<dyn MarkingScheme>>,
    pub(super) mark_point: MarkPoint,
    pub(super) busy: bool,
    pub(super) link: LinkAttach,
    pub(super) trace: Option<PortTrace>,
}

/// A switch: its ports, the shared memory pool they carve their backlog
/// from (a pass-through under [`crate::buffer::BufferPolicy::Static`]),
/// and the routing table towards each host.
pub(super) struct Switch {
    pub(super) ports: Vec<SwitchPort>,
    pub(super) pool: SharedPool,
    pub(super) routes: RouteTable,
}

/// A switch port's marking-scheme view: the shared
/// [`PacketPortView`](super::port::PacketPortView) over real packets.
pub(super) type SwitchPortView<'a> = super::port::PacketPortView<'a, Packet>;

impl World {
    pub(super) fn try_transmit_switch(
        &mut self,
        switch: usize,
        port: usize,
        now: u64,
        queue: &mut EventQueue<Event>,
    ) {
        if let Some(rt) = self.faults.as_deref() {
            if !rt.switches[switch][port].up {
                return; // port's link is down: leave the queue parked
            }
        }
        let marks = &mut self.marks;
        let Switch { ports, pool, .. } = &mut self.switches[switch];
        let p = &mut ports[port];
        if p.busy {
            return;
        }
        let Some((q, mut pkt)) = p.mq.dequeue(now) else {
            return;
        };
        if pool.is_shared() {
            pool.on_dequeue(port, q, pkt.wire_bytes, now);
        }
        // Dequeue-point marking (PMSB/TCN early-notification experiments).
        if p.mark_point == MarkPoint::Dequeue && pkt.ect && !pkt.ce {
            if let Some(marker) = p.marker.as_mut() {
                let view = SwitchPortView {
                    mq: &p.mq,
                    link_rate_bps: p.link.rate_bps,
                    pool_bytes: pool.is_shared().then(|| pool.used_bytes()),
                    sojourn_nanos: Some(now.saturating_sub(pkt.enqueued_at_nanos)),
                };
                if marker.should_mark(&view, q).is_mark() {
                    pkt.ce = true;
                    *marks += 1;
                }
            }
        }
        if let Some(tr) = p.trace.as_mut() {
            tr.queue_throughput[q].add(now, pkt.wire_bytes);
        }
        p.busy = true;
        let link = p.link;
        let mut rate_bps = link.rate_bps;
        let mut fate = Fate::Clean;
        if let Some(rt) = self.faults.as_deref_mut() {
            let st = &mut rt.switches[switch][port];
            if let Some(r) = st.rate_bps {
                rate_bps = r;
            }
            fate = st.fate();
            if matches!(fate, Fate::Lost) {
                rt.report.injected_drops += 1;
            }
        }
        let ser = SimDuration::for_bytes(pkt.wire_bytes, rate_bps).as_nanos();
        queue.push(
            SimTime::from_nanos(now + ser),
            Event::TransmitDone {
                node: NodeRef::Switch(switch),
                port,
            },
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
        mut pkt: Packet,
        now: u64,
        queue: &mut EventQueue<Event>,
    ) {
        let out_port = match self.faults.as_deref_mut() {
            None => self.switches[switch]
                .routes
                .port_for(pkt.dst_host, pkt.flow_id),
            // ECMP re-hashes deterministically over the live candidates;
            // with everything up this equals the unmasked choice.
            Some(rt) => {
                let up = &rt.switches[switch];
                match self.switches[switch]
                    .routes
                    .port_for_masked(pkt.dst_host, pkt.flow_id, |p| up[p].up)
                {
                    Some(p) => p,
                    None => {
                        rt.report.unroutable_drops += 1;
                        return; // every candidate towards dst is down
                    }
                }
            }
        };
        // Pool occupancy across all ports of this switch. With a shared
        // pool it is the pool's O(1) book-keeping; under `Static` it is
        // only summed for the per-pool scheme — every other scheme looks
        // at its own port.
        let pool_occ: u64 = {
            let sw = &self.switches[switch];
            if sw.pool.is_shared() {
                sw.pool.used_bytes()
            } else {
                match &sw.ports[out_port].marker {
                    Some(m) if m.reads_pool() => sw.ports.iter().map(|p| p.mq.port_bytes()).sum(),
                    _ => 0,
                }
            }
        };
        let marks = &mut self.marks;
        let Switch { ports, pool, .. } = &mut self.switches[switch];
        let p = &mut ports[out_port];
        let q = pkt.service % p.mq.num_queues();
        pkt.enqueued_at_nanos = now;
        // Enqueue-point marking: decide on the occupancy the packet meets.
        // Marking runs before admission (the ASIC marks what it accepts;
        // what it rejects never carries a signal anywhere).
        if p.mark_point == MarkPoint::Enqueue && pkt.ect && !pkt.ce {
            if let Some(marker) = p.marker.as_mut() {
                let view = SwitchPortView {
                    mq: &p.mq,
                    link_rate_bps: p.link.rate_bps,
                    pool_bytes: Some(pool_occ),
                    sojourn_nanos: None,
                };
                if marker.should_mark(&view, q).is_mark() {
                    pkt.ce = true;
                    *marks += 1;
                }
            }
        }
        if pool.is_shared() {
            // The pool owns admission: the per-port cap is lifted, so an
            // admitted packet's enqueue cannot fail except under a
            // fault-shrunk port cap — in which case the MultiQueue counts
            // the drop and the pool must not book the bytes.
            let wire = pkt.wire_bytes;
            if pool.try_admit(out_port, q, p.mq.queue_bytes(q), wire) == Admit::Ok
                && p.mq.enqueue(q, pkt, now).is_ok()
            {
                pool.commit(wire);
            }
        } else {
            let _ = p.mq.enqueue(q, pkt, now); // drop counted in the MultiQueue
        }
        self.try_transmit_switch(switch, out_port, now, queue);
    }

    pub(super) fn sample_traces(&mut self, now: u64) {
        for sw in &mut self.switches {
            for port in &mut sw.ports {
                if let Some(tr) = port.trace.as_mut() {
                    let mut total = 0.0;
                    for q in 0..port.mq.num_queues() {
                        let pkts = port.mq.queue_bytes(q) as f64 / MTU_WIRE_BYTES as f64;
                        tr.queue_occupancy_pkts[q].sample(now, pkts);
                        total += pkts;
                    }
                    tr.port_occupancy_pkts.sample(now, total);
                }
            }
        }
    }
}
