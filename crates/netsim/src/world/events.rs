//! The event pump: the simulator event type and the [`EventHandler`]
//! dispatch that drives the world.

use pmsb_faults::{FaultKind, FaultTarget};
use pmsb_simcore::{EventHandler, EventQueue, SimTime};

use crate::packet::Packet;
use crate::transport::{Receiver as _, Sender as _, TransportSender};

use super::{fault_desc, LinkEnd, NodeRef, SlotRef, World};

/// Simulator events.
#[derive(Debug)]
pub enum Event {
    /// A flow begins transmitting.
    FlowStart {
        /// Index into the world's flow table.
        flow_id: u64,
    },
    /// The next streaming flow arrives (streaming mode only). The world
    /// holds at most one arrival in flight: handling it pulls the next
    /// flow from the source and chains the following arrival.
    FlowArrival,
    /// A packet finishes propagating and arrives at a node.
    Deliver {
        /// Arriving node.
        node: NodeRef,
        /// Packet delivered.
        packet: Packet,
    },
    /// A port finished serializing a packet; it may start the next.
    TransmitDone {
        /// Transmitting node.
        node: NodeRef,
        /// Port index (always 0 for hosts).
        port: usize,
    },
    /// A sender's retransmission timer.
    Rto {
        /// Host owning the sender.
        host: usize,
        /// Flow whose timer fired.
        flow_id: u64,
        /// Generation (stale generations are ignored).
        gen: u64,
    },
    /// A receiver's delayed-ACK flush timer.
    DelAck {
        /// Host owning the receiver.
        host: usize,
        /// Flow whose timer fired.
        flow_id: u64,
        /// Generation (stale generations are ignored).
        gen: u64,
    },
    /// A rate-limited application's resume tick.
    AppResume {
        /// Host owning the sender.
        host: usize,
        /// Flow to resume.
        flow_id: u64,
        /// Generation (stale generations are ignored).
        gen: u64,
    },
    /// Periodic trace sampling tick.
    TraceSample,
    /// The next scheduled fault event fires (events apply in schedule
    /// order, so the variant carries no payload).
    Fault,
}

impl World {
    /// Applies the next scheduled fault event.
    fn apply_next_fault(&mut self, now: u64, queue: &mut EventQueue<Event>) {
        let rt = self
            .faults
            .as_deref_mut()
            .expect("fault event without a schedule");
        let ev = rt.events[rt.next];
        rt.next += 1;
        rt.report.log.push((now, fault_desc(&ev)));
        if let FaultKind::BufferBytes(bytes) = ev.kind {
            let FaultTarget::Switch(s) = ev.target else {
                unreachable!("validated: buffer faults are switch-wide");
            };
            // Ports build their queues first, so one that has not
            // carried a packet yet keeps the new cap too.
            for port in &mut self.switches[s].ports {
                port.queues_mut(&self.switch_cfgs).mq.set_cap_bytes(bytes);
            }
            return;
        }
        // A link-scoped fault: both directed ends of the cable change
        // together (a cut cable is cut both ways).
        let ends = self.link_ends(ev.target);
        let rt = self.faults.as_deref_mut().expect("checked above");
        for end in ends {
            let st = match end {
                LinkEnd::Host(h) => &mut rt.hosts[h],
                LinkEnd::SwitchPort(s, p) => &mut rt.switches[s][p],
            };
            match ev.kind {
                FaultKind::LinkDown => st.up = false,
                FaultKind::LinkUp => st.up = true,
                FaultKind::Rate(r) => st.rate_bps = r,
                FaultKind::Loss(p) => st.loss_p = p,
                FaultKind::Corrupt(p) => st.corrupt_p = p,
                FaultKind::BufferBytes(_) => unreachable!("handled above"),
            }
        }
        match ev.kind {
            FaultKind::LinkDown => rt.report.link_down_events += 1,
            FaultKind::LinkUp => {
                rt.report.link_up_events += 1;
                // Restart both ends: packets queued while the link was
                // down are waiting for a transmit kick.
                for end in ends {
                    match end {
                        LinkEnd::Host(h) => self.try_transmit_host(h, now, queue),
                        LinkEnd::SwitchPort(s, p) => self.try_transmit_switch(s, p, now, queue),
                    }
                }
            }
            _ => {}
        }
    }
}

impl EventHandler for World {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        let now = now.as_nanos();
        match event {
            Event::FlowStart { flow_id } => {
                let desc = self.flows[flow_id as usize];
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
                if self.trace.record_rtt {
                    sender.enable_rtt_trace();
                }
                let out = sender.start(now);
                let SlotRef::Live(slot) = self.slab.slot_ref(flow_id) else {
                    unreachable!("static flows are pre-slotted in prepare");
                };
                self.slab[slot].sender = Some(sender);
                self.process_sender_output(desc.src_host, flow_id, out, now, queue);
            }
            Event::FlowArrival => self.inject_next_flow(now, queue),
            Event::Deliver { node, packet } => {
                self.deliveries += 1;
                if packet.corrupted {
                    // The checksum fails on arrival; the hop discards it.
                    if let Some(rt) = self.faults.as_deref_mut() {
                        rt.report.corrupt_drops += 1;
                    }
                    return;
                }
                match node {
                    NodeRef::Host(h) => self.deliver_to_host(h, packet, now, queue),
                    NodeRef::Switch(s) => self.deliver_to_switch(s, packet, now, queue),
                }
            }
            Event::TransmitDone { node, port } => match node {
                NodeRef::Host(h) => {
                    self.hosts[h].nic_busy = false;
                    self.try_transmit_host(h, now, queue);
                }
                NodeRef::Switch(s) => {
                    self.switches[s].ports[port].busy = false;
                    self.try_transmit_switch(s, port, now, queue);
                }
            },
            Event::Rto {
                host,
                flow_id,
                gen: _,
            } => {
                // A timer outliving its flow's slot is stale by definition.
                let SlotRef::Live(slot) = self.slab.slot_ref(flow_id) else {
                    return;
                };
                self.slab[slot].rto_next_fire = u64::MAX;
                // The event's generation may predate later re-arms, so the
                // sender's live deadline decides what this fire means.
                let deadline = self.slab[slot]
                    .sender
                    .as_ref()
                    .and_then(|s| s.rto_deadline());
                match deadline {
                    // Live deadline reached: a genuine timeout.
                    Some(arm) if arm.at_nanos <= now => {
                        let sender = self.slab[slot]
                            .sender
                            .as_mut()
                            .expect("armed timer has a sender");
                        let out = sender.on_rto(arm.gen, now);
                        self.process_sender_output(host, flow_id, out, now, queue);
                    }
                    // The deadline moved while this event was in flight:
                    // walk the single timer event forward to it.
                    Some(arm) => {
                        self.slab[slot].rto_next_fire = arm.at_nanos;
                        queue.push(
                            SimTime::from_nanos(arm.at_nanos),
                            Event::Rto {
                                host,
                                flow_id,
                                gen: arm.gen,
                            },
                        );
                    }
                    // Timer disarmed (all data ACKed or flow done).
                    None => {}
                }
            }
            Event::DelAck { host, flow_id, gen } => {
                let SlotRef::Live(slot) = self.slab.slot_ref(flow_id) else {
                    return;
                };
                if let Some(receiver) = self.slab[slot].receiver.as_mut() {
                    if let Some(ack) = receiver.on_delack_timer(gen) {
                        self.host_enqueue(host, ack, now, queue);
                    }
                }
            }
            Event::AppResume { host, flow_id, gen } => {
                if let Some(sender) = self.sender_mut(flow_id) {
                    let out = sender.on_app_resume(gen, now);
                    self.process_sender_output(host, flow_id, out, now, queue);
                }
            }
            Event::TraceSample => {
                self.sample_traces(now);
                if let Some(interval) = self.trace.sample_interval_nanos {
                    if now + interval <= self.end_nanos {
                        queue.push(SimTime::from_nanos(now + interval), Event::TraceSample);
                    }
                }
            }
            Event::Fault => self.apply_next_fault(now, queue),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The FEL stores every event inline, and the largest is a
    /// `Deliver` with its packet: an event stays within 80 bytes, so a
    /// FEL node stays within 104.
    #[test]
    fn an_event_fits_80_bytes() {
        assert!(std::mem::size_of::<Event>() <= 80);
    }
}
