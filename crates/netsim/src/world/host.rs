//! The endpoint layer: host NICs, sender output processing, and packet
//! delivery into the transport endpoints.

use pmsb::MarkPoint;
use pmsb_metrics::fct::FlowRecord;
use pmsb_sched::SchedItem as _;
use pmsb_simcore::{EventQueue, SimDuration, SimTime};

use crate::packet::{Packet, PacketKind};
use crate::transport::{Receiver as _, Sender as _, SenderOutput, TransportReceiver};

use super::port::PacketPortView;
use super::{Event, Fate, FlowSlot, LinkAttach, NodeRef, PortQueues, SlotRef, World};

/// An endpoint: one NIC queue towards its access switch, plus optional
/// NIC-level ECN marking.
pub(super) struct Host {
    /// The NIC's queue and marker, `None` until its first packet; an
    /// unbuilt NIC is an empty one.
    pub(super) nic: Option<PortQueues>,
    /// The host's config, as an index into `World::host_cfgs`.
    pub(super) cfg: u32,
    pub(super) nic_mark_point: MarkPoint,
    pub(super) nic_busy: bool,
    pub(super) link: Option<LinkAttach>,
}

impl World {
    pub(super) fn process_sender_output(
        &mut self,
        host: usize,
        flow_id: u64,
        out: SenderOutput,
        now: u64,
        queue: &mut EventQueue<Event>,
    ) {
        let mut packets = out.packets;
        for pkt in packets.drain(..) {
            self.host_enqueue(host, pkt, now, queue);
        }
        if let Some(s) = self.sender_mut(flow_id) {
            s.recycle(packets);
        }
        if let Some(arm) = out.rto {
            // At most one timer event in flight per flow: skip the push
            // when an earlier (or equal) fire is already scheduled — that
            // fire re-arms lazily from the sender's live deadline.
            let at = arm.at_nanos.max(now);
            if let SlotRef::Live(slot) = self.slab.slot_ref(flow_id) {
                if at < self.slab[slot].rto_next_fire {
                    self.slab[slot].rto_next_fire = at;
                    queue.push(
                        SimTime::from_nanos(at),
                        Event::Rto {
                            host,
                            flow_id,
                            gen: arm.gen,
                        },
                    );
                }
            }
        }
        if let Some(arm) = out.app_resume {
            queue.push(
                SimTime::from_nanos(arm.at_nanos.max(now)),
                Event::AppResume {
                    host,
                    flow_id,
                    gen: arm.gen,
                },
            );
        }
        if out.completed {
            self.finish_flow(host, flow_id, now, queue);
        }
    }

    /// Records a completed flow. In streaming mode this also tears down
    /// the sender half and sends a [`PacketKind::Fin`] through the
    /// network so the destination can free the receiver half: the Fin
    /// rides the normal delivery path (routing, queueing). Static mode
    /// records and returns — no Fins, no reclamation, no change to
    /// golden records.
    fn finish_flow(&mut self, host: usize, flow_id: u64, now: u64, queue: &mut EventQueue<Event>) {
        let SlotRef::Live(slot) = self.slab.slot_ref(flow_id) else {
            unreachable!("completed flow has a slot");
        };
        let s = self.slab[slot]
            .sender
            .as_ref()
            .expect("completed flow has a sender");
        let rec = FlowRecord {
            flow_id,
            bytes: s.size_bytes(),
            start_nanos: s.start_nanos(),
            end_nanos: now,
        };
        if self.stream.is_none() {
            self.fct.record(rec);
            return;
        }
        let sender = self.slab[slot].sender.take().expect("taken once");
        let (dst, service) = (self.slab[slot].dst_host, self.slab[slot].service);
        let st = self.stream.as_deref_mut().expect("streaming mode");
        st.completed += 1;
        st.bytes_completed += rec.bytes;
        st.sketch.insert(rec.fct_nanos());
        super::add_sender_stats(&mut st.agg, &sender.stats());
        if st.record_exact {
            self.fct.record(rec);
        }
        // `host` is the flow's source, which `FlowDesc::packet_ids`
        // checked against u32 when the flow started.
        let fin = Packet::fin(flow_id, host as u32, dst, service, now);
        self.host_enqueue(host, fin, now, queue);
        self.retire_slot_if_done(flow_id);
    }

    pub(super) fn host_enqueue(
        &mut self,
        host: usize,
        mut pkt: Packet,
        now: u64,
        queue: &mut EventQueue<Event>,
    ) {
        pkt.enqueued_at_nanos = now;
        let h = &mut self.hosts[host];
        let (cfgs, cfg) = (&self.host_cfgs, h.cfg as usize);
        let PortQueues { mq, marker } = h.nic.get_or_insert_with(|| PortQueues::nic(&cfgs[cfg]));
        // NIC-level ECN (one-queue port), mirroring NS-3's per-device
        // queue discs.
        if h.nic_mark_point == MarkPoint::Enqueue && pkt.ect && !pkt.ce {
            if let Some(marker) = marker.as_mut() {
                let rate = h.link.map(|l| l.rate_bps).unwrap_or(10_000_000_000);
                let view = PacketPortView {
                    mq,
                    link_rate_bps: rate,
                    pool_bytes: None,
                    sojourn_nanos: None,
                };
                if marker.should_mark(&view, 0).is_mark() {
                    pkt.ce = true;
                    self.marks += 1;
                }
            }
        }
        let _ = mq.enqueue(0, pkt, now);
        self.try_transmit_host(host, now, queue);
    }

    pub(super) fn try_transmit_host(
        &mut self,
        host: usize,
        now: u64,
        queue: &mut EventQueue<Event>,
    ) {
        if let Some(rt) = self.faults.as_deref() {
            if !rt.hosts[host].up {
                return; // link down: packets stay parked in the NIC queue
            }
        }
        let marks = &mut self.marks;
        let h = &mut self.hosts[host];
        if h.nic_busy {
            return;
        }
        // A NIC without a queue has never held a packet.
        let Some(PortQueues { mq, marker }) = h.nic.as_mut() else {
            return;
        };
        let Some((_, mut pkt)) = mq.dequeue(now) else {
            return;
        };
        if h.nic_mark_point == MarkPoint::Dequeue && pkt.ect && !pkt.ce {
            if let Some(marker) = marker.as_mut() {
                let rate = h.link.map(|l| l.rate_bps).unwrap_or(10_000_000_000);
                let view = PacketPortView {
                    mq,
                    link_rate_bps: rate,
                    pool_bytes: None,
                    sojourn_nanos: Some(now.saturating_sub(pkt.enqueued_at_nanos)),
                };
                if marker.should_mark(&view, 0).is_mark() {
                    pkt.ce = true;
                    *marks += 1;
                }
            }
        }
        let link = h.link.expect("host transmits without a link");
        h.nic_busy = true;
        let mut rate_bps = link.rate_bps;
        let mut fate = Fate::Clean;
        if let Some(rt) = self.faults.as_deref_mut() {
            let st = &mut rt.hosts[host];
            if let Some(r) = st.rate_bps {
                rate_bps = r;
            }
            fate = st.fate();
            if matches!(fate, Fate::Lost) {
                rt.report.injected_drops += 1;
            }
        }
        let ser = SimDuration::for_bytes(pkt.len_bytes(), rate_bps).as_nanos();
        queue.push(
            SimTime::from_nanos(now + ser),
            Event::TransmitDone {
                node: NodeRef::Host(host),
                port: 0,
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

    pub(super) fn deliver_to_host(
        &mut self,
        host: usize,
        pkt: Packet,
        now: u64,
        queue: &mut EventQueue<Event>,
    ) {
        match pkt.kind {
            PacketKind::Data { .. } => {
                let slot = match self.slab.slot_ref(pkt.flow_id) {
                    SlotRef::Live(s) => s,
                    // Straggler data after teardown (e.g. a retransmit
                    // whose original was ACKed before the Fin): drop.
                    SlotRef::Retired => return,
                    // First data of a streaming flow at its destination:
                    // the receiver half claims a slot lazily.
                    SlotRef::Absent => self.slab.insert(pkt.flow_id, FlowSlot::empty()),
                };
                let transport = self.transport;
                let receiver = self.slab[slot]
                    .receiver
                    .get_or_insert_with(|| TransportReceiver::new(pkt.flow_id, &transport));
                let out = receiver.on_data(&pkt, now);
                if let Some(arm) = out.delack {
                    queue.push(
                        SimTime::from_nanos(arm.at_nanos.max(now)),
                        Event::DelAck {
                            host,
                            flow_id: pkt.flow_id,
                            gen: arm.gen,
                        },
                    );
                }
                if let Some(ack) = out.ack {
                    self.host_enqueue(host, ack, now, queue);
                }
            }
            PacketKind::Ack { cum_ack, ece } => {
                let Some(sender) = self.sender_mut(pkt.flow_id) else {
                    return; // flow not started yet, or already torn down
                };
                let out = sender.on_ack(cum_ack, ece, pkt.sent_at_nanos, now);
                self.process_sender_output(host, pkt.flow_id, out, now, queue);
            }
            PacketKind::Fin => {
                if let SlotRef::Live(slot) = self.slab.slot_ref(pkt.flow_id) {
                    self.slab[slot].receiver = None;
                    self.retire_slot_if_done(pkt.flow_id);
                }
            }
        }
    }
}
