//! One port: service queues under a scheduler, a marking scheme at one
//! mark point, and one item in service at a time.
//!
//! Every packet runtime in the simulator queues through [`Port`]: the
//! switch ports and host NICs of the packet engine ([`super::switch`],
//! [`super::host`]), the hot ports of the regional engine's packet
//! region, and the hybrid engine's calibration micro-sims
//! ([`crate::fluid`]). A port is generic over what it queues — a real
//! [`Packet`], the region's ghost, the micro-sim's MTU — through
//! [`PortItem`]. It has one arrival and one departure:
//!
//! * **Arrival** ([`Port::arrive`]): mark at the enqueue point, on the
//!   occupancy the item meets, then admit it through the switch's
//!   [`SharedPool`] or, without a pool, through the port's own cap.
//! * **Departure** ([`Port::depart`]): dequeue the scheduler's pick,
//!   release its bytes from the pool, then mark at the dequeue point, on
//!   the occupancy it leaves behind and the time it waited.
//!
//! So what a marking scheme *sees* is defined here once, whichever
//! runtime owns the port. A switch port admits through its switch's pool,
//! which holds the switch's buffered bytes under every policy, so the
//! per-pool scheme reads the pool in O(1) at both mark points. A NIC or
//! a micro-sim has no pool: it is its own.

use pmsb::marking::MarkingScheme;
use pmsb::{MarkPoint, PortView};
use pmsb_sched::{Fifo, MultiQueue, SchedItem};

use crate::buffer::{Admit, SharedPool};
use crate::config::{HostConfig, SwitchConfig};
use crate::packet::Packet;

/// What a port queues: a wire length, and the ECN state a mark sets.
pub(crate) trait PortItem: SchedItem {
    /// Whether a marking decision applies: ECN-capable and not yet CE.
    fn markable(&self) -> bool;
    /// Sets CE.
    fn mark(&mut self);
    /// When the item entered the port's queues.
    fn enqueued_at_nanos(&self) -> u64;
    /// Stamps the item's arrival at the port.
    fn set_enqueued_at_nanos(&mut self, now_nanos: u64);
}

impl PortItem for Packet {
    fn markable(&self) -> bool {
        self.ect && !self.ce
    }
    fn mark(&mut self) {
        self.ce = true;
    }
    fn enqueued_at_nanos(&self) -> u64 {
        self.enqueued_at_nanos
    }
    fn set_enqueued_at_nanos(&mut self, now_nanos: u64) {
        self.enqueued_at_nanos = now_nanos;
    }
}

/// One output port; see the module docs.
pub(crate) struct Port<T: PortItem> {
    mq: MultiQueue<T>,
    marker: Option<Box<dyn MarkingScheme>>,
    mark_point: MarkPoint,
    /// An item is serializing: nothing departs until [`Port::finish`].
    busy: bool,
    /// This port's index in the pool it admits through.
    pool_port: u32,
    link_rate_bps: u64,
}

// Each packet-engine port builds once, on its first packet, so the
// constructors stay out of line, off the packet path that calls them.
// Building reads no clock and no RNG: an unbuilt port behaves exactly
// as an idle built one.
impl<T: PortItem> Port<T> {
    /// A switch port configured per `cfg`, at index `pool_port` in the
    /// pool it admits through. Under a shared policy the pool admits, so
    /// the port's own cap is lifted.
    #[cold]
    #[inline(never)]
    pub(crate) fn switch(cfg: &SwitchConfig, link_rate_bps: u64, pool_port: usize) -> Self {
        let cap_bytes = if cfg.buffer.is_shared() {
            u64::MAX
        } else {
            cfg.buffer_bytes
        };
        Port {
            mq: MultiQueue::new(cfg.scheduler.build(), cap_bytes),
            marker: cfg.marking.build(&cfg.scheduler.weights()),
            mark_point: cfg.mark_point,
            busy: false,
            pool_port: u32::try_from(pool_port).expect("port indices fit in u32"),
            link_rate_bps,
        }
    }

    /// A host NIC: one FIFO queue, with NIC-level marking.
    #[cold]
    #[inline(never)]
    pub(crate) fn nic(cfg: &HostConfig, link_rate_bps: u64) -> Self {
        Port {
            mq: MultiQueue::new(Box::new(Fifo::new()), cfg.nic_buffer_bytes),
            marker: cfg.nic_marking.build(&[1]),
            mark_point: cfg.nic_mark_point,
            busy: false,
            pool_port: 0,
            link_rate_bps,
        }
    }

    /// The port's queues.
    pub(crate) fn mq(&self) -> &MultiQueue<T> {
        &self.mq
    }

    /// Re-caps the port's buffer (a buffer fault).
    pub(crate) fn set_cap_bytes(&mut self, cap_bytes: u64) {
        self.mq.set_cap_bytes(cap_bytes);
    }

    /// Queues `item` in queue `q` with no marking decision and no pool:
    /// a micro-sim's starting backlog.
    pub(crate) fn prefill(&mut self, q: usize, item: T) {
        let _ = self.mq.enqueue(q, item, 0);
    }

    /// Arrival of `item` of traffic class `class` (queue
    /// `class % num_queues`): marks it at the enqueue point, then admits
    /// it through `pool`, which books its bytes, or through the port's
    /// cap alone. A refused item is counted as a drop by whichever
    /// refused it. Returns whether the port marked it.
    // Arrival, departure and the decision run at every hop of every
    // packet: left to the inliner, they were called out of line and
    // `leafspine-paper` lost flows/s in paired perfbench runs.
    #[inline(always)]
    pub(crate) fn arrive(
        &mut self,
        class: usize,
        mut item: T,
        now: u64,
        pool: Option<&mut SharedPool>,
    ) -> bool {
        let q = class % self.mq.num_queues();
        item.set_enqueued_at_nanos(now);
        // Marking runs before admission: the decision sees the
        // occupancy the item found, and what a port refuses never
        // carries a signal anywhere.
        let pool_bytes = pool.as_ref().map(|p| p.used_bytes());
        let marked =
            self.mark_point == MarkPoint::Enqueue && self.decide(&mut item, q, pool_bytes, None);
        match pool {
            Some(pool) => {
                // A static pool admits everything and the port's cap
                // decides; under a shared policy the cap is lifted, so
                // an admitted item's enqueue fails only under a
                // fault-shrunk cap. The pool books only what the queues
                // took.
                let bytes = item.len_bytes();
                if pool.try_admit(self.pool_port as usize, q, self.mq.queue_bytes(q), bytes)
                    == Admit::Ok
                    && self.mq.enqueue(q, item, now).is_ok()
                {
                    pool.commit(bytes);
                }
            }
            None => {
                let _ = self.mq.enqueue(q, item, now);
            }
        }
        marked
    }

    /// Departure: when the port is idle, dequeues the scheduler's pick,
    /// releases its bytes from `pool`, and marks it at the dequeue point.
    /// The port stays busy until [`Port::finish`]. Returns the queue it
    /// left, the item, and whether the port marked it.
    #[inline(always)]
    pub(crate) fn depart(
        &mut self,
        now: u64,
        pool: Option<&mut SharedPool>,
    ) -> Option<(usize, T, bool)> {
        if self.busy {
            return None;
        }
        let (q, mut item) = self.mq.dequeue(now)?;
        let pool_bytes = pool.map(|pool| {
            pool.on_dequeue(self.pool_port as usize, q, item.len_bytes(), now);
            pool.used_bytes()
        });
        let sojourn = now.saturating_sub(item.enqueued_at_nanos());
        let marked = self.mark_point == MarkPoint::Dequeue
            && self.decide(&mut item, q, pool_bytes, Some(sojourn));
        self.busy = true;
        Some((q, item, marked))
    }

    /// The departed item has left the wire: the port may serve the next.
    pub(crate) fn finish(&mut self) {
        self.busy = false;
    }

    /// Runs the marking scheme on `item` in queue `q` and sets its CE
    /// bit when the scheme marks. Without a pool the port is its own.
    #[inline(always)]
    fn decide(
        &mut self,
        item: &mut T,
        q: usize,
        pool_bytes: Option<u64>,
        sojourn_nanos: Option<u64>,
    ) -> bool {
        let Some(marker) = self.marker.as_mut() else {
            return false;
        };
        if !item.markable() {
            return false;
        }
        let view = PacketPortView {
            mq: &self.mq,
            link_rate_bps: self.link_rate_bps,
            pool_bytes: pool_bytes.unwrap_or_else(|| self.mq.port_bytes()),
            sojourn_nanos,
        };
        let marked = marker.should_mark(&view, q).is_mark();
        if marked {
            item.mark();
        }
        marked
    }
}

/// What a marking scheme sees of a port at one decision.
struct PacketPortView<'a, T: SchedItem> {
    mq: &'a MultiQueue<T>,
    link_rate_bps: u64,
    pool_bytes: u64,
    sojourn_nanos: Option<u64>,
}

impl<T: SchedItem> PortView for PacketPortView<'_, T> {
    fn num_queues(&self) -> usize {
        self.mq.num_queues()
    }
    fn port_bytes(&self) -> u64 {
        self.mq.port_bytes()
    }
    fn queue_bytes(&self, q: usize) -> u64 {
        self.mq.queue_bytes(q)
    }
    fn pool_bytes(&self) -> u64 {
        self.pool_bytes
    }
    fn link_rate_bps(&self) -> u64 {
        self.link_rate_bps
    }
    fn packet_sojourn_nanos(&self) -> Option<u64> {
        self.sojourn_nanos
    }
    fn round_time_nanos(&self) -> Option<u64> {
        self.mq.scheduler().round_time_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPolicy;
    use crate::config::MarkingConfig;
    use crate::packet::{HEADER_BYTES, MTU_WIRE_BYTES};

    fn mtu(service: u16) -> Packet {
        let len = (MTU_WIRE_BYTES - HEADER_BYTES) as u32;
        Packet::data(0, 0, 1, service, 0, len, 0)
    }

    /// Two ports of one switch, wired as the World wires them, behind
    /// per-pool marking at `K` = 4 packets.
    fn two_ports(point: MarkPoint, buffer: BufferPolicy) -> (SharedPool, [Port<Packet>; 2]) {
        let cfg = SwitchConfig {
            marking: MarkingConfig::PerPool { threshold_pkts: 4 },
            mark_point: point,
            buffer,
            ..SwitchConfig::default()
        };
        let mut pool = SharedPool::new(buffer);
        let ports = [0, 1].map(|_| {
            let index = pool.attach_port(buffer, cfg.buffer_bytes, 8, 10_000_000_000);
            Port::switch(&cfg, 10_000_000_000, index)
        });
        (pool, ports)
    }

    #[test]
    fn a_shared_pool_lifts_the_port_cap() {
        let cfg = SwitchConfig::default();
        let port = Port::<Packet>::switch(&cfg, 10_000_000_000, 0);
        assert_eq!(port.mq().cap_bytes(), cfg.buffer_bytes);
        let shared = SwitchConfig {
            buffer: BufferPolicy::DynamicThreshold { alpha: 1.0 },
            ..cfg
        };
        let port = Port::<Packet>::switch(&shared, 10_000_000_000, 0);
        assert_eq!(
            port.mq().cap_bytes(),
            u64::MAX,
            "the pool admits instead of the port"
        );
    }

    /// Under `static` the pool admits nothing but counts every port's
    /// bytes, so the per-pool scheme reads the switch at both points:
    /// port 1 marks on port 0's backlog though it holds one packet.
    #[test]
    fn per_pool_marking_reads_the_switch_at_both_mark_points() {
        for point in [MarkPoint::Enqueue, MarkPoint::Dequeue] {
            let (mut pool, [mut hog, mut victim]) = two_ports(point, BufferPolicy::Static);
            for t in 0..6 {
                hog.arrive(0, mtu(0), t, Some(&mut pool));
            }
            assert_eq!(pool.used_bytes(), 6 * MTU_WIRE_BYTES);
            let marked_in = victim.arrive(0, mtu(0), 6, Some(&mut pool));
            let (_, pkt, marked_out) = victim.depart(7, Some(&mut pool)).expect("queued");
            assert_eq!(
                pool.used_bytes(),
                6 * MTU_WIRE_BYTES,
                "the departure released"
            );
            let want = match point {
                MarkPoint::Enqueue => (true, false),
                MarkPoint::Dequeue => (false, true),
            };
            assert_eq!((marked_in, marked_out), want, "one decision, at {point}");
            assert!(pkt.ce);
        }
    }

    /// A port serves one item at a time: nothing departs until the wire
    /// finishes the last one.
    #[test]
    fn a_busy_port_departs_nothing_until_it_finishes() {
        let mut nic = Port::<Packet>::nic(&HostConfig::default(), 10_000_000_000);
        for t in 0..2 {
            nic.arrive(3, mtu(3), t, None);
        }
        assert!(nic.depart(5, None).is_some());
        assert!(nic.depart(6, None).is_none(), "busy");
        nic.finish();
        let (q, pkt, _) = nic.depart(7, None).expect("the second packet");
        assert_eq!((q, pkt.enqueued_at_nanos), (0, 1), "a NIC has one queue");
    }
}
