//! Packets on the wire.

use pmsb_sched::SchedItem;

/// IP/TCP header bytes added to every segment's payload on the wire.
pub const HEADER_BYTES: u64 = 40;
/// Wire size of a pure ACK.
pub const ACK_WIRE_BYTES: u64 = 64;
/// Default maximum segment size (payload bytes); 1460 + 40 = a 1500-byte
/// MTU frame, matching the paper's packet-denominated thresholds.
pub const DEFAULT_MSS: u64 = 1460;
/// Wire bytes of one full-MSS frame (the paper's "packet" unit).
pub const MTU_WIRE_BYTES: u64 = DEFAULT_MSS + HEADER_BYTES;

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment covering payload bytes `[seq, seq + len)`.
    Data {
        /// First payload byte number.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
    },
    /// A cumulative acknowledgement.
    Ack {
        /// All payload bytes below this number have been received.
        cum_ack: u64,
        /// ECN-Echo: the acknowledged segment carried a CE mark.
        ece: bool,
    },
    /// Connection teardown notice (streaming mode only). Sent by the
    /// source host once its sender half has completed, so the destination
    /// host can free the receiver half of the flow's slab slot. Fins ride
    /// the normal data path — same routing and queueing as every other
    /// packet. A dropped Fin merely leaks one slot.
    Fin,
}

/// One packet in flight.
///
/// Packets carry two timestamps: `sent_at_nanos` (set by the data sender
/// and echoed back on the ACK, giving the sender an exact per-ACK RTT —
/// the signal PMSB(e) needs) and `enqueued_at_nanos` (stamped at each
/// switch queue admission, giving TCN its sojourn time).
///
/// Every hop moves a packet by value, so its fields are as narrow as the
/// inputs [`Experiment::validate`](crate::experiment::Experiment::validate)
/// accepts: host indices in `u32`, the service in `u16`, and frame and
/// payload lengths in `u32`. A packet is at most 64 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// The flow this packet belongs to.
    pub flow_id: u64,
    /// Originating host (node id).
    pub src_host: u32,
    /// Destination host (node id).
    pub dst_host: u32,
    /// Service class; switches map it onto a queue.
    pub service: u16,
    /// Payload + headers as buffered and serialized.
    pub wire_bytes: u32,
    /// ECN-Capable Transport: eligible for CE marking.
    pub ect: bool,
    /// Congestion Experienced: set by a switch's marking scheme.
    pub ce: bool,
    /// Congestion Window Reduced (RFC 3168): set by a classic-ECN sender
    /// on the first data segment after a reduction, telling the receiver
    /// to stop echoing ECE. DCTCP does not use it.
    pub cwr: bool,
    /// Payload damaged in flight (fault injection): the next hop's
    /// checksum fails and the packet is discarded on arrival.
    pub corrupted: bool,
    /// When the data sender emitted the segment this packet (or the
    /// segment an ACK acknowledges) left the sender; echoed in ACKs.
    pub sent_at_nanos: u64,
    /// When this packet entered the current switch queue (per-hop).
    pub enqueued_at_nanos: u64,
    /// Payload descriptor.
    pub kind: PacketKind,
}

impl Packet {
    /// Builds a data segment of `len` payload bytes; `len` plus the
    /// headers must fit in `u32`, which
    /// [`TransportSender::new`](crate::transport::TransportSender::new)
    /// checks for its MSS.
    pub fn data(
        flow_id: u64,
        src_host: u32,
        dst_host: u32,
        service: u16,
        seq: u64,
        len: u32,
        now_nanos: u64,
    ) -> Packet {
        Packet {
            flow_id,
            src_host,
            dst_host,
            service,
            wire_bytes: len + HEADER_BYTES as u32,
            ect: true,
            ce: false,
            cwr: false,
            corrupted: false,
            sent_at_nanos: now_nanos,
            enqueued_at_nanos: now_nanos,
            kind: PacketKind::Data { seq, len },
        }
    }

    /// Builds the ACK for a received segment. ACKs are not ECT (they are
    /// never CE-marked), as in standard ECN.
    pub fn ack(
        flow_id: u64,
        src_host: u32,
        dst_host: u32,
        service: u16,
        cum_ack: u64,
        ece: bool,
        echo_sent_at_nanos: u64,
    ) -> Packet {
        Packet {
            flow_id,
            src_host,
            dst_host,
            service,
            wire_bytes: ACK_WIRE_BYTES as u32,
            ect: false,
            ce: false,
            cwr: false,
            corrupted: false,
            sent_at_nanos: echo_sent_at_nanos,
            enqueued_at_nanos: echo_sent_at_nanos,
            kind: PacketKind::Ack { cum_ack, ece },
        }
    }

    /// Builds a teardown notice for a completed flow. Fin packets are
    /// ACK-sized and, like ACKs, not ECT.
    pub fn fin(flow_id: u64, src_host: u32, dst_host: u32, service: u16, now_nanos: u64) -> Packet {
        Packet {
            flow_id,
            src_host,
            dst_host,
            service,
            wire_bytes: ACK_WIRE_BYTES as u32,
            ect: false,
            ce: false,
            cwr: false,
            corrupted: false,
            sent_at_nanos: now_nanos,
            enqueued_at_nanos: now_nanos,
            kind: PacketKind::Fin,
        }
    }

    /// `true` for data segments.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data { .. })
    }
}

impl SchedItem for Packet {
    fn len_bytes(&self) -> u64 {
        u64::from(self.wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_wire_size_includes_header() {
        let p = Packet::data(1, 0, 2, 0, 0, DEFAULT_MSS as u32, 5);
        assert_eq!(u64::from(p.wire_bytes), MTU_WIRE_BYTES);
        assert!(p.ect);
        assert!(!p.ce);
        assert!(p.is_data());
        assert_eq!(p.len_bytes(), 1500);
    }

    #[test]
    fn ack_is_small_and_not_ect() {
        let a = Packet::ack(1, 2, 0, 0, 1460, true, 42);
        assert_eq!(u64::from(a.wire_bytes), ACK_WIRE_BYTES);
        assert!(!a.ect);
        assert!(!a.is_data());
        assert_eq!(a.sent_at_nanos, 42, "ACK echoes the data timestamp");
        match a.kind {
            PacketKind::Ack { cum_ack, ece } => {
                assert_eq!(cum_ack, 1460);
                assert!(ece);
            }
            _ => panic!("not an ack"),
        }
    }

    /// Every hop moves a packet by value and every `Deliver` event holds
    /// one: it must stay within 64 bytes, a cache line's worth.
    #[test]
    fn a_packet_fits_64_bytes() {
        assert!(std::mem::size_of::<Packet>() <= 64);
    }
}
