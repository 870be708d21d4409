//! The packet-level transport endpoints: the [`Sender`]/[`Receiver`]
//! contract and the one TCP state machine behind it (`tcp.rs`).
//!
//! The endpoints are pure state machines: methods consume events and
//! return [`SenderOutput`]/[`ReceiverOutput`] describing packets to emit
//! and timers to arm, so they are unit-testable without the simulator.
//! The world stores one [`TransportSender`] and one [`TransportReceiver`]
//! per flow and drives them through the traits.
//!
//! Slow start, congestion avoidance, fast retransmit with NewReno
//! partial ACKs, RTO backoff, loss-episode accounting, app-rate pacing
//! and receiver reassembly are shared. Only the ECN reaction differs; it
//! is chosen once, at construction, from
//! [`TransportConfig::kind`](crate::config::TransportConfig::kind) and
//! [`TransportConfig::ecn_response`](crate::config::TransportConfig::ecn_response):
//!
//! | `kind`, `ecn_response` | Sender reaction | Receiver echo |
//! |---|---|---|
//! | `Dctcp`, `Dctcp` | per-window `alpha` EWMA, `cwnd ← cwnd·(1 − α/2)` at window end | CE per packet; a CE change forces an immediate ACK |
//! | `Dctcp`, `Classic` | the same per-window bookkeeping, but halves | as DCTCP |
//! | `NewReno`, any | RFC 3168: halve on the first ECN-Echo at most once per RTT, stamp CWR on the next data segment | ECE latched from CE until CWR |
//!
//! **PMSB(e)** (Algorithm 2 of the paper) is an end-host rule about
//! *which marks to honour*, not a congestion-control law: the sender
//! applies [`SelectiveBlindness`](pmsb::endpoint::SelectiveBlindness) to
//! each ACK's ECN-Echo (counting [`SenderStats::marks_seen`] and
//! [`SenderStats::marks_ignored`]) before the reaction sees it, whatever
//! the reaction.

mod tcp;

pub use tcp::{TransportReceiver, TransportSender};

use crate::packet::Packet;

/// A timer (re)arm request: fire `RtoTimer`/`AppResume` with this
/// generation at the given absolute time. Stale generations are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerArm {
    /// Generation to match when the timer fires.
    pub gen: u64,
    /// Absolute deadline in nanoseconds.
    pub at_nanos: u64,
}

/// What a sender wants done after processing an event.
#[derive(Debug, Default)]
pub struct SenderOutput {
    /// Packets to hand to the host NIC.
    pub packets: Vec<Packet>,
    /// Rearm the retransmission timer (if `Some`).
    pub rto: Option<TimerArm>,
    /// Schedule an application-rate resume tick (if `Some`).
    pub app_resume: Option<TimerArm>,
    /// The flow just completed (all bytes acknowledged).
    pub completed: bool,
}

/// Counters the experiments report per flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// ECN-Echo marks seen on ACKs.
    pub marks_seen: u64,
    /// Marks ignored by the PMSB(e) rule.
    pub marks_ignored: u64,
    /// Segments retransmitted (fast retransmit + partial ACKs).
    pub retransmissions: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Loss episodes: contiguous stretches from a first loss signal
    /// (fast retransmit or RTO) until the window outstanding at that
    /// moment was fully acknowledged.
    pub loss_episodes: u64,
    /// Total nanoseconds spent inside loss episodes — the flow's
    /// recovery time under faults.
    pub recovery_nanos: u64,
}

/// What a receiver wants done after an event.
#[derive(Debug, Default)]
pub struct ReceiverOutput {
    /// ACK to send back, if any.
    pub ack: Option<Packet>,
    /// Arm the delayed-ACK flush timer (if `Some`).
    pub delack: Option<TimerArm>,
}

/// The sender half of a transport: a pure state machine consuming
/// ACK/timer events and emitting [`SenderOutput`].
///
/// Implementations must keep at most one live retransmission timer
/// generation (see [`Sender::rto_deadline`]) and treat stale generations
/// as no-ops, so a driver can coalesce timer events.
pub trait Sender {
    /// Begins transmission: the initial-window burst plus timers.
    fn start(&mut self, now_nanos: u64) -> SenderOutput;
    /// Processes a cumulative ACK (`cum_ack`, ECN-Echo `ece`, echoed
    /// send timestamp `echo_sent_at_nanos`) arriving at `now_nanos`.
    fn on_ack(
        &mut self,
        cum_ack: u64,
        ece: bool,
        echo_sent_at_nanos: u64,
        now_nanos: u64,
    ) -> SenderOutput;
    /// Handles a retransmission timeout with generation `gen`.
    fn on_rto(&mut self, gen: u64, now_nanos: u64) -> SenderOutput;
    /// Handles an application-rate resume tick with generation `gen`.
    fn on_app_resume(&mut self, gen: u64, now_nanos: u64) -> SenderOutput;
    /// The currently armed retransmission deadline, if any. Lets a
    /// driver keep a single outstanding timer event per flow: a stale
    /// fire consults this to re-arm at the live deadline.
    fn rto_deadline(&self) -> Option<TimerArm>;
    /// Hands a drained [`SenderOutput::packets`] buffer back for reuse.
    fn recycle(&mut self, buf: Vec<Packet>);
    /// Turns on per-ACK RTT sampling (for the RTT-distribution figures).
    fn enable_rtt_trace(&mut self);
    /// Collected RTT samples in nanoseconds, if tracing was enabled.
    fn rtt_samples(&self) -> Option<&[u64]>;
    /// Per-flow counters.
    fn stats(&self) -> SenderStats;
    /// The flow identifier.
    fn flow_id(&self) -> u64;
    /// Total bytes this flow transfers (`u64::MAX` = unbounded).
    fn size_bytes(&self) -> u64;
    /// The flow's start time in nanoseconds.
    fn start_nanos(&self) -> u64;
    /// `true` once every byte has been acknowledged.
    fn is_completed(&self) -> bool;
}

/// The receiver half of a transport: reassembles segments and generates
/// cumulative ACKs with the transport's ECN-Echo semantics.
pub trait Receiver {
    /// Processes a data packet arriving at `now_nanos`; returns the ACK
    /// to send (if any) and a delayed-ACK timer to arm.
    fn on_data(&mut self, pkt: &Packet, now_nanos: u64) -> ReceiverOutput;
    /// Handles the delayed-ACK flush timer; emits the pending ACK if the
    /// generation is current and packets are still unacknowledged.
    fn on_delack_timer(&mut self, gen: u64) -> Option<Packet>;
}
