//! The TCP endpoints every packet-level flow runs, in one of three ECN
//! reactions.
//!
//! [`TransportSender`] holds the loss machinery all reactions share:
//! slow start, congestion avoidance, fast retransmit/recovery on triple
//! duplicate ACKs with NewReno partial ACKs, RTO with exponential
//! backoff, loss-episode accounting, app-rate pacing and a recycled
//! packet buffer. In front of it sits the PMSB(e) filter. The ECN
//! reaction is a small private state chosen once from
//! `(TransportConfig::kind, ecn_response)`; see the table in
//! [the module docs](super).
//!
//! [`TransportReceiver`] reassembles out-of-order arrivals, coalesces
//! ACKs and echoes the sender's timestamp (exact per-ACK RTT). Its
//! ECN-Echo follows the sender's kind: DCTCP echoes each packet's CE,
//! NewReno latches ECE from a CE mark until a CWR arrives.

use std::collections::BTreeMap;

use pmsb::endpoint::SelectiveBlindness;

use crate::config::{EcnResponse, TransportConfig, TransportKind};
use crate::packet::{Packet, PacketKind};

use super::{Receiver, ReceiverOutput, Sender, SenderOutput, SenderStats, TimerArm};

/// The sender's ECN reaction: the one part of the state machine that
/// differs between transports.
#[derive(Debug)]
enum Reaction {
    /// DCTCP's per-window bookkeeping: one observation window per RTT,
    /// closed when the cumulative ACK reaches `win_end`. A window with a
    /// marked byte cuts `cwnd` once, at its end.
    Window {
        /// EWMA gain for `alpha`.
        g: f64,
        /// Halve (classic ECN) instead of cutting by `1 − α/2`.
        halve: bool,
        /// The marked-fraction estimate.
        alpha: f64,
        win_end: u64,
        acked: u64,
        marked: u64,
        /// A mark was honoured this window, so growth waits for its end
        /// (TCP CWR).
        cwr: bool,
    },
    /// RFC 3168 §6.1.2: halve on ECN-Echo at most once per round trip.
    Rfc3168 {
        /// While `snd_una < cwr_end` this round trip's reduction (by a
        /// mark, a fast retransmit or an RTO) stands: further ECN-Echo is
        /// ignored and growth waits.
        cwr_end: u64,
        /// The next outgoing data segment carries CWR, so the receiver
        /// stops echoing.
        signal_cwr: bool,
    },
}

/// The sender state machine for one flow.
#[derive(Debug)]
pub struct TransportSender {
    // Identity.
    flow_id: u64,
    src_host: usize,
    dst_host: usize,
    service: usize,
    size_bytes: u64,
    app_rate_bps: Option<u64>,
    start_nanos: u64,
    // Configuration.
    mss: u64,
    rto_min_nanos: u64,
    max_cwnd: f64,
    /// PMSB(e) (Algorithm 2): marks on ACKs whose RTT is below the
    /// threshold never reach the reaction. Disabled is a zero threshold,
    /// which no RTT is below.
    pmsbe: SelectiveBlindness,
    reaction: Reaction,
    // Congestion state (bytes).
    cwnd: f64,
    ssthresh: f64,
    snd_nxt: u64,
    snd_una: u64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u64,
    /// Open loss episode, if any: `(start_nanos, target)` — closed (and
    /// counted into [`SenderStats`]) once `snd_una` reaches `target`.
    episode: Option<(u64, u64)>,
    // RTT estimation / RTO.
    srtt_nanos: Option<f64>,
    rttvar_nanos: f64,
    rto_nanos: u64,
    backoff: u32,
    rto_gen: u64,
    rto_armed: bool,
    rto_deadline_nanos: u64,
    app_gen: u64,
    completed: bool,
    // Optional RTT trace.
    rtt_samples: Option<Vec<u64>>,
    stats: SenderStats,
    /// Recycled packet buffer handed out through [`SenderOutput::packets`]
    /// and returned via [`Sender::recycle`], so the steady-state event
    /// path does not allocate per ACK.
    spare_buf: Vec<Packet>,
}

impl TransportSender {
    /// Creates the sender for a flow of `size_bytes` (use [`u64::MAX`]
    /// for a long-lived flow) starting at `start_nanos`, with the ECN
    /// reaction [`TransportConfig::kind`] and
    /// [`TransportConfig::ecn_response`] select. `app_rate_bps` caps the
    /// application's offered rate (the paper's "start a 5 Gbps TCP
    /// flow").
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        flow_id: u64,
        src_host: usize,
        dst_host: usize,
        service: usize,
        size_bytes: u64,
        app_rate_bps: Option<u64>,
        start_nanos: u64,
        config: &TransportConfig,
    ) -> Self {
        let reaction = match config.kind {
            TransportKind::Dctcp => Reaction::Window {
                g: config.g,
                halve: config.ecn_response == EcnResponse::Classic,
                alpha: 0.0,
                win_end: 0,
                acked: 0,
                marked: 0,
                cwr: false,
            },
            TransportKind::NewReno => Reaction::Rfc3168 {
                cwr_end: 0,
                signal_cwr: false,
            },
        };
        TransportSender {
            flow_id,
            src_host,
            dst_host,
            service,
            size_bytes,
            app_rate_bps,
            start_nanos,
            mss: config.mss,
            rto_min_nanos: config.rto_min_nanos,
            max_cwnd: config.max_cwnd_bytes.max(config.mss) as f64,
            pmsbe: SelectiveBlindness::new(config.pmsbe_rtt_threshold_nanos.unwrap_or(0)),
            reaction,
            cwnd: (config.init_cwnd_pkts * config.mss) as f64,
            ssthresh: f64::INFINITY,
            snd_nxt: 0,
            snd_una: 0,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            episode: None,
            srtt_nanos: None,
            rttvar_nanos: 0.0,
            rto_nanos: config.rto_init_nanos,
            backoff: 0,
            rto_gen: 0,
            rto_armed: false,
            rto_deadline_nanos: 0,
            app_gen: 0,
            completed: false,
            rtt_samples: None,
            stats: SenderStats::default(),
            spare_buf: Vec::new(),
        }
    }

    /// A fresh [`SenderOutput`] backed by the recycled packet buffer.
    fn new_output(&mut self) -> SenderOutput {
        SenderOutput {
            packets: std::mem::take(&mut self.spare_buf),
            ..SenderOutput::default()
        }
    }

    /// Bytes the application has made available by `now` (rate-limited
    /// sources accrue credit linearly; unbounded otherwise).
    fn app_allowed_bytes(&self, now_nanos: u64) -> u64 {
        match self.app_rate_bps {
            None => self.size_bytes,
            Some(rate) => {
                let elapsed = now_nanos.saturating_sub(self.start_nanos) as u128;
                let bytes = rate as u128 * elapsed / 8 / 1_000_000_000;
                (bytes.min(self.size_bytes as u128)) as u64
            }
        }
    }

    /// The data segment `[seq, seq + len)`; the first one after an
    /// RFC 3168 reduction carries CWR.
    fn segment(&mut self, seq: u64, len: u64, now_nanos: u64) -> Packet {
        let mut pkt = Packet::data(
            self.flow_id,
            self.src_host,
            self.dst_host,
            self.service,
            seq,
            len,
            now_nanos,
        );
        if let Reaction::Rfc3168 { signal_cwr, .. } = &mut self.reaction {
            pkt.cwr = std::mem::take(signal_cwr);
        }
        pkt
    }

    /// Emits as many new full segments as the window and application
    /// allow; schedules an app-resume tick if the application is the
    /// binding constraint.
    fn emit_new(&mut self, now_nanos: u64, out: &mut SenderOutput) {
        let win_limit = self.snd_una + self.cwnd.min(self.max_cwnd) as u64;
        let app_limit = self.app_allowed_bytes(now_nanos);
        loop {
            let len = self.mss.min(self.size_bytes - self.snd_nxt);
            if len == 0 || self.snd_nxt + len > win_limit {
                return; // done, or window-limited (ACK clock will resume)
            }
            if self.snd_nxt + len > app_limit {
                break; // application-limited: need a timer
            }
            let pkt = self.segment(self.snd_nxt, len, now_nanos);
            out.packets.push(pkt);
            self.snd_nxt += len;
        }
        // Application-limited: wake when credit for one segment accrues.
        if let Some(rate) = self.app_rate_bps {
            let target = self.snd_nxt + self.mss.min(self.size_bytes - self.snd_nxt);
            let at =
                self.start_nanos + (target as u128 * 8 * 1_000_000_000 / rate as u128) as u64 + 1;
            self.app_gen += 1;
            out.app_resume = Some(TimerArm {
                gen: self.app_gen,
                at_nanos: at.max(now_nanos + 1),
            });
        }
    }

    /// Opens a loss episode at the first loss signal; a signal during an
    /// open episode extends nothing (the episode already covers it).
    fn begin_episode(&mut self, now_nanos: u64) {
        if self.episode.is_none() {
            self.episode = Some((now_nanos, self.snd_nxt));
        }
    }

    /// Retransmits the segment at `snd_una`.
    fn retransmit_head(&mut self, now_nanos: u64, out: &mut SenderOutput) {
        let len = self.mss.min(self.size_bytes - self.snd_una);
        debug_assert!(len > 0, "retransmit with nothing outstanding");
        let pkt = self.segment(self.snd_una, len, now_nanos);
        out.packets.push(pkt);
        self.stats.retransmissions += 1;
    }

    /// The slow-start threshold a halving leaves: half the window, at
    /// least two segments.
    fn halved(&self) -> f64 {
        (self.cwnd / 2.0).max(2.0 * self.mss as f64)
    }

    /// RFC 3168 counts a loss response as the reduction for the data
    /// sent so far: an ECN-Echo before `snd_una` reaches `end` must not
    /// halve again. The per-window reactions keep no such state.
    fn reduced_until(&mut self, end: u64) {
        if let Reaction::Rfc3168 { cwr_end, .. } = &mut self.reaction {
            *cwr_end = end;
        }
    }

    /// RFC 3168 reacts to an ECN-Echo as it arrives, duplicate ACK or
    /// not: halve at most once per round trip, and not during loss
    /// recovery, which already reduced the window. Returns whether this
    /// echo cut the window.
    fn react_to_echo(&mut self) -> bool {
        match &mut self.reaction {
            Reaction::Rfc3168 {
                cwr_end,
                signal_cwr,
            } if !self.in_recovery && self.snd_una >= *cwr_end => {
                *cwr_end = self.snd_nxt;
                *signal_cwr = true;
            }
            _ => return false,
        }
        self.ssthresh = self.halved();
        self.cwnd = self.ssthresh;
        true
    }

    /// Closes the per-window reaction's observation window once the
    /// cumulative ACK reaches its end: update `alpha`, cut the window if
    /// any byte was marked, open the next window.
    fn end_window_at(&mut self, cum_ack: u64) {
        let Reaction::Window {
            g,
            halve,
            alpha,
            win_end,
            acked,
            marked,
            cwr,
        } = &mut self.reaction
        else {
            return;
        };
        if cum_ack < *win_end {
            return;
        }
        if *acked > 0 {
            let f = *marked as f64 / *acked as f64;
            *alpha = (1.0 - *g) * *alpha + *g * f;
            if *marked > 0 {
                let factor = if *halve { 0.5 } else { 1.0 - *alpha / 2.0 };
                self.cwnd = (self.cwnd * factor).max(self.mss as f64);
                self.ssthresh = self.cwnd;
            }
        }
        *win_end = self.snd_nxt;
        *acked = 0;
        *marked = 0;
        *cwr = false;
    }

    fn update_rtt(&mut self, rtt_nanos: u64) {
        let r = rtt_nanos as f64;
        match self.srtt_nanos {
            None => {
                self.srtt_nanos = Some(r);
                self.rttvar_nanos = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar_nanos = 0.75 * self.rttvar_nanos + 0.25 * (srtt - r).abs();
                self.srtt_nanos = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let base = self.srtt_nanos.unwrap() + 4.0 * self.rttvar_nanos;
        self.rto_nanos = (base as u64).max(self.rto_min_nanos).min(1_000_000_000);
    }

    fn arm_rto(&mut self, now_nanos: u64, out: &mut SenderOutput) {
        self.rto_gen += 1;
        if self.snd_nxt == self.snd_una {
            // Nothing outstanding: no timer.
            self.rto_armed = false;
            return;
        }
        self.rto_armed = true;
        let deadline = now_nanos + (self.rto_nanos << self.backoff).min(4_000_000_000);
        self.rto_deadline_nanos = deadline;
        out.rto = Some(TimerArm {
            gen: self.rto_gen,
            at_nanos: deadline,
        });
    }

    fn cancel_timers(&mut self) {
        self.rto_gen += 1;
        self.rto_armed = false;
        self.app_gen += 1;
    }

    /// Current congestion window in bytes.
    #[cfg(test)]
    fn cwnd_bytes(&self) -> f64 {
        self.cwnd
    }

    /// The per-window reaction's `alpha` estimate (0 under RFC 3168).
    #[cfg(test)]
    fn alpha(&self) -> f64 {
        match self.reaction {
            Reaction::Window { alpha, .. } => alpha,
            Reaction::Rfc3168 { .. } => 0.0,
        }
    }
}

impl Sender for TransportSender {
    fn start(&mut self, now_nanos: u64) -> SenderOutput {
        let mut out = self.new_output();
        self.emit_new(now_nanos, &mut out);
        if let Reaction::Window { win_end, .. } = &mut self.reaction {
            *win_end = self.snd_nxt;
        }
        self.arm_rto(now_nanos, &mut out);
        out
    }

    fn on_ack(
        &mut self,
        cum_ack: u64,
        ece: bool,
        echo_sent_at_nanos: u64,
        now_nanos: u64,
    ) -> SenderOutput {
        let mut out = self.new_output();
        if self.completed {
            return out;
        }
        // Exact per-ACK RTT from the timestamp echo.
        let rtt = now_nanos.saturating_sub(echo_sent_at_nanos);
        // PMSB(e), Algorithm 2: a mark whose RTT is below the threshold
        // is a victim of per-port marking, not congestion, so its echo is
        // cleared before the reaction sees it.
        let mut ece = ece;
        if ece {
            self.stats.marks_seen += 1;
            if self.pmsbe.ignore_mark(true, rtt) {
                self.stats.marks_ignored += 1;
                ece = false;
            }
        }
        self.update_rtt(rtt);
        if let Some(samples) = self.rtt_samples.as_mut() {
            samples.push(rtt);
        }
        let reduced_now = ece && self.react_to_echo();

        if cum_ack > self.snd_una {
            let newly = cum_ack - self.snd_una;
            self.snd_una = cum_ack;
            self.dup_acks = 0;
            self.backoff = 0;
            // Close the loss episode once the window outstanding at its
            // start is fully acknowledged: recovery is complete.
            if let Some((start, target)) = self.episode {
                if self.snd_una >= target {
                    self.stats.loss_episodes += 1;
                    self.stats.recovery_nanos += now_nanos.saturating_sub(start);
                    self.episode = None;
                }
            }
            // Count the window's marked bytes; growth waits while this
            // round trip's reduction stands (one response per RTT).
            let hold = match &mut self.reaction {
                Reaction::Window {
                    acked, marked, cwr, ..
                } => {
                    *acked += newly;
                    if ece {
                        *marked += newly;
                        *cwr = true;
                    }
                    *cwr
                }
                Reaction::Rfc3168 { cwr_end, .. } => reduced_now || self.snd_una < *cwr_end,
            };
            if self.in_recovery {
                if self.snd_una >= self.recover {
                    self.in_recovery = false;
                    // Deflate to ssthresh after recovery.
                    self.cwnd = self.ssthresh.max(self.mss as f64);
                } else {
                    // NewReno partial ACK: the next segment is also lost.
                    self.retransmit_head(now_nanos, &mut out);
                }
            } else if hold {
                // CWR: no growth until the reduced window is acknowledged.
            } else if self.cwnd < self.ssthresh {
                self.cwnd += newly as f64; // slow start
            } else {
                self.cwnd += self.mss as f64 * newly as f64 / self.cwnd; // CA
            }
            self.cwnd = self.cwnd.min(self.max_cwnd);
            self.end_window_at(cum_ack);
            if self.snd_una >= self.size_bytes {
                self.completed = true;
                self.cancel_timers();
                out.completed = true;
                return out;
            }
            self.emit_new(now_nanos, &mut out);
            self.arm_rto(now_nanos, &mut out);
        } else {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery && self.snd_nxt > self.snd_una {
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.begin_episode(now_nanos);
                self.ssthresh = self.halved();
                self.cwnd = self.ssthresh;
                self.reduced_until(self.recover);
                self.retransmit_head(now_nanos, &mut out);
                self.arm_rto(now_nanos, &mut out);
            }
        }
        out
    }

    fn on_rto(&mut self, gen: u64, now_nanos: u64) -> SenderOutput {
        let mut out = self.new_output();
        if self.completed || gen != self.rto_gen || !self.rto_armed {
            return out; // stale timer
        }
        self.stats.timeouts += 1;
        self.begin_episode(now_nanos);
        self.ssthresh = self.halved();
        self.cwnd = self.mss as f64;
        self.in_recovery = false;
        self.dup_acks = 0;
        self.reduced_until(self.snd_nxt);
        self.backoff = (self.backoff + 1).min(10);
        self.retransmit_head(now_nanos, &mut out);
        self.arm_rto(now_nanos, &mut out);
        out
    }

    fn on_app_resume(&mut self, gen: u64, now_nanos: u64) -> SenderOutput {
        let mut out = self.new_output();
        if self.completed || gen != self.app_gen {
            return out;
        }
        self.emit_new(now_nanos, &mut out);
        if self.snd_nxt > self.snd_una {
            self.arm_rto(now_nanos, &mut out);
        }
        out
    }

    fn rto_deadline(&self) -> Option<TimerArm> {
        (self.rto_armed && !self.completed).then_some(TimerArm {
            gen: self.rto_gen,
            at_nanos: self.rto_deadline_nanos,
        })
    }

    fn recycle(&mut self, mut buf: Vec<Packet>) {
        buf.clear();
        if buf.capacity() > self.spare_buf.capacity() {
            self.spare_buf = buf;
        }
    }

    fn enable_rtt_trace(&mut self) {
        self.rtt_samples = Some(Vec::new());
    }

    fn rtt_samples(&self) -> Option<&[u64]> {
        self.rtt_samples.as_deref()
    }

    fn stats(&self) -> SenderStats {
        self.stats
    }

    fn flow_id(&self) -> u64 {
        self.flow_id
    }

    fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    fn start_nanos(&self) -> u64 {
        self.start_nanos
    }

    fn is_completed(&self) -> bool {
        self.completed
    }
}

/// How the receiver sets ECN-Echo, after the sender's kind.
#[derive(Debug)]
enum Echo {
    /// DCTCP: echo each packet's CE. Holds the last CE seen; a change
    /// forces an immediate ACK, so the sender's `alpha` stays faithful
    /// under coalescing.
    PerPacket(bool),
    /// RFC 3168: latched by CE, cleared by CWR. The latch carries the
    /// signal through coalescing, so a CE change forces nothing.
    Latch(bool),
}

/// The receiver for one flow: reassembles segments and generates
/// cumulative ACKs with ECN-Echo and timestamp echo.
///
/// With `ack_every = 1` (the default) every data packet is ACKed
/// immediately. With `ack_every = m > 1` the receiver coalesces ACKs;
/// an out-of-order arrival, a gap fill, a duplicate, the flush timer
/// and (under DCTCP) a change of the CE state force an immediate ACK.
#[derive(Debug)]
pub struct TransportReceiver {
    flow_id: u64,
    rcv_nxt: u64,
    /// Out-of-order intervals `start → end` beyond `rcv_nxt`.
    ooo: BTreeMap<u64, u64>,
    // Delayed-ACK state.
    ack_every: u64,
    delack_timeout_nanos: u64,
    pending: u64,
    delack_gen: u64,
    echo: Echo,
    /// Addressing/timestamp template from the latest data packet, for
    /// timer-generated ACKs: `(src, dst, service, sent_at)`.
    last_data: Option<(usize, usize, usize, u64)>,
}

impl TransportReceiver {
    /// Creates the receiver [`TransportConfig::kind`] selects, coalescing
    /// ACKs to one per [`TransportConfig::ack_every_packets`] data
    /// packets, flushed after [`TransportConfig::delack_timeout_nanos`]
    /// of silence.
    ///
    /// # Panics
    ///
    /// Panics if `ack_every_packets` is zero.
    pub fn new(flow_id: u64, config: &TransportConfig) -> Self {
        assert!(config.ack_every_packets > 0, "ack_every must be at least 1");
        TransportReceiver {
            flow_id,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ack_every: config.ack_every_packets,
            delack_timeout_nanos: config.delack_timeout_nanos,
            pending: 0,
            delack_gen: 0,
            echo: match config.kind {
                TransportKind::Dctcp => Echo::PerPacket(false),
                TransportKind::NewReno => Echo::Latch(false),
            },
            last_data: None,
        }
    }

    /// Builds a cumulative ACK carrying the current ECN-Echo, consuming
    /// the pending count and invalidating any armed timer.
    fn make_ack(&mut self) -> Packet {
        self.pending = 0;
        self.delack_gen += 1;
        let (src, dst, service, sent_at) = self
            .last_data
            .expect("ACK generated before any data packet");
        let (Echo::PerPacket(ece) | Echo::Latch(ece)) = self.echo;
        // ACK travels dst -> src, echoing the ECN state and the timestamp.
        Packet::ack(self.flow_id, dst, src, service, self.rcv_nxt, ece, sent_at)
    }

    /// Highest in-order byte received so far.
    #[cfg(test)]
    fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }
}

impl Receiver for TransportReceiver {
    fn on_data(&mut self, pkt: &Packet, now_nanos: u64) -> ReceiverOutput {
        assert_eq!(pkt.flow_id, self.flow_id, "packet for wrong flow");
        let PacketKind::Data { seq, len } = pkt.kind else {
            panic!("receiver got a non-data packet");
        };
        let ce_changed = match &mut self.echo {
            Echo::PerPacket(ce) => std::mem::replace(ce, pkt.ce) != pkt.ce,
            // CWR acknowledges the echo; a segment carrying both CWR and
            // a fresh CE mark re-latches.
            Echo::Latch(latched) => {
                *latched = pkt.ce || (*latched && !pkt.cwr);
                false
            }
        };
        let in_order = seq == self.rcv_nxt;
        let had_gap = !self.ooo.is_empty();
        let end = seq + len;
        if end > self.rcv_nxt {
            // Record the new interval (may overlap existing ones).
            let entry = self.ooo.entry(seq.max(self.rcv_nxt)).or_insert(0);
            *entry = (*entry).max(end);
            // Advance rcv_nxt over any now-contiguous intervals.
            while let Some((&s, &e)) = self.ooo.first_key_value() {
                if s > self.rcv_nxt {
                    break;
                }
                self.rcv_nxt = self.rcv_nxt.max(e);
                self.ooo.pop_first();
            }
        }
        self.last_data = Some((pkt.src_host, pkt.dst_host, pkt.service, pkt.sent_at_nanos));
        self.pending += 1;
        // Immediate-ACK triggers: per-packet mode, coalescing quota
        // reached, a DCTCP CE change, or anything that looks like
        // loss/reordering (dup, gap, or gap-fill) — those ACKs drive fast
        // retransmit and must not be delayed (RFC 5681).
        let immediate = self.pending >= self.ack_every
            || ce_changed
            || !in_order
            || had_gap
            || !self.ooo.is_empty();
        if immediate {
            ReceiverOutput {
                ack: Some(self.make_ack()),
                delack: None,
            }
        } else {
            self.delack_gen += 1;
            ReceiverOutput {
                ack: None,
                delack: Some(TimerArm {
                    gen: self.delack_gen,
                    at_nanos: now_nanos + self.delack_timeout_nanos,
                }),
            }
        }
    }

    fn on_delack_timer(&mut self, gen: u64) -> Option<Packet> {
        if gen != self.delack_gen || self.pending == 0 {
            return None;
        }
        Some(self.make_ack())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reaction, as the `(kind, ecn_response)` pair that selects it.
    type Choice = (TransportKind, EcnResponse);

    const DCTCP: Choice = (TransportKind::Dctcp, EcnResponse::Dctcp);
    const CLASSIC: Choice = (TransportKind::Dctcp, EcnResponse::Classic);
    const NEWRENO: Choice = (TransportKind::NewReno, EcnResponse::Dctcp);
    const REACTIONS: [Choice; 3] = [DCTCP, CLASSIC, NEWRENO];

    /// The configuration selecting `reaction`, with a 2-segment initial
    /// window.
    fn config((kind, ecn_response): Choice) -> TransportConfig {
        TransportConfig {
            kind,
            ecn_response,
            init_cwnd_pkts: 2,
            ..TransportConfig::default()
        }
    }

    fn sender(reaction: Choice, size: u64) -> TransportSender {
        TransportSender::new(1, 0, 9, 0, size, None, 0, &config(reaction))
    }

    fn receiver(reaction: Choice, flow_id: u64, ack_every: u64) -> TransportReceiver {
        let cfg = TransportConfig {
            ack_every_packets: ack_every,
            ..config(reaction)
        };
        TransportReceiver::new(flow_id, &cfg)
    }

    fn data_span(p: &Packet) -> (u64, u64) {
        let PacketKind::Data { seq, len } = p.kind else {
            unreachable!("senders emit data")
        };
        (seq, len)
    }

    fn ack_of(p: &Packet) -> (u64, bool) {
        let PacketKind::Ack { cum_ack, ece } = p.kind else {
            unreachable!("receivers emit ACKs")
        };
        (cum_ack, ece)
    }

    /// Drives a `size`-byte flow's sender and receiver back-to-back with
    /// a fixed 10 µs one-way delay, CE-marking data packets per `marks`,
    /// and returns the number of ACK round trips until completion.
    fn run_loopback(reaction: Choice, size: u64, mut marks: impl FnMut(u64) -> bool) -> u64 {
        let mut s = sender(reaction, size);
        let mut r = receiver(reaction, 1, 1);
        let mut now = 0u64;
        let mut in_flight: Vec<Packet> = s.start(now).packets;
        let mut rounds = 0;
        while !s.is_completed() {
            rounds += 1;
            assert!(rounds < 100_000, "{reaction:?}: transfer did not complete");
            now += 10_000;
            let mut acks = Vec::new();
            for mut p in in_flight.drain(..) {
                if p.ect && marks(now) {
                    p.ce = true;
                }
                acks.push(r.on_data(&p, now).ack.expect("per-packet ACKs"));
            }
            now += 10_000;
            let mut next = Vec::new();
            for a in acks {
                let (cum_ack, ece) = ack_of(&a);
                next.extend(s.on_ack(cum_ack, ece, a.sent_at_nanos, now).packets);
            }
            in_flight = next;
        }
        rounds
    }

    /// ACKs every packet of `packets` cumulatively at `now`, each echo
    /// given by `ece`, and returns what the sender sent in reply.
    fn ack_window(
        s: &mut TransportSender,
        packets: &[Packet],
        cum: &mut u64,
        now: u64,
        mut ece: impl FnMut() -> bool,
    ) -> Vec<Packet> {
        let mut next = Vec::new();
        for p in packets {
            let (seq, len) = data_span(p);
            *cum = (*cum).max(seq + len);
            next.extend(s.on_ack(*cum, ece(), p.sent_at_nanos, now).packets);
        }
        next
    }

    /// Grows `s` unmarked for `rounds` round trips of 100 µs; returns
    /// the outstanding window, the cumulative ACK and the clock.
    fn grow(s: &mut TransportSender, rounds: usize) -> (Vec<Packet>, u64, u64) {
        let mut packets = s.start(0).packets;
        let (mut cum, mut now) = (0u64, 100_000u64);
        for _ in 0..rounds {
            packets = ack_window(s, &packets, &mut cum, now, || false);
            now += 100_000;
        }
        (packets, cum, now)
    }

    #[test]
    fn initial_window_burst() {
        for reaction in REACTIONS {
            let mut s = sender(reaction, 100 * 1460);
            let out = s.start(0);
            assert_eq!(out.packets.len(), 2, "{reaction:?}: init cwnd of 2");
            assert!(out.rto.is_some(), "{reaction:?}");
            assert!(!out.completed, "{reaction:?}");
        }
    }

    #[test]
    fn completes_short_flow_in_loopback() {
        for reaction in REACTIONS {
            let rounds = run_loopback(reaction, 10 * 1460, |_| false);
            assert!(rounds < 20, "{reaction:?}: 10 segments, doubling cwnd");
        }
    }

    #[test]
    fn completes_sub_mss_flow() {
        for reaction in REACTIONS {
            run_loopback(reaction, 500, |_| false);
        }
    }

    /// Every packet CE-marked: neither `alpha` nor halving once per RTT
    /// ever deadlocks the flow.
    #[test]
    fn completes_under_continuous_marking() {
        for reaction in REACTIONS {
            run_loopback(reaction, 50 * 1460, |_| true);
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        for reaction in REACTIONS {
            let mut s = sender(reaction, u64::MAX / 2);
            let init = s.cwnd_bytes();
            // ACK the whole initial window: cwnd should double.
            grow(&mut s, 1);
            assert!((s.cwnd_bytes() - 2.0 * init).abs() < 1.0, "{reaction:?}");
        }
    }

    #[test]
    fn dctcp_alpha_rises_under_full_marking_and_decays_clean() {
        let mut s = sender(DCTCP, u64::MAX / 2);
        let mut packets = s.start(0).packets;
        let (mut cum, mut now) = (0u64, 100_000u64);
        // Several fully-marked windows: alpha -> 1.
        for _ in 0..60 {
            packets = ack_window(&mut s, &packets, &mut cum, now, || true);
            now += 100_000;
            assert!(!packets.is_empty(), "window must never stall");
        }
        assert!(s.alpha() > 0.5, "alpha {} should approach 1", s.alpha());
        let alpha_hi = s.alpha();
        // Unmarked windows: alpha decays geometrically.
        for _ in 0..40 {
            packets = ack_window(&mut s, &packets, &mut cum, now, || false);
            now += 100_000;
        }
        assert!(s.alpha() < alpha_hi / 4.0, "alpha must decay");
    }

    #[test]
    fn marked_windows_shrink_cwnd_gently() {
        // With alpha small, DCTCP's cut is much gentler than halving.
        let mut s = sender(DCTCP, u64::MAX / 2);
        let (packets, mut cum, now) = grow(&mut s, 6);
        let before = s.cwnd_bytes();
        // One window with a single marked ACK.
        let mut first = true;
        ack_window(&mut s, &packets, &mut cum, now, || {
            std::mem::take(&mut first)
        });
        let after = s.cwnd_bytes();
        assert!(
            after < before * 1.01,
            "cwnd should not grow through a marked window"
        );
        assert!(
            after > before * 0.5,
            "DCTCP cut must be gentler than halving"
        );
    }

    #[test]
    fn classic_ecn_halves_where_dctcp_cuts_gently() {
        let respond = |reaction: Choice| -> f64 {
            let mut s = sender(reaction, u64::MAX / 2);
            let (packets, mut cum, now) = grow(&mut s, 6);
            let before = s.cwnd_bytes();
            // One fully marked window.
            ack_window(&mut s, &packets, &mut cum, now, || true);
            s.cwnd_bytes() / before
        };
        let classic = respond(CLASSIC);
        let dctcp = respond(DCTCP);
        assert!((classic - 0.5).abs() < 0.01, "classic ratio {classic}");
        assert!(dctcp > 0.9, "dctcp's first-window cut is gentle: {dctcp}");
    }

    #[test]
    fn ece_halves_cwnd_at_most_once_per_rtt() {
        let mut s = sender(NEWRENO, u64::MAX / 2);
        let (packets, mut cum, now) = grow(&mut s, 6);
        let before = s.cwnd_bytes();
        assert!(packets.len() >= 4, "window should have opened up");
        // EVERY ACK of this window carries ECE: exactly one halving.
        ack_window(&mut s, &packets, &mut cum, now, || true);
        let ratio = s.cwnd_bytes() / before;
        assert!(
            (ratio - 0.5).abs() < 0.01,
            "one halving per RTT, got ratio {ratio}"
        );
    }

    #[test]
    fn second_rtt_with_ece_halves_again() {
        let mut s = sender(NEWRENO, u64::MAX / 2);
        let (mut packets, mut cum, mut now) = grow(&mut s, 6);
        let before = s.cwnd_bytes();
        // Two full marked round trips: two halvings compound.
        for _ in 0..2 {
            packets = ack_window(&mut s, &packets, &mut cum, now, || true);
            now += 100_000;
            assert!(!packets.is_empty(), "window must never stall");
        }
        let ratio = s.cwnd_bytes() / before;
        assert!(
            (0.2..=0.3).contains(&ratio),
            "two RTTs of marks halve twice, got ratio {ratio}"
        );
    }

    /// Only RFC 3168 signals CWR, once, on the first segment after a
    /// reduction; the per-window reactions never set it.
    #[test]
    fn cwr_is_signalled_once_after_a_reduction() {
        for reaction in REACTIONS {
            let mut s = sender(reaction, u64::MAX / 2);
            let out = s.start(0);
            let p = &out.packets[0];
            assert!(!p.cwr, "{reaction:?}: no reduction yet");
            let (seq, len) = data_span(p);
            // A marked ACK triggers the halving; the next data segment
            // must carry CWR, and only that one.
            let out = s.on_ack(seq + len, true, p.sent_at_nanos, 100_000);
            let sent: Vec<bool> = out.packets.iter().map(|p| p.cwr).collect();
            assert!(!sent.is_empty(), "{reaction:?}: reduced window still sends");
            let want_cwr = reaction == NEWRENO;
            assert_eq!(sent[0], want_cwr, "{reaction:?}: {sent:?}");
            assert!(
                sent[1..].iter().all(|c| !c),
                "{reaction:?}: CWR is a one-shot signal: {sent:?}"
            );
        }
    }

    #[test]
    fn loss_reduction_suppresses_ece_for_the_same_window() {
        let mut s = sender(NEWRENO, u64::MAX / 2);
        let ts = s.start(0).packets[0].sent_at_nanos;
        // Triple dup-ACK: fast retransmit halves the window.
        s.on_ack(0, false, ts, 1_000);
        s.on_ack(0, false, ts, 1_100);
        s.on_ack(0, false, ts, 1_200);
        let halved = s.cwnd_bytes();
        assert_eq!(s.stats().retransmissions, 1);
        // A marked partial/duplicate ACK inside the same window must not
        // halve again on top of the loss response.
        s.on_ack(0, true, ts, 1_300);
        assert_eq!(s.cwnd_bytes(), halved, "no double reduction");
    }

    #[test]
    fn ece_on_the_recovery_exit_ack_does_not_double_cut() {
        let mut s = sender(NEWRENO, u64::MAX / 2);
        let ts = s.start(0).packets[0].sent_at_nanos;
        s.on_ack(0, false, ts, 1_000);
        s.on_ack(0, false, ts, 1_100);
        s.on_ack(0, false, ts, 1_200);
        let halved = s.cwnd_bytes();
        // The cumulative ACK that exits recovery carries ECE; the loss
        // reduction already covered this window of data.
        let out = s.on_ack(2 * 1460, true, ts, 50_000);
        assert!(!out.packets.is_empty(), "sending resumes after recovery");
        assert!(
            s.cwnd_bytes() >= halved * 0.99,
            "recovery exit must not halve again"
        );
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        for reaction in REACTIONS {
            let mut s = sender(reaction, u64::MAX / 2);
            let out = s.start(0);
            assert!(out.packets.len() >= 2);
            // First segment lost: receiver dup-ACKs at 0.
            let ts = out.packets[0].sent_at_nanos;
            assert!(s.on_ack(0, false, ts, 1000).packets.is_empty());
            assert!(s.on_ack(0, false, ts, 1100).packets.is_empty());
            let third = s.on_ack(0, false, ts, 1200);
            assert_eq!(third.packets.len(), 1, "{reaction:?}: fast retransmit");
            assert_eq!(data_span(&third.packets[0]).0, 0, "{reaction:?}");
            assert_eq!(s.stats().retransmissions, 1, "{reaction:?}");
        }
    }

    #[test]
    fn rto_fires_and_stale_timers_ignored() {
        for reaction in REACTIONS {
            let mut s = sender(reaction, u64::MAX / 2);
            let arm = s.start(0).rto.unwrap();
            // A stale generation does nothing.
            assert!(s.on_rto(arm.gen + 5, arm.at_nanos).packets.is_empty());
            // The armed generation retransmits the head and re-arms.
            let fired = s.on_rto(arm.gen, arm.at_nanos);
            assert_eq!(fired.packets.len(), 1, "{reaction:?}");
            assert!(fired.rto.is_some(), "{reaction:?}");
            assert_eq!(s.stats().timeouts, 1, "{reaction:?}");
            assert_eq!(s.cwnd_bytes(), 1460.0, "{reaction:?}: RTO to 1 MSS");
        }
    }

    #[test]
    fn loss_episode_measures_recovery_time() {
        for reaction in REACTIONS {
            let mut s = sender(reaction, u64::MAX / 2);
            let out = s.start(0);
            assert_eq!(out.packets.len(), 2);
            let ts = out.packets[0].sent_at_nanos;
            // Head lost: the third dup ACK opens an episode at t=1200
            // with target snd_nxt = 2 segments.
            s.on_ack(0, false, ts, 1000);
            s.on_ack(0, false, ts, 1100);
            s.on_ack(0, false, ts, 1200);
            assert_eq!(s.stats().loss_episodes, 0, "{reaction:?}: still open");
            // An RTO during the open episode must not restart the clock.
            let arm = s.rto_deadline().unwrap();
            s.on_rto(arm.gen, 10_000);
            // The cumulative ACK covering the outstanding window closes it.
            s.on_ack(2 * 1460, false, ts, 51_200);
            let st = s.stats();
            assert_eq!(st.loss_episodes, 1, "{reaction:?}");
            assert_eq!(st.recovery_nanos, 50_000, "{reaction:?}: from first signal");
            // Clean traffic afterwards opens no new episode.
            s.on_ack(3 * 1460, false, ts, 60_000);
            assert_eq!(s.stats().loss_episodes, 1, "{reaction:?}");
        }
    }

    #[test]
    fn recovery_via_loss_in_loopback() {
        // Drop every 50th data packet between sender and receiver.
        for reaction in REACTIONS {
            let cfg = TransportConfig {
                init_cwnd_pkts: 4,
                ..config(reaction)
            };
            let mut s = TransportSender::new(1, 0, 9, 0, 200 * 1460, None, 0, &cfg);
            let mut r = receiver(reaction, 1, 1);
            let mut now = 0u64;
            let mut in_flight = s.start(now).packets;
            let mut counter = 0u64;
            let mut rto_arm: Option<TimerArm> = None;
            let mut iterations = 0;
            while !s.is_completed() {
                iterations += 1;
                assert!(iterations < 10_000, "{reaction:?}: stalled under loss");
                now += 10_000;
                let mut acks = Vec::new();
                for p in in_flight.drain(..) {
                    counter += 1;
                    if counter.is_multiple_of(50) {
                        continue; // dropped
                    }
                    acks.push(r.on_data(&p, now).ack.expect("per-packet ACKs"));
                }
                now += 10_000;
                let mut next = Vec::new();
                if acks.is_empty() {
                    // Deliver an RTO if armed (the world's timer role).
                    if let Some(arm) = rto_arm.take() {
                        now = now.max(arm.at_nanos);
                        let out = s.on_rto(arm.gen, now);
                        next.extend(out.packets);
                        rto_arm = out.rto;
                    }
                }
                for a in acks {
                    let (cum_ack, ece) = ack_of(&a);
                    let out = s.on_ack(cum_ack, ece, a.sent_at_nanos, now);
                    next.extend(out.packets);
                    if out.rto.is_some() {
                        rto_arm = out.rto;
                    }
                }
                in_flight = next;
            }
            assert!(s.stats().retransmissions > 0, "{reaction:?}");
            assert_eq!(r.rcv_nxt(), 200 * 1460, "{reaction:?}");
        }
    }

    #[test]
    fn app_rate_limited_flow_paces() {
        for reaction in REACTIONS {
            let cfg = TransportConfig {
                init_cwnd_pkts: 16,
                ..config(reaction)
            };
            // 1 Gbps app rate: one 1460-B segment every ~11.68 us.
            let mut s =
                TransportSender::new(1, 0, 9, 0, u64::MAX / 2, Some(1_000_000_000), 0, &cfg);
            let out = s.start(0);
            // At t=0 no credit has accrued yet: nothing to send, but an
            // app-resume timer must be armed.
            assert!(out.packets.is_empty(), "{reaction:?}");
            let arm = out.app_resume.expect("app resume timer");
            assert!(arm.at_nanos > 0, "{reaction:?}");
            // At the resume tick one segment goes out.
            let out = s.on_app_resume(arm.gen, arm.at_nanos);
            assert_eq!(out.packets.len(), 1, "{reaction:?}");
        }
    }

    /// PMSB(e) clears low-RTT marks before any reaction sees them.
    #[test]
    fn pmsbe_ignores_low_rtt_marks_for_any_transport() {
        for reaction in REACTIONS {
            let cfg = TransportConfig {
                init_cwnd_pkts: 4,
                pmsbe_rtt_threshold_nanos: Some(50_000),
                ..config(reaction)
            };
            let mut s = TransportSender::new(1, 0, 9, 0, u64::MAX / 2, None, 0, &cfg);
            let out = s.start(0);
            let before = s.cwnd_bytes();
            let mut cum = 0;
            // All ACKs marked but RTT is only 20 us (< 50 us threshold):
            // PMSB(e) ignores every mark, so cwnd grows as if unmarked.
            for p in &out.packets {
                let (seq, len) = data_span(p);
                cum = cum.max(seq + len);
                s.on_ack(cum, true, p.sent_at_nanos, p.sent_at_nanos + 20_000);
            }
            assert!(s.cwnd_bytes() > before, "{reaction:?}: marks ignored");
            assert_eq!(s.stats().marks_seen, 4, "{reaction:?}");
            assert_eq!(s.stats().marks_ignored, 4, "{reaction:?}");
        }
    }

    #[test]
    fn pmsbe_honours_high_rtt_marks_for_any_transport() {
        for reaction in REACTIONS {
            let cfg = TransportConfig {
                init_cwnd_pkts: 4,
                pmsbe_rtt_threshold_nanos: Some(50_000),
                ..config(reaction)
            };
            let mut s = TransportSender::new(1, 0, 9, 0, u64::MAX / 2, None, 0, &cfg);
            let out = s.start(0);
            let before = s.cwnd_bytes();
            let mut cum = 0;
            for p in &out.packets {
                let (seq, len) = data_span(p);
                cum = cum.max(seq + len);
                // RTT 200 us >= threshold: honour.
                s.on_ack(cum, true, p.sent_at_nanos, p.sent_at_nanos + 200_000);
            }
            assert_eq!(s.stats().marks_ignored, 0, "{reaction:?}");
            assert!(
                s.cwnd_bytes() <= before,
                "{reaction:?}: an honoured mark must not grow the window"
            );
        }
    }

    #[test]
    fn pmsbe_disabled_counts_marks_but_ignores_none() {
        let mut s = sender(DCTCP, u64::MAX / 2);
        let out = s.start(0);
        let p = &out.packets[0];
        let (seq, len) = data_span(p);
        s.on_ack(seq + len, true, p.sent_at_nanos, p.sent_at_nanos + 1_000);
        assert_eq!(s.stats().marks_seen, 1);
        assert_eq!(s.stats().marks_ignored, 0);
    }

    /// Per-flow memory: every live flow holds one sender and one
    /// receiver, so their sizes bound the slab's footprint.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn endpoints_fit_their_per_flow_budget() {
        assert!(std::mem::size_of::<TransportSender>() <= 376);
        assert!(std::mem::size_of::<TransportReceiver>() <= 152);
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        for reaction in REACTIONS {
            let mut r = receiver(reaction, 7, 1);
            let p2 = Packet::data(7, 0, 1, 0, 1460, 1460, 10);
            let ack = r.on_data(&p2, 10).ack.unwrap();
            assert_eq!(ack_of(&ack).0, 0, "{reaction:?}: gap, dup ack at 0");
            let p1 = Packet::data(7, 0, 1, 0, 0, 1460, 20);
            let ack = r.on_data(&p1, 20).ack.unwrap();
            assert_eq!(ack_of(&ack).0, 2920, "{reaction:?}: hole filled");
        }
    }

    #[test]
    fn receiver_echoes_ce_and_timestamp() {
        for reaction in REACTIONS {
            let mut r = receiver(reaction, 7, 1);
            let mut p = Packet::data(7, 0, 1, 0, 0, 1460, 1234);
            p.ce = true;
            let ack = r.on_data(&p, 2000).ack.unwrap();
            assert_eq!(ack.sent_at_nanos, 1234, "{reaction:?}");
            assert!(ack_of(&ack).1, "{reaction:?}: CE echoed");
            // Reverse direction addressing.
            assert_eq!((ack.src_host, ack.dst_host), (1, 0), "{reaction:?}");
        }
    }

    #[test]
    fn receiver_tolerates_duplicates() {
        for reaction in REACTIONS {
            let mut r = receiver(reaction, 7, 1);
            let p = Packet::data(7, 0, 1, 0, 0, 1460, 0);
            r.on_data(&p, 0);
            let ack = r.on_data(&p, 1).ack.unwrap(); // duplicate
            assert_eq!(ack_of(&ack).0, 1460, "{reaction:?}");
            assert_eq!(r.rcv_nxt(), 1460, "{reaction:?}");
        }
    }

    #[test]
    fn delayed_acks_coalesce_and_flush_on_timer() {
        for reaction in REACTIONS {
            let mut r = receiver(reaction, 7, 4);
            let mut last_arm = None;
            // Three in-order unmarked packets: no ACK yet, timer armed.
            for i in 0..3u64 {
                let p = Packet::data(7, 0, 1, 0, i * 1460, 1460, i * 1000);
                let out = r.on_data(&p, i * 1000);
                assert!(out.ack.is_none(), "{reaction:?}: packet {i} coalesced");
                last_arm = out.delack;
            }
            // Fourth packet reaches the quota: immediate cumulative ACK.
            let p = Packet::data(7, 0, 1, 0, 3 * 1460, 1460, 3000);
            let ack = r.on_data(&p, 3000).ack.expect("quota reached");
            assert_eq!(ack_of(&ack).0, 4 * 1460, "{reaction:?}");
            // The earlier timer is now stale.
            assert!(r.on_delack_timer(last_arm.unwrap().gen).is_none());
            // Two more packets, then the timer flushes them.
            r.on_data(&Packet::data(7, 0, 1, 0, 4 * 1460, 1460, 4000), 4000);
            let out = r.on_data(&Packet::data(7, 0, 1, 0, 5 * 1460, 1460, 5000), 5000);
            let arm = out.delack.expect("timer armed");
            let ack = r.on_delack_timer(arm.gen).expect("flush");
            assert_eq!(ack_of(&ack).0, 6 * 1460, "{reaction:?}");
            // Nothing pending: a re-fired timer does nothing.
            assert!(r.on_delack_timer(arm.gen + 1).is_none(), "{reaction:?}");
        }
    }

    #[test]
    fn delayed_acks_break_on_ce_state_change() {
        // The DCTCP ECE machine: a CE transition forces an immediate ACK
        // even mid-coalescing, in both directions.
        let mut r = receiver(DCTCP, 7, 16);
        let unmarked = Packet::data(7, 0, 1, 0, 0, 1460, 0);
        assert!(r.on_data(&unmarked, 0).ack.is_none(), "coalesced");
        let mut marked = Packet::data(7, 0, 1, 0, 1460, 1460, 1);
        marked.ce = true;
        let ack = r.on_data(&marked, 1).ack.expect("CE 0->1 forces ACK");
        assert!(ack_of(&ack).1);
        let mut marked2 = Packet::data(7, 0, 1, 0, 2 * 1460, 1460, 2);
        marked2.ce = true;
        assert!(r.on_data(&marked2, 2).ack.is_none(), "steady CE: coalesced");
        let unmarked2 = Packet::data(7, 0, 1, 0, 3 * 1460, 1460, 3);
        let ack = r.on_data(&unmarked2, 3).ack.expect("CE 1->0 forces ACK");
        assert!(!ack_of(&ack).1);
    }

    #[test]
    fn delayed_acks_never_delay_dupacks() {
        for reaction in REACTIONS {
            let mut r = receiver(reaction, 7, 16);
            // A gap: segment 1 missing; segment 2 arrives out of order.
            r.on_data(&Packet::data(7, 0, 1, 0, 0, 1460, 0), 0);
            let out = r.on_data(&Packet::data(7, 0, 1, 0, 2 * 1460, 1460, 1), 1);
            let ack = out.ack.expect("out-of-order arrival must ACK at once");
            assert_eq!(ack_of(&ack).0, 1460, "{reaction:?}: dup ack");
        }
    }

    #[test]
    fn receiver_latches_ece_until_cwr() {
        let mut r = receiver(NEWRENO, 7, 1);
        let mut p0 = Packet::data(7, 0, 1, 0, 0, 1460, 0);
        p0.ce = true;
        assert!(ack_of(&r.on_data(&p0, 0).ack.unwrap()).1, "CE latches ECE");
        // An unmarked segment without CWR: the latch holds.
        let p1 = Packet::data(7, 0, 1, 0, 1460, 1460, 1);
        assert!(ack_of(&r.on_data(&p1, 1).ack.unwrap()).1, "latch holds");
        // CWR clears the latch.
        let mut p2 = Packet::data(7, 0, 1, 0, 2 * 1460, 1460, 2);
        p2.cwr = true;
        assert!(!ack_of(&r.on_data(&p2, 2).ack.unwrap()).1, "CWR clears");
    }

    #[test]
    fn cwr_with_fresh_ce_relatches() {
        // A segment carrying both CWR and a new CE mark must leave the
        // latch set: the new mark happened after the sender reduced.
        let mut r = receiver(NEWRENO, 7, 1);
        let mut p = Packet::data(7, 0, 1, 0, 0, 1460, 0);
        p.cwr = true;
        p.ce = true;
        let ack = r.on_data(&p, 0).ack.unwrap();
        assert!(ack_of(&ack).1, "fresh CE wins over CWR");
    }

    #[test]
    fn delayed_acks_preserve_the_latch() {
        // Coalescing must not lose the congestion signal: a CE mark on a
        // coalesced packet surfaces on the eventual cumulative ACK.
        let mut r = receiver(NEWRENO, 7, 4);
        let mut p0 = Packet::data(7, 0, 1, 0, 0, 1460, 0);
        p0.ce = true;
        assert!(r.on_data(&p0, 0).ack.is_none(), "coalesced despite CE");
        for i in 1..3u64 {
            let p = Packet::data(7, 0, 1, 0, i * 1460, 1460, i);
            assert!(r.on_data(&p, i).ack.is_none());
        }
        let p3 = Packet::data(7, 0, 1, 0, 3 * 1460, 1460, 3);
        let ack = r.on_data(&p3, 3).ack.expect("quota reached");
        assert_eq!(ack_of(&ack), (4 * 1460, true), "the latch survives");
    }

    /// Edge cases every reaction must pass alike.
    mod shared_suite {
        use super::*;

        /// Repeated timeouts back the RTO off exponentially, but the
        /// inter-fire gap is capped (backoff shift ≤ 10, deadline step
        /// ≤ 4 s), so a dead path never silences a flow for minutes.
        #[test]
        fn rto_backoff_reaches_a_ceiling() {
            for reaction in REACTIONS {
                let mut s = sender(reaction, u64::MAX / 2);
                let mut arm = s.start(0).rto.expect("initial window arms the timer");
                let mut gaps = Vec::new();
                for _ in 0..16 {
                    let now = arm.at_nanos;
                    let out = s.on_rto(arm.gen, now);
                    assert_eq!(out.packets.len(), 1, "{reaction:?}: RTO resends head");
                    let next = out.rto.expect("timer re-arms");
                    gaps.push(next.at_nanos - now);
                    arm = next;
                }
                for w in gaps.windows(2) {
                    assert!(w[1] >= w[0], "{reaction:?}: backoff shrank: {gaps:?}");
                }
                assert!(
                    gaps.iter().all(|g| *g <= 4_000_000_000),
                    "{reaction:?}: backoff ceiling 4s: {gaps:?}"
                );
                let last = *gaps.last().unwrap();
                assert_eq!(
                    last,
                    gaps[gaps.len() - 2],
                    "{reaction:?}: the ceiling must hold steady: {gaps:?}"
                );
                assert_eq!(s.stats().timeouts, 16, "{reaction:?}");
            }
        }

        /// Duplicate-ACK counting across a retransmitted segment: the
        /// third dup-ACK fast-retransmits once; further dup-ACKs during
        /// recovery never retransmit the head again, and the cumulative
        /// ACK covering the hole exits recovery cleanly.
        #[test]
        fn dup_acks_across_a_retransmitted_segment() {
            for reaction in REACTIONS {
                let mut s = sender(reaction, u64::MAX / 2);
                let out = s.start(0);
                assert_eq!(out.packets.len(), 2);
                let ts = out.packets[0].sent_at_nanos;
                assert!(s.on_ack(0, false, ts, 1_000).packets.is_empty());
                assert!(s.on_ack(0, false, ts, 1_100).packets.is_empty());
                let third = s.on_ack(0, false, ts, 1_200);
                assert_eq!(third.packets.len(), 1, "{reaction:?}: fast retransmit");
                assert_eq!(data_span(&third.packets[0]).0, 0, "{reaction:?}");
                assert_eq!(s.stats().retransmissions, 1, "{reaction:?}");
                // Dup-ACKs keep arriving while the retransmit is in
                // flight: no second retransmission of the same head.
                for t in [1_300, 1_400, 1_500] {
                    assert!(
                        s.on_ack(0, false, ts, t).packets.is_empty(),
                        "{reaction:?}: recovery absorbs further dup-ACKs"
                    );
                }
                assert_eq!(s.stats().retransmissions, 1, "{reaction:?}");
                // The cumulative ACK for the whole outstanding window
                // (2 segments) exits recovery and resumes sending.
                let out = s.on_ack(2 * 1460, false, ts, 50_000);
                assert!(!out.packets.is_empty(), "{reaction:?}: sending resumes");
                assert_eq!(s.stats().loss_episodes, 1, "{reaction:?}: closed");
            }
        }

        /// Delayed-ACK reassembly of out-of-order arrivals: a gap forces
        /// an immediate dup-ACK (never delayed), the fill ACKs the whole
        /// contiguous prefix immediately, and coalescing resumes after.
        #[test]
        fn delayed_acks_reassemble_out_of_order_arrivals() {
            for reaction in REACTIONS {
                let mut r = receiver(reaction, 7, 4);
                // Segment 0 in order: coalesced, timer armed.
                let out = r.on_data(&Packet::data(7, 0, 1, 0, 0, 1460, 0), 0);
                assert!(out.ack.is_none(), "{reaction:?}: in-order coalesces");
                assert!(out.delack.is_some(), "{reaction:?}");
                // Segment 2 arrives before segment 1: immediate dup-ACK.
                let p2 = Packet::data(7, 0, 1, 0, 2 * 1460, 1460, 10);
                let ack = r.on_data(&p2, 10).ack.expect("gap must ACK at once");
                assert_eq!(ack_of(&ack).0, 1460, "{reaction:?}: dup at the hole");
                // The fill: cumulative ACK over the reassembled prefix.
                let p1 = Packet::data(7, 0, 1, 0, 1460, 1460, 20);
                let ack = r.on_data(&p1, 20).ack.expect("fill must ACK at once");
                assert_eq!(ack_of(&ack).0, 3 * 1460, "{reaction:?}: hole filled");
                assert_eq!(r.rcv_nxt(), 3 * 1460, "{reaction:?}");
                // Back in order: coalescing resumes, flush timer drains.
                let p3 = Packet::data(7, 0, 1, 0, 3 * 1460, 1460, 30);
                let out = r.on_data(&p3, 30);
                assert!(out.ack.is_none(), "{reaction:?}: coalescing resumes");
                let arm = out.delack.expect("timer armed");
                let ack = r.on_delack_timer(arm.gen).expect("flush");
                assert_eq!(ack_of(&ack).0, 4 * 1460, "{reaction:?}");
            }
        }

        /// A duplicate of an already-delivered segment still produces an
        /// immediate ACK at the current edge.
        #[test]
        fn duplicate_delivery_acks_at_the_edge() {
            for reaction in REACTIONS {
                let mut r = receiver(reaction, 7, 1);
                let p = Packet::data(7, 0, 1, 0, 0, 1460, 0);
                r.on_data(&p, 0);
                let ack = r.on_data(&p, 1).ack.expect("per-packet ACKs");
                assert_eq!(ack_of(&ack).0, 1460, "{reaction:?}");
                assert_eq!(r.rcv_nxt(), 1460, "{reaction:?}");
            }
        }
    }

    mod properties {
        use super::*;
        use pmsb_simcore::rng::SimRng;

        /// The receiver reassembles any arrival order of the segments
        /// of a transfer, including duplicates, to the exact length.
        #[test]
        fn receiver_reassembles_any_permutation() {
            let mut rng = SimRng::seed_from(0x7a);
            for reaction in REACTIONS {
                for _ in 0..32 {
                    let mss = 1460u64;
                    let mut r = receiver(reaction, 9, 1);
                    let mut delivered = [false; 20];
                    for _ in 0..(30 + rng.below(30)) {
                        let idx = rng.below(20);
                        delivered[idx] = true;
                        let p = Packet::data(9, 0, 1, 0, idx as u64 * mss, mss, 0);
                        r.on_data(&p, 0);
                    }
                    // Deliver whatever the random order missed, in order.
                    for (idx, seen) in delivered.iter().enumerate() {
                        if !seen {
                            let p = Packet::data(9, 0, 1, 0, idx as u64 * mss, mss, 0);
                            r.on_data(&p, 0);
                        }
                    }
                    assert_eq!(r.rcv_nxt(), 20 * mss, "{reaction:?}");
                }
            }
        }

        /// Transfers complete in loopback under any deterministic
        /// periodic marking pattern.
        #[test]
        fn completes_under_any_periodic_marking() {
            let mut rng = SimRng::seed_from(0x7b);
            for reaction in REACTIONS {
                for _ in 0..12 {
                    let period = 1 + rng.below(19) as u64;
                    let segs = 1 + rng.below(79) as u64;
                    let mut n = 0u64;
                    run_loopback(reaction, segs * 1460, move |_| {
                        n += 1;
                        n.is_multiple_of(period)
                    });
                }
            }
        }

        /// A random mark pattern driving `s` through up to `rounds` round
        /// trips, checking `invariant` after every ACK.
        fn drive_random_marks(
            s: &mut TransportSender,
            rng: &mut SimRng,
            max_marks: usize,
            rounds: usize,
            invariant: impl Fn(&TransportSender),
        ) {
            let marks: Vec<bool> = (0..(1 + rng.below(max_marks)))
                .map(|_| rng.below(2) == 1)
                .collect();
            let mut it = marks.iter().cycle();
            let mut packets = s.start(0).packets;
            let (mut cum, mut now) = (0u64, 100_000u64);
            for _ in 0..rounds {
                let mut next = Vec::new();
                for p in &packets {
                    let (seq, len) = data_span(p);
                    cum = cum.max(seq + len);
                    let ece = *it.next().unwrap();
                    next.extend(s.on_ack(cum, ece, p.sent_at_nanos, now).packets);
                    invariant(s);
                }
                now += 100_000;
                if next.is_empty() {
                    break;
                }
                packets = next;
            }
        }

        /// cwnd never decays below one MSS no matter the marking.
        #[test]
        fn cwnd_floor_is_one_mss() {
            let mut rng = SimRng::seed_from(0x7c);
            for reaction in REACTIONS {
                for _ in 0..8 {
                    let mut s = sender(reaction, u64::MAX / 2);
                    drive_random_marks(&mut s, &mut rng, 199, 30, |s| {
                        assert!(s.cwnd_bytes() >= 1460.0, "{reaction:?}")
                    });
                }
            }
        }

        /// Alpha stays a valid EWMA in [0, 1].
        #[test]
        fn alpha_stays_in_unit_interval() {
            let mut rng = SimRng::seed_from(0x7d);
            for reaction in [DCTCP, CLASSIC] {
                for _ in 0..8 {
                    let mut s = sender(reaction, u64::MAX / 2);
                    drive_random_marks(&mut s, &mut rng, 99, 20, |s| {
                        assert!((0.0..=1.0).contains(&s.alpha()), "{reaction:?}")
                    });
                }
            }
        }
    }
}
