//! The packet region of the regional engine (DESIGN.md §13): real
//! packet-level ports embedded inside a fluid run.
//!
//! A small *hot set* of switch ports — flagged by a deterministic
//! first-pass fluid solve, or named explicitly — is simulated with the
//! packet engine's own [`Port`]: the configured scheduler, marking
//! scheme and mark point, admitting through a real [`SharedPool`] —
//! plus the real PMSB(e) [`SelectiveBlindness`] ACK rule. Everything
//! else stays fluid.
//!
//! **Boundary adapters.** Fluid → packet: each flow crossing a hot port
//! runs one MTU-paced ghost-arrival chain per hot hop, paced at the
//! flow's region rate, so the port sees the per-queue arrival process
//! the rate implies. Packet → fluid: the marks those ghosts draw feed a
//! per-flow DCTCP/NewReno window loop whose rate is handed back to the
//! max-min solver as an app-rate cap. The ghosts are *signal* packets:
//! flow progress is accounted exclusively by the fluid byte ledger, so
//! byte conservation at the seam holds by construction — the region can
//! shift *when* a flow's bits drain (via its cap) but never create or
//! destroy bits.
//!
//! The region rate intentionally probes *above* the fair share
//! (additive increase per RTT, like the real transport): the overshoot
//! is what builds the standing queue to the marking scheme's operating
//! point, which is where per-queue blindness — invisible to the fluid
//! closed form — reappears in the dynamics.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use pmsb::endpoint::SelectiveBlindness;
use pmsb_sched::SchedItem;

use crate::buffer::SharedPool;
use crate::config::TransportKind;
use crate::experiment::Experiment;
use crate::packet::MTU_WIRE_BYTES;
use crate::slab::FlowSlab;
use crate::world::port::{Port, PortItem};
use crate::world::World;

/// Floor of the per-flow region rate: a stalled flow keeps probing at
/// 1 Mb/s instead of parking at zero, like a transport's minimum window.
const MIN_RATE_BPS: u64 = 1_000_000;

/// Ceiling on the ghost pacing period. A very slow flow still lands a
/// probe every 250 µs, so its marking feedback never goes fully dark.
const MAX_PERIOD_NANOS: u64 = 250_000;

/// Ghost pacing period for `rate_bps`: one MTU per `MTU/rate`, clamped
/// between wire speed and the probe ceiling.
fn pacing_period(rate_bps: u64, ser_nanos: u64) -> u64 {
    if rate_bps == 0 {
        return MAX_PERIOD_NANOS;
    }
    (MTU_WIRE_BYTES * 8_000_000_000 / rate_bps).clamp(ser_nanos.max(1), MAX_PERIOD_NANOS)
}

/// A ghost packet: one MTU of signal riding a hot port's real queues.
#[derive(Debug)]
struct RegionPkt {
    enqueued_at_nanos: u64,
    flow_id: u64,
    /// Set when enqueue-point marking fired (dequeue marking then skips
    /// it, exactly like the CE bit on a real packet).
    ce: bool,
}

impl SchedItem for RegionPkt {
    fn len_bytes(&self) -> u64 {
        MTU_WIRE_BYTES
    }
}

impl PortItem for RegionPkt {
    fn markable(&self) -> bool {
        !self.ce
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

/// One flow with at least one hot hop: its ghost pacers and its
/// measured-mark window loop.
struct RegionFlow {
    /// Hot hops as indices into [`PacketRegion::ports`], in path order.
    hops: Vec<u32>,
    queue: u16,
    /// Region rate the ghosts pace at and the solver cap reports;
    /// 0 = not yet seeded by the first solve.
    cur_rate_bps: u64,
    /// Latest solver RTT (base + standing queues), driving the PMSB(e)
    /// rule and the additive-increase step.
    rtt_nanos: u64,
    /// End of the current congestion window (the Win event time; a
    /// heap entry with a different time is stale).
    window_end: u64,
    window_pkts: u32,
    window_marks: u32,
    /// DCTCP mark-fraction EWMA, ppm (gain 1/16).
    alpha_ppm: u64,
    marks_seen: u64,
    marks_ignored: u64,
}

/// Counters the region hands back when the run ends.
pub(super) struct RegionSummary {
    /// Hot ports the region simulated.
    pub(super) hot_ports: usize,
    /// Ghost packets tail-dropped or pool-rejected at hot ports.
    pub(super) drops: u64,
    /// Marks applied to ghosts of already-departed flows.
    pub(super) orphan_marks: u64,
    /// Region events processed (arrivals, transmits, window rolls).
    pub(super) events: u64,
    /// Shared-pool contention at hot ports, when the policy is shared.
    pub(super) shared: Option<pmsb_metrics::contention::ContentionSummary>,
}

/// Heap event kinds (packed into plain tuples so ordering is explicit).
const EV_ARRIVAL: u8 = 0;
const EV_TX_DONE: u8 = 1;

/// One packet event: `(time, seq, kind, a, b)` — `Arr(flow, hop)` or
/// `TxDone(port)`. Plain tuple so the ordering (min-time, then FIFO by
/// push sequence) is explicit and `Ord`-derived.
type PktEvent = (u64, u64, u8, u64, u32);

/// The embedded packet region. See the module docs for the model.
pub(super) struct PacketRegion {
    /// The hot ports, each a switch port of the configured kind.
    ports: Vec<Port<RegionPkt>>,
    /// One pool per switch with hot ports, spanning its hot ports only
    /// (ports outside the region hold fluid standing queues that never
    /// contend for pool space — the documented approximation of
    /// DESIGN.md §13).
    pools: Vec<SharedPool>,
    /// Hot port → index into `pools`.
    pool_of: Vec<u32>,
    /// Link id → index into `ports` (`u32::MAX` = not hot).
    link_to_port: Vec<u32>,
    /// Flows with hot hops, found by flow id. Events name flows by id,
    /// never by slot, so a stale event of a departed flow finds nothing
    /// even after a new flow has taken over its slot.
    flows: FlowSlab<RegionFlow>,
    /// Packet events; the push sequence number breaks time ties FIFO,
    /// mirroring the packet engine's event list.
    heap: BinaryHeap<Reverse<PktEvent>>,
    /// Window-roll events `(window_end, flow)`, lazily invalidated: an
    /// entry is live iff it matches the flow's current `window_end`.
    win_heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
    rates_changed: bool,
    orphan_marks: u64,
    events: u64,
    mss: u64,
    kind: TransportKind,
    pmsbe: Option<SelectiveBlindness>,
    link_rate_bps: u64,
    ser_nanos: u64,
}

impl PacketRegion {
    /// Builds the region over `hot` switch ports (validated against the
    /// world, deduplicated, pool-attached in port order).
    ///
    /// # Panics
    ///
    /// Panics when a hot port names a switch or port outside the
    /// topology.
    pub(super) fn new(
        e: &Experiment,
        world: &World,
        switch_base: &[u32],
        num_links: usize,
        hot: &[(usize, usize)],
    ) -> Self {
        let mut hot: Vec<(usize, usize)> = hot.to_vec();
        hot.sort_unstable();
        hot.dedup();
        let cfg = &e.switch_cfg;
        let mut ports = Vec::with_capacity(hot.len());
        let mut pools: Vec<SharedPool> = Vec::new();
        let mut pool_of = Vec::with_capacity(hot.len());
        let mut link_to_port = vec![u32::MAX; num_links];
        let mut pool_of_switch: BTreeMap<usize, u32> = BTreeMap::new();
        for &(s, p) in &hot {
            assert!(
                s < world.num_switches(),
                "region port {s}:{p} names switch {s}, but the topology has {} switches",
                world.num_switches()
            );
            assert!(
                p < world.num_ports(s),
                "region port {s}:{p} names port {p}, but switch {s} has {} ports",
                world.num_ports(s)
            );
            let pool_idx = *pool_of_switch.entry(s).or_insert_with(|| {
                pools.push(SharedPool::new(cfg.buffer));
                (pools.len() - 1) as u32
            });
            let pool_port = pools[pool_idx as usize].attach_port(
                cfg.buffer,
                cfg.buffer_bytes,
                cfg.scheduler.num_queues(),
                e.link_rate_bps,
            );
            pool_of.push(pool_idx);
            link_to_port[(switch_base[s] + p as u32) as usize] = ports.len() as u32;
            ports.push(Port::switch(cfg, e.link_rate_bps, pool_port));
        }
        let c = e.link_rate_bps.max(1);
        PacketRegion {
            ports,
            pools,
            pool_of,
            link_to_port,
            flows: FlowSlab::new(),
            heap: BinaryHeap::new(),
            win_heap: BinaryHeap::new(),
            seq: 0,
            rates_changed: false,
            orphan_marks: 0,
            events: 0,
            mss: e.transport.mss,
            kind: e.transport.kind,
            pmsbe: e
                .transport
                .pmsbe_rtt_threshold_nanos
                .map(SelectiveBlindness::new),
            link_rate_bps: e.link_rate_bps,
            ser_nanos: MTU_WIRE_BYTES * 8_000_000_000 / c,
        }
    }

    /// Whether `link` is one of the region's hot ports.
    pub(super) fn is_hot(&self, link: u32) -> bool {
        self.link_to_port[link as usize] != u32::MAX
    }

    /// Measured standing-queue delay of hot `link` (0 when not hot):
    /// the real queue's occupancy drained at line rate.
    pub(super) fn delay_nanos(&self, link: u32) -> u64 {
        let pi = self.link_to_port[link as usize];
        if pi == u32::MAX {
            return 0;
        }
        self.ports[pi as usize]
            .mq()
            .port_bytes()
            .saturating_mul(8_000_000_000)
            / self.link_rate_bps.max(1)
    }

    /// Registers an arriving flow whose `path` crosses hot ports.
    pub(super) fn on_inject(&mut self, id: u64, path: &[u32], queue: u16) {
        let mut hops = Vec::new();
        for &l in path {
            let pi = self.link_to_port[l as usize];
            if pi != u32::MAX {
                hops.push(pi);
            }
        }
        if hops.is_empty() {
            return;
        }
        self.flows.insert(
            id,
            RegionFlow {
                hops,
                queue,
                cur_rate_bps: 0,
                rtt_nanos: 0,
                window_end: 0,
                window_pkts: 0,
                window_marks: 0,
                alpha_ppm: 1_000_000,
                marks_seen: 0,
                marks_ignored: 0,
            },
        );
    }

    /// The cap this flow's region rate imposes on the solver
    /// (`u64::MAX` = unconstrained: not a region flow, or not seeded).
    pub(super) fn cap_bps(&self, id: u64) -> u64 {
        match self.flows.get(id) {
            Some(f) if f.cur_rate_bps > 0 => f.cur_rate_bps,
            _ => u64::MAX,
        }
    }

    /// Feeds one solve's outcome back: refreshes the flow's RTT and, on
    /// the first solve after arrival, seeds the region rate at the fair
    /// share (DCTCP init: α = 1) and starts the ghost pacers.
    pub(super) fn set_alloc(&mut self, id: u64, alloc_bps: u64, rtt_nanos: u64, now: u64) {
        let link_rate = self.link_rate_bps;
        let Some(f) = self.flows.get_mut(id) else {
            return;
        };
        f.rtt_nanos = rtt_nanos;
        if f.cur_rate_bps != 0 {
            return;
        }
        f.cur_rate_bps = alloc_bps.clamp(MIN_RATE_BPS, link_rate);
        f.window_end = now + rtt_nanos.max(1_000);
        let window_end = f.window_end;
        let num_hops = f.hops.len();
        self.win_heap.push(Reverse((window_end, id)));
        for h in 0..num_hops {
            self.seq += 1;
            self.heap.push(Reverse((
                now + 1 + h as u64,
                self.seq,
                EV_ARRIVAL,
                id,
                h as u32,
            )));
        }
    }

    /// Earliest pending window roll — the only region event that can
    /// change a solver cap, so the fluid loop bounds its targets by it.
    pub(super) fn next_rate_event(&mut self) -> u64 {
        while let Some(&Reverse((at, id))) = self.win_heap.peek() {
            match self.flows.get(id) {
                Some(f) if f.window_end == at => return at,
                _ => {
                    self.win_heap.pop(); // stale: flow gone or window moved
                }
            }
        }
        u64::MAX
    }

    /// True once since the last call iff a window roll changed a rate.
    pub(super) fn take_rates_changed(&mut self) -> bool {
        std::mem::take(&mut self.rates_changed)
    }

    /// Removes a departing flow, returning its `(seen, ignored)` mark
    /// counters. Its pending events go stale and drain lazily.
    pub(super) fn remove_flow(&mut self, id: u64) -> (u64, u64) {
        self.flows
            .remove(id)
            .map_or((0, 0), |f| (f.marks_seen, f.marks_ignored))
    }

    /// Processes every region event up to and including `t`, in
    /// deterministic `(time, seq)` order with window rolls merged in.
    pub(super) fn advance_to(&mut self, t: u64) {
        loop {
            let pkt_at = self.heap.peek().map_or(u64::MAX, |r| r.0 .0);
            let win_at = self.next_rate_event();
            if pkt_at.min(win_at) > t {
                return;
            }
            if win_at <= pkt_at {
                let Reverse((now, id)) = self.win_heap.pop().expect("validated peek");
                self.events += 1;
                self.roll_window(id, now);
            } else {
                let Reverse((now, _seq, kind, a, b)) = self.heap.pop().expect("peeked");
                self.events += 1;
                match kind {
                    EV_ARRIVAL => self.on_arrival(a, b as usize, now),
                    _ => {
                        self.ports[a as usize].finish();
                        self.try_transmit(a as usize, now);
                    }
                }
            }
        }
    }

    /// One DCTCP/NewReno window boundary: fold the measured mark
    /// fraction into α, cut or grow the region rate, open the next
    /// window.
    fn roll_window(&mut self, id: u64, now: u64) {
        let (mss, kind, link_rate) = (self.mss, self.kind, self.link_rate_bps);
        let Some(f) = self.flows.get_mut(id) else {
            return;
        };
        let frac_ppm = if f.window_pkts > 0 {
            f.window_marks as u64 * 1_000_000 / f.window_pkts as u64
        } else {
            0
        };
        f.alpha_ppm = (f.alpha_ppm * 15 + frac_ppm) / 16;
        let rtt = f.rtt_nanos.max(1_000);
        if f.window_marks > 0 {
            f.cur_rate_bps = match kind {
                TransportKind::Dctcp => f.cur_rate_bps.saturating_sub(
                    (f.cur_rate_bps as u128 * f.alpha_ppm as u128 / 2_000_000) as u64,
                ),
                TransportKind::NewReno => f.cur_rate_bps / 2,
            };
        } else {
            // One MSS per RTT of additive probing, like the real sender;
            // the overshoot past the fair share is what sustains the
            // queue at the marking onset.
            f.cur_rate_bps = f.cur_rate_bps.saturating_add(mss * 8_000_000_000 / rtt);
        }
        f.cur_rate_bps = f.cur_rate_bps.clamp(MIN_RATE_BPS, link_rate);
        f.window_pkts = 0;
        f.window_marks = 0;
        f.window_end = now + rtt;
        let window_end = f.window_end;
        self.win_heap.push(Reverse((window_end, id)));
        self.rates_changed = true;
    }

    /// One ghost arrival of `flow` at hot hop `hop`: the port's arrival
    /// (enqueue-point marking, pool admission), then the pacer
    /// reschedules itself.
    fn on_arrival(&mut self, flow_id: u64, hop: usize, now: u64) {
        let Some(f) = self.flows.get(flow_id) else {
            return; // stale pacer of a departed flow
        };
        let pi = f.hops[hop] as usize;
        let (queue, rate, rtt) = (f.queue, f.cur_rate_bps, f.rtt_nanos);
        self.seq += 1;
        self.heap.push(Reverse((
            now + pacing_period(rate, self.ser_nanos),
            self.seq,
            EV_ARRIVAL,
            flow_id,
            hop as u32,
        )));
        let ghost = RegionPkt {
            enqueued_at_nanos: now,
            flow_id,
            ce: false,
        };
        let pool = &mut self.pools[self.pool_of[pi] as usize];
        if self.ports[pi].arrive(usize::from(queue), ghost, now, Some(pool)) {
            self.attribute_mark(flow_id, rtt);
        }
        if let Some(f) = self.flows.get_mut(flow_id) {
            f.window_pkts += 1;
        }
        self.try_transmit(pi, now);
    }

    /// The port's departure (dequeue-point marking), exactly the switch
    /// port's transmit path — minus the wire, since ghosts die at the
    /// egress.
    fn try_transmit(&mut self, pi: usize, now: u64) {
        let pool = &mut self.pools[self.pool_of[pi] as usize];
        let Some((_, ghost, marked)) = self.ports[pi].depart(now, Some(pool)) else {
            return;
        };
        self.seq += 1;
        self.heap.push(Reverse((
            now + self.ser_nanos,
            self.seq,
            EV_TX_DONE,
            pi as u64,
            0,
        )));
        if marked {
            match self.flows.get(ghost.flow_id) {
                Some(f) => {
                    let rtt = f.rtt_nanos;
                    self.attribute_mark(ghost.flow_id, rtt);
                }
                None => self.orphan_marks += 1,
            }
        }
    }

    /// Books one applied mark on a live flow, running the real PMSB(e)
    /// ACK rule: an ignored echo still counts as seen (the switch did
    /// mark) but never reaches the window loop — blindness in action.
    fn attribute_mark(&mut self, flow_id: u64, rtt_nanos: u64) {
        let ignore = self
            .pmsbe
            .is_some_and(|rule| rule.ignore_mark(true, rtt_nanos));
        let Some(f) = self.flows.get_mut(flow_id) else {
            self.orphan_marks += 1;
            return;
        };
        f.marks_seen += 1;
        if ignore {
            f.marks_ignored += 1;
        } else {
            f.window_marks += 1;
        }
    }

    /// Final counters once the run ends.
    pub(super) fn finish(self) -> RegionSummary {
        let mut drops = 0u64;
        for p in &self.ports {
            drops += p.mq().dropped_items();
        }
        let mut shared = None;
        for pool in &self.pools {
            if pool.is_shared() {
                drops += pool.shared_drops();
                shared
                    .get_or_insert_with(pmsb_metrics::contention::ContentionSummary::default)
                    .absorb(&pool.summary());
            }
        }
        RegionSummary {
            hot_ports: self.ports.len(),
            drops,
            orphan_marks: self.orphan_marks,
            events: self.events,
            shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::SlotRef;

    #[test]
    fn stale_events_of_a_departed_flow_never_touch_the_flow_reusing_its_slot() {
        // Dumbbell links: hosts 0..3, then switch 0's ports 0..3 as
        // links 3..6; port 2 faces the receiver (host 2).
        let e = Experiment::dumbbell(2, 1);
        let world = e.build_world();
        let mut r = PacketRegion::new(&e, &world, &[3], 6, &[(0, 2)]);
        let path = [0, 5];
        r.on_inject(0, &path, 0);
        r.set_alloc(0, 5_000_000_000, 20_000, 0);
        r.advance_to(10_000);
        assert!(r.events > 0, "ghosts ran");
        let roll = r.next_rate_event();
        assert!(roll > 10_000 && roll < u64::MAX, "a window roll is pending");
        r.remove_flow(0);
        // Flow 1 takes flow 0's freed slot but is never seeded, so every
        // event from here on is one of flow 0's stale pacers or rolls.
        r.on_inject(1, &path, 0);
        assert_eq!(r.flows.slot_ref(1), SlotRef::Live(0));
        assert_eq!(r.flows.slot_ref(0), SlotRef::Retired);
        r.advance_to(1_000_000);
        let f = r.flows.get(1).expect("flow 1 is live");
        assert_eq!(f.window_pkts, 0, "a stale pacer fed the new flow");
        assert_eq!(f.window_marks, 0);
        assert_eq!(
            (f.cur_rate_bps, f.window_end),
            (0, 0),
            "a stale window roll moved the new flow"
        );
        assert_eq!(r.next_rate_event(), u64::MAX);
        assert_eq!(r.cap_bps(1), u64::MAX);
        assert_eq!(r.remove_flow(1), (0, 0));
    }
}
