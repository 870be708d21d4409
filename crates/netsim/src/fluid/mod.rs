//! Flow-level fluid simulation engine and the packet/fluid hybrid.
//!
//! The packet engine earns its accuracy one event per packet; at
//! hyperscale (millions of flows on a fat-tree) that cost dominates
//! wall-clock. This module trades per-packet fidelity for a flow-level
//! model (DESIGN.md §11) built from three deterministic pieces:
//!
//! 1. **Max-min rate solve** (`solver`): between population changes,
//!    every active flow runs at its max-min fair share over the links
//!    of its (ECMP-exact) path — integer water-filling with fixed
//!    iteration order, so rates are byte-stable across runs.
//! 2. **Steady-state marking** (`onset`): each saturated link holds a
//!    standing queue at the marking onset `K*`, probed through the real
//!    [`MarkingScheme`](pmsb::marking::MarkingScheme) objects; flows
//!    accumulate marks at the rate the DCTCP (`p ≈ √(2/W)`) or NewReno
//!    (`p ≈ 3/2W²`) steady-state response curve demands at their
//!    allocated window.
//! 3. **Hybrid calibration** (`microsim`): the hybrid engine replaces
//!    the closed-form marking of saturated *switch* ports with short
//!    per-port packet micro-simulations of the packet engine's own port
//!    (real scheduler, real marking scheme), recovering per-queue effects (PMSB's selective
//!    blindness, per-queue vs per-port thresholds) the fluid closed
//!    form cannot see.
//! 4. **Regional embedding** (`region`): the regional engine goes one
//!    step further and simulates a *hot set* of switch ports at full
//!    packet level inside the fluid run — real scheduler, real marking
//!    objects, real shared-buffer pool, real PMSB(e) ACK filter — with
//!    rate↔packet adapters at the seam (DESIGN.md §13). The hot set is
//!    named explicitly or flagged by a deterministic first-pass fluid
//!    scout; an empty hot set degenerates to the plain fluid engine,
//!    byte for byte.
//!
//! Time advances event-to-event over the *distinct* timestamps of flow
//! arrivals and completions; synchronized workloads (incast epochs,
//! shuffle waves) collapse thousands of flows into one solve, which is
//! where the 10–100× throughput over the packet engine comes from. All
//! arithmetic is integer (work in bit·nanoseconds), the event order is
//! fixed, and the engine is single-threaded, so results are
//! byte-identical across runs.

mod microsim;
mod onset;
mod region;
mod solver;

use std::collections::HashMap;

use pmsb_metrics::fct::{FctRecorder, FlowRecord};
use pmsb_metrics::QuantileSketch;

use crate::config::{EngineKind, MarkingConfig, RegionSpec, SchedulerConfig, TransportKind};
use crate::experiment::Experiment;
use crate::packet::{ACK_WIRE_BYTES, MTU_WIRE_BYTES};
use crate::transport::SenderStats;
use crate::world::{EnginePath, FlowDesc, NodeRef, RunResults, StreamStats, World};

use microsim::{MicroCache, MicroStream, RATE_BUCKETS};
use onset::OnsetCache;
use solver::{Solver, SolverFlow};

/// Population changes within this sim-time window share one rate
/// re-solve. The water-filling solve is the engine's dominant cost at
/// fabric scale, and dense arrival/completion trains re-solve the same
/// near-identical population thousands of times; coalescing bounds the
/// rate staleness to 20 µs — two orders below the millisecond-scale
/// flow completion times the model is judged on — while cutting solves
/// severalfold. A deferred re-solve is woken explicitly, so a burst of
/// arrivals (injected at rate 0 until the next solve) can never stall
/// the clock.
const RESOLVE_QUANTUM_NANOS: u64 = 20_000;

/// The most queues per port the flow-level engines model: a saturated
/// link's active queues are one `u16` bitmask, and the hybrid
/// calibration keeps one aggregate rate per queue.
/// [`Experiment::validate`] rejects a fluid, hybrid or regional run
/// whose scheduler has more.
pub(crate) const MAX_QUEUES: usize = 16;

/// Steady-state queue level a port converges to under the given
/// marking/scheduler configuration with the given service classes
/// active — the fluid model's closed-form standing queue, exposed for
/// validation against heavy-traffic queueing theory.
///
/// # Panics
///
/// Panics when `scheduler` has more than 16 queues, the most the
/// flow-level engines model.
pub fn steady_state_queue_bytes(
    marking: &MarkingConfig,
    scheduler: &SchedulerConfig,
    link_rate_bps: u64,
    buffer_bytes: u64,
    active_services: &[usize],
) -> u64 {
    let weights = scheduler.weights();
    let nq = weights.len();
    assert!(
        nq <= MAX_QUEUES,
        "the fluid model covers at most {MAX_QUEUES} queues per port, got {nq}"
    );
    let mut mask = 0u16;
    for &s in active_services {
        mask |= 1 << (s % nq);
    }
    let round_based = scheduler.build().round_time_nanos().is_some();
    onset::scan_onset(
        marking,
        &weights,
        round_based,
        link_rate_bps,
        buffer_bytes,
        mask,
    )
}

/// One live flow in the fluid model.
struct FlowState {
    id: u64,
    size_bytes: u64,
    start_nanos: u64,
    /// Queue its packets ride at every switch port (`service % nq`).
    queue: u16,
    /// Real link ids the data path crosses (NIC egress, then one per
    /// switch hop), ECMP-identical to the packet engine.
    path: Vec<u32>,
    /// Unloaded round-trip (propagation + serialization), nanoseconds.
    base_rtt_nanos: u64,
    /// Remaining work in bit·nanoseconds (`bytes · 8 · 10⁹`).
    rem_bitns: u64,
    /// Current max-min allocation, bits/second.
    rate_bps: u64,
    /// The application's offered-rate cap (`u64::MAX` = unlimited), kept
    /// so regional runs can rebuild the solver cap each solve as
    /// `min(app, region rate)` without losing the original bound.
    app_cap_bps: u64,
    /// Current total marking probability along the path, ppm.
    p_ppm: u64,
    /// Current RTT including saturated-link standing queues.
    rtt_nanos: u64,
    /// Accumulated `progress_bitns × p_ppm` — marks in scaled units.
    mark_acc: u128,
    /// The subset of `mark_acc` accrued while the PMSB(e) rule held
    /// (RTT below threshold → the sender ignores the echo).
    ignored_acc: u128,
}

/// Per-saturated-link state for one solve interval.
struct SatLink {
    /// The link id, kept for sparse-clearing `sat_index`.
    link: u32,
    nic: bool,
    /// Active-queue bitmask feeding the onset scan.
    mask: u16,
    /// Aggregate allocated rate per queue, feeding the hybrid
    /// micro-sim's mix signature (switch links only).
    qrate_bps: [u64; MAX_QUEUES],
    /// Standing-queue delay this link adds to crossing flows' RTT.
    delay_nanos: u64,
    /// Hybrid: handle to the measured per-queue eligibility in the
    /// micro-sim cache; `None` = closed form.
    cal: Option<u32>,
    /// Whether the link's port marks at all.
    marks: bool,
}

/// The lazily-pulled, time-ordered flow source (static list or
/// streaming pattern), with one-flow lookahead.
struct FlowFeed {
    iter: Box<dyn Iterator<Item = (u64, FlowDesc)>>,
    peeked: Option<(u64, FlowDesc)>,
}

impl FlowFeed {
    fn new(iter: Box<dyn Iterator<Item = (u64, FlowDesc)>>) -> Self {
        let mut f = FlowFeed { iter, peeked: None };
        f.peeked = f.iter.next();
        f
    }

    fn peek_start(&self) -> Option<u64> {
        self.peeked.as_ref().map(|(_, d)| d.start_nanos)
    }

    fn take_if_at(&mut self, t: u64) -> Option<(u64, FlowDesc)> {
        if self.peek_start() == Some(t) {
            let out = self.peeked.take();
            self.peeked = self.iter.next();
            out
        } else {
            None
        }
    }
}

/// `ceil(a / b)` for completion-time rounding.
fn ceil_div(a: u64, b: u64) -> u64 {
    a / b + u64::from(!a.is_multiple_of(b))
}

/// Integer square root (floor).
fn isqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut x = (n as f64).sqrt() as u64;
    // Float seeding then exact fix-up keeps this deterministic.
    while x > 0 && x * x > n {
        x -= 1;
    }
    while (x + 1).saturating_mul(x + 1) <= n {
        x += 1;
    }
    x
}

/// The steady-state marking fraction (ppm) a congestion-controlled flow
/// with window `w_pkts` settles at: DCTCP's fluid model gives
/// `α ≈ √(2/W)`, NewReno's classic-ECN throughput relation gives
/// `p ≈ 3/(2W²)`.
fn curve_p_ppm(kind: TransportKind, w_pkts: u64) -> u64 {
    let w = w_pkts.max(1);
    match kind {
        TransportKind::Dctcp => isqrt(2_000_000_000_000 / w).min(1_000_000),
        TransportKind::NewReno => (1_500_000 / (w.saturating_mul(w))).min(1_000_000),
    }
}

/// NewReno's classic halve-on-mark sawtooth averages 3/4 of the
/// allocated share (the window oscillates between W/2 and W).
const NEWRENO_UTIL_PPM: u64 = 750_000;

struct Engine<'w> {
    world: &'w World,
    switch_base: Vec<u32>,
    link_rate_bps: u64,
    link_delay_nanos: u64,
    mss: u64,
    kind: TransportKind,
    pmsbe_threshold_nanos: Option<u64>,
    max_cwnd_bytes: u64,
    num_queues: usize,
    hybrid: bool,
    switch_onset: OnsetCache,
    nic_onset: OnsetCache,
    micro: MicroCache,
    solver: Solver,
    active: Vec<FlowState>,
    /// Solver scratch, kept index-parallel to `active`.
    scratch: Vec<SolverFlow>,
    /// Link id → index into `sats` (`u32::MAX` = not saturated). Dense:
    /// the two hot passes below hit it once per flow-link incidence.
    sat_index: Vec<u32>,
    sats: Vec<SatLink>,
    /// Reusable mix-signature buffer for hybrid calibration lookups.
    mix_scratch: Vec<MicroStream>,
    /// The embedded packet region (regional engine only).
    region: Option<region::PacketRegion>,
}

impl<'w> Engine<'w> {
    fn new(e: &Experiment, world: &'w World) -> Self {
        let (switch_base, next) = link_ids(world);
        let weights = e.switch_cfg.scheduler.weights();
        let round_based = e.switch_cfg.scheduler.build().round_time_nanos().is_some();
        let switch_onset = OnsetCache::new(
            e.switch_cfg.marking.clone(),
            weights,
            round_based,
            e.link_rate_bps,
            e.switch_cfg.buffer_bytes,
        );
        let nic_onset = OnsetCache::new(
            e.host_cfg.nic_marking.clone(),
            vec![1],
            false,
            e.link_rate_bps,
            e.host_cfg.nic_buffer_bytes,
        );
        let micro = MicroCache::new(e.switch_cfg.clone(), e.link_rate_bps);
        Engine {
            switch_base,
            link_rate_bps: e.link_rate_bps,
            link_delay_nanos: e.link_delay_nanos,
            mss: e.transport.mss,
            kind: e.transport.kind,
            pmsbe_threshold_nanos: e.transport.pmsbe_rtt_threshold_nanos,
            max_cwnd_bytes: e.transport.max_cwnd_bytes,
            num_queues: e.switch_cfg.scheduler.num_queues(),
            hybrid: e.engine == EngineKind::Hybrid,
            switch_onset,
            nic_onset,
            micro,
            solver: Solver::new(next as usize),
            active: Vec::new(),
            scratch: Vec::new(),
            sat_index: vec![u32::MAX; next as usize],
            sats: Vec::new(),
            mix_scratch: Vec::new(),
            region: None,
            world,
        }
    }

    /// Promotes `hot` switch ports to packet level (regional engine).
    fn install_region(&mut self, e: &Experiment, hot: &[(usize, usize)]) {
        self.region = Some(region::PacketRegion::new(
            e,
            self.world,
            &self.switch_base,
            self.sat_index.len(),
            hot,
        ));
    }

    /// The data path as real link ids, using the world's route tables so
    /// ECMP choices match the packet engine exactly.
    fn data_path(&self, src: usize, dst: usize, flow_id: u64) -> Vec<u32> {
        let mut path = Vec::with_capacity(7);
        path.push(src as u32);
        let mut s = self.world.host_switch(src);
        loop {
            let p = self.world.route_port_for(s, dst, flow_id);
            path.push(self.switch_base[s] + p as u32);
            match self.world.port_peer(s, p) {
                NodeRef::Host(h) => {
                    debug_assert_eq!(h, dst, "route table leads to the wrong host");
                    break;
                }
                NodeRef::Switch(t) => s = t,
            }
        }
        path
    }

    fn inject(&mut self, id: u64, desc: &FlowDesc) {
        let path = self.data_path(desc.src_host, desc.dst_host, id);
        let hops = path.len() as u64;
        let c = self.link_rate_bps.max(1);
        let ser = (MTU_WIRE_BYTES + ACK_WIRE_BYTES) * 8_000_000_000 / c;
        let base_rtt = hops * (2 * self.link_delay_nanos + ser);
        self.scratch.push(SolverFlow {
            path: path.clone(),
            cap_bps: desc.app_rate_bps.unwrap_or(u64::MAX),
            rate_bps: 0,
        });
        self.active.push(FlowState {
            id,
            size_bytes: desc.size_bytes,
            start_nanos: desc.start_nanos,
            queue: (desc.service % self.num_queues) as u16,
            path,
            base_rtt_nanos: base_rtt,
            rem_bitns: desc
                .size_bytes
                .saturating_mul(8)
                .saturating_mul(1_000_000_000),
            rate_bps: 1,
            app_cap_bps: desc.app_rate_bps.unwrap_or(u64::MAX),
            p_ppm: 0,
            rtt_nanos: base_rtt,
            mark_acc: 0,
            ignored_acc: 0,
        });
        if let Some(r) = self.region.as_mut() {
            let f = self.active.last().expect("just pushed");
            r.on_inject(id, &f.path, f.queue);
        }
    }

    /// Accrues `dt` nanoseconds of progress and marks on every flow.
    fn advance(&mut self, dt: u64) {
        for f in &mut self.active {
            let prog = ((f.rate_bps as u128) * (dt as u128)).min(f.rem_bitns as u128) as u64;
            f.rem_bitns -= prog;
            if f.p_ppm > 0 {
                let acc = prog as u128 * f.p_ppm as u128;
                f.mark_acc += acc;
                if self
                    .pmsbe_threshold_nanos
                    .is_some_and(|th| f.rtt_nanos < th)
                {
                    f.ignored_acc += acc;
                }
            }
        }
    }

    /// Re-solves rates and marking state after a population change.
    fn resolve(&mut self, now: u64) {
        // Regional: the measured per-flow region rates enter the solve as
        // app-rate caps, so the fluid ledger drains each flow's bytes at
        // the rate the real hot-port queues grant it.
        if let Some(r) = self.region.as_ref() {
            for (f, sf) in self.active.iter().zip(self.scratch.iter_mut()) {
                sf.cap_bps = f.app_cap_bps.min(r.cap_bps(f.id));
            }
        }
        let saturated = self.solver.solve(&mut self.scratch, self.link_rate_bps);
        for (f, sf) in self.active.iter_mut().zip(&self.scratch) {
            f.rate_bps = sf.rate_bps.max(1);
        }
        // Index the saturated links and gather their queue masks / mixes.
        for s in &self.sats {
            self.sat_index[s.link as usize] = u32::MAX;
        }
        self.sats.clear();
        let num_hosts = self.world.num_hosts() as u32;
        for l in saturated {
            self.sat_index[l as usize] = self.sats.len() as u32;
            self.sats.push(SatLink {
                link: l,
                nic: l < num_hosts,
                mask: 0,
                qrate_bps: [0; MAX_QUEUES],
                delay_nanos: 0,
                cal: None,
                marks: false,
            });
        }
        for f in &self.active {
            for l in &f.path {
                let i = self.sat_index[*l as usize];
                if i != u32::MAX {
                    let s = &mut self.sats[i as usize];
                    let q = if s.nic { 0 } else { f.queue };
                    s.mask |= 1 << q;
                    if self.hybrid && !s.nic {
                        let slot = &mut s.qrate_bps[q as usize];
                        *slot = slot.saturating_add(f.rate_bps);
                    }
                }
            }
        }
        // Standing queue and eligibility per saturated link.
        for s in &mut self.sats {
            if self.region.as_ref().is_some_and(|r| r.is_hot(s.link)) {
                // The real port owns this link: marks arrive by
                // measurement and delay by live occupancy, not closed
                // form — leaving it in the statistical path would count
                // its congestion twice.
                s.marks = false;
                s.delay_nanos = 0;
                s.cal = None;
                continue;
            }
            let cache = if s.nic {
                &mut self.nic_onset
            } else {
                &mut self.switch_onset
            };
            s.marks = cache.has_marking();
            let onset = cache.onset_bytes(s.mask);
            // Without marking the standing queue is bounded by what the
            // senders can keep in flight, not the whole buffer.
            let occ = if s.marks {
                onset
            } else {
                onset.min(self.max_cwnd_bytes)
            };
            if self.hybrid && !s.nic && s.marks {
                // One signature entry per active queue: its aggregate
                // rate, bucket-quantized. Ascending queue order keeps
                // equal loads hitting the same memoized calibration; the
                // buffer is reused so a cache hit allocates nothing.
                self.mix_scratch.clear();
                for (q, &r) in s.qrate_bps.iter().enumerate() {
                    if r > 0 {
                        self.mix_scratch.push(MicroStream {
                            queue: q as u16,
                            bucket: (r.saturating_mul(RATE_BUCKETS) / self.link_rate_bps.max(1))
                                .min(RATE_BUCKETS - 1) as u8,
                        });
                    }
                }
                let idx = self.micro.calibrate(&self.mix_scratch, onset);
                s.delay_nanos = self
                    .micro
                    .cal(idx)
                    .mean_occ_bytes
                    .saturating_mul(8_000_000_000)
                    / self.link_rate_bps.max(1);
                s.cal = Some(idx);
            } else {
                s.delay_nanos = occ.saturating_mul(8_000_000_000) / self.link_rate_bps.max(1);
            }
        }
        // Per-flow RTT and marking probability under the new allocation.
        for f in &mut self.active {
            let mut rtt = f.base_rtt_nanos;
            for l in &f.path {
                let i = self.sat_index[*l as usize];
                if i != u32::MAX {
                    rtt += self.sats[i as usize].delay_nanos;
                }
                if let Some(r) = self.region.as_ref() {
                    // Hot hops add their *measured* standing queue,
                    // saturated or not (the hot sat entry above was
                    // zeroed, so this never double-counts).
                    rtt += r.delay_nanos(*l);
                }
            }
            f.rtt_nanos = rtt;
            let w_pkts = ((f.rate_bps as u128 * rtt as u128)
                / (8_000_000_000u128 * self.mss as u128))
                .min(u64::MAX as u128) as u64;
            let p_base = curve_p_ppm(self.kind, w_pkts);
            let mut p = 0u64;
            for l in &f.path {
                let i = self.sat_index[*l as usize];
                if i != u32::MAX {
                    let s = &self.sats[i as usize];
                    if !s.marks {
                        continue;
                    }
                    let elig = match s.cal {
                        Some(idx) => self.micro.cal(idx).elig_ppm[f.queue as usize] as u64,
                        None => 1_000_000,
                    };
                    p += p_base * elig / 1_000_000;
                }
            }
            f.p_ppm = p;
            if self.kind == TransportKind::NewReno && p > 0 {
                // The halve-on-mark sawtooth leaves capacity unused.
                f.rate_bps = (f.rate_bps / 1_000_000 * NEWRENO_UTIL_PPM
                    + f.rate_bps % 1_000_000 * NEWRENO_UTIL_PPM / 1_000_000)
                    .max(1);
            }
            if let Some(r) = self.region.as_mut() {
                r.set_alloc(f.id, f.rate_bps, f.rtt_nanos, now);
            }
        }
    }

    /// Marks accumulated so far, in packets: `(seen, ignored)`.
    fn marks_of(&self, f: &FlowState) -> (u64, u64) {
        let unit = 1_000_000u128 * self.mss as u128 * 8_000_000_000u128;
        ((f.mark_acc / unit) as u64, (f.ignored_acc / unit) as u64)
    }
}

/// Link ids of `world`: host `h`'s NIC is link `h`, and switch `s`'s
/// port `p` is link `switch_base[s] + p`. Returns `switch_base` and the
/// link count.
fn link_ids(world: &World) -> (Vec<u32>, u32) {
    let mut switch_base = vec![0u32; world.num_switches()];
    let mut next = world.num_hosts() as u32;
    for (s, base) in switch_base.iter_mut().enumerate() {
        *base = next;
        next += world.num_ports(s) as u32;
    }
    (switch_base, next)
}

/// Runs `e` under the fluid, hybrid, or regional engine until
/// `end_nanos`. The packet world is built once, for its routes, and
/// serves the scout pass and the regional pass alike.
pub(crate) fn run(e: &Experiment, end_nanos: u64) -> RunResults {
    let world = e.build_world();
    if e.engine != EngineKind::Regional {
        return run_pass(e, &world, end_nanos, None, None);
    }
    let hot = match &e.region {
        RegionSpec::Ports(list) => list.clone(),
        RegionSpec::Auto => scout_hot_ports(e, &world, end_nanos),
    };
    if hot.is_empty() {
        // No hot ports: the regional engine *is* the fluid engine, byte
        // for byte.
        return run_pass(e, &world, end_nanos, None, None);
    }
    run_pass(e, &world, end_nanos, Some(&hot), None)
}

/// Auto region selection: a full-horizon fluid scout pass accumulates
/// each link's saturated dwell time, then the busiest switch ports —
/// every port within a quarter of the longest dwell, capped at 128 —
/// become the hot set. Purely integer bookkeeping over a deterministic
/// pass, so the selection is itself deterministic.
fn scout_hot_ports(e: &Experiment, world: &World, end_nanos: u64) -> Vec<(usize, usize)> {
    let num_hosts = world.num_hosts();
    let (switch_base, next) = link_ids(world);
    let mut dwell: Vec<u128> = Vec::new();
    run_pass(e, world, end_nanos, None, Some(&mut dwell));
    let max = (num_hosts..next as usize)
        .map(|l| dwell[l])
        .max()
        .unwrap_or(0);
    if max == 0 {
        return Vec::new();
    }
    let mut cand: Vec<(u128, u32)> = (num_hosts..next as usize)
        .filter(|&l| dwell[l] > 0 && dwell[l] >= max / 4)
        .map(|l| (dwell[l], l as u32))
        .collect();
    cand.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    cand.truncate(128);
    let mut hot: Vec<(usize, usize)> = cand
        .into_iter()
        .map(|(_, l)| {
            let s = switch_base.partition_point(|&b| b <= l) - 1;
            (s, (l - switch_base[s]) as usize)
        })
        .collect();
    hot.sort_unstable();
    hot
}

/// One fluid pass: the event loop shared by all three flow-level
/// engines. `hot` embeds a packet region (regional engine); `scout`
/// accumulates per-link saturated dwell (nanoseconds, indexed by link
/// id) for auto region selection.
fn run_pass(
    e: &Experiment,
    world: &World,
    end_nanos: u64,
    hot: Option<&[(usize, usize)]>,
    mut scout: Option<&mut Vec<u128>>,
) -> RunResults {
    let streaming = e.stream.is_some();
    let record_exact = e.stream.as_ref().map(|s| s.record_exact).unwrap_or(true);
    let feed_iter: Box<dyn Iterator<Item = (u64, FlowDesc)>> = match &e.stream {
        Some(sp) => Box::new(
            sp.pattern
                .flows(e.num_hosts(), sp.seed, sp.total_flows)
                .map(|f| FlowDesc {
                    src_host: f.src_host,
                    dst_host: f.dst_host,
                    service: f.service,
                    size_bytes: f.size_bytes,
                    app_rate_bps: None,
                    start_nanos: f.start_nanos,
                })
                .enumerate()
                .map(|(i, d)| (i as u64, d)),
        ),
        None => {
            let mut flows: Vec<(u64, FlowDesc)> = e
                .flows
                .iter()
                .enumerate()
                .map(|(i, d)| (i as u64, *d))
                .collect();
            flows.sort_by_key(|(id, d)| (d.start_nanos, *id));
            Box::new(flows.into_iter())
        }
    };
    let mut feed = FlowFeed::new(feed_iter);
    let mut eng = Engine::new(e, world);
    if let Some(h) = hot {
        eng.install_region(e, h);
    }
    if let Some(sc) = scout.as_deref_mut() {
        sc.clear();
        sc.resize(eng.sat_index.len(), 0);
    }

    let mut fct = FctRecorder::new();
    let mut sketch = QuantileSketch::new();
    let mut sender_stats: HashMap<u64, SenderStats> = HashMap::new();
    let mut agg = SenderStats::default();
    let mut injected = 0u64;
    let mut completed = 0u64;
    let mut bytes_completed = 0u64;
    let mut marks_total = 0u64;
    let mut deliveries = 0u64;
    let mut events = 0u64;
    let mut slab_high_water = 0u64;
    let mut done: Vec<(u64, usize)> = Vec::new();

    let mut t = 0u64;
    // Resolve coalescing: `dirty` marks a deferred re-solve, allowed
    // again from `next_resolve` (zero = allowed immediately).
    let mut dirty = false;
    let mut next_resolve = 0u64;
    // Earliest completion over the active set. Absolute completion
    // times are invariant while rates hold (`advance` drains work at
    // exactly the allocated rate), so this only needs recomputing after
    // a re-solve or a completion batch — not on every event.
    let mut next_completion = u64::MAX;
    loop {
        // Next distinct timestamp: arrival, completion, a deferred
        // re-solve, or the horizon.
        let mut target = end_nanos;
        if let Some(a) = feed.peek_start() {
            if a < target {
                target = a.max(t);
            }
        }
        if dirty && next_resolve < target {
            target = next_resolve.max(t);
        }
        if next_completion < target {
            target = next_completion.max(t);
        }
        if let Some(r) = eng.region.as_mut() {
            // A region window roll can change a solver cap, so the clock
            // may not step past the earliest one.
            let at = r.next_rate_event();
            if at < target {
                target = at.max(t);
            }
        }
        if target > t {
            let dt = target - t;
            eng.advance(dt);
            if let Some(sc) = scout.as_deref_mut() {
                for s in &eng.sats {
                    sc[s.link as usize] += dt as u128;
                }
            }
            t = target;
        }
        if let Some(r) = eng.region.as_mut() {
            r.advance_to(t);
        }
        if t >= end_nanos {
            break;
        }
        events += 1;
        let mut changed = false;

        // Completions at t — batched, recorded in ascending flow id.
        done.clear();
        if t >= next_completion {
            for (i, f) in eng.active.iter().enumerate() {
                if f.rem_bitns == 0 {
                    done.push((f.id, i));
                }
            }
        }
        if !done.is_empty() {
            done.sort_unstable();
            for &(id, i) in &done {
                let f = &eng.active[i];
                let (mut seen, mut ignored) = eng.marks_of(f);
                if let Some(r) = eng.region.as_mut() {
                    // Measured hot-port marks ride on top of the
                    // statistical accrual from the rest of the path.
                    let (rs, ri) = r.remove_flow(id);
                    seen += rs;
                    ignored += ri;
                }
                marks_total += seen;
                deliveries += f.size_bytes.div_ceil(eng.mss.max(1));
                let end = t + f.rtt_nanos;
                let rec = FlowRecord {
                    flow_id: id,
                    bytes: f.size_bytes,
                    start_nanos: f.start_nanos,
                    end_nanos: end,
                };
                if streaming {
                    sketch.insert(rec.fct_nanos());
                    completed += 1;
                    bytes_completed += f.size_bytes;
                    agg.marks_seen += seen;
                    agg.marks_ignored += ignored;
                    if record_exact {
                        fct.record(rec);
                    }
                } else {
                    fct.record(rec);
                    let st = sender_stats.entry(id).or_default();
                    st.marks_seen = seen;
                    st.marks_ignored = ignored;
                }
            }
            // Remove by descending index so swaps stay valid.
            let mut idx: Vec<usize> = done.iter().map(|&(_, i)| i).collect();
            idx.sort_unstable_by(|a, b| b.cmp(a));
            for i in idx {
                eng.active.swap_remove(i);
                eng.scratch.swap_remove(i);
            }
            changed = true;
            next_completion = u64::MAX;
            for f in &eng.active {
                let at = t.saturating_add(ceil_div(f.rem_bitns, f.rate_bps.max(1)));
                next_completion = next_completion.min(at);
            }
        }

        // Arrivals at t.
        while let Some((id, desc)) = feed.take_if_at(t) {
            eng.inject(id, &desc);
            injected += 1;
            changed = true;
            events += 1;
        }
        slab_high_water = slab_high_water.max(eng.active.len() as u64);

        // Region window rolls since the last iteration changed caps.
        if eng.region.as_mut().is_some_and(|r| r.take_rates_changed()) {
            changed = true;
        }

        if (changed || dirty) && t >= next_resolve {
            eng.resolve(t);
            dirty = false;
            next_resolve = t + RESOLVE_QUANTUM_NANOS;
            next_completion = u64::MAX;
            for f in &eng.active {
                let at = t.saturating_add(ceil_div(f.rem_bitns, f.rate_bps.max(1)));
                next_completion = next_completion.min(at);
            }
        } else if changed {
            dirty = true;
        }
    }

    // Flows still live at the horizon: their marks so far belong in the
    // aggregates, exactly like the packet harvest of live senders.
    for f in &eng.active {
        let (mut seen, mut ignored) = eng.marks_of(f);
        if let Some(r) = eng.region.as_mut() {
            let (rs, ri) = r.remove_flow(f.id);
            seen += rs;
            ignored += ri;
        }
        marks_total += seen;
        if streaming {
            agg.marks_seen += seen;
            agg.marks_ignored += ignored;
        } else {
            let st = sender_stats.entry(f.id).or_default();
            st.marks_seen = seen;
            st.marks_ignored = ignored;
        }
    }

    // Fold the region's own counters in: ghost drops at hot ports, marks
    // on ghosts of already-departed flows, and pool contention.
    let mut drops = 0u64;
    let mut shared_buffer = None;
    let mut engine_path = if e.engine == EngineKind::Hybrid {
        EnginePath::Hybrid
    } else {
        EnginePath::Fluid
    };
    if let Some(r) = eng.region.take() {
        let s = r.finish();
        engine_path = EnginePath::Regional {
            hot_ports: s.hot_ports,
        };
        drops = s.drops;
        marks_total += s.orphan_marks;
        events += s.events;
        shared_buffer = s.shared;
    }

    RunResults {
        fct,
        rtt_nanos_by_flow: HashMap::new(),
        port_traces: HashMap::new(),
        sender_stats,
        drops,
        marks: marks_total,
        end_nanos,
        events,
        deliveries,
        faults: None,
        stream: if streaming {
            Some(StreamStats {
                sketch,
                injected,
                completed,
                bytes_completed,
                agg_sender: agg,
                slab_high_water,
            })
        } else {
            None
        },
        // Fluid/hybrid runs reject shared buffer policies up front; on a
        // regional run the hot-port pools report their contention.
        shared_buffer,
        engine_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarkingConfig;
    use crate::experiment::Experiment;

    #[test]
    fn isqrt_is_exact() {
        for n in [0u64, 1, 2, 3, 4, 15, 16, 17, 1_000_000, u32::MAX as u64] {
            let r = isqrt(n);
            assert!(r * r <= n);
            assert!((r + 1).saturating_mul(r + 1) > n);
        }
    }

    #[test]
    fn response_curves_are_monotone() {
        let mut prev = u64::MAX;
        for w in [1u64, 2, 4, 16, 64, 256, 1024] {
            let p = curve_p_ppm(TransportKind::Dctcp, w);
            assert!(p <= prev, "DCTCP p must fall with W");
            prev = p;
        }
        assert!(
            curve_p_ppm(TransportKind::NewReno, 10) < curve_p_ppm(TransportKind::Dctcp, 10),
            "at equal W, NewReno needs far fewer marks than DCTCP"
        );
    }

    #[test]
    fn fluid_dumbbell_completes_flows() {
        let mut e = Experiment::dumbbell(2, 2).engine(EngineKind::Fluid);
        e.add_flow(FlowDesc::bulk(0, 2, 0, 1_000_000));
        e.add_flow(FlowDesc::bulk(1, 2, 1, 1_000_000));
        let res = e.run_for_millis(50);
        assert_eq!(res.fct.len(), 2);
        assert!(res.marks > 0, "a congested dumbbell must mark");
        assert_eq!(res.drops, 0);
        // Both flows share the bottleneck equally: ~1.6 ms each.
        for r in res.fct.records() {
            let fct = r.fct_nanos();
            assert!(fct > 1_000_000, "FCT {fct} too fast for a shared link");
            assert!(fct < 10_000_000, "FCT {fct} too slow");
        }
    }

    /// An application cap at or above the line rate constrains nothing:
    /// a lone 10 MB flow capped at 20 or 10 Gbps on 10 Gbps links
    /// finishes when the uncapped flow does, not at twice the line rate.
    #[test]
    fn an_app_cap_above_the_line_rate_caps_nothing() {
        let fct = |cap_bps: Option<u64>| {
            let mut e = Experiment::dumbbell(2, 1).engine(EngineKind::Fluid);
            let flow = FlowDesc::bulk(0, 2, 0, 10_000_000);
            e.add_flow(cap_bps.map_or(flow, |c| flow.with_app_rate_bps(c)));
            let res = e.run_for_millis(100);
            res.fct.records()[0].fct_nanos()
        };
        let uncapped = fct(None);
        assert!(uncapped > 8_000_000, "10 MB at 10 Gbps: {uncapped} ns");
        assert_eq!(fct(Some(20_000_000_000)), uncapped);
        assert_eq!(fct(Some(10_000_000_000)), uncapped);
    }

    #[test]
    fn fluid_run_is_deterministic() {
        let run = || {
            let mut e = Experiment::dumbbell(4, 4).engine(EngineKind::Fluid);
            for i in 0..4 {
                e.add_flow(
                    FlowDesc::bulk(i, 4, i, 500_000 + i as u64 * 10_000)
                        .starting_at(i as u64 * 50_000),
                );
            }
            let res = e.run_for_millis(50);
            res.fct
                .records()
                .iter()
                .map(|r| (r.flow_id, r.end_nanos))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hybrid_matches_fluid_population_but_calibrates_marks() {
        let run = |engine| {
            let mut e = Experiment::dumbbell(4, 4)
                .marking(MarkingConfig::Pmsb {
                    port_threshold_pkts: 12,
                })
                .engine(engine);
            for i in 0..4 {
                e.add_flow(FlowDesc::bulk(i, 4, i, 2_000_000));
            }
            e.run_for_millis(100)
        };
        let fluid = run(EngineKind::Fluid);
        let hybrid = run(EngineKind::Hybrid);
        assert_eq!(fluid.fct.len(), 4);
        assert_eq!(hybrid.fct.len(), 4);
        assert!(hybrid.marks > 0);
    }

    #[test]
    fn regional_empty_hot_set_is_fluid_byte_for_byte() {
        use crate::config::RegionSpec;
        let run = |engine, spec: Option<RegionSpec>| {
            let mut e = Experiment::dumbbell(4, 4).engine(engine);
            if let Some(s) = spec {
                e = e.region(s);
            }
            for i in 0..4 {
                e.add_flow(FlowDesc::bulk(i, 4, i, 1_000_000));
            }
            let res = e.run_for_millis(50);
            (
                res.fct
                    .records()
                    .iter()
                    .map(|r| (r.flow_id, r.end_nanos))
                    .collect::<Vec<_>>(),
                res.marks,
                res.drops,
            )
        };
        let fluid = run(EngineKind::Fluid, None);
        let regional = run(EngineKind::Regional, Some(RegionSpec::Ports(Vec::new())));
        assert_eq!(fluid, regional);
    }

    #[test]
    fn regional_hot_port_measures_marks_and_shifts_fcts() {
        use crate::config::RegionSpec;
        let run = |engine, spec| {
            let mut e = Experiment::dumbbell(4, 4)
                .marking(MarkingConfig::Pmsb {
                    port_threshold_pkts: 12,
                })
                .engine(engine)
                .region(spec);
            for i in 0..4 {
                e.add_flow(FlowDesc::bulk(i, 4, i, 2_000_000));
            }
            e.run_for_millis(100)
        };
        // The dumbbell bottleneck is switch 0's port facing the receiver
        // (host index 4 = port 4).
        let res = run(EngineKind::Regional, RegionSpec::Ports(vec![(0, 4)]));
        assert_eq!(res.fct.len(), 4, "all flows must still complete");
        assert!(res.marks > 0, "the hot port must mark ghosts");
        let fluid = run(EngineKind::Fluid, RegionSpec::Auto);
        let f_end: Vec<u64> = fluid.fct.records().iter().map(|r| r.end_nanos).collect();
        let r_end: Vec<u64> = res.fct.records().iter().map(|r| r.end_nanos).collect();
        assert_ne!(
            f_end, r_end,
            "the measured region must perturb completion times"
        );
    }

    #[test]
    fn regional_auto_selects_the_bottleneck() {
        use crate::config::RegionSpec;
        let mut scouted = Experiment::dumbbell(4, 4).engine(EngineKind::Regional);
        for i in 0..4 {
            scouted.add_flow(FlowDesc::bulk(i, 4, i, 2_000_000));
        }
        let hot = scout_hot_ports(&scouted, &scouted.build_world(), 100_000_000);
        assert!(
            hot.contains(&(0, 4)),
            "the dumbbell bottleneck port must be hot, got {hot:?}"
        );
        // And the auto run completes end to end.
        let mut e = Experiment::dumbbell(4, 4)
            .engine(EngineKind::Regional)
            .region(RegionSpec::Auto);
        for i in 0..4 {
            e.add_flow(FlowDesc::bulk(i, 4, i, 2_000_000));
        }
        let res = e.run_for_millis(100);
        assert_eq!(res.fct.len(), 4);
    }

    #[test]
    fn regional_run_is_deterministic() {
        use crate::config::RegionSpec;
        let run = || {
            let mut e = Experiment::dumbbell(4, 4)
                .engine(EngineKind::Regional)
                .region(RegionSpec::Auto);
            for i in 0..4 {
                e.add_flow(
                    FlowDesc::bulk(i, 4, i, 500_000 + i as u64 * 10_000)
                        .starting_at(i as u64 * 50_000),
                );
            }
            let res = e.run_for_millis(50);
            (
                res.fct
                    .records()
                    .iter()
                    .map(|r| (r.flow_id, r.end_nanos))
                    .collect::<Vec<_>>(),
                res.marks,
                res.events,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn app_rate_cap_is_respected() {
        let mut e = Experiment::dumbbell(2, 2).engine(EngineKind::Fluid);
        e.add_flow(FlowDesc::bulk(0, 2, 0, 1_000_000).with_app_rate_bps(1_000_000_000));
        let res = e.run_for_millis(100);
        assert_eq!(res.fct.len(), 1);
        // 1 MB at 1 Gb/s is 8 ms; an uncapped flow would finish in ~1 ms.
        let fct = res.fct.records()[0].fct_nanos();
        assert!(fct >= 8_000_000, "cap ignored: FCT {fct}");
    }

    #[test]
    fn streaming_mode_produces_stream_stats() {
        use pmsb_workload::PatternSpec;
        let e = Experiment::dumbbell(8, 8).engine(EngineKind::Fluid).stream(
            PatternSpec::Incast {
                fan_in: 4,
                request_bytes: 100_000,
                epoch_nanos: 1_000_000,
            },
            7,
            64,
        );
        let res = e.run_until_nanos(1_000_000_000);
        let st = res.stream.expect("streaming results");
        assert_eq!(st.injected, 64);
        assert_eq!(st.completed, 64, "all incast flows finish in 1 s");
        assert!(st.sketch.count() == 64);
        assert!(st.slab_high_water >= 4);
        assert!(res.fct.is_empty(), "no exact records unless requested");
    }
}
