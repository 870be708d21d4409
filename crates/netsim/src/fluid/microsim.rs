//! Per-port packet micro-simulation for the hybrid engine.
//!
//! The fluid solve decides *rates*; what it cannot see is how the
//! configured scheduler and marking scheme treat the individual queues
//! of a saturated port — per-queue vs per-port thresholds, PMSB's
//! selective blindness, DWRR interleaving. The hybrid engine recovers
//! that by running a short, deterministic packet simulation of just the
//! saturated port: queues pre-filled to the marking onset, one MTU
//! packet stream per active queue at its allocated (bucket-quantized)
//! rate, and the packet engine's own [`Port`] — the configured
//! scheduler and marking scheme at the configured mark point — doing
//! the work. Two measurements come back:
//!
//! * per-queue **mark eligibility** — the fraction of a queue's marking
//!   decisions that marked while the port sat at its operating point
//!   (selective blindness shows up here as eligibility ≈ 0). A port
//!   decides once per packet, at its mark point: the denominator counts
//!   a queue's arrivals at the enqueue point and its departures at the
//!   dequeue point,
//! * the **mean port occupancy**, which replaces the closed-form onset
//!   in the queue-delay term of the FCT.
//!
//! The mix is one entry per *active queue* — the queue's aggregate
//! allocated rate quantized to eight buckets of the link rate — not one
//! entry per flow: the marker and scheduler see queue occupancies, so
//! per-flow granularity in the key would only shatter the memoization
//! (every arrival would mint a novel signature) without changing what
//! the calibration measures. Keyed this way, the (highly repetitive)
//! saturated-port populations of incast and shuffle epochs collapse to
//! a handful of distinct calibrations per run. The cache is capped;
//! overflow falls back to the closed-form calibration, never to an
//! unbounded sim population.

use std::collections::HashMap;

use pmsb::MarkPoint;
use pmsb_sched::SchedItem;
use pmsb_simcore::{EventQueue, SimTime};

use crate::config::SwitchConfig;
use crate::packet::MTU_WIRE_BYTES;
use crate::world::port::{Port, PortItem};

/// Rate-quantization buckets per link rate. Coarse on purpose: marking
/// eligibility moves slowly with the rate split, and every extra bucket
/// multiplies the signature space — and therefore the number of
/// micro-sims a run pays for — without moving the measurement.
pub(super) const RATE_BUCKETS: u64 = 8;
/// Total arrivals simulated per calibration.
const TOTAL_ARRIVALS: u64 = 2048;
/// Arrivals ignored while the port settles.
const WARMUP_ARRIVALS: u64 = 512;
/// Memoization cap — a hard bound on calibration work per run; beyond
/// it the closed form takes over.
const CACHE_CAP: usize = 2048;

/// One queue's aggregate packet stream into the micro-simulated port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(super) struct MicroStream {
    /// Destination queue (`service % num_queues`).
    pub(super) queue: u16,
    /// The queue's aggregate allocated rate quantized to `RATE_BUCKETS`
    /// of the link rate.
    pub(super) bucket: u8,
}

/// What one calibration measured.
#[derive(Debug, Clone)]
pub(super) struct PortCal {
    /// Per-queue marked fraction of arrivals, in ppm.
    pub(super) elig_ppm: Vec<u32>,
    /// Mean port occupancy over the measured window, bytes.
    pub(super) mean_occ_bytes: u64,
}

impl PortCal {
    /// The closed-form fallback: every queue fully eligible, occupancy
    /// pinned at the onset.
    pub(super) fn closed_form(num_queues: usize, onset_bytes: u64) -> Self {
        PortCal {
            elig_ppm: vec![1_000_000; num_queues],
            mean_occ_bytes: onset_bytes,
        }
    }
}

/// A fixed-size MTU packet in the micro-sim. It is ECN-capable, and the
/// port decides on it once, at its mark point, so it needs no CE bit.
#[derive(Debug, Default)]
struct MicroPkt {
    enqueued_at_nanos: u64,
}

impl SchedItem for MicroPkt {
    fn len_bytes(&self) -> u64 {
        MTU_WIRE_BYTES
    }
}

impl PortItem for MicroPkt {
    fn markable(&self) -> bool {
        true
    }
    fn mark(&mut self) {}
    fn enqueued_at_nanos(&self) -> u64 {
        self.enqueued_at_nanos
    }
    fn set_enqueued_at_nanos(&mut self, now_nanos: u64) {
        self.enqueued_at_nanos = now_nanos;
    }
}

enum MicroEv {
    Arrival { stream: usize },
    TxDone,
}

/// Memoized micro-sim calibrations for one switch-port configuration.
///
/// Calibrations are arena-stored and handed out as indices: the hot
/// path (one lookup per saturated link per solve) then costs one slice
/// hash — no allocation, no `PortCal` clone.
pub(super) struct MicroCache {
    /// The switch ports' config: every micro-sim port is one of them.
    cfg: SwitchConfig,
    link_rate_bps: u64,
    map: HashMap<Vec<MicroStream>, u32>,
    /// Closed-form fallback entries, keyed by onset.
    closed: HashMap<u64, u32>,
    cals: Vec<PortCal>,
}

impl MicroCache {
    pub(super) fn new(cfg: SwitchConfig, link_rate_bps: u64) -> Self {
        MicroCache {
            cfg,
            link_rate_bps,
            map: HashMap::new(),
            closed: HashMap::new(),
            cals: Vec::new(),
        }
    }

    /// The calibration behind a handle returned by [`Self::calibrate`].
    pub(super) fn cal(&self, idx: u32) -> &PortCal {
        &self.cals[idx as usize]
    }

    fn closed_form_idx(&mut self, onset_bytes: u64) -> u32 {
        let nq = self.cfg.scheduler.num_queues();
        *self.closed.entry(onset_bytes).or_insert_with(|| {
            self.cals.push(PortCal::closed_form(nq, onset_bytes));
            (self.cals.len() - 1) as u32
        })
    }

    /// Calibration handle for a saturated port carrying `mix` (one
    /// ascending-queue entry per active queue). `onset_bytes` seeds the
    /// pre-fill and the closed-form fallback.
    pub(super) fn calibrate(&mut self, mix: &[MicroStream], onset_bytes: u64) -> u32 {
        if mix.is_empty() {
            return self.closed_form_idx(onset_bytes);
        }
        if let Some(&i) = self.map.get(mix) {
            return i;
        }
        if self.map.len() >= CACHE_CAP {
            return self.closed_form_idx(onset_bytes);
        }
        let cal = run_micro(&self.cfg, self.link_rate_bps, mix, onset_bytes);
        self.cals.push(cal);
        let idx = (self.cals.len() - 1) as u32;
        self.map.insert(mix.to_vec(), idx);
        idx
    }
}

/// Runs one deterministic port calibration; see the module docs.
fn run_micro(
    cfg: &SwitchConfig,
    link_rate_bps: u64,
    mix: &[MicroStream],
    onset_bytes: u64,
) -> PortCal {
    let nq = cfg.scheduler.num_queues();
    let mut port: Port<MicroPkt> = Port::switch(cfg, link_rate_bps, 0);
    let pkt = MTU_WIRE_BYTES;
    let ser_nanos = (pkt * 8_000_000_000) / link_rate_bps.max(1);

    // Pre-fill the active queues round-robin up to the onset plus a few
    // packets, so step-threshold schemes operate *at* their decision
    // boundary instead of spending the whole run climbing towards it.
    let mut active: Vec<u16> = mix.iter().map(|s| s.queue).collect();
    active.sort_unstable();
    active.dedup();
    let prefill_pkts = onset_bytes / pkt + 4;
    for i in 0..prefill_pkts {
        let q = active[(i % active.len() as u64) as usize] as usize;
        port.prefill(q, MicroPkt::default());
    }

    // Per-stream arrival periods from the bucket-centre rates, scaled so
    // the offered load is exactly the link rate: the port then holds its
    // operating point instead of draining or overflowing.
    let centre = |b: u8| (b as u64 * 2 + 1) * link_rate_bps / (2 * RATE_BUCKETS);
    let total_rate: u64 = mix.iter().map(|s| centre(s.bucket).max(1)).sum();
    let mut queue: EventQueue<MicroEv> = EventQueue::new();
    let mut periods = Vec::with_capacity(mix.len());
    for (i, s) in mix.iter().enumerate() {
        let share = centre(s.bucket).max(1) as u128;
        // period = pkt_bits / (share/total * C) nanoseconds.
        let period = ((pkt * 8_000_000_000) as u128 * total_rate as u128
            / (share * link_rate_bps.max(1) as u128))
            .max(1) as u64;
        periods.push(period);
        // Prime-ish stagger to decorrelate same-rate streams.
        let offset = (i as u64).wrapping_mul(997) % period;
        queue.push(SimTime::from_nanos(offset), MicroEv::Arrival { stream: i });
    }

    // Marking decisions and marks per queue, counted at the port's mark
    // point only.
    let at_enqueue = cfg.mark_point == MarkPoint::Enqueue;
    let mut decisions_by_q = vec![0u64; nq];
    let mut marks_by_q = vec![0u64; nq];
    let mut arrivals_seen = 0u64;
    let mut measuring = false;
    let mut occ_integral: u128 = 0;
    let mut measure_start = 0u64;
    let mut last_t = 0u64;

    while let Some((at, ev)) = queue.pop() {
        let now = at.as_nanos();
        if measuring {
            occ_integral += port.mq().port_bytes() as u128 * (now - last_t) as u128;
        }
        last_t = now;
        let mut next_arrival = None;
        match ev {
            MicroEv::Arrival { stream } => {
                arrivals_seen += 1;
                if arrivals_seen == WARMUP_ARRIVALS {
                    measuring = true;
                    measure_start = now;
                    occ_integral = 0;
                }
                let q = usize::from(mix[stream].queue) % nq;
                let marked = port.arrive(q, MicroPkt::default(), now, None);
                if measuring && at_enqueue {
                    decisions_by_q[q] += 1;
                    marks_by_q[q] += u64::from(marked);
                }
                if arrivals_seen < TOTAL_ARRIVALS {
                    next_arrival = Some((now + periods[stream], stream));
                }
            }
            MicroEv::TxDone => {
                port.finish();
                // Stop once the arrival phase is over; the measurement
                // window closes with the last processed event.
                if arrivals_seen >= TOTAL_ARRIVALS {
                    break;
                }
            }
        }
        if let Some((q, _, marked)) = port.depart(now, None) {
            if measuring && !at_enqueue {
                decisions_by_q[q] += 1;
                marks_by_q[q] += u64::from(marked);
            }
            queue.push(SimTime::from_nanos(now + ser_nanos), MicroEv::TxDone);
        }
        if let Some((at, stream)) = next_arrival {
            queue.push(SimTime::from_nanos(at), MicroEv::Arrival { stream });
        }
    }

    let elapsed = last_t.saturating_sub(measure_start).max(1);
    let mean_occ = (occ_integral / elapsed as u128) as u64;
    let elig_ppm = (0..nq)
        .map(|q| {
            match marks_by_q[q]
                .saturating_mul(1_000_000)
                .checked_div(decisions_by_q[q])
            {
                Some(ppm) => ppm.min(1_000_000) as u32,
                None => 0,
            }
        })
        .collect();
    PortCal {
        elig_ppm,
        mean_occ_bytes: mean_occ,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MarkingConfig, SchedulerConfig};

    fn mix(entries: &[(u16, u8)]) -> Vec<MicroStream> {
        let mut v: Vec<MicroStream> = entries
            .iter()
            .map(|&(queue, bucket)| MicroStream { queue, bucket })
            .collect();
        v.sort();
        v
    }

    fn cache(marking: MarkingConfig) -> MicroCache {
        cache_at(marking, MarkPoint::Enqueue)
    }

    /// Eight equal DWRR queues behind `marking` at `mark_point`, on a
    /// 2 MB, 10 Gbps port.
    fn cache_at(marking: MarkingConfig, mark_point: MarkPoint) -> MicroCache {
        let cfg = SwitchConfig {
            scheduler: SchedulerConfig::Dwrr {
                weights: vec![1; 8],
            },
            marking,
            mark_point,
            buffer_bytes: 2 * 1024 * 1024,
            ..SwitchConfig::default()
        };
        MicroCache::new(cfg, 10_000_000_000)
    }

    /// A port held above a per-port threshold marks every packet of
    /// every queue, at either mark point: each packet meets one decision.
    #[test]
    fn saturated_per_port_marks_every_queue() {
        for point in [MarkPoint::Enqueue, MarkPoint::Dequeue] {
            let mut c = cache_at(MarkingConfig::PerPort { threshold_pkts: 12 }, point);
            let m = mix(&[(0, 2), (1, 2), (2, 2), (3, 2)]);
            let idx = c.calibrate(&m, 12 * MTU_WIRE_BYTES);
            let cal = c.cal(idx).clone();
            for q in 0..4 {
                assert!(
                    cal.elig_ppm[q] > 900_000,
                    "queue {q} eligibility {} too low at {point}",
                    cal.elig_ppm[q]
                );
            }
            assert!(cal.mean_occ_bytes >= 12 * MTU_WIRE_BYTES);
        }
    }

    #[test]
    fn pmsb_blinds_the_small_queue() {
        // One heavy queue and one light queue: PMSB's per-queue filter
        // must leave the light queue (occupancy below its fair share of
        // the threshold) unmarked while the heavy queue stays eligible.
        let mut c = cache(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        });
        let m = mix(&[(0, 6), (1, 1)]);
        let idx = c.calibrate(&m, 12 * MTU_WIRE_BYTES);
        let cal = c.cal(idx).clone();
        assert!(
            cal.elig_ppm[0] > cal.elig_ppm[1],
            "heavy queue {} must out-mark the light one {}",
            cal.elig_ppm[0],
            cal.elig_ppm[1]
        );
    }

    #[test]
    fn calibrations_memoize_and_are_deterministic() {
        let mut c = cache(MarkingConfig::PerPort { threshold_pkts: 12 });
        let m = mix(&[(0, 3), (5, 3)]);
        let a = c.calibrate(&m, 12 * MTU_WIRE_BYTES);
        let b = c.calibrate(&m, 12 * MTU_WIRE_BYTES);
        assert_eq!(a, b, "second call must hit the memoized entry");
    }

    #[test]
    fn empty_mix_takes_the_closed_form() {
        let mut c = cache(MarkingConfig::PerPort { threshold_pkts: 12 });
        let idx = c.calibrate(&[], 12 * MTU_WIRE_BYTES);
        let cal = c.cal(idx).clone();
        assert_eq!(cal.mean_occ_bytes, 12 * MTU_WIRE_BYTES);
        assert!(cal.elig_ppm.iter().all(|&e| e == 1_000_000));
    }
}
