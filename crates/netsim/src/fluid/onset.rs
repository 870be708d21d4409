//! Marking-onset estimation: the port occupancy at which a marking
//! scheme starts signalling, probed through the *real* scheme objects.
//!
//! The fluid model needs one number per (port kind, active-queue set):
//! the standing-queue level `K*` a steady congestion-controlled load
//! converges to. Rather than re-deriving each scheme's threshold
//! algebra (and silently diverging from the packet engine), the scan
//! instantiates the configured [`MarkingScheme`] and walks the port
//! occupancy upward one MTU at a time — bytes spread evenly over the
//! active queues, sojourn and round-time signals set to what that
//! occupancy implies at the port's link rate — until the scheme marks.
//! The first marking occupancy is `K*`; a scheme that never marks (or
//! [`MarkingConfig::None`]) yields the buffer size, i.e. "no onset".
//!
//! Results are memoized per active-queue mask, so the scan runs a
//! handful of times per experiment regardless of flow count.

use std::collections::HashMap;

use pmsb::PortSnapshot;

use crate::config::MarkingConfig;
use crate::packet::MTU_WIRE_BYTES;

/// Memoized onset scans for one port configuration (marking scheme +
/// scheduler weights + link rate + buffer).
pub(super) struct OnsetCache {
    marking: MarkingConfig,
    weights: Vec<u64>,
    link_rate_bps: u64,
    buffer_bytes: u64,
    /// Whether the scheduler is round-based (DWRR/WRR), which decides if
    /// the probe snapshots carry a round-time signal (mirrors
    /// `Scheduler::round_time_nanos`).
    round_based: bool,
    map: HashMap<u16, u64>,
}

impl OnsetCache {
    pub(super) fn new(
        marking: MarkingConfig,
        weights: Vec<u64>,
        round_based: bool,
        link_rate_bps: u64,
        buffer_bytes: u64,
    ) -> Self {
        OnsetCache {
            marking,
            weights,
            link_rate_bps,
            buffer_bytes,
            round_based,
            map: HashMap::new(),
        }
    }

    /// Whether the port marks at all ([`MarkingConfig::None`] does not).
    pub(super) fn has_marking(&self) -> bool {
        !matches!(self.marking, MarkingConfig::None)
    }

    /// Onset occupancy in bytes for the given active-queue bitmask
    /// (bit `q` set = queue `q` carries traffic). An empty mask is
    /// treated as one active queue 0.
    pub(super) fn onset_bytes(&mut self, active_queues: u16) -> u64 {
        let mask = if active_queues == 0 { 1 } else { active_queues };
        if let Some(&k) = self.map.get(&mask) {
            return k;
        }
        let k = scan_onset(
            &self.marking,
            &self.weights,
            self.round_based,
            self.link_rate_bps,
            self.buffer_bytes,
            mask,
        );
        self.map.insert(mask, k);
        k
    }
}

/// Walks port occupancy upward until the scheme marks; see the module
/// docs. Returns `buffer_bytes` when the scheme never marks.
pub(super) fn scan_onset(
    marking: &MarkingConfig,
    weights: &[u64],
    round_based: bool,
    link_rate_bps: u64,
    buffer_bytes: u64,
    active_queues: u16,
) -> u64 {
    let Some(mut marker) = marking.build(weights) else {
        return buffer_bytes;
    };
    let nq = weights.len();
    let active: Vec<usize> = (0..nq).filter(|q| active_queues & (1 << q) != 0).collect();
    let active = if active.is_empty() { vec![0] } else { active };
    let m = active.len() as u64;
    let pkt = MTU_WIRE_BYTES;
    let max_pkts = (buffer_bytes / pkt).max(1);
    for n in 1..=max_pkts {
        let total = n * pkt;
        let mut b = PortSnapshot::builder(nq)
            .port_bytes(total)
            .pool_bytes(total)
            .link_rate_bps(link_rate_bps)
            // A packet admitted now waits for the whole backlog to drain.
            .sojourn_nanos(total.saturating_mul(8_000_000_000) / link_rate_bps.max(1));
        if round_based {
            // One quantum (1 MTU) per active queue per scheduler round.
            b = b.round_time_nanos(m * pkt * 8_000_000_000 / link_rate_bps.max(1));
        }
        // Spread the occupancy evenly; the remainder goes to the lowest
        // active queues so per-queue bytes always sum to `total`.
        let base = total / m;
        let rem = (total % m) as usize;
        for (i, &q) in active.iter().enumerate() {
            let extra = if i < rem { 1 } else { 0 };
            b = b.queue_bytes(q, base + extra);
        }
        let snap = b.build();
        if active
            .iter()
            .any(|&q| marker.should_mark(&snap, q).is_mark())
        {
            return total;
        }
    }
    buffer_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: u64 = 10_000_000_000;
    const BUF: u64 = 2 * 1024 * 1024;

    fn scan(marking: MarkingConfig, mask: u16) -> u64 {
        scan_onset(&marking, &[1; 8], true, RATE, BUF, mask)
    }

    #[test]
    fn per_port_onset_is_the_port_threshold() {
        let k = scan(MarkingConfig::PerPort { threshold_pkts: 12 }, 0b1111_1111);
        assert_eq!(k, 12 * MTU_WIRE_BYTES);
        // Independent of how many queues carry the load.
        let k1 = scan(MarkingConfig::PerPort { threshold_pkts: 12 }, 0b1);
        assert_eq!(k1, k);
    }

    #[test]
    fn per_queue_onset_scales_with_active_queues() {
        // Each queue marks at its own K, so with m equally loaded queues
        // the port sits at ~m*K when the first queue crosses.
        let k1 = scan(MarkingConfig::PerQueueStandard { threshold_pkts: 65 }, 0b1);
        let k4 = scan(
            MarkingConfig::PerQueueStandard { threshold_pkts: 65 },
            0b1111,
        );
        assert_eq!(k1, 65 * MTU_WIRE_BYTES);
        assert!(k4 >= 4 * k1 - 4 * MTU_WIRE_BYTES, "k4 {k4} vs k1 {k1}");
        assert!(k4 <= 4 * k1 + 4 * MTU_WIRE_BYTES);
    }

    #[test]
    fn pmsb_matches_per_port_under_symmetric_load() {
        // Equal weights and equal queue loads pass every blindness
        // filter, so PMSB's onset coincides with plain per-port marking.
        let pmsb = scan(
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            0b1111_1111,
        );
        let pp = scan(MarkingConfig::PerPort { threshold_pkts: 12 }, 0b1111_1111);
        assert_eq!(pmsb, pp);
    }

    #[test]
    fn no_marking_means_no_onset() {
        assert_eq!(scan(MarkingConfig::None, 0b1), BUF);
    }

    #[test]
    fn cache_memoizes_per_mask() {
        let mut c = OnsetCache::new(
            MarkingConfig::PerPort { threshold_pkts: 12 },
            vec![1; 8],
            true,
            RATE,
            BUF,
        );
        assert_eq!(c.onset_bytes(0b1), c.onset_bytes(0b1));
        assert_eq!(c.onset_bytes(0), c.onset_bytes(0b1), "empty mask = queue 0");
    }
}
