//! Shared-buffer contention metrics.
//!
//! When a switch's queues carve their backlog out of one shared memory
//! pool (DESIGN.md §12), the interesting counters live at the *pool*,
//! not the flow: how many packets the pool refused, how many of those
//! refusals came from the allocation policy rather than an outright
//! full pool, and how close to capacity the pool ever ran. This module
//! holds the mergeable summary the simulator harvests per switch and
//! campaigns surface as the `shared_drops`/`admit_rejects`/
//! `pool_high_water` record columns.

/// One switch's (or, after merging, one run's) shared-buffer contention
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionSummary {
    /// Packets the pool refused, all causes — these are real drops.
    pub shared_drops: u64,
    /// The subset of `shared_drops` refused by the allocation policy's
    /// per-queue cap while the pool still had free space (DT /
    /// delay-driven shielding other queues).
    pub admit_rejects: u64,
    /// Peak pool occupancy in bytes over the run. After merging across
    /// switches this is the worst single pool's peak, not a sum —
    /// per-switch peaks at different instants don't add.
    pub pool_high_water_bytes: u64,
    /// The largest single pool's capacity, for reading the high-water
    /// mark as a fraction.
    pub pool_total_bytes: u64,
}

impl ContentionSummary {
    /// Folds another switch's counters into this one:
    /// drop counts add, high-water marks and capacities take the max.
    pub fn absorb(&mut self, other: &ContentionSummary) {
        self.shared_drops += other.shared_drops;
        self.admit_rejects += other.admit_rejects;
        self.pool_high_water_bytes = self.pool_high_water_bytes.max(other.pool_high_water_bytes);
        self.pool_total_bytes = self.pool_total_bytes.max(other.pool_total_bytes);
    }

    /// Peak occupancy as a fraction of the pool (0 for an unsized pool).
    pub fn high_water_fraction(&self) -> f64 {
        if self.pool_total_bytes == 0 {
            0.0
        } else {
            self.pool_high_water_bytes as f64 / self.pool_total_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_drops_and_maxes_high_water() {
        let mut a = ContentionSummary {
            shared_drops: 10,
            admit_rejects: 4,
            pool_high_water_bytes: 9_000,
            pool_total_bytes: 10_000,
        };
        let b = ContentionSummary {
            shared_drops: 3,
            admit_rejects: 3,
            pool_high_water_bytes: 12_000,
            pool_total_bytes: 16_000,
        };
        a.absorb(&b);
        assert_eq!(a.shared_drops, 13);
        assert_eq!(a.admit_rejects, 7);
        assert_eq!(a.pool_high_water_bytes, 12_000);
        assert_eq!(a.pool_total_bytes, 16_000);
        assert_eq!(a.high_water_fraction(), 0.75);
    }

    #[test]
    fn absorb_is_commutative() {
        let a = ContentionSummary {
            shared_drops: 5,
            admit_rejects: 1,
            pool_high_water_bytes: 700,
            pool_total_bytes: 1_000,
        };
        let b = ContentionSummary {
            shared_drops: 2,
            admit_rejects: 2,
            pool_high_water_bytes: 900,
            pool_total_bytes: 1_000,
        };
        let mut ab = a;
        ab.absorb(&b);
        let mut ba = b;
        ba.absorb(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn default_is_zero_and_fraction_safe() {
        let z = ContentionSummary::default();
        assert_eq!(z.shared_drops, 0);
        assert_eq!(z.high_water_fraction(), 0.0);
    }
}
