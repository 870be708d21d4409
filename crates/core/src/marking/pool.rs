//! Per-service-pool ECN marking (§II-A of the paper).

use crate::marking::{Capabilities, MarkDecision, MarkingScheme};
use crate::PortView;

/// Per-service-pool ECN marking: packets are marked while the occupancy of
/// the shared buffer pool (spanning multiple ports) is at or above a single
/// threshold.
///
/// The paper notes this "will also violate weighted fair sharing, because
/// queues belonging to different ports may interfere with each other" — the
/// per-port victim problem of [`PerPort`](crate::marking::PerPort) at even
/// coarser granularity.
///
/// # Example
///
/// ```
/// use pmsb::marking::{MarkingScheme, PerPool};
/// use pmsb::PortSnapshot;
///
/// let mut p = PerPool::new(100 * 1500);
/// // This port holds almost nothing, but the pool is congested
/// // (another port's backlog): mark anyway.
/// let view = PortSnapshot::builder(1)
///     .queue_bytes(0, 1500)
///     .pool_bytes(200 * 1500)
///     .build();
/// assert!(p.should_mark(&view, 0).is_mark());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerPool {
    threshold_bytes: u64,
}

impl PerPool {
    /// Creates the scheme with the given pool threshold in bytes.
    pub fn new(threshold_bytes: u64) -> Self {
        PerPool { threshold_bytes }
    }

    /// The configured pool threshold in bytes.
    pub fn threshold_bytes(&self) -> u64 {
        self.threshold_bytes
    }
}

impl MarkingScheme for PerPool {
    fn should_mark(&mut self, view: &dyn PortView, _queue: usize) -> MarkDecision {
        MarkDecision::from_bool(view.pool_bytes() >= self.threshold_bytes)
    }

    fn name(&self) -> &'static str {
        "per-pool"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            generic_scheduler: true,
            round_based_scheduler: true,
            early_notification: true,
            no_switch_modification: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortSnapshot;

    #[test]
    fn uses_pool_not_port_occupancy() {
        let mut s = PerPool::new(10_000);
        // Port over, pool under: no mark.
        let v = PortSnapshot::builder(1)
            .queue_bytes(0, 50_000)
            .pool_bytes(5_000)
            .build();
        assert!(!s.should_mark(&v, 0).is_mark());
        // Port under, pool over: mark.
        let v = PortSnapshot::builder(1)
            .queue_bytes(0, 100)
            .pool_bytes(50_000)
            .build();
        assert!(s.should_mark(&v, 0).is_mark());
    }

    #[test]
    fn pool_defaults_to_port_when_unset() {
        let mut s = PerPool::new(10_000);
        let v = PortSnapshot::builder(1).queue_bytes(0, 20_000).build();
        assert!(s.should_mark(&v, 0).is_mark());
    }
}
