//! ECN marking disciplines for multi-queue switch ports.
//!
//! Every scheme implements [`MarkingScheme`]: a pure decision over a
//! [`PortView`]. The schemes are exactly those the paper builds on or
//! compares against:
//!
//! | Scheme | Struct | Paper role |
//! |---|---|---|
//! | Per-queue, standard or fractional threshold | [`PerQueue`] | §II-B motivation (Figs. 1–2) |
//! | Per-port threshold | [`PerPort`] | §II-B motivation (Figs. 3, 6, 7) |
//! | Per-service-pool threshold | [`PerPool`] | §II-A discussion |
//! | MQ-ECN (dynamic per-queue, round-based) | [`MqEcn`] | baseline (NSDI'16) |
//! | TCN (sojourn time) | [`Tcn`] | baseline (CoNEXT'16) |
//! | RED probability ramp | [`Red`] | reference \[6\]; DCTCP is its degenerate config |
//! | **PMSB** (Algorithm 1) | [`Pmsb`] | the contribution |
//!
//! [`Capabilities`] reproduces Table I of the paper as queryable data.

mod mq_ecn;
mod per_port;
mod per_queue;
mod pmsb;
mod pool;
mod red;
mod tcn;

pub use mq_ecn::MqEcn;
pub use per_port::PerPort;
pub use per_queue::PerQueue;
pub use pmsb::Pmsb;
pub use pool::PerPool;
pub use red::Red;
pub use tcn::Tcn;

use crate::PortView;

/// The outcome of one ECN decision.
///
/// # Example
///
/// ```
/// use pmsb::marking::MarkDecision;
///
/// assert!(MarkDecision::Mark.is_mark());
/// assert!(!MarkDecision::NoMark.is_mark());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkDecision {
    /// Set the CE codepoint on the packet.
    Mark,
    /// Leave the packet unmarked.
    NoMark,
}

impl MarkDecision {
    /// `true` if the packet should carry a CE mark.
    pub fn is_mark(self) -> bool {
        matches!(self, MarkDecision::Mark)
    }

    /// Converts a boolean predicate result into a decision.
    pub fn from_bool(mark: bool) -> Self {
        if mark {
            MarkDecision::Mark
        } else {
            MarkDecision::NoMark
        }
    }
}

/// Qualitative capabilities of a scheme — Table I of the paper.
///
/// # Example
///
/// ```
/// use pmsb::marking::{MarkingScheme, MqEcn, Pmsb, Tcn};
///
/// let pmsb = Pmsb::new(12 * 1500, vec![1, 1]);
/// assert!(pmsb.capabilities().generic_scheduler);
/// assert!(pmsb.capabilities().early_notification);
///
/// let mq = MqEcn::new(24_000, vec![1500; 2]);
/// assert!(!mq.capabilities().generic_scheduler); // round-based only
///
/// let tcn = Tcn::new(19_200);
/// assert!(!tcn.capabilities().early_notification); // sojourn-based
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capabilities {
    /// Works over schedulers without a round concept (WFQ, SP).
    pub generic_scheduler: bool,
    /// Works over round-based schedulers (WRR, DWRR).
    pub round_based_scheduler: bool,
    /// Can deliver congestion information early via dequeue marking.
    pub early_notification: bool,
    /// Deployable without switch modification.
    pub no_switch_modification: bool,
}

/// A pure ECN marking decision over the state of one switch port.
///
/// Implementations must be deterministic functions of the supplied
/// [`PortView`] plus their own configuration; any smoothing state (e.g.
/// MQ-ECN's round time) lives in the scheduler and is surfaced through the
/// view, so schemes can be freely shared across ports of identical
/// configuration.
pub trait MarkingScheme: std::fmt::Debug + Send {
    /// Decides whether the packet currently entering (or leaving) queue
    /// `queue` of the port described by `view` should be CE-marked.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `queue >= view.num_queues()` or if the
    /// view's queue count does not match the scheme's configured weights.
    fn should_mark(&mut self, view: &dyn PortView, queue: usize) -> MarkDecision;

    /// Short machine-readable scheme name (e.g. `"pmsb"`, `"tcn"`).
    fn name(&self) -> &'static str;

    /// The scheme's Table-I capability row.
    fn capabilities(&self) -> Capabilities;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortSnapshot;

    /// Table I of the paper, verified against the implementations.
    #[test]
    fn table_1_capability_matrix() {
        let mq = MqEcn::new(65 * 1500, vec![1500; 8]);
        let tcn = Tcn::new(78_200);
        let pmsb = Pmsb::new(12 * 1500, vec![1; 8]);

        // MQ-ECN: round-based only, early notification, needs switch change.
        let c = mq.capabilities();
        assert!(!c.generic_scheduler);
        assert!(c.round_based_scheduler);
        assert!(c.early_notification);
        assert!(!c.no_switch_modification);

        // TCN: generic scheduler, no early notification, needs switch change.
        let c = tcn.capabilities();
        assert!(c.generic_scheduler);
        assert!(c.round_based_scheduler);
        assert!(!c.early_notification);
        assert!(!c.no_switch_modification);

        // PMSB: everything except switch-free deployment.
        let c = pmsb.capabilities();
        assert!(c.generic_scheduler);
        assert!(c.round_based_scheduler);
        assert!(c.early_notification);
        assert!(!c.no_switch_modification);
        // (PMSB(e)'s "no switch modification" column lives in
        // `endpoint::SelectiveBlindness`, which is not a switch scheme.)
    }

    #[test]
    fn decisions_are_pure() {
        // Same view, same queue => same answer, repeatedly.
        let mut s = Pmsb::new(10 * 1500, vec![1, 1]);
        let v = PortSnapshot::builder(2)
            .queue_bytes(0, 20 * 1500)
            .queue_bytes(1, 1500)
            .build();
        for _ in 0..10 {
            assert!(s.should_mark(&v, 0).is_mark());
            assert!(!s.should_mark(&v, 1).is_mark());
        }
    }

    #[test]
    fn mark_decision_from_bool_roundtrips() {
        assert_eq!(MarkDecision::from_bool(true), MarkDecision::Mark);
        assert_eq!(MarkDecision::from_bool(false), MarkDecision::NoMark);
    }
}
