#![warn(missing_docs)]

//! Multi-queue packet schedulers for switch output ports.
//!
//! A switch port owns a [`MultiQueue`] — a set of FIFO service queues
//! under one byte cap, with tail drop — and a [`Scheduler`] policy that
//! picks which queue transmits next. How a switch shares memory across
//! its ports is not this crate's concern: the simulator's shared pool
//! lifts the cap and admits above it. The policies:
//!
//! * [`Fifo`] — a single queue (host NICs, single-service ports),
//! * [`StrictPriority`] — lower queue index always wins,
//! * [`Wrr`] — weighted round robin in packets,
//! * [`Dwrr`] — deficit weighted round robin in bytes,
//! * [`Wfq`] — weighted fair queueing (start-time fair queueing virtual
//!   clock),
//! * [`HierSpWfq`] — strict priority across groups, WFQ within a group
//!   (the paper's "SP+WFQ" configuration).
//!
//! Round-based schedulers (WRR, DWRR) also expose a smoothed *round time*
//! through [`RoundTimeEstimator`] — the signal MQ-ECN needs; schedulers
//! without a round concept return `None`, which is exactly why MQ-ECN
//! cannot run on them.
//!
//! # Example
//!
//! ```
//! use pmsb_sched::{Dwrr, MultiQueue, SchedItem};
//!
//! #[derive(Debug)]
//! struct Pkt(u64);
//! impl SchedItem for Pkt {
//!     fn len_bytes(&self) -> u64 { self.0 }
//! }
//!
//! // Two queues, 1:1 weights, a 1 MB cap.
//! let mut mq = MultiQueue::new(Box::new(Dwrr::new(vec![1, 1], 1500)), 1_000_000);
//! mq.enqueue(0, Pkt(1500), 0).unwrap();
//! mq.enqueue(1, Pkt(1500), 0).unwrap();
//! let (q, _pkt) = mq.dequeue(100).unwrap();
//! assert_eq!(q, 0);
//! let (q, _pkt) = mq.dequeue(200).unwrap();
//! assert_eq!(q, 1);
//! ```

mod dwrr;
mod fifo;
mod hier;
mod multi_queue;
mod round;
mod sp;
mod wfq;
mod wrr;

pub use dwrr::Dwrr;
pub use fifo::Fifo;
pub use hier::HierSpWfq;
pub use multi_queue::MultiQueue;
pub use round::RoundTimeEstimator;
pub use sp::StrictPriority;
pub use wfq::Wfq;
pub use wrr::Wrr;

/// Anything a scheduler can queue: it only needs a wire length.
pub trait SchedItem: std::fmt::Debug {
    /// The item's length in bytes as it occupies buffer and link.
    fn len_bytes(&self) -> u64;
}

/// Read-only queue state handed to [`Scheduler::select`].
#[derive(Debug, Clone, Copy)]
pub struct QueueState<'a> {
    /// Bytes buffered per queue.
    pub bytes: &'a [u64],
    /// Length in bytes of each queue's head item (`None` if empty).
    pub heads: &'a [Option<u64>],
}

impl QueueState<'_> {
    /// `true` if queue `q` holds at least one item.
    pub fn is_active(&self, q: usize) -> bool {
        self.heads[q].is_some()
    }

    /// `true` if every queue is empty.
    pub fn all_empty(&self) -> bool {
        self.heads.iter().all(|h| h.is_none())
    }
}

/// A work-conserving multi-queue scheduling policy.
///
/// The [`MultiQueue`] drives the protocol: `on_enqueue` after an item is
/// admitted, `select` to choose the next queue to serve (the multi-queue
/// always dequeues from the returned queue), `on_dequeue` after the item
/// has been removed. Implementations may freely mutate their state inside
/// `select` (e.g. DWRR deficit refresh).
pub trait Scheduler: std::fmt::Debug + Send {
    /// Number of queues this policy schedules.
    fn num_queues(&self) -> usize;

    /// Called after an item of `bytes` was appended to queue `q` at time
    /// `now_nanos`.
    fn on_enqueue(&mut self, q: usize, bytes: u64, now_nanos: u64);

    /// Picks the queue to serve next, or `None` if all queues are empty.
    /// Must return an active queue (non-empty under `state`).
    fn select(&mut self, state: &QueueState<'_>, now_nanos: u64) -> Option<usize>;

    /// Called after an item of `bytes` was removed from queue `q`.
    fn on_dequeue(&mut self, q: usize, bytes: u64, now_nanos: u64);

    /// Scheduling weight of each queue (all 1 for unweighted policies).
    fn weights(&self) -> Vec<u64>;

    /// The smoothed round time in nanoseconds for round-based schedulers;
    /// `None` when the policy has no round concept (WFQ, SP, FIFO).
    fn round_time_nanos(&self) -> Option<u64> {
        None
    }

    /// Short policy name for reports (e.g. `"dwrr"`).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A test item: just a byte length.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct B(pub u64);
    impl SchedItem for B {
        fn len_bytes(&self) -> u64 {
            self.0
        }
    }

    /// Runs a saturation experiment: keeps every queue permanently
    /// backlogged with `pkt`-byte items and counts bytes served per queue
    /// over `dequeues` dequeues. Time advances by the serialized bytes.
    pub fn served_under_backlog(sched: Box<dyn Scheduler>, pkt: u64, dequeues: usize) -> Vec<u64> {
        let n = sched.num_queues();
        let mut mq = MultiQueue::new(sched, u64::MAX);
        let mut now = 0u64;
        let mut served = vec![0u64; n];
        // Keep 4 packets in each queue at all times.
        for _ in 0..4 {
            for q in 0..n {
                mq.enqueue(q, B(pkt), now).unwrap();
            }
        }
        for _ in 0..dequeues {
            let (q, item) = mq.dequeue(now).expect("backlogged queues must serve");
            served[q] += item.0;
            now += item.0; // 1 byte per nano: arbitrary but consistent
            mq.enqueue(q, B(pkt), now).unwrap();
        }
        served
    }
}
