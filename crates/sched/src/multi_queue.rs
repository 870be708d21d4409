//! The per-port multi-queue buffer with tail drop at a byte cap.

use std::collections::VecDeque;

use crate::{QueueState, SchedItem, Scheduler};

/// A set of FIFO service queues sharing one byte cap, served by a
/// pluggable [`Scheduler`].
///
/// This models one output port of a commodity switch: typically 4–8 queues
/// drawing from one per-port byte budget, tail-dropping arrivals that
/// would overflow it. Memory shared across a switch's ports is the
/// simulator's business, above this type: it lifts the cap and admits
/// through its own pool.
///
/// # Example
///
/// ```
/// use pmsb_sched::{MultiQueue, SchedItem, StrictPriority};
///
/// #[derive(Debug, PartialEq)]
/// struct Pkt(u64);
/// impl SchedItem for Pkt {
///     fn len_bytes(&self) -> u64 { self.0 }
/// }
///
/// let mut mq = MultiQueue::new(Box::new(StrictPriority::new(2)), 10_000);
/// mq.enqueue(1, Pkt(500), 0).unwrap();
/// mq.enqueue(0, Pkt(100), 0).unwrap();
/// // Strict priority: queue 0 first even though queue 1 arrived earlier.
/// assert_eq!(mq.dequeue(10).unwrap(), (0, Pkt(100)));
/// assert_eq!(mq.dequeue(20).unwrap(), (1, Pkt(500)));
/// ```
pub struct MultiQueue<T: SchedItem> {
    queues: Vec<VecDeque<T>>,
    queue_bytes: Vec<u64>,
    port_bytes: u64,
    cap_bytes: u64,
    dropped_items: u64,
    dropped_bytes: u64,
    scheduler: Box<dyn Scheduler>,
    /// Reused per-dequeue head-size snapshot, so the hot path never
    /// allocates.
    head_scratch: Vec<Option<u64>>,
}

impl<T: SchedItem> MultiQueue<T> {
    /// Creates a multi-queue with the scheduler's queue count and a
    /// byte cap of `cap_bytes` shared by its queues.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler declares zero queues.
    pub fn new(scheduler: Box<dyn Scheduler>, cap_bytes: u64) -> Self {
        let n = scheduler.num_queues();
        assert!(n > 0, "a port needs at least one queue");
        MultiQueue {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            queue_bytes: vec![0; n],
            port_bytes: 0,
            cap_bytes,
            dropped_items: 0,
            dropped_bytes: 0,
            scheduler,
            head_scratch: Vec::with_capacity(n),
        }
    }

    /// Appends `item` to queue `q` at time `now_nanos`.
    ///
    /// # Errors
    ///
    /// Returns the item back when admitting it would overflow the cap
    /// (tail drop); the drop counters are incremented.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn enqueue(&mut self, q: usize, item: T, now_nanos: u64) -> Result<(), T> {
        let bytes = item.len_bytes();
        if self.port_bytes + bytes > self.cap_bytes {
            self.dropped_items += 1;
            self.dropped_bytes += bytes;
            return Err(item);
        }
        self.queues[q].push_back(item);
        self.queue_bytes[q] += bytes;
        self.port_bytes += bytes;
        self.scheduler.on_enqueue(q, bytes, now_nanos);
        Ok(())
    }

    /// Removes and returns the next item chosen by the scheduler, together
    /// with the queue it came from. `None` when all queues are empty.
    pub fn dequeue(&mut self, now_nanos: u64) -> Option<(usize, T)> {
        self.head_scratch.clear();
        self.head_scratch
            .extend(self.queues.iter().map(|q| q.front().map(|i| i.len_bytes())));
        let state = QueueState {
            bytes: &self.queue_bytes,
            heads: &self.head_scratch,
        };
        if state.all_empty() {
            return None;
        }
        let q = self
            .scheduler
            .select(&state, now_nanos)
            .expect("scheduler must serve a non-empty port");
        let item = self.queues[q]
            .pop_front()
            .expect("scheduler selected an empty queue");
        let bytes = item.len_bytes();
        self.queue_bytes[q] -= bytes;
        self.port_bytes -= bytes;
        self.scheduler.on_dequeue(q, bytes, now_nanos);
        Some((q, item))
    }

    /// Peeks the head item of queue `q`.
    pub fn peek(&self, q: usize) -> Option<&T> {
        self.queues[q].front()
    }

    /// Number of queues on this port.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Bytes currently buffered in queue `q`.
    pub fn queue_bytes(&self, q: usize) -> u64 {
        self.queue_bytes[q]
    }

    /// Items currently buffered in queue `q`.
    pub fn queue_len(&self, q: usize) -> usize {
        self.queues[q].len()
    }

    /// Total bytes currently buffered on the port.
    pub fn port_bytes(&self) -> u64 {
        self.port_bytes
    }

    /// The byte cap.
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// Re-caps the buffer at `cap_bytes` (fault injection's buffer-shrink
    /// event). Items already buffered beyond a smaller cap are not
    /// evicted — the new cap only gates admission, like reprogramming a
    /// real switch's pool size.
    pub fn set_cap_bytes(&mut self, cap_bytes: u64) {
        self.cap_bytes = cap_bytes;
    }

    /// `true` if every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.port_bytes == 0
    }

    /// Items tail-dropped so far.
    pub fn dropped_items(&self) -> u64 {
        self.dropped_items
    }

    /// Bytes tail-dropped so far.
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// The scheduling policy (for weight/round-time queries).
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.scheduler.as_ref()
    }
}

impl<T: SchedItem> std::fmt::Debug for MultiQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiQueue")
            .field("scheduler", &self.scheduler.name())
            .field("queue_bytes", &self.queue_bytes)
            .field("port_bytes", &self.port_bytes)
            .field("cap_bytes", &self.cap_bytes)
            .field("dropped_items", &self.dropped_items)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::B;
    use crate::{Fifo, StrictPriority};

    #[test]
    fn accounting_tracks_enqueue_dequeue() {
        let mut mq = MultiQueue::new(Box::new(StrictPriority::new(2)), 10_000);
        mq.enqueue(0, B(100), 0).unwrap();
        mq.enqueue(1, B(200), 0).unwrap();
        assert_eq!(mq.port_bytes(), 300);
        assert_eq!(mq.queue_bytes(0), 100);
        assert_eq!(mq.queue_bytes(1), 200);
        mq.dequeue(1).unwrap();
        assert_eq!(mq.port_bytes(), 200);
        assert!(!mq.is_empty());
        mq.dequeue(2).unwrap();
        assert!(mq.is_empty());
        assert!(mq.dequeue(3).is_none());
    }

    #[test]
    fn tail_drop_on_overflow() {
        let mut mq = MultiQueue::new(Box::new(Fifo::new()), 250);
        mq.enqueue(0, B(100), 0).unwrap();
        mq.enqueue(0, B(100), 0).unwrap();
        let rejected = mq.enqueue(0, B(100), 0);
        assert_eq!(rejected.unwrap_err(), B(100));
        assert_eq!(mq.dropped_items(), 1);
        assert_eq!(mq.dropped_bytes(), 100);
        assert_eq!(mq.port_bytes(), 200);
        // A smaller item still fits.
        mq.enqueue(0, B(50), 0).unwrap();
        assert_eq!(mq.port_bytes(), 250);
    }

    #[test]
    fn shrinking_cap_gates_admission_without_evicting() {
        let mut mq = MultiQueue::new(Box::new(Fifo::new()), 1000);
        mq.enqueue(0, B(400), 0).unwrap();
        mq.enqueue(0, B(400), 0).unwrap();
        mq.set_cap_bytes(500);
        assert_eq!(mq.port_bytes(), 800, "shrink evicts nothing");
        assert!(mq.enqueue(0, B(100), 1).is_err(), "over the new cap");
        // Drain below the new cap: admission resumes.
        mq.dequeue(2).unwrap();
        assert!(mq.enqueue(0, B(100), 3).is_ok());
        assert_eq!(mq.cap_bytes(), 500);
    }

    #[test]
    fn drops_do_not_disturb_scheduler_state() {
        // Fill the buffer, drop one, then drain fully: FIFO order intact.
        let mut mq = MultiQueue::new(Box::new(Fifo::new()), 300);
        mq.enqueue(0, B(100), 0).unwrap();
        mq.enqueue(0, B(200), 0).unwrap();
        assert!(mq.enqueue(0, B(50), 0).is_err());
        assert_eq!(mq.dequeue(1).unwrap().1, B(100));
        assert_eq!(mq.dequeue(2).unwrap().1, B(200));
        assert!(mq.dequeue(3).is_none());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut mq = MultiQueue::new(Box::new(Fifo::new()), 1000);
        mq.enqueue(0, B(7), 0).unwrap();
        assert_eq!(mq.peek(0), Some(&B(7)));
        assert_eq!(mq.queue_len(0), 1);
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn zero_queue_scheduler_rejected() {
        let _ = MultiQueue::<B>::new(Box::new(StrictPriority::new(0)), 10);
    }
}
