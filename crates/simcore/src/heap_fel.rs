//! The reference binary-heap future-event list.
//!
//! This is the PR-1 `EventQueue` implementation, kept as the oracle for
//! differential testing: [`HeapQueue`] pops events in exactly the
//! (time, seq) order the simulator contract demands, with none of the
//! timing-wheel machinery. The production [`crate::EventQueue`] must
//! pop the *identical* sequence on any workload — see
//! `tests/fel_differential.rs`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::{TieKey, KEY_DEPTH};
use crate::SimTime;

pub(crate) struct Scheduled<E> {
    pub(crate) at: SimTime,
    /// Tie-break key before `seq`: the push instant plus a window of
    /// ancestor push instants (nondecreasing in `seq` for plain pushes,
    /// so it never reorders a sequential run; a sharded run supplies a
    /// sender-side key for cross-LP message insertion, see
    /// `EventQueue::push_ordered`).
    pub(crate) key: TieKey,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, key, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The straightforward deterministic FEL: a binary heap ordered by
/// (time, insertion seq). Same pop contract as [`crate::EventQueue`];
/// `O(log n)` per operation instead of amortized `O(1)`.
#[derive(Default)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
    /// Tie key of the event most recently popped; pushes made while
    /// handling it derive their keys from it (same discipline as
    /// `EventQueue`, so the two stay pop-for-pop identical).
    cur_key: TieKey,
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            cur_key: TieKey::default(),
        }
    }

    /// Schedules `event` to occur at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when scheduling into the past.
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut key = [0; KEY_DEPTH];
        key[0] = self.now.as_nanos();
        key[1..].copy_from_slice(&self.cur_key.0[..KEY_DEPTH - 1]);
        self.heap.push(Scheduled {
            at,
            key: TieKey(key),
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        self.cur_key = s.key;
        Some((s.at, s.event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// The timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }
}

impl<E> std::fmt::Debug for HeapQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapQueue")
            .field("pending", &self.heap.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = HeapQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(10), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(30)));
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled_count(), 3);
    }
}
