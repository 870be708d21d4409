//! The future-event list and simulation driver.
//!
//! [`EventQueue`] is a priority queue ordered by event time with ties broken
//! by insertion order, which makes runs fully deterministic: two simulations
//! that schedule the same events in the same order execute them identically.
//!
//! Internally it is a hierarchical timing wheel rather than a binary heap:
//! near-future events land in per-nanosecond buckets whose push and pop are
//! amortized `O(1)`, and only events beyond the wheel horizon (~4.9 hours
//! of simulated time) fall back to a heap. Buckets are intrusive singly
//! linked lists threaded through one entry arena, so a push is an arena
//! append plus a head link and a cascade relinks pointers without moving
//! events. The first level is deliberately wide (256 one-nanosecond slots)
//! so steady-state patterns whose horizon fits inside it never pay for a
//! cascade, and a bucket holding a single event is served in place — the
//! small-occupancy fast paths. See `DESIGN.md` §"Future-event list" for the
//! layout and the determinism argument; `crate::heap_fel::HeapQueue` is the
//! reference implementation the wheel is differentially tested against.

use std::collections::{BinaryHeap, VecDeque};

use crate::heap_fel::Scheduled;
use crate::{EventHandler, SimTime};

/// log2 of the slot count of the first wheel level. Level 0 slots are a
/// single nanosecond wide, so one slot holds events of exactly one
/// timestamp; making the level wide (256 slots) lets short-horizon
/// steady states (e.g. a NIC serializing back-to-back packets) run
/// entirely inside it without cascading.
const L0_BITS: u32 = 8;
/// Slots on level 0 (256).
const L0_SLOTS: usize = 1 << L0_BITS;
/// 64-bit occupancy words covering level 0.
const L0_WORDS: usize = L0_SLOTS / 64;
/// log2 of the slot count per upper wheel level.
const UP_BITS: u32 = 6;
/// Slots per upper level (64).
const UP_SLOTS: usize = 1 << UP_BITS;
/// Upper wheel levels. Upper level `k` (1-based) slots are
/// `2^(8 + 6(k-1))` ns wide.
const UP_LEVELS: usize = 6;
/// Bits covered by the wheel. Events more than `2^44` ns (~4.9 h) past
/// the clock's current `2^44` ns window go to the overflow heap.
const WHEEL_BITS: u32 = L0_BITS + UP_BITS * UP_LEVELS as u32;
/// Total slots across all levels.
const SLOT_COUNT: usize = L0_SLOTS + UP_SLOTS * UP_LEVELS;
/// Null link in the arena's intrusive lists.
const NIL: u32 = u32::MAX;

/// Bit shift selecting the digit of upper level `level` (1-based).
const fn up_shift(level: usize) -> u32 {
    L0_BITS + UP_BITS * (level as u32 - 1)
}

/// Index of upper level `level`'s first slot in the flat head table.
const fn up_base(level: usize) -> usize {
    L0_SLOTS + (level - 1) * UP_SLOTS
}

/// An arena node: one scheduled event threaded into a slot's list.
/// `event` is `None` only while the node sits on the free list.
struct Node<E> {
    at: u64,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// An event staged for immediate service (popped out of the arena).
struct Staged<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// A deterministic future-event list.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in the order they were pushed (FIFO), never arbitrarily:
/// every event carries its push sequence number, and `(time, seq)` is
/// the whole order.
///
/// # Example
///
/// ```
/// use pmsb_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(10), 'b');
/// q.push(SimTime::from_nanos(10), 'c');
/// q.push(SimTime::from_nanos(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    /// Backing store for every event resident in a wheel slot. Nodes are
    /// recycled through `free_head`, so steady-state operation allocates
    /// only when concurrency grows past its high-water mark.
    arena: Vec<Node<E>>,
    /// Head of the free-node list threaded through `Node::next`.
    free_head: u32,
    /// `heads[0..L0_SLOTS]` are the level-0 buckets; slot `i` holds events
    /// whose time agrees with the clock above bit `L0_BITS` and whose low
    /// 8 bits are `i`. `heads[up_base(k)..up_base(k) + UP_SLOTS]` are
    /// upper level `k`'s buckets keyed by that level's 6-bit digit. Each
    /// bucket is an unordered intrusive list into `arena` (consumers sort
    /// by seq or redistribute). Invariant: every stored event is strictly
    /// later than `now`, so a slot at or below the clock's digit on its
    /// level is always empty. Lazily allocated on the first wheel
    /// placement.
    heads: Box<[u32]>,
    /// Bit `i % 64` of `occ0[i / 64]` is set iff level-0 slot `i` is
    /// non-empty.
    occ0: [u64; L0_WORDS],
    /// Bit `i` of `occ_up[k - 1]` is set iff upper level `k`'s slot `i`
    /// is non-empty.
    occ_up: [u64; UP_LEVELS],
    /// Events beyond the wheel horizon. Always strictly later than every
    /// event in the wheel, so they only need inspecting when the wheel
    /// drains or the clock approaches them.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Events at exactly `now`, in seq (= FIFO) order. `pop` serves from
    /// here; pushes at the current instant append here directly.
    batch: VecDeque<Staged<E>>,
    now: u64,
    next_seq: u64,
    /// Number of events resident in wheel slots (not batch or overflow):
    /// a one-load emptiness test for the overflow fast path.
    wheel_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    ///
    /// Allocation-free: the slot-head table materializes on the first
    /// push that lands inside the wheel horizon, so queues whose events
    /// all sit in the far future (or that are built and thrown away
    /// often) never pay for it.
    pub fn new() -> Self {
        EventQueue {
            arena: Vec::new(),
            free_head: NIL,
            heads: Box::default(),
            occ0: [0; L0_WORDS],
            occ_up: [0; UP_LEVELS],
            overflow: BinaryHeap::new(),
            batch: VecDeque::new(),
            now: 0,
            next_seq: 0,
            wheel_len: 0,
        }
    }

    /// Creates an empty queue sized for roughly `events` concurrently
    /// pending events (see [`EventQueue::reserve`]).
    pub fn with_capacity(events: usize) -> Self {
        let mut q = Self::new();
        q.reserve(events);
        q
    }

    /// Pre-sizes internal storage for `additional` more concurrently
    /// pending events, so steady-state operation does not grow buffers.
    pub fn reserve(&mut self, additional: usize) {
        self.arena.reserve(additional);
        self.ensure_heads();
        self.batch
            .reserve(additional.div_ceil(L0_SLOTS).max(UP_SLOTS));
    }

    /// Schedules `event` to occur at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when scheduling into the past — that is always
    /// a logic error in the model.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at.as_nanos() >= self.now,
            "scheduling into the past: at={at} now={}",
            SimTime::from_nanos(self.now)
        );
        // Release builds clamp instead of corrupting the wheel.
        let at = at.as_nanos().max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let x = at ^ self.now;
        if x == 0 {
            // At the current instant. The overflow heap may still hold
            // events at `now` (the fast pop path leaves same-instant
            // siblings behind); they sort ahead of this push, so stage
            // them first to keep the batch ordered.
            if !self.overflow.is_empty() {
                self.stage_overflow_instant();
            }
            self.batch.push_back(Staged { at, seq, event });
        } else if x >> WHEEL_BITS != 0 {
            self.overflow.push(Scheduled {
                at: SimTime::from_nanos(at),
                seq,
                event,
            });
        } else {
            self.ensure_heads();
            let idx = self.alloc_node(at, seq, event);
            self.link(idx, at, x);
            self.wheel_len += 1;
        }
    }

    /// Materializes the lazily-allocated slot-head table.
    #[cold]
    fn alloc_heads(&mut self) {
        self.heads = vec![NIL; SLOT_COUNT].into_boxed_slice();
    }

    /// Ensures the slot-head table is allocated before a wheel placement.
    #[inline]
    fn ensure_heads(&mut self) {
        if self.heads.is_empty() {
            self.alloc_heads();
        }
    }

    /// Takes a node off the free list or grows the arena.
    #[inline]
    fn alloc_node(&mut self, at: u64, seq: u64, event: E) -> u32 {
        let idx = self.free_head;
        if idx != NIL {
            let n = &mut self.arena[idx as usize];
            self.free_head = n.next;
            n.at = at;
            n.seq = seq;
            n.event = Some(event);
            idx
        } else {
            let idx = self.arena.len() as u32;
            if self.arena.capacity() < 64 {
                // Skip the smallest rungs of the doubling ladder: a queue
                // that wheel-places anything almost always holds tens of
                // events, and the early grow-and-copy rounds are a
                // measurable share of cold-queue push cost (~64 nodes is
                // ~3 KiB, cheaper than four reallocation memcpys).
                self.arena.reserve(64 - self.arena.len());
            }
            self.arena.push(Node {
                at,
                seq,
                next: NIL,
                event: Some(event),
            });
            idx
        }
    }

    /// Returns a node (whose event has been taken) to the free list.
    #[inline]
    fn free_node(&mut self, idx: u32) {
        debug_assert!(self.arena[idx as usize].event.is_none());
        self.arena[idx as usize].next = self.free_head;
        self.free_head = idx;
    }

    /// Threads arena node `idx` (scheduled for `at`, `x = at ^ now`) into
    /// its wheel slot. The caller accounts for `wheel_len`.
    #[inline]
    fn link(&mut self, idx: u32, at: u64, x: u64) {
        debug_assert!(x != 0 && x >> WHEEL_BITS == 0);
        let slot = if x >> L0_BITS == 0 {
            let slot = (at & (L0_SLOTS as u64 - 1)) as usize;
            self.occ0[slot >> 6] |= 1 << (slot & 63);
            slot
        } else {
            // Highest bit where `at` differs from the clock picks the
            // upper level; the event's digit on that level picks the slot.
            let level = ((63 - x.leading_zeros() - L0_BITS) / UP_BITS) as usize + 1;
            let slot = ((at >> up_shift(level)) & (UP_SLOTS as u64 - 1)) as usize;
            self.occ_up[level - 1] |= 1 << slot;
            up_base(level) + slot
        };
        self.arena[idx as usize].next = self.heads[slot];
        self.heads[slot] = idx;
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Hot path 1: the current instant's batch is already staged.
        if let Some(e) = self.batch.pop_front() {
            debug_assert_eq!(e.at, self.now);
            return Some((SimTime::from_nanos(e.at), e.event));
        }
        // Hot path 2: nothing in the wheel — serve the overflow heap
        // directly; it already orders by (time, seq).
        if self.wheel_len == 0 {
            let s = self.overflow.pop()?;
            self.now = s.at.as_nanos();
            return Some((s.at, s.event));
        }
        self.pop_slow(u64::MAX)
    }

    /// Like [`pop`](Self::pop), but returns `None` (leaving the event
    /// queued) when the earliest event is strictly after `deadline`.
    ///
    /// This is the driver-loop primitive: it locates the next event once,
    /// where a `peek_time` + `pop` pair would scan the wheel twice. When
    /// it declines past-deadline work the clock may still have advanced to
    /// that pending event's timestamp — the same instant `pop` would
    /// report — so subsequent pushes must not target earlier times, which
    /// holds for any handler that only schedules at or after the events it
    /// receives.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if let Some(e) = self.batch.pop_front() {
            debug_assert_eq!(e.at, self.now);
            if e.at > deadline.as_nanos() {
                self.batch.push_front(e);
                return None;
            }
            return Some((SimTime::from_nanos(e.at), e.event));
        }
        self.pop_slow(deadline.as_nanos())
    }

    /// Takes the staged event out of arena node `idx` and recycles the
    /// node.
    #[inline]
    fn unstage(&mut self, idx: u32) -> Staged<E> {
        let n = &mut self.arena[idx as usize];
        let staged = Staged {
            at: n.at,
            seq: n.seq,
            event: n.event.take().expect("live arena node"),
        };
        self.free_node(idx);
        staged
    }

    /// Locates, dequeues, and returns the earliest event when the live
    /// batch is empty: serves single events straight from the overflow
    /// heap or a single-entry bucket (the small-occupancy fast paths), and
    /// only stages a batch when an instant holds several events or a
    /// cascade is required.
    fn pop_slow(&mut self, deadline: u64) -> Option<(SimTime, E)> {
        loop {
            // A migration or cascade from a previous round may have
            // deposited events at exactly `now`; they arrive out of
            // order, so sort before serving (all share `at`, so `seq` is
            // the full tie order).
            if !self.batch.is_empty() {
                self.batch.make_contiguous().sort_unstable_by_key(|e| e.seq);
                if self.now > deadline {
                    return None;
                }
                let e = self.batch.pop_front().expect("batch is non-empty");
                return Some((SimTime::from_nanos(e.at), e.event));
            }
            // Empty wheel: serve the overflow heap directly instead of
            // round-tripping events through slots. The heap ties on seq,
            // so same-instant events already pop FIFO; siblings left
            // behind are staged by `push` if anything is pushed at their
            // instant. Later in-window overflow events stay put; the
            // migration pass below (and the overflow comparison in
            // `peek_time`) keeps them ordered against anything pushed
            // into the wheel meanwhile.
            if self.wheel_len == 0 {
                let s = self.overflow.pop()?;
                let at = s.at.as_nanos();
                self.now = at;
                if at > deadline {
                    // Declined: stage the event so it stays ahead of any
                    // later push at this instant.
                    self.batch.push_back(Staged {
                        at,
                        seq: s.seq,
                        event: s.event,
                    });
                    return None;
                }
                return Some((s.at, s.event));
            }
            // Pull overflow events that have entered the wheel horizon so
            // wheel order alone decides the next slot.
            if !self.overflow.is_empty() {
                while self
                    .overflow
                    .peek()
                    .is_some_and(|top| (top.at.as_nanos() ^ self.now) >> WHEEL_BITS == 0)
                {
                    let s = self.overflow.pop().expect("peeked entry pops");
                    let at = s.at.as_nanos();
                    let x = at ^ self.now;
                    if x == 0 {
                        // The heap pops same-instant events in seq
                        // order, so appending keeps the batch sorted.
                        self.batch.push_back(Staged {
                            at,
                            seq: s.seq,
                            event: s.event,
                        });
                    } else {
                        let idx = self.alloc_node(at, s.seq, s.event);
                        self.link(idx, at, x);
                        self.wheel_len += 1;
                    }
                }
                if !self.batch.is_empty() {
                    continue;
                }
            }
            // Level 0: the slot index *is* the timestamp's low 8 bits, so
            // the first occupied slot at/after the cursor is the minimum.
            let cur = (self.now & (L0_SLOTS as u64 - 1)) as usize;
            let w0 = cur >> 6;
            #[cfg(debug_assertions)]
            for w in 0..w0 {
                debug_assert_eq!(self.occ0[w], 0, "level-0 word in the past");
            }
            let mut hit = {
                let m = self.occ0[w0] & (!0u64 << (cur & 63) as u32);
                debug_assert_eq!(m, self.occ0[w0], "level-0 slot in the past");
                (m != 0).then_some((w0, m))
            };
            if hit.is_none() {
                for w in w0 + 1..L0_WORDS {
                    if self.occ0[w] != 0 {
                        hit = Some((w, self.occ0[w]));
                        break;
                    }
                }
            }
            if let Some((w, m)) = hit {
                let slot = w * 64 + m.trailing_zeros() as usize;
                self.occ0[w] &= !(1u64 << (slot & 63));
                self.now = (self.now & !(L0_SLOTS as u64 - 1)) | slot as u64;
                let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
                if self.arena[idx as usize].next == NIL && self.now <= deadline {
                    // Single resident event: skip the sort and the batch.
                    self.wheel_len -= 1;
                    let e = self.unstage(idx);
                    return Some((SimTime::from_nanos(e.at), e.event));
                }
                while idx != NIL {
                    let next = self.arena[idx as usize].next;
                    self.wheel_len -= 1;
                    let staged = self.unstage(idx);
                    self.batch.push_back(staged);
                    idx = next;
                }
                // Loop back: the batch serve at the top sorts by seq and
                // applies the deadline.
                continue;
            }
            // Cascade: take the earliest occupied slot of the lowest
            // non-empty level, jump the clock to its start (nothing can
            // exist before it), and redistribute at finer granularity.
            let mut cascaded = false;
            for level in 1..=UP_LEVELS {
                let shift = up_shift(level);
                let m = self.occ_up[level - 1]
                    & (!0u64 << ((self.now >> shift) & (UP_SLOTS as u64 - 1)) as u32);
                debug_assert_eq!(m, self.occ_up[level - 1], "wheel slot in the past");
                if m == 0 {
                    continue;
                }
                let s = m.trailing_zeros() as usize;
                let slot = up_base(level) + s;
                self.occ_up[level - 1] &= !(1u64 << s);
                let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
                if self.arena[idx as usize].next == NIL {
                    // Every lower level is empty, so this lone entry is the
                    // wheel minimum: serve it without redistribution.
                    self.wheel_len -= 1;
                    let e = self.unstage(idx);
                    self.now = e.at;
                    if e.at > deadline {
                        self.batch.push_back(e);
                        return None;
                    }
                    return Some((SimTime::from_nanos(e.at), e.event));
                }
                let window_mask = (1u64 << (shift + UP_BITS)) - 1;
                let start = (self.now & !window_mask) | ((s as u64) << shift);
                debug_assert!(start > self.now);
                self.now = start;
                while idx != NIL {
                    let next = self.arena[idx as usize].next;
                    let at = self.arena[idx as usize].at;
                    let x = at ^ start;
                    if x == 0 {
                        // Lands exactly on the window start: stage it.
                        self.wheel_len -= 1;
                        let staged = self.unstage(idx);
                        self.batch.push_back(staged);
                    } else {
                        // Relink at finer granularity; no data moves.
                        self.link(idx, at, x);
                    }
                    idx = next;
                }
                cascaded = true;
                break;
            }
            debug_assert!(cascaded, "non-empty wheel must yield a slot");
        }
    }

    /// Moves every overflow event scheduled for exactly `now` into the
    /// batch (the heap pops them in seq order, so appending keeps the
    /// batch sorted).
    fn stage_overflow_instant(&mut self) {
        while self
            .overflow
            .peek()
            .is_some_and(|t| t.at.as_nanos() == self.now)
        {
            let s = self.overflow.pop().expect("peeked entry pops");
            self.batch.push_back(Staged {
                at: self.now,
                seq: s.seq,
                event: s.event,
            });
        }
    }

    /// The time of the earliest pending event, if any. Never advances the
    /// clock or reorganizes the wheel.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.batch.is_empty() {
            return Some(SimTime::from_nanos(self.now));
        }
        // The overflow heap can hold events inside the current window
        // (left behind by the empty-wheel fast path in `pop_slow`), so
        // the wheel minimum must be compared against the overflow top.
        let over = self.overflow.peek().map(|s| s.at);
        let wheel = self.wheel_min_time();
        match (wheel, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// The earliest timestamp stored in the wheel slots, if any.
    fn wheel_min_time(&self) -> Option<SimTime> {
        let cur = (self.now & (L0_SLOTS as u64 - 1)) as usize;
        let w0 = cur >> 6;
        let m = self.occ0[w0] & (!0u64 << (cur & 63) as u32);
        if m != 0 {
            let slot = (w0 * 64) as u64 + m.trailing_zeros() as u64;
            return Some(SimTime::from_nanos(
                (self.now & !(L0_SLOTS as u64 - 1)) | slot,
            ));
        }
        for w in w0 + 1..L0_WORDS {
            if self.occ0[w] != 0 {
                let slot = (w * 64) as u64 + self.occ0[w].trailing_zeros() as u64;
                return Some(SimTime::from_nanos(
                    (self.now & !(L0_SLOTS as u64 - 1)) | slot,
                ));
            }
        }
        for level in 1..=UP_LEVELS {
            let shift = up_shift(level);
            let m = self.occ_up[level - 1]
                & (!0u64 << ((self.now >> shift) & (UP_SLOTS as u64 - 1)) as u32);
            if m != 0 {
                // Events on lower levels always precede higher ones, and
                // slots within a level are time-ordered, so the earliest
                // event sits in this slot; its entries are unordered.
                let s = m.trailing_zeros() as usize;
                let mut idx = self.heads[up_base(level) + s];
                let mut min = u64::MAX;
                while idx != NIL {
                    let n = &self.arena[idx as usize];
                    min = min.min(n.at);
                    idx = n.next;
                }
                debug_assert_ne!(min, u64::MAX, "slot is occupied");
                return Some(SimTime::from_nanos(min));
            }
        }
        None
    }

    /// The current simulation clock: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len() + self.batch.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (a cheap progress/complexity
    /// counter for benchmarks).
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("now", &SimTime::from_nanos(self.now))
            .finish()
    }
}

/// Drives an [`EventHandler`] until a deadline or event exhaustion.
///
/// # Example
///
/// ```
/// use pmsb_simcore::{EventHandler, EventQueue, Simulation, SimDuration, SimTime};
///
/// struct Counter(u32);
/// impl EventHandler for Counter {
///     type Event = ();
///     fn handle(&mut self, now: SimTime, _: (), q: &mut EventQueue<()>) {
///         self.0 += 1;
///         if self.0 < 10 {
///             q.push(now + SimDuration::from_micros(1), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter(0));
/// sim.queue.push(SimTime::ZERO, ());
/// sim.run_until(SimTime::from_nanos(u64::MAX));
/// assert_eq!(sim.handler.0, 10);
/// ```
pub struct Simulation<H: EventHandler> {
    /// The model being simulated.
    pub handler: H,
    /// The future-event list.
    pub queue: EventQueue<H::Event>,
}

impl<H: EventHandler> Simulation<H> {
    /// Creates a simulation around `handler` with an empty event queue.
    pub fn new(handler: H) -> Self {
        Simulation {
            handler,
            queue: EventQueue::new(),
        }
    }

    /// Runs until the queue drains or the next event is strictly after
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some((now, ev)) = self.queue.pop_at_or_before(deadline) {
            self.handler.handle(now, ev, &mut self.queue);
            processed += 1;
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "past-scheduling is a debug_assert; release builds clamp"
    )]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(5), ());
    }

    #[test]
    fn run_until_respects_deadline() {
        struct Ticker;
        impl EventHandler for Ticker {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), q: &mut EventQueue<()>) {
                q.push(now + SimDuration::from_micros(1), ());
            }
        }
        let mut sim = Simulation::new(Ticker);
        sim.queue.push(SimTime::ZERO, ());
        let n = sim.run_until(SimTime::from_nanos(10_500));
        // Events at 0, 1us, ..., 10us inclusive = 11 events.
        assert_eq!(n, 11);
        assert_eq!(sim.queue.peek_time(), Some(SimTime::from_nanos(11_000)));
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }

    #[test]
    fn push_at_current_instant_pops_after_pending_ties() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 1);
        q.push(SimTime::from_nanos(5), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // Clock is now at 5; scheduling more work at 5 is legal and must
        // run after the already-pending event at 5.
        q.push(SimTime::from_nanos(5), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.is_empty());
    }

    #[test]
    fn push_at_current_instant_stays_behind_overflow_siblings() {
        // Far-future same-instant events are served straight from the
        // overflow heap; a push at that instant must sort behind the
        // not-yet-served siblings, not jump ahead of them.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(20_000_000_000_000);
        q.push(t, 1);
        q.push(t, 2);
        q.push(t, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(t, 4);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_overflow_horizon() {
        let mut q = EventQueue::new();
        // Far beyond the 2^44 ns wheel horizon.
        q.push(SimTime::from_nanos(20_000_000_000_000), "idle timer");
        q.push(SimTime::from_nanos(4_000_000_000), "rto"); // upper levels
        q.push(SimTime::from_nanos(30), "soon");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(30)));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(30), "soon"));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(4_000_000_000)));
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_nanos(4_000_000_000), "rto")
        );
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_nanos(20_000_000_000_000), "idle timer")
        );
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_pushes_preserve_order_across_cascades() {
        // Alternate pops with pushes that straddle level boundaries so
        // events must survive redistribution; order must stay (time, seq).
        let mut q = EventQueue::with_capacity(64);
        let mut expect = Vec::new();
        for i in 0u64..32 {
            let t = 1 + i * 97; // crosses several level-0/1 windows
            q.push(SimTime::from_nanos(t), (t, i));
            expect.push((t, i));
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn len_tracks_batch_wheel_and_overflow() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), ());
        q.push(SimTime::from_nanos(1_000), ());
        q.push(SimTime::from_nanos(20_000_000_000_000), ());
        assert_eq!(q.len(), 3);
        q.pop();
        q.push(SimTime::from_nanos(1), ()); // at the current instant
        assert_eq!(q.len(), 3);
        while q.pop().is_some() {}
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_count(), 4);
    }

    #[test]
    fn arena_nodes_are_recycled() {
        // Steady-state hold pattern: the arena's high-water mark must not
        // grow past the concurrent-event count.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.push(SimTime::from_nanos(1 + i), i);
        }
        for _ in 0..10_000 {
            let (at, e) = q.pop().unwrap();
            q.push(at + SimDuration::from_nanos(8), e);
        }
        assert_eq!(q.len(), 8);
        assert!(q.arena.len() <= 16, "arena grew to {}", q.arena.len());
    }

    #[test]
    fn a_node_is_its_event_plus_three_words() {
        // Time, seq and the list link: nothing per event beyond what the
        // (time, seq) order needs. A 104-byte event takes a 136-byte node
        // here. The netsim World's `Event` is at most 80 bytes and fits
        // its `Option` niche, so a World node is at most 104.
        assert_eq!(std::mem::size_of::<Node<[u64; 13]>>(), 136);
    }
}
