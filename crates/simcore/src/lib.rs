#![warn(missing_docs)]

//! Deterministic discrete-event simulation core.
//!
//! This crate provides the building blocks the packet-level network
//! simulator ([`pmsb-netsim`]) is written on top of:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulation time,
//! * [`EventQueue`] — a deterministic future-event list (ties broken by
//!   insertion order, so identical seeds give identical runs),
//! * [`Simulation`] — a minimal driver that pops events and hands them to an
//!   [`EventHandler`],
//! * [`rng`] — seeded random-number helpers (exponential, empirical CDFs).
//!
//! # Example
//!
//! ```
//! use pmsb_simcore::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_micros(5), "later");
//! q.push(SimTime::ZERO + SimDuration::from_micros(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t.as_nanos(), 1_000);
//! ```
//!
//! [`pmsb-netsim`]: https://example.invalid/pmsb

pub mod event;
pub mod heap_fel;
pub mod lp;
pub mod rng;
pub mod time;

pub use event::{EventQueue, Simulation};
pub use heap_fel::HeapQueue;
pub use time::{SimDuration, SimTime};

/// Types implementing this trait drive a [`Simulation`]: every popped event
/// is handed to [`EventHandler::handle`] together with the current time and
/// the queue so the handler can schedule follow-up events.
pub trait EventHandler {
    /// The event type processed by this handler.
    type Event;

    /// Process one event occurring at `now`, scheduling any follow-ups on
    /// `queue`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}
