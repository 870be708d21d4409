//! Conservative parallel simulation: logical processes under
//! barrier-synchronized per-LP lookahead horizons.
//!
//! A simulation is sharded into *logical processes* (LPs), each owning a
//! disjoint slice of model state and its own future-event list. Every link
//! between LPs has a non-zero minimum latency — the **lookahead** — which
//! bounds how far one LP's present can influence another LP's future:
//! an event executed at time `t` on LP `j` can only schedule work on LP
//! `i` at `t + lookahead(j→i)` or later. [`run_conservative_matrix`]
//! exploits this with a neighbor-aware synchronous conservative protocol:
//!
//! 1. at each barrier, compute every LP's *effective time* `eff(j)` — the
//!    earlier of its next local event and its earliest undelivered
//!    incoming message,
//! 2. give each LP its own horizon
//!    `h(i) = min over LPs j of eff(j) + lookahead(j→i)`, where
//!    `lookahead` is the min-plus transitive closure of the direct
//!    inter-LP delays ([`LookaheadMatrix`]) — no chain of messages
//!    through any intermediary can reach `i` sooner. The `j = i` term
//!    uses the diagonal, which the closure fills with the minimum
//!    *echo cycle* `i → … → i`: an LP's own emissions can wake an idle
//!    peer whose reply lands back on `i`, so even with every peer idle
//!    `i` may only run `cycle(i)` ahead of its own clock,
//! 3. let every LP process its local events with `time < h(i)` in
//!    parallel — no event in that window can be affected by a message
//!    not yet delivered,
//! 4. swap the per-(src,dst) message lanes at the barrier and let each
//!    destination merge its incoming messages in deterministic
//!    `(time, source LP, emission order)` order,
//! 5. repeat until no events or messages remain, a deadline passes, or
//!    an LP reports that it has left the sequential schedule
//!    ([`LogicalProcess::diverged`]) — a run whose results will be
//!    discarded stops at the first barrier after the divergence.
//!
//! Per-LP horizons replace the older single global window
//! (`global_min + min_delay` for everyone): an LP two hops away in the
//! LP graph is held back by `2×` the per-hop delay, an idle LP holds
//! nobody back at all, and an LP with no inbound path runs straight to
//! the deadline. The messages an LP emits inside its window still cannot
//! violate any peer's horizon: a message from `j` departs at
//! `t ≥ eff(j)` and arrives at `t + d ≥ eff(j) + lookahead(j→i) ≥ h(i)`.
//!
//! Because the horizons and the message delivery order are functions of
//! the event schedule alone — never of thread timing — the execution is
//! deterministic for any worker count.
//!
//! Cross-LP messages travel through preallocated per-(src,dst) *lanes*,
//! double-buffered so the writer (source worker) and reader (destination
//! worker) never touch the same `Vec`: the source appends to the fresh
//! buffer during its window, the coordinator swaps fresh/ready at the
//! barrier, and the destination drains the ready buffer at the start of
//! its next window. After warm-up no window allocates, and no message is
//! routed through a shared coordinator-side merge.
//!
//! Windows are short (a lookahead of microseconds at nanosecond
//! resolution means hundreds of thousands of epochs per simulated
//! second), so when every participant can own a core the barrier is a
//! sense-reversing spin barrier rather than a futex: parking and waking
//! threads at that rate would cost more than the windows themselves. On
//! an oversubscribed machine the opposite holds — a spinning waiter
//! burns the running thread's whole scheduling quantum per crossing —
//! so [`WindowBarrier`] picks parking instead (wall clock only; the
//! schedule never depends on the barrier flavor).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::{SimDuration, SimTime};

/// A timestamped event crossing from one logical process to another.
pub struct LpMessage<M> {
    /// Arrival time at the destination (already includes link latency);
    /// guaranteed `>=` the destination's horizon by the lookahead
    /// matrix, so the destination has not yet simulated past it.
    pub at: SimTime,
    /// Destination LP index.
    pub dst: usize,
    /// The model-level event to schedule at `at` on the destination.
    pub payload: M,
}

/// One shard of a simulation, driven by [`run_conservative`].
pub trait LogicalProcess: Send {
    /// Cross-LP event payload.
    type Message: Send;

    /// The earliest pending local event time, or `None` when this LP has
    /// nothing scheduled. Called only at barriers (never concurrently
    /// with `run_window`).
    fn next_time(&self) -> Option<SimTime>;

    /// Processes every local event with `time < horizon`, appending any
    /// events destined for other LPs to `outbox` (in emission order)
    /// instead of executing them.
    fn run_window(&mut self, horizon: SimTime, outbox: &mut Vec<LpMessage<Self::Message>>);

    /// Schedules a message from another LP into the local future-event
    /// list. Calls arrive in deterministic `(at, source LP, emission
    /// order)` sequence, which makes FEL tie-breaking reproducible;
    /// `src` is the sending LP's index (e.g. for use as a
    /// `push_ordered` stream id).
    fn receive(&mut self, at: SimTime, src: u32, payload: Self::Message);

    /// Whether this LP has stopped matching the sequential schedule (for
    /// example, it met a same-instant tie it cannot order), so its caller
    /// will discard the run. Checked by the LP's worker after every
    /// `run_window`; once any LP answers `true`, the run ends at the next
    /// barrier and [`LpRunProfile::diverged`] is set. Default: never.
    fn diverged(&self) -> bool {
        false
    }
}

/// Pairwise minimum influence delays between LPs: `get(j, i)` bounds how
/// soon anything LP `j` does can affect LP `i`, over any chain of
/// messages (the constructor takes the min-plus transitive closure of
/// the direct link delays). The diagonal `get(i, i)` is the minimum
/// *echo cycle* — the soonest an LP's own emission can loop back to it
/// through its peers — which bounds how far an LP may run ahead even
/// when every peer is idle. [`NEVER`](Self::NEVER) marks pairs with no
/// path at all — such a peer never constrains the horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookaheadMatrix {
    k: usize,
    /// Row-major `k × k`: `d[src * k + dst]`.
    d: Vec<u64>,
}

impl LookaheadMatrix {
    /// "No path from src to dst": the pair never constrains a horizon.
    pub const NEVER: u64 = u64::MAX;

    /// Every ordered pair of distinct LPs at the same `lookahead` — the
    /// classic single-window protocol's assumption as a matrix. The
    /// diagonal is the two-hop echo `i → j → i` (or [`NEVER`](Self::NEVER)
    /// when there is no other LP to echo through).
    pub fn uniform(k: usize, lookahead: SimDuration) -> Self {
        let la = lookahead.as_nanos();
        let mut d = vec![la; k * k];
        let echo = if k >= 2 {
            la.saturating_mul(2)
        } else {
            Self::NEVER
        };
        for i in 0..k {
            d[i * k + i] = echo;
        }
        LookaheadMatrix { k, d }
    }

    /// Builds the closure of a direct-delay matrix (row-major `k × k`;
    /// `NEVER` where no direct link exists, including on the diagonal).
    /// Floyd–Warshall in min-plus: after this, `get(j, i)` is the
    /// cheapest multi-hop influence path, so per-LP horizons stay safe
    /// against message chains through intermediaries. The diagonal comes
    /// out as each LP's minimum echo cycle (all delays are positive, so
    /// the closure never produces a zero self-loop).
    pub fn from_direct(k: usize, mut d: Vec<u64>) -> Self {
        assert_eq!(d.len(), k * k, "direct delay matrix must be k x k");
        for via in 0..k {
            for s in 0..k {
                let first = d[s * k + via];
                if first == Self::NEVER {
                    continue;
                }
                for t in 0..k {
                    let second = d[via * k + t];
                    if second == Self::NEVER {
                        continue;
                    }
                    let through = first.saturating_add(second);
                    if through < d[s * k + t] {
                        d[s * k + t] = through;
                    }
                }
            }
        }
        LookaheadMatrix { k, d }
    }

    /// Number of LPs the matrix covers.
    pub fn len(&self) -> usize {
        self.k
    }

    /// `true` when the matrix covers zero LPs.
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// The influence delay from LP `src` to LP `dst` — the minimum echo
    /// cycle when `src == dst`, [`NEVER`](Self::NEVER) for unreachable
    /// pairs.
    pub fn get(&self, src: usize, dst: usize) -> u64 {
        self.d[src * self.k + dst]
    }

    /// The smallest off-diagonal entry, or `None` when no LP can reach
    /// any other (every pair is [`NEVER`](Self::NEVER), or `k < 2`).
    pub fn min_lookahead(&self) -> Option<u64> {
        let mut min = None;
        for s in 0..self.k {
            for t in 0..self.k {
                if s != t && self.d[s * self.k + t] != Self::NEVER {
                    let d = self.d[s * self.k + t];
                    min = Some(min.map_or(d, |m: u64| m.min(d)));
                }
            }
        }
        min
    }
}

/// A sense-reversing spin barrier for `total` participants.
///
/// `std::sync::Barrier` parks threads; at the epoch rates of
/// [`run_conservative`] the syscall round-trips dominate, so waiters spin
/// (with a yield once per few thousand iterations to stay polite on
/// oversubscribed machines).
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                std::hint::spin_loop();
                spins += 1;
                if spins.is_multiple_of(4096) {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// The window barrier, picked once per run: spin when every participant
/// can own a core (a barrier crossing is then tens of nanoseconds), park
/// on a futex (`std::sync::Barrier`) when the machine is oversubscribed
/// — spinning there burns whole scheduling quanta per crossing, which is
/// catastrophic at hundreds of thousands of windows per simulated
/// second. The choice affects wall clock only, never the schedule.
enum WindowBarrier {
    Spin(SpinBarrier),
    Park(std::sync::Barrier),
}

impl WindowBarrier {
    fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if total <= cores {
            WindowBarrier::Spin(SpinBarrier::new(total))
        } else {
            WindowBarrier::Park(std::sync::Barrier::new(total))
        }
    }

    fn wait(&self) {
        match self {
            WindowBarrier::Spin(b) => b.wait(),
            WindowBarrier::Park(b) => {
                b.wait();
            }
        }
    }
}

/// Sentinel for "no pending event" in the published-time atomics.
const IDLE: u64 = u64::MAX;

/// Wall-clock profile of one conservative run: window count, cross-LP
/// messages delivered, whether an LP diverged, the coordinator's
/// cumulative barrier-wait time, the run's total wall clock, and the
/// per-LP split of worker time into busy (message merge + window
/// execution) and blocked (barrier waits). Counters are accumulated in
/// thread-locals and published once at run exit; they have no effect on
/// the schedule — they exist so the bench harness can report how the
/// conservative protocol spends its time (windows per run, messages per
/// window, barrier overhead, LP load imbalance).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LpRunProfile {
    /// Conservative windows executed.
    pub windows: u64,
    /// Cross-LP messages delivered across all windows.
    pub messages: u64,
    /// Wall-clock nanoseconds the coordinator spent waiting on the
    /// window barriers (includes the workers' window execution time, so
    /// this is coordinator idle time, not pure barrier overhead).
    pub barrier_wait_nanos: u64,
    /// Wall-clock nanoseconds of the whole run (spawn to join).
    pub total_wall_nanos: u64,
    /// Per-LP wall clock spent merging messages and executing windows.
    pub per_lp_busy_nanos: Vec<u64>,
    /// Per-LP wall clock spent waiting at the window barriers.
    pub per_lp_blocked_nanos: Vec<u64>,
    /// Per-LP count of cross-LP messages received.
    pub per_lp_messages: Vec<u64>,
    /// Whether an LP reported [`LogicalProcess::diverged`]; the run then
    /// stopped at the barrier after that window, so `windows` is the
    /// window it stopped in.
    pub diverged: bool,
}

impl LpRunProfile {
    /// Messages delivered per window (0 when no window ran).
    pub fn msgs_per_window(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.messages as f64 / self.windows as f64
        }
    }

    /// Share of total worker time spent parked at window barriers
    /// rather than merging messages or executing events —
    /// `Σ blocked / Σ (busy + blocked)` over the LPs (0 when nothing
    /// was recorded). This is the protocol-overhead measure from the
    /// workers' perspective; the coordinator-side `barrier_wait_nanos`
    /// is not a useful share on its own, because the coordinator does
    /// almost nothing between barriers (lane swaps are pointer swaps)
    /// and so is parked for nearly the whole run by design. Note that
    /// on an oversubscribed machine a parked worker is often just
    /// waiting for a peer to get scheduled, so this share bounds the
    /// protocol overhead from above there.
    pub fn barrier_wait_share(&self) -> f64 {
        let blocked: u64 = self.per_lp_blocked_nanos.iter().sum();
        let busy: u64 = self.per_lp_busy_nanos.iter().sum();
        if blocked + busy == 0 {
            0.0
        } else {
            blocked as f64 / (blocked + busy) as f64
        }
    }

    /// Max-over-mean of the per-LP busy time: 1.0 is a perfectly
    /// balanced partition, higher means straggler LPs gate the barrier.
    pub fn lp_imbalance(&self) -> f64 {
        let n = self.per_lp_busy_nanos.len();
        if n == 0 {
            return 1.0;
        }
        let sum: u64 = self.per_lp_busy_nanos.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        let max = *self.per_lp_busy_nanos.iter().max().expect("nonempty");
        max as f64 * n as f64 / sum as f64
    }
}

static PROFILE: Mutex<LpRunProfile> = Mutex::new(LpRunProfile {
    windows: 0,
    messages: 0,
    barrier_wait_nanos: 0,
    total_wall_nanos: 0,
    per_lp_busy_nanos: Vec::new(),
    per_lp_blocked_nanos: Vec::new(),
    per_lp_messages: Vec::new(),
    diverged: false,
});

/// The profile of the most recent [`run_conservative`] /
/// [`run_conservative_matrix`] call. Process-wide and overwritten by
/// every run (concurrent runs interleave), so read it immediately after
/// the run of interest; callers that own the run should use the profile
/// it returns instead.
pub fn last_run_profile() -> LpRunProfile {
    PROFILE.lock().expect("profile lock").clone()
}

/// One double-buffered message lane from a fixed source LP to a fixed
/// destination LP. The source worker appends to `fresh` during its
/// window; the coordinator swaps `fresh`/`ready` at the barrier; the
/// destination worker drains `ready` at the start of the next window.
/// The barrier protocol alternates exclusive access, so the mutexes are
/// never contended — they exist to keep the sharing safe. Both buffers
/// keep their capacity across windows, so a warmed-up run allocates
/// nothing per window.
struct Lane<M> {
    /// Messages appended by the source worker this window, in emission
    /// order (`(arrival nanos, payload)`).
    fresh: Mutex<Vec<(u64, M)>>,
    /// Last window's messages, awaiting the destination worker.
    ready: Mutex<Vec<(u64, M)>>,
    /// Earliest arrival among `fresh` (IDLE when empty); written by the
    /// source worker after its window, consumed (and reset) by the
    /// coordinator when it swaps the buffers.
    min_at: AtomicU64,
    /// Set by the coordinator on swap-in, cleared by the destination on
    /// drain — lets the destination skip locking empty lanes.
    ready_nonempty: AtomicBool,
}

/// Per-worker profile slots, published once when the worker exits.
#[derive(Default)]
struct WorkerStats {
    busy_nanos: AtomicU64,
    blocked_nanos: AtomicU64,
    messages: AtomicU64,
}

/// Runs `lps` under the uniform-lookahead conservative protocol — every
/// pair of LPs at the same minimum latency. Equivalent to
/// [`run_conservative_matrix`] with [`LookaheadMatrix::uniform`];
/// `lookahead` must be positive.
pub fn run_conservative<L: LogicalProcess>(
    lps: &mut [L],
    lookahead: SimDuration,
    deadline: SimTime,
) -> LpRunProfile {
    assert!(
        lookahead.as_nanos() > 0,
        "conservative windows need a positive lookahead"
    );
    let matrix = LookaheadMatrix::uniform(lps.len(), lookahead);
    run_conservative_matrix(lps, &matrix, deadline)
}

/// Runs `lps` to completion (or until every pending event lies past
/// `deadline`, or until an LP reports [`LogicalProcess::diverged`])
/// under the neighbor-lookahead conservative protocol, one worker
/// thread per LP plus the calling thread as coordinator. Threads are
/// spawned once and live for the whole run (`std::thread::scope`).
/// Returns the run's profile, which is also published to
/// [`last_run_profile`].
///
/// Every off-diagonal `lookahead` entry must be positive or
/// [`LookaheadMatrix::NEVER`]: a zero entry would make its destination's
/// windows empty forever.
///
/// The schedule executed is a pure function of the LPs' initial state —
/// worker interleaving cannot affect it — so a run with any `lps.len()`
/// partitioning of the same model is reproducible.
pub fn run_conservative_matrix<L: LogicalProcess>(
    lps: &mut [L],
    lookahead: &LookaheadMatrix,
    deadline: SimTime,
) -> LpRunProfile {
    let k = lps.len();
    assert_eq!(lookahead.len(), k, "lookahead matrix must cover every LP");
    if k == 0 {
        return LpRunProfile::default();
    }
    for s in 0..k {
        for t in 0..k {
            assert!(
                s == t || lookahead.get(s, t) > 0,
                "conservative windows need positive lookahead between LPs {s} and {t}"
            );
        }
    }
    let next_times: Vec<AtomicU64> = lps
        .iter()
        .map(|lp| AtomicU64::new(lp.next_time().map_or(IDLE, SimTime::as_nanos)))
        .collect();
    let horizons: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(IDLE)).collect();
    let lanes: Vec<Lane<L::Message>> = (0..k * k)
        .map(|_| Lane {
            fresh: Mutex::new(Vec::new()),
            ready: Mutex::new(Vec::new()),
            min_at: AtomicU64::new(IDLE),
            ready_nonempty: AtomicBool::new(false),
        })
        .collect();
    let stats: Vec<WorkerStats> = (0..k).map(|_| WorkerStats::default()).collect();
    // Raised by any worker whose LP diverged; read by the coordinator
    // after the window's closing barrier.
    let diverged = AtomicBool::new(false);
    // Participants: k workers + the coordinator.
    let barrier = WindowBarrier::new(k + 1);
    // Coordinator-side profile counters (wall clock only; published to
    // the process-wide profile after the run).
    let mut prof_windows = 0u64;
    let mut prof_barrier_nanos = 0u64;
    let run_start = std::time::Instant::now();
    let deadline_ns = deadline.as_nanos();
    // Events exactly at the deadline must run (`time < cap` with
    // `cap = deadline + 1`), and the cap must stay below the IDLE
    // sentinel that tells workers to terminate.
    let cap_limit = deadline_ns.saturating_add(1).min(IDLE - 1);

    std::thread::scope(|scope| {
        for (i, lp) in lps.iter_mut().enumerate() {
            let next_times = &next_times;
            let horizons = &horizons;
            let lanes = &lanes;
            let stats = &stats;
            let diverged = &diverged;
            let barrier = &barrier;
            scope.spawn(move || {
                let mut outbox: Vec<LpMessage<L::Message>> = Vec::new();
                // Merge scratch: (at, src, emission idx, payload).
                let mut inbox: Vec<(u64, u32, u32, L::Message)> = Vec::new();
                let mut out_min: Vec<u64> = vec![IDLE; k];
                let mut busy = 0u64;
                let mut blocked = 0u64;
                let mut delivered = 0u64;
                loop {
                    // (1) The coordinator published the horizons and
                    // swapped the lanes.
                    let parked = std::time::Instant::now();
                    barrier.wait();
                    blocked += parked.elapsed().as_nanos() as u64;
                    let cap = horizons[i].load(Ordering::Acquire);
                    if cap == IDLE {
                        break;
                    }
                    let started = std::time::Instant::now();
                    // Merge this window's incoming messages in
                    // deterministic (time, source LP, emission order).
                    for src in 0..k {
                        let lane = &lanes[src * k + i];
                        if lane.ready_nonempty.swap(false, Ordering::AcqRel) {
                            let mut ready = lane.ready.lock().expect("ready lock");
                            for (idx, (at, payload)) in ready.drain(..).enumerate() {
                                inbox.push((at, src as u32, idx as u32, payload));
                            }
                        }
                    }
                    inbox.sort_unstable_by_key(|&(at, src, idx, _)| (at, src, idx));
                    delivered += inbox.len() as u64;
                    for (at, src, _, payload) in inbox.drain(..) {
                        lp.receive(SimTime::from_nanos(at), src, payload);
                    }
                    lp.run_window(SimTime::from_nanos(cap), &mut outbox);
                    // Distribute this window's sends into the fresh
                    // lanes, publishing each lane's earliest arrival.
                    for msg in outbox.drain(..) {
                        let at = msg.at.as_nanos();
                        let lane = &lanes[i * k + msg.dst];
                        lane.fresh
                            .lock()
                            .expect("fresh lock")
                            .push((at, msg.payload));
                        if at < out_min[msg.dst] {
                            out_min[msg.dst] = at;
                        }
                    }
                    for (dst, slot) in out_min.iter_mut().enumerate() {
                        if *slot != IDLE {
                            lanes[i * k + dst].min_at.store(*slot, Ordering::Release);
                            *slot = IDLE;
                        }
                    }
                    next_times[i].store(
                        lp.next_time().map_or(IDLE, SimTime::as_nanos),
                        Ordering::Release,
                    );
                    if lp.diverged() {
                        diverged.store(true, Ordering::Release);
                    }
                    busy += started.elapsed().as_nanos() as u64;
                    // (2) Window complete; hand control to the coordinator.
                    let parked = std::time::Instant::now();
                    barrier.wait();
                    blocked += parked.elapsed().as_nanos() as u64;
                }
                stats[i].busy_nanos.store(busy, Ordering::Release);
                stats[i].blocked_nanos.store(blocked, Ordering::Release);
                stats[i].messages.store(delivered, Ordering::Release);
            });
        }

        // Coordinator: swap the lanes, derive per-LP horizons, repeat.
        let mut eff = vec![IDLE; k];
        loop {
            // Effective time per LP: its next local event or its
            // earliest undelivered message, whichever is sooner.
            for (slot, next) in eff.iter_mut().zip(&next_times) {
                *slot = next.load(Ordering::Acquire);
            }
            for src in 0..k {
                for dst in 0..k {
                    let lane = &lanes[src * k + dst];
                    let pending = lane.min_at.swap(IDLE, Ordering::AcqRel);
                    if pending != IDLE {
                        {
                            let mut fresh = lane.fresh.lock().expect("fresh lock");
                            let mut ready = lane.ready.lock().expect("ready lock");
                            std::mem::swap(&mut *fresh, &mut *ready);
                        }
                        lane.ready_nonempty.store(true, Ordering::Release);
                        if pending < eff[dst] {
                            eff[dst] = pending;
                        }
                    }
                }
            }
            let global_min = eff.iter().copied().min().unwrap_or(IDLE);
            if global_min == IDLE || global_min > deadline_ns || diverged.load(Ordering::Acquire) {
                for h in &horizons {
                    h.store(IDLE, Ordering::Release);
                }
                barrier.wait(); // release workers into termination
                break;
            }
            // Per-LP horizon: the earliest instant anyone could still
            // influence this LP — including itself, via the diagonal
            // echo-cycle term (an emission can wake an idle peer whose
            // reply lands back here). Idle and unreachable peers impose
            // no bound; with none at all the LP runs straight to the
            // deadline.
            for (i, h) in horizons.iter().enumerate() {
                let mut cap = cap_limit;
                for (j, &t) in eff.iter().enumerate() {
                    if t == IDLE {
                        continue;
                    }
                    let d = lookahead.get(j, i);
                    if d != LookaheadMatrix::NEVER {
                        cap = cap.min(t.saturating_add(d));
                    }
                }
                h.store(cap, Ordering::Release);
            }
            prof_windows += 1;
            let waited = std::time::Instant::now();
            barrier.wait(); // (1) start the window
            barrier.wait(); // (2) wait for every worker to finish it
            prof_barrier_nanos += waited.elapsed().as_nanos() as u64;
        }
    });
    let profile = LpRunProfile {
        windows: prof_windows,
        messages: stats
            .iter()
            .map(|s| s.messages.load(Ordering::Acquire))
            .sum(),
        barrier_wait_nanos: prof_barrier_nanos,
        total_wall_nanos: run_start.elapsed().as_nanos() as u64,
        per_lp_busy_nanos: stats
            .iter()
            .map(|s| s.busy_nanos.load(Ordering::Acquire))
            .collect(),
        per_lp_blocked_nanos: stats
            .iter()
            .map(|s| s.blocked_nanos.load(Ordering::Acquire))
            .collect(),
        per_lp_messages: stats
            .iter()
            .map(|s| s.messages.load(Ordering::Acquire))
            .collect(),
        diverged: diverged.load(Ordering::Acquire),
    };
    *PROFILE.lock().expect("profile lock") = profile.clone();
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventQueue;

    /// A token-passing LP ring: each LP holds a FEL of `(time, token)`
    /// events; processing an event at `t` forwards `token - 1` to the
    /// next LP at `t + delay` until the token is spent. Mirrors the
    /// structure (FEL + cross-LP sends) of the network World shards.
    struct RingLp {
        id: usize,
        n: usize,
        delay: SimDuration,
        fel: EventQueue<u64>,
        log: Vec<(u64, u64)>,
        /// Report divergence once a token at or below this value has
        /// been processed here (`None` = never diverge).
        diverge_at_token: Option<u64>,
    }

    impl LogicalProcess for RingLp {
        type Message = u64;

        fn next_time(&self) -> Option<SimTime> {
            self.fel.peek_time()
        }

        fn run_window(&mut self, horizon: SimTime, outbox: &mut Vec<LpMessage<u64>>) {
            while self
                .fel
                .peek_time()
                .is_some_and(|t| t.as_nanos() < horizon.as_nanos())
            {
                let (now, token) = self.fel.pop().expect("peeked event pops");
                self.log.push((now.as_nanos(), token));
                if token > 0 {
                    outbox.push(LpMessage {
                        at: now + self.delay,
                        dst: (self.id + 1) % self.n,
                        payload: token - 1,
                    });
                }
            }
        }

        fn receive(&mut self, at: SimTime, _src: u32, payload: u64) {
            self.fel.push(at, payload);
        }

        fn diverged(&self) -> bool {
            self.diverge_at_token
                .is_some_and(|at| self.log.last().is_some_and(|&(_, token)| token <= at))
        }
    }

    fn ring(n: usize, delay_ns: u64, tokens: u64) -> Vec<RingLp> {
        let mut lps: Vec<RingLp> = (0..n)
            .map(|id| RingLp {
                id,
                n,
                delay: SimDuration::from_nanos(delay_ns),
                fel: EventQueue::new(),
                log: Vec::new(),
                diverge_at_token: None,
            })
            .collect();
        lps[0].fel.push(SimTime::from_nanos(1), tokens);
        lps
    }

    /// The sequential schedule of `ring(n, delay, tokens)`: token `t` is
    /// processed by LP `(tokens - t) % n` at time
    /// `1 + (tokens - t) * delay`.
    fn ring_reference(n: usize, delay: u64, tokens: u64) -> Vec<Vec<(u64, u64)>> {
        let mut expect: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for step in 0..=tokens {
            expect[(step as usize) % n].push((1 + step * delay, tokens - step));
        }
        expect
    }

    #[test]
    fn ring_matches_sequential_reference() {
        let delay = 7;
        let tokens = 100;
        for n in [1, 2, 3, 4] {
            let mut lps = ring(n, delay, tokens);
            let p = run_conservative(
                &mut lps,
                SimDuration::from_nanos(delay),
                SimTime::from_nanos(u64::MAX - 1),
            );
            assert!(!p.diverged);
            for (lp, want) in lps.iter().zip(&ring_reference(n, delay, tokens)) {
                assert_eq!(&lp.log, want, "n={n}");
            }
        }
    }

    #[test]
    fn ring_matches_under_an_asymmetric_matrix() {
        // A 3-LP ring where the declared pair delays differ (each >= the
        // true hop delay, so the protocol stays conservative): the
        // schedule must still match the sequential reference.
        let delay = 7;
        let tokens = 60;
        let n = 3;
        let mut lps = ring(n, delay, tokens);
        let mut direct = vec![LookaheadMatrix::NEVER; n * n];
        // Ring topology: i sends only to (i + 1) % n, at the hop delay.
        for i in 0..n {
            direct[i * n + (i + 1) % n] = delay;
        }
        let matrix = LookaheadMatrix::from_direct(n, direct);
        // Closure: two hops around the ring cost 2 * delay, and the
        // echo cycle back to yourself is the full loop.
        assert_eq!(matrix.get(0, 1), delay);
        assert_eq!(matrix.get(0, 2), 2 * delay);
        assert_eq!(matrix.get(1, 0), 2 * delay);
        assert_eq!(matrix.get(0, 0), 3 * delay);
        run_conservative_matrix(&mut lps, &matrix, SimTime::from_nanos(u64::MAX - 1));
        for (lp, want) in lps.iter().zip(&ring_reference(n, delay, tokens)) {
            assert_eq!(&lp.log, want);
        }
    }

    #[test]
    fn matrix_closure_and_min_lookahead() {
        // 0 -> 1 at 5, 1 -> 2 at 3, nothing else: the closure fills
        // 0 -> 2 at 8 and leaves every reverse pair unreachable.
        let n = 3;
        let mut direct = vec![LookaheadMatrix::NEVER; n * n];
        direct[1] = 5; // 0 -> 1
        direct[n + 2] = 3; // 1 -> 2
        let m = LookaheadMatrix::from_direct(n, direct);
        assert_eq!(m.get(0, 1), 5);
        assert_eq!(m.get(1, 2), 3);
        assert_eq!(m.get(0, 2), 8);
        assert_eq!(m.get(2, 0), LookaheadMatrix::NEVER);
        assert_eq!(m.get(1, 0), LookaheadMatrix::NEVER);
        // A DAG has no echo cycles: nothing an LP emits can come back.
        assert_eq!(m.get(0, 0), LookaheadMatrix::NEVER);
        assert_eq!(m.min_lookahead(), Some(3));
        let u = LookaheadMatrix::uniform(2, SimDuration::from_nanos(9));
        assert_eq!(u.min_lookahead(), Some(9));
        assert_eq!(u.get(0, 0), 18); // i -> j -> i echo
        assert_eq!(
            LookaheadMatrix::uniform(1, SimDuration::from_nanos(9)).min_lookahead(),
            None
        );
    }

    #[test]
    fn deadline_stops_the_run() {
        let mut lps = ring(2, 10, 1_000);
        run_conservative(
            &mut lps,
            SimDuration::from_nanos(10),
            SimTime::from_nanos(501),
        );
        // Events at 1, 11, ..., 501 have fired: 51 of them, alternating
        // between the two LPs starting at LP 0.
        let fired: usize = lps.iter().map(|lp| lp.log.len()).sum();
        assert_eq!(fired, 51);
        assert!(lps.iter().flat_map(|lp| &lp.log).all(|&(t, _)| t <= 501));
    }

    #[test]
    fn profile_counts_windows_and_messages() {
        let tokens = 50;
        let mut lps = ring(2, 10, tokens);
        let p = run_conservative(
            &mut lps,
            SimDuration::from_nanos(10),
            SimTime::from_nanos(u64::MAX - 1),
        );
        // Every token hop is one cross-LP message, and the hops
        // alternate between the LPs, so each needs its own window.
        assert_eq!(p.messages, tokens);
        assert!(
            p.windows >= tokens && p.windows <= tokens + 2,
            "windows {}",
            p.windows
        );
        // Per-LP counters cover both LPs and sum to the totals.
        assert_eq!(p.per_lp_messages.len(), 2);
        assert_eq!(p.per_lp_messages.iter().sum::<u64>(), p.messages);
        assert_eq!(p.per_lp_busy_nanos.len(), 2);
        assert_eq!(p.per_lp_blocked_nanos.len(), 2);
        assert!(p.total_wall_nanos > 0);
    }

    #[test]
    fn idle_peers_do_not_throttle_windows() {
        // A 4-LP ring passing a single token: under per-LP horizons the
        // two LPs that are never "next" stay unconstraining, and the
        // token's holder always gets a horizon past its event — one
        // window per hop, not one window per lookahead interval.
        let tokens = 40;
        let mut lps = ring(4, 10, tokens);
        let p = run_conservative(
            &mut lps,
            SimDuration::from_nanos(10),
            SimTime::from_nanos(u64::MAX - 1),
        );
        assert!(
            p.windows <= tokens + 2,
            "per-LP horizons should need ~one window per hop, got {}",
            p.windows
        );
    }

    #[test]
    fn divergence_ends_the_run_within_one_window() {
        // A 2-LP ring carries one token per window. Both LPs report
        // divergence once they have handled the ring's `n`th token, so
        // the run must stop at the next barrier instead of passing the
        // other 990 tokens, and every worker must still join.
        let (delay, tokens, n) = (10, 1_000, 10);
        let mut lps = ring(2, delay, tokens);
        for lp in &mut lps {
            lp.diverge_at_token = Some(tokens - n);
        }
        let p = run_conservative(
            &mut lps,
            SimDuration::from_nanos(delay),
            SimTime::from_nanos(u64::MAX - 1),
        );
        assert!(p.diverged);
        assert!(p.windows <= n + 2, "stopped after {} windows", p.windows);
        let fired: u64 = lps.iter().map(|lp| lp.log.len() as u64).sum();
        assert!(fired > n && fired <= n + 2, "{fired} tokens handled");
        // What did run is the sequential schedule's prefix.
        for (lp, want) in lps.iter().zip(&ring_reference(2, delay, tokens)) {
            assert_eq!(lp.log[..], want[..lp.log.len()]);
        }
        assert_eq!(p.per_lp_busy_nanos.len(), 2);
    }

    #[test]
    fn empty_lp_set_is_a_noop() {
        let mut lps: Vec<RingLp> = Vec::new();
        run_conservative(
            &mut lps,
            SimDuration::from_nanos(1),
            SimTime::from_nanos(100),
        );
    }

    #[test]
    fn same_instant_messages_deliver_in_source_order() {
        // Two LPs both send to LP 2 at the same instant; delivery (and
        // therefore FEL tie-break) must order by source LP id.
        struct Sender {
            id: usize,
            fired: bool,
        }
        struct Collector(Vec<u64>);
        enum Lp {
            S(Sender),
            C(Collector),
        }
        impl LogicalProcess for Lp {
            type Message = u64;
            fn next_time(&self) -> Option<SimTime> {
                match self {
                    Lp::S(s) if !s.fired => Some(SimTime::from_nanos(1)),
                    _ => None,
                }
            }
            fn run_window(&mut self, horizon: SimTime, outbox: &mut Vec<LpMessage<u64>>) {
                if let Lp::S(s) = self {
                    if !s.fired && horizon.as_nanos() > 1 {
                        s.fired = true;
                        outbox.push(LpMessage {
                            at: SimTime::from_nanos(11),
                            dst: 2,
                            payload: s.id as u64,
                        });
                    }
                }
            }
            fn receive(&mut self, _at: SimTime, _src: u32, payload: u64) {
                if let Lp::C(c) = self {
                    c.0.push(payload);
                }
            }
        }
        // Run twice with the senders' spawn order fixed: order must be
        // by source id, not arrival timing.
        for _ in 0..16 {
            let mut lps = vec![
                Lp::S(Sender {
                    id: 0,
                    fired: false,
                }),
                Lp::S(Sender {
                    id: 1,
                    fired: false,
                }),
                Lp::C(Collector(Vec::new())),
            ];
            run_conservative(
                &mut lps,
                SimDuration::from_nanos(10),
                SimTime::from_nanos(100),
            );
            let Lp::C(c) = &lps[2] else {
                panic!("collector")
            };
            assert_eq!(c.0, vec![0, 1]);
        }
    }
}
