//! Per-switch shared-memory buffer pool (DESIGN.md §12).
//!
//! Real datacenter ASICs do not give every port a private buffer: all
//! ports' queues carve their backlog out of one shared memory pool, and
//! an admission policy decides which arrivals may take pool space. This
//! module models that layer *above* the per-port
//! [`MultiQueue`](pmsb_sched::MultiQueue). A port admits through its
//! switch's pool at arrival and releases its bytes at departure
//! (`world::port`), so the pool always holds the switch's
//! buffered bytes — the occupancy the per-pool marking scheme reads, in
//! O(1), under every policy:
//!
//! * [`BufferPolicy::Static`] — today's behaviour and the golden-record
//!   default: the pool counts but admits nothing; every port keeps its
//!   private `buffer_bytes` cap, byte-identical to the pre-pool
//!   simulator.
//! * [`BufferPolicy::DynamicThreshold`] — DT (Choudhury & Hahne), the
//!   commodity shared-buffer policy: a queue may only grow while its
//!   occupancy stays below `alpha ×` the *remaining free pool*, so no
//!   queue can monopolize the switch and freshly-active queues always
//!   find room.
//! * [`BufferPolicy::DelayDriven`] — BShare-style delay-driven
//!   allocation: each queue's cap is its measured drain rate times a
//!   target delay, so the admitted backlog bounds queueing delay rather
//!   than byte count. A queue draining at line rate earns a deep buffer;
//!   a starved queue is clamped to a couple of MTUs.
//!
//! Under the shared policies the per-port `MultiQueue` caps are lifted
//! (`u64::MAX`) and the pool owns every admission decision; the switch
//! total is the sum of the per-port budgets, so `static` and the shared
//! policies compare at equal total memory. All accounting is plain
//! integer arithmetic on one switch's state — no global maps, no
//! floating-point accumulation across packets — so a pool's decisions
//! depend only on its own switch's event order.

use pmsb_metrics::contention::ContentionSummary;

use crate::packet::MTU_WIRE_BYTES;

/// Default [`BufferPolicy::DelayDriven`] target queueing delay: 100 µs,
/// about one paper-fabric RTT — a queue is allowed to hold roughly one
/// RTT's worth of its own drain rate.
pub const DEFAULT_DELAY_TARGET_NANOS: u64 = 100_000;

/// Floor of the delay-driven per-queue cap: a starved queue may always
/// hold a couple of full-MTU packets, so a fresh queue can start
/// draining (and thereby raise its measured rate) instead of deadlocking
/// at a zero cap.
pub const DELAY_DRIVEN_FLOOR_BYTES: u64 = 2 * MTU_WIRE_BYTES;

/// How a switch's shared memory pool admits arriving packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferPolicy {
    /// Private per-port buffers: the pool only counts (the default;
    /// keeps every pre-pool golden record byte-identical).
    Static,
    /// Dynamic Threshold: queue `q` may grow while
    /// `occ(q) + pkt ≤ alpha × (pool_total − pool_used)`.
    DynamicThreshold {
        /// DT scale factor (commodity defaults are 0.5–8).
        alpha: f64,
    },
    /// Delay-driven (BShare-style): queue `q` may grow while
    /// `occ(q) + pkt ≤ max(floor, drain_rate(q) × target_delay)`, with
    /// the drain rate measured per queue by an integer EWMA.
    DelayDriven {
        /// The queueing-delay bound the cap enforces, nanoseconds.
        target_delay_nanos: u64,
    },
}

impl BufferPolicy {
    /// Whether this policy admits through the shared pool (`false` only
    /// for [`BufferPolicy::Static`], whose pool only counts).
    #[inline]
    pub fn is_shared(&self) -> bool {
        !matches!(self, BufferPolicy::Static)
    }

    /// Canonical name, identical to the CLI spelling that parses back to
    /// this policy (`static`, `dt:ALPHA`, `delay:MICROS`).
    pub fn name(&self) -> String {
        match self {
            BufferPolicy::Static => "static".into(),
            BufferPolicy::DynamicThreshold { alpha } => format!("dt:{alpha}"),
            BufferPolicy::DelayDriven { target_delay_nanos } => {
                format!("delay:{}", target_delay_nanos / 1_000)
            }
        }
    }

    /// Parses a CLI buffer-policy spec: `static`, `dt:ALPHA` (DT with
    /// the given positive scale factor), or `delay[:MICROS]` (delay-
    /// driven with the given target in microseconds, default 100).
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad input and listing the accepted
    /// variants.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let bad = || format!("unknown buffer policy '{spec}' (static|dt:ALPHA|delay[:MICROS])");
        match spec.split_once(':') {
            None => match spec {
                "static" => Ok(BufferPolicy::Static),
                "delay" => Ok(BufferPolicy::DelayDriven {
                    target_delay_nanos: DEFAULT_DELAY_TARGET_NANOS,
                }),
                _ => Err(bad()),
            },
            Some(("dt", alpha)) => {
                let alpha: f64 = alpha.parse().map_err(|_| bad())?;
                if alpha > 0.0 && alpha.is_finite() {
                    Ok(BufferPolicy::DynamicThreshold { alpha })
                } else {
                    Err(format!(
                        "buffer policy 'dt' needs a positive finite ALPHA, got '{spec}' \
                         (static|dt:ALPHA|delay[:MICROS])"
                    ))
                }
            }
            Some(("delay", micros)) => {
                let micros: u64 = micros.parse().map_err(|_| bad())?;
                if micros == 0 {
                    return Err(format!(
                        "buffer policy 'delay' needs a positive target in microseconds, \
                         got '{spec}' (static|dt:ALPHA|delay[:MICROS])"
                    ));
                }
                Ok(BufferPolicy::DelayDriven {
                    target_delay_nanos: micros * 1_000,
                })
            }
            Some(_) => Err(bad()),
        }
    }
}

/// What the pool decided for one arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Admitted; call [`SharedPool::commit`] once the packet is enqueued.
    Ok,
    /// Rejected: the whole pool is full (any policy).
    PoolFull,
    /// Rejected by the policy's per-queue cap while pool space remained
    /// (DT / delay-driven shielding other queues).
    PolicyCap,
}

/// Per-queue drain-rate estimator for [`BufferPolicy::DelayDriven`]:
/// an integer EWMA (`rate ← (7·rate + inst)/8`) of the instantaneous
/// rate between consecutive dequeues, clamped at the port's line rate
/// and initialized to it (a queue is presumed fast until observed slow).
#[derive(Debug, Clone, Copy)]
struct DrainEstimator {
    rate_bps: u64,
    link_rate_bps: u64,
    last_dequeue_nanos: u64,
}

impl DrainEstimator {
    fn new(link_rate_bps: u64) -> Self {
        DrainEstimator {
            rate_bps: link_rate_bps,
            link_rate_bps,
            last_dequeue_nanos: 0,
        }
    }

    fn on_dequeue(&mut self, bytes: u64, now_nanos: u64) {
        let dt = now_nanos.saturating_sub(self.last_dequeue_nanos);
        if dt > 0 {
            let inst = ((bytes as u128 * 8_000_000_000) / dt as u128)
                .min(self.link_rate_bps as u128) as u64;
            self.rate_bps = (7 * self.rate_bps + inst) / 8;
            self.last_dequeue_nanos = now_nanos;
        }
    }

    /// The backlog this queue may hold to bound its delay at `target`.
    fn cap_bytes(&self, target_delay_nanos: u64) -> u64 {
        let cap = (self.rate_bps as u128 * target_delay_nanos as u128 / 8_000_000_000) as u64;
        cap.max(DELAY_DRIVEN_FLOOR_BYTES)
    }
}

/// One switch's shared memory pool. Created unconfigured; every port
/// wired onto the switch calls [`SharedPool::attach_port`], which grows
/// the pool by the port's byte budget (so the switch total equals the
/// sum of per-port budgets and policies compare at equal memory).
#[derive(Debug)]
pub struct SharedPool {
    policy: BufferPolicy,
    total_bytes: u64,
    used_bytes: u64,
    high_water_bytes: u64,
    shared_drops: u64,
    admit_rejects: u64,
    /// Flattened per-(port, queue) drain estimators (delay-driven only;
    /// empty otherwise). `drain_offset[port] + q` indexes a queue's.
    drains: Vec<DrainEstimator>,
    drain_offset: Vec<u32>,
}

impl SharedPool {
    /// An empty pool with no ports attached yet.
    pub fn new(policy: BufferPolicy) -> Self {
        SharedPool {
            policy,
            total_bytes: 0,
            used_bytes: 0,
            high_water_bytes: 0,
            shared_drops: 0,
            admit_rejects: 0,
            drains: Vec::new(),
            drain_offset: Vec::new(),
        }
    }

    /// Grows the pool by one port's budget and returns the port's index
    /// in the pool, which its admissions and releases name. On a switch
    /// ports attach in port-index order (the wiring order), so the index
    /// is the port's. The first attach fixes the pool's policy (switches
    /// are built unconfigured, before any port config is known); mixing
    /// policies on one switch is unsupported.
    pub fn attach_port(
        &mut self,
        policy: BufferPolicy,
        port_bytes: u64,
        num_queues: usize,
        link_rate_bps: u64,
    ) -> usize {
        if self.drain_offset.is_empty() {
            self.policy = policy;
        } else {
            debug_assert_eq!(self.policy, policy, "one switch cannot mix buffer policies");
        }
        self.total_bytes += port_bytes;
        self.drain_offset.push(self.drains.len() as u32);
        if matches!(self.policy, BufferPolicy::DelayDriven { .. }) {
            self.drains
                .extend((0..num_queues).map(|_| DrainEstimator::new(link_rate_bps)));
        }
        self.drain_offset.len() - 1
    }

    /// Whether this pool owns admission (`false` for
    /// [`BufferPolicy::Static`], where ports keep private buffers and the
    /// pool only counts).
    #[inline]
    pub fn is_shared(&self) -> bool {
        self.policy.is_shared()
    }

    /// The admission policy.
    pub fn policy(&self) -> BufferPolicy {
        self.policy
    }

    /// Total pool memory (the sum of attached ports' budgets).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes currently admitted across all ports of the switch.
    #[inline]
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Peak pool occupancy over the run.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water_bytes
    }

    /// Packets the pool refused (all causes; these are real drops).
    pub fn shared_drops(&self) -> u64 {
        self.shared_drops
    }

    /// Decides admission of a `bytes`-sized packet into queue `q` of
    /// `port`, whose current occupancy is `queue_bytes`. Rejections are
    /// counted here; an [`Admit::Ok`] takes effect only at
    /// [`SharedPool::commit`] (so a packet the per-port queue still
    /// refuses — e.g. under a fault-shrunk cap — never leaks pool space).
    /// A [`BufferPolicy::Static`] pool admits everything: the port's own
    /// cap decides.
    #[inline]
    pub fn try_admit(&mut self, port: usize, q: usize, queue_bytes: u64, bytes: u64) -> Admit {
        if !self.is_shared() {
            return Admit::Ok;
        }
        if self.used_bytes + bytes > self.total_bytes {
            self.shared_drops += 1;
            return Admit::PoolFull;
        }
        let within_cap = match self.policy {
            BufferPolicy::Static => unreachable!("a static pool admits above"),
            BufferPolicy::DynamicThreshold { alpha } => {
                let free = (self.total_bytes - self.used_bytes) as f64;
                (queue_bytes + bytes) as f64 <= alpha * free
            }
            BufferPolicy::DelayDriven { target_delay_nanos } => {
                let est = &self.drains[self.drain_offset[port] as usize + q];
                queue_bytes + bytes <= est.cap_bytes(target_delay_nanos)
            }
        };
        if !within_cap {
            self.shared_drops += 1;
            self.admit_rejects += 1;
            return Admit::PolicyCap;
        }
        Admit::Ok
    }

    /// Books an admitted (and enqueued) packet's bytes into the pool.
    #[inline]
    pub fn commit(&mut self, bytes: u64) {
        self.used_bytes += bytes;
        self.high_water_bytes = self.high_water_bytes.max(self.used_bytes);
    }

    /// Releases a departing packet's bytes and feeds the queue's drain
    /// estimator (delay-driven only).
    #[inline]
    pub fn on_dequeue(&mut self, port: usize, q: usize, bytes: u64, now_nanos: u64) {
        debug_assert!(self.used_bytes >= bytes, "pool accounting underflow");
        self.used_bytes -= bytes;
        if !self.drains.is_empty() {
            self.drains[self.drain_offset[port] as usize + q].on_dequeue(bytes, now_nanos);
        }
    }

    /// This pool's contention counters as a mergeable summary.
    pub fn summary(&self) -> ContentionSummary {
        ContentionSummary {
            shared_drops: self.shared_drops,
            admit_rejects: self.admit_rejects,
            pool_high_water_bytes: self.high_water_bytes,
            pool_total_bytes: self.total_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmsb_simcore::rng::SimRng;

    fn pool_with_ports(policy: BufferPolicy, ports: usize, port_bytes: u64) -> SharedPool {
        let mut pool = SharedPool::new(policy);
        for _ in 0..ports {
            pool.attach_port(policy, port_bytes, 2, 10_000_000_000);
        }
        pool
    }

    #[test]
    fn policy_names_round_trip_through_parse() {
        for policy in [
            BufferPolicy::Static,
            BufferPolicy::DynamicThreshold { alpha: 1.0 },
            BufferPolicy::DynamicThreshold { alpha: 0.5 },
            BufferPolicy::DelayDriven {
                target_delay_nanos: DEFAULT_DELAY_TARGET_NANOS,
            },
            BufferPolicy::DelayDriven {
                target_delay_nanos: 250_000,
            },
        ] {
            assert_eq!(BufferPolicy::parse(&policy.name()), Ok(policy));
        }
        assert_eq!(
            BufferPolicy::parse("delay"),
            Ok(BufferPolicy::DelayDriven {
                target_delay_nanos: DEFAULT_DELAY_TARGET_NANOS
            })
        );
    }

    #[test]
    fn parse_rejects_bad_specs_listing_variants() {
        for bad in [
            "", "shared", "dt", "dt:x", "dt:0", "dt:-1", "delay:0", "delay:x", "df:1",
        ] {
            let err = BufferPolicy::parse(bad).expect_err(bad);
            assert!(
                err.contains("static|dt:ALPHA|delay[:MICROS]"),
                "'{bad}' error must list variants: {err}"
            );
        }
        assert!(BufferPolicy::parse("dtx").unwrap_err().contains("'dtx'"));
    }

    #[test]
    fn static_pools_count_and_admit_everything() {
        let mut pool = pool_with_ports(BufferPolicy::Static, 4, 1000);
        assert!(!pool.is_shared());
        assert_eq!(pool.total_bytes(), 4000);
        for port in 0..4 {
            // Past the pool's total: only a port's own cap refuses.
            assert_eq!(pool.try_admit(port, 0, 3000, 1500), Admit::Ok);
            pool.commit(1500);
        }
        assert_eq!(pool.used_bytes(), 6000);
        pool.on_dequeue(2, 0, 1500, 10);
        assert_eq!(pool.used_bytes(), 4500);
        assert_eq!(pool.shared_drops(), 0);
    }

    #[test]
    fn pool_full_rejects_any_policy() {
        let mut pool = pool_with_ports(BufferPolicy::DynamicThreshold { alpha: 8.0 }, 2, 500);
        // alpha is generous: only the hard pool bound can refuse.
        let mut q0 = 0u64;
        while pool.try_admit(0, 0, q0, 100) == Admit::Ok {
            pool.commit(100);
            q0 += 100;
        }
        assert_eq!(pool.used_bytes(), 900, "alpha 8 admits until ~full");
        assert_eq!(pool.try_admit(1, 0, 0, 200), Admit::PoolFull);
        assert!(pool.shared_drops() >= 1);
        assert_eq!(pool.high_water_bytes(), 900);
    }

    #[test]
    fn dt_cap_respected_at_every_enqueue() {
        // Stepwise invariant check: at every single admission, the
        // admitted queue's occupancy must respect the alpha cap computed
        // against the pool state the packet met, and the pool total must
        // never exceed its capacity.
        let alpha = 1.0;
        let mut pool = pool_with_ports(BufferPolicy::DynamicThreshold { alpha }, 4, 1200);
        let mut rng = SimRng::seed_from(7);
        let mut occ = [[0u64; 2]; 4]; // [port][queue]
        let mut backlog: Vec<(usize, usize, u64)> = Vec::new();
        for step in 0..5_000 {
            let port = rng.below(4);
            let q = rng.below(2);
            if rng.below(3) < 2 {
                let bytes = 50 + rng.below(200) as u64;
                let free_before = pool.total_bytes() - pool.used_bytes();
                match pool.try_admit(port, q, occ[port][q], bytes) {
                    Admit::Ok => {
                        assert!(
                            (occ[port][q] + bytes) as f64 <= alpha * free_before as f64,
                            "step {step}: admission violated the DT cap"
                        );
                        pool.commit(bytes);
                        occ[port][q] += bytes;
                        backlog.push((port, q, bytes));
                    }
                    Admit::PoolFull => {
                        assert!(pool.used_bytes() + bytes > pool.total_bytes());
                    }
                    Admit::PolicyCap => {
                        assert!((occ[port][q] + bytes) as f64 > alpha * free_before as f64);
                    }
                }
            } else if !backlog.is_empty() {
                let i = rng.below(backlog.len());
                let (port, q, bytes) = backlog.swap_remove(i);
                pool.on_dequeue(port, q, bytes, step);
                occ[port][q] -= bytes;
            }
            let admitted: u64 = occ.iter().flatten().sum();
            assert_eq!(admitted, pool.used_bytes(), "accounting drift");
            assert!(
                pool.used_bytes() <= pool.total_bytes(),
                "sum of admitted exceeded the pool"
            );
        }
        assert!(pool.shared_drops() > 0, "the workload must stress the pool");
    }

    #[test]
    fn dt_leaves_room_for_a_fresh_queue() {
        // alpha = 1 on an empty pool: one hog queue converges to half the
        // pool, leaving the other half free for newcomers.
        let mut pool = pool_with_ports(BufferPolicy::DynamicThreshold { alpha: 1.0 }, 1, 10_000);
        let mut hog = 0u64;
        while pool.try_admit(0, 0, hog, 100) == Admit::Ok {
            pool.commit(100);
            hog += 100;
        }
        assert_eq!(hog, 5_000, "hog capped at alpha/(1+alpha) of the pool");
        assert_eq!(pool.try_admit(0, 1, 0, 100), Admit::Ok, "newcomer admitted");
    }

    #[test]
    fn delay_driven_caps_follow_measured_drain_rate() {
        let target = 100_000; // 100 µs
        let policy = BufferPolicy::DelayDriven {
            target_delay_nanos: target,
        };
        let mut pool = SharedPool::new(policy);
        pool.attach_port(policy, 1_000_000, 2, 10_000_000_000);
        // At the initial (line-rate) estimate the cap is rate × delay / 8
        // = 125 KB; a full queue below that is admitted.
        assert_eq!(pool.try_admit(0, 0, 100_000, 1_000), Admit::Ok);
        pool.commit(1_000);
        // Starve queue 1: drain 1 KB over 8 ms = 1 Mbps. The EWMA needs a
        // few observations to converge down from 10 Gbps.
        pool.on_dequeue(0, 0, 1_000, 1);
        for i in 1..40u64 {
            pool.commit(1_000);
            pool.on_dequeue(0, 1, 1_000, i * 8_000_000);
        }
        // 1 Mbps × 100 µs = 12.5 bytes → clamped to the 2-MTU floor; a
        // queue already at the floor is refused even though pool space
        // abounds.
        assert_eq!(
            pool.try_admit(0, 1, DELAY_DRIVEN_FLOOR_BYTES, 1_500),
            Admit::PolicyCap
        );
        assert!(pool.used_bytes() < pool.total_bytes() / 2);
        // A fresh queue (still presumed at line rate) is admitted.
        assert_eq!(pool.try_admit(0, 0, 0, 1_500), Admit::Ok);
        assert_eq!(pool.summary().admit_rejects, 1);
    }

    #[test]
    fn summary_carries_every_counter() {
        let mut pool = pool_with_ports(BufferPolicy::DynamicThreshold { alpha: 1.0 }, 1, 1_000);
        assert_eq!(pool.try_admit(0, 0, 0, 400), Admit::Ok);
        pool.commit(400);
        assert_eq!(pool.try_admit(0, 0, 400, 400), Admit::PolicyCap);
        assert_eq!(pool.try_admit(0, 1, 0, 700), Admit::PoolFull);
        let s = pool.summary();
        assert_eq!(s.shared_drops, 2);
        assert_eq!(s.admit_rejects, 1);
        assert_eq!(s.pool_high_water_bytes, 400);
        assert_eq!(s.pool_total_bytes, 1_000);
    }
}
