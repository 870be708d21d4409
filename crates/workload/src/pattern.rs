//! Composable hyperscale traffic patterns as streaming iterators.
//!
//! The paper's §VI-B workload ([`crate::traffic::TrafficSpec`]) buffers a
//! complete `Vec<FlowSpec>` up front — fine for 16 000 flows, hopeless
//! for a million. The patterns here are *streaming*: a
//! [`PatternSpec::flows`] iterator holds O(1) state (plus an O(hosts)
//! Zipf table) and yields [`FlowSpec`]s one at a time with nondecreasing
//! start times, so a simulator can pull the next arrival lazily and
//! never materialise the schedule.
//!
//! Three datacenter-day shapes beyond the paper, plus composition:
//!
//! * [`PatternSpec::Incast`] — synchronized N-to-1: every epoch, a
//!   rotating aggregator receives `fan_in` simultaneous requests (the
//!   partition/aggregate idiom; the regime where the heavy-traffic
//!   switch-scaling laws apply),
//! * [`PatternSpec::Shuffle`] — all-to-all waves: in wave `s`, every
//!   host sends one flow to the host `s` positions ahead (MapReduce-style
//!   shuffle, permutation traffic on the fabric's bisection),
//! * [`PatternSpec::HotService`] — Poisson arrivals whose destination is
//!   a Zipf draw over hosts: a skewed hot-service/hot-key population,
//! * [`PatternSpec::Mix`] — a start-time-ordered merge of sub-patterns.
//!
//! Determinism: the same `(spec, num_hosts, seed, total_flows)` produces
//! the same flow sequence, so a caller can scan a stream ahead (`pmsb-sim
//! fabric` finds the last arrival to size its horizon) and rebuild the
//! identical stream for the run.

use pmsb_simcore::rng::SimRng;

use crate::arrivals::PoissonArrivals;
use crate::size::{FlowSizeDist, SizeDistSpec};
use crate::traffic::FlowSpec;

/// Service classes the patterns spread flows over (matching the paper's
/// 8-queue switch configuration; switches fold with `service % queues`).
pub const NUM_SERVICES: usize = 8;

/// A composable streaming traffic pattern. See the module docs for the
/// shapes; build the stream with [`PatternSpec::flows`].
#[derive(Debug, Clone, PartialEq)]
pub enum PatternSpec {
    /// Synchronized N-to-1 incast: every `epoch_nanos`, the next
    /// aggregator (rotating over hosts) receives `fan_in` simultaneous
    /// `request_bytes` flows from distinct other hosts. `fan_in` is
    /// clamped to `num_hosts - 1` at stream construction.
    Incast {
        /// Simultaneous senders per epoch.
        fan_in: usize,
        /// Gap between synchronized epochs in nanoseconds.
        epoch_nanos: u64,
        /// Bytes per request flow.
        request_bytes: u64,
    },
    /// All-to-all shuffle: wave `s` (cycling over strides `1..hosts`)
    /// has every host send `flow_bytes` to the host `s` ahead of it;
    /// waves start `wave_gap_nanos` apart.
    Shuffle {
        /// Bytes per shuffle flow.
        flow_bytes: u64,
        /// Gap between waves in nanoseconds.
        wave_gap_nanos: u64,
    },
    /// Skewed hot-service traffic: Poisson arrivals at `flows_per_sec`,
    /// destination drawn Zipf(`zipf_exponent`) over hosts (host 0 is the
    /// hottest), uniform source, fixed `request_bytes`.
    HotService {
        /// Zipf shape `s` (0 = uniform; 1.0–1.3 typical key skew).
        zipf_exponent: f64,
        /// Mean arrival rate.
        flows_per_sec: f64,
        /// Bytes per request flow.
        request_bytes: u64,
    },
    /// Start-time-ordered merge of sub-patterns (ties resolve to the
    /// earlier part). Each part gets an independent RNG stream forked
    /// from the seed.
    Mix(Vec<PatternSpec>),
    /// The wrapped pattern with its fixed per-flow sizes replaced by
    /// draws from a named empirical distribution ([`SizeDistSpec`]):
    /// arrival times, endpoints, and services are untouched, so the
    /// shape keeps its synchronization structure while sizes follow the
    /// paper's web-search/data-mining CDFs. The size RNG is forked from
    /// the seed independently of the wrapped pattern's stream.
    Sized {
        /// The pattern supplying arrivals and endpoints.
        pattern: Box<PatternSpec>,
        /// The distribution supplying flow sizes.
        dist: SizeDistSpec,
    },
}

impl PatternSpec {
    /// Short name for reports and CLI errors.
    pub fn name(&self) -> &'static str {
        match self {
            PatternSpec::Incast { .. } => "incast",
            PatternSpec::Shuffle { .. } => "shuffle",
            PatternSpec::HotService { .. } => "hotservice",
            PatternSpec::Mix(_) => "mix",
            // A sized wrapper keeps the wrapped shape's name: reports
            // group by traffic shape, and the size distribution is
            // reported separately where it matters.
            PatternSpec::Sized { pattern, .. } => pattern.name(),
        }
    }

    /// Wraps `pattern` so flow sizes are drawn from `dist`.
    pub fn sized(pattern: PatternSpec, dist: SizeDistSpec) -> Self {
        PatternSpec::Sized {
            pattern: Box::new(pattern),
            dist,
        }
    }

    /// The default incast shape: 32-to-1, 500 µs epochs, 20 KB requests.
    pub fn incast(fan_in: usize) -> Self {
        PatternSpec::Incast {
            fan_in,
            epoch_nanos: 500_000,
            request_bytes: 20_000,
        }
    }

    /// The default shuffle shape: 100 KB flows, 1 ms waves.
    pub fn shuffle() -> Self {
        PatternSpec::Shuffle {
            flow_bytes: 100_000,
            wave_gap_nanos: 1_000_000,
        }
    }

    /// The default hot-service shape: Zipf 1.2, 100k flows/s, 20 KB.
    pub fn hotservice(zipf_exponent: f64) -> Self {
        PatternSpec::HotService {
            zipf_exponent,
            flows_per_sec: 100_000.0,
            request_bytes: 20_000,
        }
    }

    /// Builds the deterministic stream of exactly `total_flows` flows
    /// over `num_hosts` hosts. Flow ids are assigned sequentially from 0
    /// in emission order; start times are nondecreasing.
    ///
    /// # Panics
    ///
    /// Panics if `num_hosts < 2` or the spec's parameters are degenerate
    /// (zero fan-in, zero bytes, non-positive rate, empty mix).
    pub fn flows(&self, num_hosts: usize, seed: u64, total_flows: u64) -> PatternFlows {
        assert!(num_hosts >= 2, "patterns need at least two hosts");
        let inner = self.build(num_hosts, seed);
        PatternFlows {
            inner,
            remaining: total_flows,
            next_id: 0,
        }
    }

    fn build(&self, num_hosts: usize, seed: u64) -> Inner {
        match self {
            PatternSpec::Incast {
                fan_in,
                epoch_nanos,
                request_bytes,
            } => {
                assert!(*fan_in >= 1, "incast fan-in must be at least 1");
                assert!(*epoch_nanos >= 1, "incast epoch must be positive");
                assert!(*request_bytes >= 1, "incast request must carry bytes");
                Inner::Incast {
                    rng: SimRng::seed_from(seed),
                    num_hosts,
                    fan_in: (*fan_in).min(num_hosts - 1),
                    epoch_nanos: *epoch_nanos,
                    request_bytes: *request_bytes,
                    epoch: 0,
                    in_epoch: 0,
                    agg: 0,
                    base: 0,
                }
            }
            PatternSpec::Shuffle {
                flow_bytes,
                wave_gap_nanos,
            } => {
                assert!(*flow_bytes >= 1, "shuffle flows must carry bytes");
                assert!(*wave_gap_nanos >= 1, "shuffle wave gap must be positive");
                Inner::Shuffle {
                    rng: SimRng::seed_from(seed),
                    num_hosts,
                    flow_bytes: *flow_bytes,
                    wave_gap_nanos: *wave_gap_nanos,
                    wave: 0,
                    src: 0,
                }
            }
            PatternSpec::HotService {
                zipf_exponent,
                flows_per_sec,
                request_bytes,
            } => {
                assert!(*request_bytes >= 1, "hotservice requests must carry bytes");
                Inner::Hot {
                    rng: SimRng::seed_from(seed),
                    arrivals: PoissonArrivals::with_rate(*flows_per_sec),
                    zipf_cdf: zipf_cdf(num_hosts, *zipf_exponent),
                    num_hosts,
                    request_bytes: *request_bytes,
                }
            }
            PatternSpec::Mix(parts) => {
                assert!(!parts.is_empty(), "mix needs at least one part");
                let parts: Vec<Inner> = parts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        // Distinct deterministic stream per part.
                        p.build(
                            num_hosts,
                            seed.wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(1 + i as u64)),
                        )
                    })
                    .collect();
                let peeked = parts.iter().map(|_| None).collect();
                Inner::Mix { parts, peeked }
            }
            PatternSpec::Sized { pattern, dist } => Inner::Sized {
                inner: Box::new(pattern.build(num_hosts, seed)),
                dist: dist.build(),
                // A distinct deterministic stream for sizes, so the
                // wrapped pattern emits exactly the arrivals it would
                // emit unwrapped.
                rng: SimRng::seed_from(seed.wrapping_add(0xa5a5_5a5a_c3c3_3c3c)),
            },
        }
    }
}

/// Normalized cumulative Zipf weights `w_j ∝ (j+1)^-s` over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    assert!(s.is_finite() && s >= 0.0, "zipf exponent must be >= 0");
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for j in 0..n {
        acc += ((j + 1) as f64).powf(-s);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Draws a rank from a precomputed cumulative distribution.
fn draw_rank(cdf: &[f64], rng: &mut SimRng) -> usize {
    let u = rng.uniform();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

#[derive(Debug)]
enum Inner {
    Incast {
        rng: SimRng,
        num_hosts: usize,
        fan_in: usize,
        epoch_nanos: u64,
        request_bytes: u64,
        epoch: u64,
        in_epoch: usize,
        agg: usize,
        base: usize,
    },
    Shuffle {
        rng: SimRng,
        num_hosts: usize,
        flow_bytes: u64,
        wave_gap_nanos: u64,
        wave: u64,
        src: usize,
    },
    Hot {
        rng: SimRng,
        arrivals: PoissonArrivals,
        zipf_cdf: Vec<f64>,
        num_hosts: usize,
        request_bytes: u64,
    },
    Mix {
        parts: Vec<Inner>,
        peeked: Vec<Option<FlowSpec>>,
    },
    Sized {
        inner: Box<Inner>,
        dist: Box<dyn FlowSizeDist>,
        rng: SimRng,
    },
}

impl Inner {
    /// Produces the next flow of the underlying (unbounded) pattern;
    /// `flow_id` is filled in by the wrapper.
    fn gen(&mut self) -> FlowSpec {
        match self {
            Inner::Incast {
                rng,
                num_hosts,
                fan_in,
                epoch_nanos,
                request_bytes,
                epoch,
                in_epoch,
                agg,
                base,
            } => {
                let n = *num_hosts;
                if *in_epoch == 0 {
                    *agg = (*epoch % n as u64) as usize;
                    *base = rng.below(n - 1);
                }
                // Distinct senders: a rotated contiguous block of the
                // n-1 non-aggregator hosts.
                let src = (*agg + 1 + (*base + *in_epoch) % (n - 1)) % n;
                let spec = FlowSpec {
                    flow_id: 0,
                    src_host: src,
                    dst_host: *agg,
                    service: rng.below(NUM_SERVICES),
                    size_bytes: *request_bytes,
                    start_nanos: *epoch * *epoch_nanos,
                };
                *in_epoch += 1;
                if *in_epoch == *fan_in {
                    *in_epoch = 0;
                    *epoch += 1;
                }
                spec
            }
            Inner::Shuffle {
                rng,
                num_hosts,
                flow_bytes,
                wave_gap_nanos,
                wave,
                src,
            } => {
                let n = *num_hosts;
                let stride = 1 + (*wave % (n as u64 - 1)) as usize;
                let spec = FlowSpec {
                    flow_id: 0,
                    src_host: *src,
                    dst_host: (*src + stride) % n,
                    service: rng.below(NUM_SERVICES),
                    size_bytes: *flow_bytes,
                    start_nanos: *wave * *wave_gap_nanos,
                };
                *src += 1;
                if *src == n {
                    *src = 0;
                    *wave += 1;
                }
                spec
            }
            Inner::Hot {
                rng,
                arrivals,
                zipf_cdf,
                num_hosts,
                request_bytes,
            } => {
                let start_nanos = arrivals.next_arrival_nanos(rng);
                let dst = draw_rank(zipf_cdf, rng);
                let mut src = rng.below(*num_hosts - 1);
                if src >= dst {
                    src += 1;
                }
                FlowSpec {
                    flow_id: 0,
                    src_host: src,
                    dst_host: dst,
                    service: rng.below(NUM_SERVICES),
                    size_bytes: *request_bytes,
                    start_nanos,
                }
            }
            Inner::Mix { parts, peeked } => {
                for (slot, part) in peeked.iter_mut().zip(parts.iter_mut()) {
                    if slot.is_none() {
                        *slot = Some(part.gen());
                    }
                }
                let winner = peeked
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.as_ref().expect("all peeked").start_nanos)
                    .map(|(i, _)| i)
                    .expect("mix is nonempty");
                peeked[winner].take().expect("winner peeked")
            }
            Inner::Sized { inner, dist, rng } => {
                let mut spec = inner.gen();
                spec.size_bytes = dist.sample(rng).max(1);
                spec
            }
        }
    }
}

/// The bounded, id-assigning stream built by [`PatternSpec::flows`].
#[derive(Debug)]
pub struct PatternFlows {
    inner: Inner,
    remaining: u64,
    next_id: u64,
}

impl Iterator for PatternFlows {
    type Item = FlowSpec;

    fn next(&mut self) -> Option<FlowSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut spec = self.inner.gen();
        spec.flow_id = self.next_id;
        self.next_id += 1;
        Some(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(spec: &PatternSpec, hosts: usize, seed: u64, n: u64) -> Vec<FlowSpec> {
        spec.flows(hosts, seed, n).collect()
    }

    fn check_valid(flows: &[FlowSpec], hosts: usize) {
        for w in flows.windows(2) {
            assert!(
                w[0].start_nanos <= w[1].start_nanos,
                "starts must not decrease"
            );
            assert_eq!(w[0].flow_id + 1, w[1].flow_id, "ids sequential");
        }
        for f in flows {
            assert!(f.src_host < hosts && f.dst_host < hosts);
            assert_ne!(f.src_host, f.dst_host, "flow to self");
            assert!(f.service < NUM_SERVICES);
            assert!(f.size_bytes >= 1);
        }
    }

    #[test]
    fn all_patterns_are_deterministic_and_valid() {
        let specs = [
            PatternSpec::incast(12),
            PatternSpec::shuffle(),
            PatternSpec::hotservice(1.2),
            PatternSpec::Mix(vec![PatternSpec::incast(8), PatternSpec::shuffle()]),
        ];
        for spec in &specs {
            let a = collect(spec, 16, 7, 400);
            let b = collect(spec, 16, 7, 400);
            assert_eq!(a, b, "{} must be deterministic", spec.name());
            assert_eq!(a.len(), 400);
            check_valid(&a, 16);
            let c = collect(spec, 16, 8, 400);
            assert_ne!(a, c, "{} must vary with the seed", spec.name());
        }
    }

    #[test]
    fn incast_epochs_are_synchronized_n_to_1() {
        let spec = PatternSpec::Incast {
            fan_in: 5,
            epoch_nanos: 1_000_000,
            request_bytes: 2_000,
        };
        let flows = collect(&spec, 12, 3, 50); // 10 full epochs
        for (e, epoch) in flows.chunks(5).enumerate() {
            let dst = epoch[0].dst_host;
            assert_eq!(dst, e % 12, "aggregator rotates");
            let t = epoch[0].start_nanos;
            assert_eq!(t, e as u64 * 1_000_000, "epoch start");
            let mut srcs: Vec<usize> = epoch.iter().map(|f| f.src_host).collect();
            srcs.sort_unstable();
            srcs.dedup();
            assert_eq!(srcs.len(), 5, "senders distinct");
            for f in epoch {
                assert_eq!(f.dst_host, dst, "same aggregator within the epoch");
                assert_eq!(f.start_nanos, t, "synchronized start");
                assert_eq!(f.size_bytes, 2_000);
            }
        }
    }

    #[test]
    fn incast_fan_in_clamps_to_fabric() {
        let spec = PatternSpec::incast(1000);
        let flows = collect(&spec, 8, 1, 14); // clamped fan-in = 7
        let first_epoch: Vec<_> = flows.iter().filter(|f| f.dst_host == 0).collect();
        assert_eq!(first_epoch.len(), 7, "fan-in clamped to hosts-1");
    }

    #[test]
    fn shuffle_waves_cover_all_sources() {
        let spec = PatternSpec::Shuffle {
            flow_bytes: 50_000,
            wave_gap_nanos: 10_000,
        };
        let n = 10;
        let flows = collect(&spec, n, 5, 3 * n as u64);
        for (w, wave) in flows.chunks(n).enumerate() {
            let stride = 1 + w % (n - 1);
            for (i, f) in wave.iter().enumerate() {
                assert_eq!(f.src_host, i, "every host sends once per wave");
                assert_eq!(f.dst_host, (i + stride) % n, "stride {stride}");
                assert_eq!(f.start_nanos, w as u64 * 10_000);
            }
        }
    }

    #[test]
    fn hotservice_skews_towards_low_ranks() {
        let spec = PatternSpec::HotService {
            zipf_exponent: 1.2,
            flows_per_sec: 1_000_000.0,
            request_bytes: 2_000,
        };
        let n = 16;
        let flows = collect(&spec, n, 11, 20_000);
        let mut hits = vec![0usize; n];
        for f in &flows {
            hits[f.dst_host] += 1;
        }
        assert!(
            hits[0] > hits[n / 2] && hits[n / 2] >= hits[n - 1],
            "zipf skew must rank destinations: {hits:?}"
        );
        // Zipf 1.2 over 16 ranks gives the hottest host ~38% of draws.
        let frac = hits[0] as f64 / flows.len() as f64;
        assert!((0.25..0.55).contains(&frac), "hot fraction {frac}");
        // Poisson arrivals roughly match the configured rate.
        let span = flows.last().unwrap().start_nanos as f64 / 1e9;
        let rate = flows.len() as f64 / span;
        assert!(
            (rate - 1_000_000.0).abs() / 1_000_000.0 < 0.1,
            "rate {rate}"
        );
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let cdf = zipf_cdf(4, 0.0);
        for (j, c) in cdf.iter().enumerate() {
            assert!((c - (j + 1) as f64 / 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mix_merges_by_start_time() {
        let spec = PatternSpec::Mix(vec![
            PatternSpec::Incast {
                fan_in: 4,
                epoch_nanos: 700_000,
                request_bytes: 2_000,
            },
            PatternSpec::Shuffle {
                flow_bytes: 50_000,
                wave_gap_nanos: 1_000_000,
            },
        ]);
        let flows = collect(&spec, 8, 9, 500);
        check_valid(&flows, 8);
        // Both parts must be represented: incast flows are 2 KB,
        // shuffle flows are 50 KB.
        let small = flows.iter().filter(|f| f.size_bytes == 2_000).count();
        let big = flows.iter().filter(|f| f.size_bytes == 50_000).count();
        assert_eq!(small + big, 500);
        assert!(small > 100 && big > 100, "both parts flow: {small}/{big}");
    }

    #[test]
    fn sized_wrapper_keeps_arrivals_and_redraws_sizes() {
        let base = PatternSpec::incast(8);
        let sized = PatternSpec::sized(base.clone(), SizeDistSpec::WebSearch);
        assert_eq!(sized.name(), "incast");
        let a = collect(&base, 16, 7, 300);
        let b = collect(&sized, 16, 7, 300);
        assert_eq!(a.len(), b.len());
        check_valid(&b, 16);
        let mut distinct = std::collections::HashSet::new();
        for (x, y) in a.iter().zip(&b) {
            // Everything but the size is the wrapped pattern's output.
            assert_eq!(x.start_nanos, y.start_nanos);
            assert_eq!(x.src_host, y.src_host);
            assert_eq!(x.dst_host, y.dst_host);
            assert_eq!(x.service, y.service);
            assert!((1_000..=30_000_000).contains(&y.size_bytes));
            distinct.insert(y.size_bytes);
        }
        assert!(distinct.len() > 50, "sizes vary: {}", distinct.len());
        // Deterministic under the same seed, distinct under another.
        assert_eq!(b, collect(&sized, 16, 7, 300));
        assert_ne!(b, collect(&sized, 16, 8, 300));
    }

    #[test]
    fn sized_wrapper_composes_with_mix() {
        let spec = PatternSpec::sized(
            PatternSpec::Mix(vec![PatternSpec::incast(4), PatternSpec::shuffle()]),
            SizeDistSpec::DataMining,
        );
        assert_eq!(spec.name(), "mix");
        let flows = collect(&spec, 8, 5, 200);
        check_valid(&flows, 8);
        // Heavy-tailed draws: fixed 20 KB / 100 KB sizes are gone.
        assert!(flows.iter().any(|f| f.size_bytes < 2_000));
        assert!(flows.iter().any(|f| f.size_bytes > 1_000_000));
    }

    #[test]
    fn streaming_is_o1_state() {
        // A million-flow stream materialises nothing: pulling from it
        // works element by element (this test pulls a slice of it).
        let spec = PatternSpec::incast(64);
        let mut it = spec.flows(1024, 1, 1_000_000);
        let first = it.next().unwrap();
        assert_eq!(first.flow_id, 0);
        let far = it.nth(99_998).unwrap();
        assert_eq!(far.flow_id, 100_000 - 1);
        assert!(far.start_nanos >= first.start_nanos);
    }

    #[test]
    #[should_panic(expected = "two hosts")]
    fn rejects_single_host() {
        PatternSpec::incast(4).flows(1, 0, 10);
    }
}
