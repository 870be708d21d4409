//! Experiments beyond the paper: the per-service-pool violation the paper
//! only asserts, sensitivity ablations for PMSB's two knobs, the RED
//! baseline, and an alternative (web-search) workload.

use pmsb_metrics::fct::SizeClass;
use pmsb_netsim::config::{EcnResponse, SchedulerConfig};
use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig};
use pmsb_netsim::world::World;
use pmsb_netsim::{HostConfig, SwitchConfig, TransportConfig};
use pmsb_simcore::rng::SimRng;
use pmsb_workload::arrivals::{arrival_rate_for_load, PoissonArrivals};
use pmsb_workload::{DataMining, FlowSizeDist, WebSearch};

use crate::outln;
use crate::util::{banner, weighted_share};

/// §II-A's untested claim: per-service-pool marking lets queues of
/// *different ports* interfere. Eight flows congest receiver A's port;
/// one flow to receiver B shares only the buffer pool with them, yet
/// backs off under per-pool marking. Returns
/// `(b_gbps_per_pool, b_gbps_per_port)`.
pub fn ext_per_pool_violation(out: &mut String, quick: bool) -> (f64, f64) {
    banner(
        out,
        "Extension: per-service-pool marking couples unrelated ports",
    );
    let millis = if quick { 15 } else { 50 };
    let run = |marking: MarkingConfig| -> f64 {
        let cfg = SwitchConfig {
            marking: marking.clone(),
            ..SwitchConfig::default()
        };
        let host_cfg = HostConfig {
            nic_marking: marking,
            ..HostConfig::default()
        };
        let mut w = World::new(TransportConfig::default());
        // Hosts 0..8 = senders, 9 = receiver A (hot), 10 = receiver B.
        for _ in 0..11 {
            w.add_host(host_cfg.clone());
        }
        let s = w.add_switch();
        for h in 0..11 {
            let p = w.wire_host(h, s, 10_000_000_000, 5_000, &cfg);
            w.set_route(s, h, p..p + 1);
        }
        for sender in 0..8 {
            w.add_flow(FlowDesc::long_lived(sender, 9, sender % 8));
        }
        w.add_flow(FlowDesc::long_lived(8, 10, 0));
        w.set_trace(pmsb_netsim::trace::TraceConfig::watch_port(0, 10, 100_000));
        let res = w.run_until_nanos(millis * 1_000_000);
        let t = &res.port_traces[&(0, 10)];
        let bins = t.queue_throughput[0].num_bins();
        t.mean_queue_gbps(0, bins / 4, bins)
    };
    // The pool threshold matches a single port's standard threshold, as a
    // naive shared-buffer configuration would.
    let pool = run(MarkingConfig::PerPool { threshold_pkts: 16 });
    let port = run(MarkingConfig::PerPort { threshold_pkts: 16 });
    outln!(out, "marking,receiver_b_gbps");
    outln!(out, "per-pool,{pool:.2}");
    outln!(out, "per-port,{port:.2}");
    outln!(
        out,
        "# per-pool marking victimizes traffic on an uncongested port"
    );
    (pool, port)
}

/// Ablation: PMSB's single knob, the port threshold. Sweeps it and
/// reports both fairness (the 1-vs-8 victim share) and the victim flows'
/// RTT — the latency cost of larger thresholds. Returns
/// `(port_k_pkts, queue1_gbps, rtt_p99_us_of_queue2)` rows.
pub fn ablation_port_threshold(out: &mut String, quick: bool) -> Vec<(u64, f64, f64)> {
    banner(
        out,
        "Ablation: PMSB port threshold sweep (fairness + latency)",
    );
    let millis = if quick { 12 } else { 40 };
    let mut rows = Vec::new();
    outln!(out, "port_k_pkts,queue1_gbps,queue2_gbps,rtt_p99_us");
    for k in [4u64, 8, 12, 24, 48, 65] {
        let share = weighted_share(
            MarkingConfig::Pmsb {
                port_threshold_pkts: k,
            },
            None,
            &[1, 8],
            millis,
        );
        // RTT of the queue-2 flows under the same configuration.
        let mut e = Experiment::dumbbell(9, 2)
            .marking(MarkingConfig::Pmsb {
                port_threshold_pkts: k,
            })
            .record_rtt();
        e.add_flow(FlowDesc::long_lived(0, 9, 0));
        for s in 1..9 {
            e.add_flow(FlowDesc::long_lived(s, 9, 1));
        }
        let res = e.run_for_millis(millis);
        let mut samples = Vec::new();
        for f in 1..9u64 {
            if let Some(v) = res.rtt_nanos_by_flow.get(&f) {
                samples.extend(v.iter().skip(v.len() / 4).map(|r| *r as f64));
            }
        }
        let p99 = pmsb_metrics::Summary::from_samples(samples)
            .map(|s| s.p99 / 1e3)
            .unwrap_or(f64::NAN);
        outln!(
            out,
            "{k},{:.2},{:.2},{p99:.1}",
            share.queue_gbps[0],
            share.queue_gbps[1]
        );
        rows.push((k, share.queue_gbps[0], p99));
    }
    outln!(
        out,
        "# small thresholds keep latency low; fairness holds across the sweep"
    );
    rows
}

/// Ablation: PMSB(e)'s RTT threshold. Too low and the victim honours
/// per-port marks (unfair); absurdly high and even genuinely congested
/// flows ignore marks (queues grow). Returns
/// `(threshold_us, victim_gbps, marks_ignored_fraction)` rows.
pub fn ablation_pmsbe_threshold(out: &mut String, quick: bool) -> Vec<(f64, f64, f64)> {
    banner(
        out,
        "Ablation: PMSB(e) RTT threshold sweep (1 vs 8 flows, per-port K=12)",
    );
    let millis = if quick { 12 } else { 40 };
    // Dumbbell base RTT is ~23 us.
    let mut rows = Vec::new();
    outln!(out, "rtt_threshold_us,victim_gbps,ignored_fraction");
    for thr_us in [10.0f64, 25.0, 40.0, 80.0, 400.0] {
        let mut e = Experiment::dumbbell(9, 2)
            .marking(MarkingConfig::PerPort { threshold_pkts: 12 })
            .pmsbe_rtt_threshold_nanos((thr_us * 1e3) as u64)
            .watch_bottleneck(100_000);
        e.add_flow(FlowDesc::long_lived(0, 9, 0));
        for s in 1..9 {
            e.add_flow(FlowDesc::long_lived(s, 9, 1));
        }
        let res = e.run_for_millis(millis);
        let t = &res.port_traces[&(0, 9)];
        let bins = t.queue_throughput[0].num_bins();
        let victim = t.mean_queue_gbps(0, bins / 4, bins);
        let seen: u64 = res.sender_stats.values().map(|s| s.marks_seen).sum();
        let ignored: u64 = res.sender_stats.values().map(|s| s.marks_ignored).sum();
        let frac = if seen == 0 {
            0.0
        } else {
            ignored as f64 / seen as f64
        };
        outln!(out, "{thr_us:.0},{victim:.2},{frac:.3}");
        rows.push((thr_us, victim, frac));
    }
    outln!(
        out,
        "# below base RTT nothing is ignored (victim suffers); far above, everyone is blind"
    );
    rows
}

/// Extension: RED's gentle probability ramp versus DCTCP's step threshold
/// as the underlying per-queue marker for mice sharing a queue with
/// elephants. Returns `(red_p99_us, step_p99_us)` for the mice.
pub fn ablation_red_vs_step(out: &mut String, quick: bool) -> (f64, f64) {
    banner(
        out,
        "Ablation: RED ramp vs DCTCP step marking (mice behind elephants)",
    );
    let millis = if quick { 25 } else { 80 };
    let run = |marking: MarkingConfig| -> f64 {
        let mut e = Experiment::dumbbell(3, 1).marking(marking);
        e.add_flow(FlowDesc::long_lived(0, 3, 0));
        e.add_flow(FlowDesc::long_lived(1, 3, 0));
        for i in 0..12u64 {
            e.add_flow(FlowDesc::bulk(2, 3, 0, 30_000).starting_at(2_000_000 + i * 2_000_000));
        }
        let res = e.run_for_millis(millis);
        res.fct.stats(SizeClass::Small).unwrap().p99 / 1e3
    };
    let red = run(MarkingConfig::Red {
        min_pkts: 4,
        max_pkts: 28,
        max_p: 0.25,
    });
    let step = run(MarkingConfig::PerQueueStandard { threshold_pkts: 16 });
    outln!(out, "marker,mice_p99_us");
    outln!(out, "red,{red:.1}");
    outln!(out, "dctcp-step,{step:.1}");
    (red, step)
}

/// Extension: the large-scale comparison on the web-search workload
/// (DCTCP paper) instead of the synthetic 60/30/10 mix. Returns
/// `(scheme, small_p99_us)` rows.
pub fn ext_websearch_workload(out: &mut String, quick: bool) -> Vec<(&'static str, f64)> {
    banner(
        out,
        "Extension: web-search workload, leaf-spine, DWRR, load 0.5",
    );
    ext_workload(out, quick, Box::new(WebSearch::new()))
}

/// Extension: the same comparison on the heavy-tailed data-mining
/// workload (VL2 paper). Returns `(scheme, small_p99_us)` rows.
pub fn ext_datamining_workload(out: &mut String, quick: bool) -> Vec<(&'static str, f64)> {
    banner(
        out,
        "Extension: data-mining workload, leaf-spine, DWRR, load 0.5",
    );
    ext_workload(out, quick, Box::new(DataMining::new()))
}

fn ext_workload(
    out: &mut String,
    quick: bool,
    dist: Box<dyn FlowSizeDist>,
) -> Vec<(&'static str, f64)> {
    let num_flows = if quick { 200 } else { 800 };
    let rate = arrival_rate_for_load(0.5, 48 * 10_000_000_000, dist.mean_bytes());
    let dist = &*dist;
    let mut rows = Vec::new();
    outln!(
        out,
        "scheme,completed,small_avg_us,small_p99_us,large_avg_us"
    );
    for (name, marking, pmsbe, point) in crate::large_scale::schemes(true) {
        let mut rng = SimRng::seed_from(1234);
        let mut arrivals = PoissonArrivals::with_rate(rate);
        let mut e = Experiment::paper_leaf_spine()
            .marking(marking)
            .mark_point(point);
        if let Some(thr) = pmsbe {
            e = e.pmsbe_rtt_threshold_nanos(thr);
        }
        let mut last = 0;
        for _ in 0..num_flows {
            let start = arrivals.next_arrival_nanos(&mut rng);
            last = start;
            let src = rng.below(48);
            let mut dst = rng.below(47);
            if dst >= src {
                dst += 1;
            }
            let service = rng.below(8);
            let size = dist.sample(&mut rng);
            e.add_flow(FlowDesc::bulk(src, dst, service, size).starting_at(start));
        }
        let res = e.run_until_nanos(last + 1_000_000_000);
        let small = res.fct.stats(SizeClass::Small);
        let large = res.fct.stats(SizeClass::Large);
        let p99 = small.map(|s| s.p99 / 1e3).unwrap_or(f64::NAN);
        outln!(
            out,
            "{name},{},{:.1},{:.1},{:.1}",
            res.fct.len(),
            small.map(|s| s.mean / 1e3).unwrap_or(f64::NAN),
            p99,
            large.map(|s| s.mean / 1e3).unwrap_or(f64::NAN),
        );
        rows.push((name, p99));
    }
    rows
}

/// Extension: DCTCP's `(1 − α/2)` cut versus classic ECN's halving
/// (RFC 3168) under the same shallow marking threshold. Classic halving
/// overshoots on every marked window and drains the queue, losing
/// throughput; DCTCP's proportional cut keeps the link full — the very
/// reason datacenter ECN uses DCTCP. Returns
/// `(dctcp_gbps, classic_gbps)`.
pub fn ablation_classic_ecn(out: &mut String, quick: bool) -> (f64, f64) {
    banner(
        out,
        "Ablation: DCTCP vs classic-ECN response, per-queue K=16, 2 flows",
    );
    let millis = if quick { 20 } else { 60 };
    let run = |resp: EcnResponse| -> f64 {
        let mut e = Experiment::dumbbell(2, 1)
            .marking(MarkingConfig::PerQueueStandard { threshold_pkts: 16 })
            .transport(TransportConfig {
                ecn_response: resp,
                ..TransportConfig::default()
            })
            .watch_bottleneck(100_000);
        for s in 0..2 {
            e.add_flow(FlowDesc::long_lived(s, 2, 0));
        }
        let res = e.run_for_millis(millis);
        let t = &res.port_traces[&(0, 2)];
        let bins = t.queue_throughput[0].num_bins();
        t.mean_queue_gbps(0, bins / 4, bins)
    };
    let dctcp = run(EcnResponse::Dctcp);
    let classic = run(EcnResponse::Classic);
    outln!(out, "response,throughput_gbps");
    outln!(out, "dctcp,{dctcp:.3}");
    outln!(out, "classic,{classic:.3}");
    outln!(
        out,
        "# classic halving loses {:.1}% throughput at this threshold",
        (1.0 - classic / dctcp) * 100.0
    );
    (dctcp, classic)
}

/// Extension: ACK coalescing sensitivity — the paper (and our default)
/// ACKs every packet; real stacks coalesce. Delayed ACKs halve the ACK
/// rate but coarsen the DCTCP mark-fraction estimate and PMSB(e)'s RTT
/// signal. Returns `(ack_every, small_p99_us, victim_gbps)` rows.
pub fn ablation_delayed_acks(out: &mut String, quick: bool) -> Vec<(u64, f64, f64)> {
    banner(out, "Ablation: ACK coalescing (m = 1 / 2 / 4), PMSB K=12");
    let millis = if quick { 15 } else { 40 };
    let mut rows = Vec::new();
    outln!(out, "ack_every,small_p99_us,victim_gbps");
    for m in [1u64, 2, 4] {
        // Mice-behind-elephants latency under coalescing.
        let mut e = Experiment::dumbbell(3, 2)
            .marking(MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            })
            .transport(TransportConfig {
                ack_every_packets: m,
                ..TransportConfig::default()
            });
        e.add_flow(FlowDesc::long_lived(0, 3, 0));
        e.add_flow(FlowDesc::long_lived(1, 3, 0));
        for i in 0..10u64 {
            e.add_flow(FlowDesc::bulk(2, 3, 1, 30_000).starting_at(2_000_000 + i * 2_000_000));
        }
        let res = e.run_for_millis(millis.max(25));
        let p99 = res
            .fct
            .stats(SizeClass::Small)
            .map(|s| s.p99 / 1e3)
            .unwrap_or(f64::NAN);
        // Fairness (1 vs 8) under the same coalescing.
        let share = {
            let mut e = Experiment::dumbbell(9, 2)
                .marking(MarkingConfig::Pmsb {
                    port_threshold_pkts: 12,
                })
                .transport(TransportConfig {
                    ack_every_packets: m,
                    ..TransportConfig::default()
                })
                .watch_bottleneck(100_000);
            e.add_flow(FlowDesc::long_lived(0, 9, 0));
            for s in 1..9 {
                e.add_flow(FlowDesc::long_lived(s, 9, 1));
            }
            let res = e.run_for_millis(millis);
            let t = &res.port_traces[&(0, 9)];
            let bins = t.queue_throughput[0].num_bins();
            t.mean_queue_gbps(0, bins / 4, bins)
        };
        outln!(out, "{m},{p99:.1},{share:.2}");
        rows.push((m, p99, share));
    }
    outln!(
        out,
        "# PMSB's fairness survives ACK coalescing; mice whose tail segment \
         misses the coalescing quota pay up to the flush timeout (0.5 ms)"
    );
    rows
}

/// Extension: Dynamic-Threshold buffer management (Choudhury & Hahne,
/// the commodity shared-buffer policy) versus a static shared pool,
/// under plain drop-tail. With a static pool, elephants fill the buffer
/// and mice sharing only the *pool* (not the queue) get tail-dropped
/// into retransmission timeouts; DT caps the hog queue. Returns
/// `(static_mice_p99_us, dt_mice_p99_us)`.
pub fn ext_dynamic_threshold(out: &mut String, quick: bool) -> (f64, f64) {
    banner(
        out,
        "Extension: Dynamic Threshold vs static shared buffer (drop-tail)",
    );
    // Long enough for RTO-delayed mice to finish: truncating the run
    // would silently drop exactly the flows the experiment is about.
    let millis = if quick { 60 } else { 120 };
    let run = |dt_alpha: Option<f64>| -> f64 {
        let mut w = World::new(TransportConfig::default());
        let cfg = SwitchConfig {
            scheduler: SchedulerConfig::Dwrr {
                weights: vec![1, 1],
            },
            marking: MarkingConfig::None,
            buffer_bytes: 48 * 1500,
            buffer: dt_alpha.map_or(pmsb_netsim::BufferPolicy::Static, |alpha| {
                pmsb_netsim::BufferPolicy::DynamicThreshold { alpha }
            }),
            ..SwitchConfig::default()
        };
        for _ in 0..4 {
            w.add_host(HostConfig::default());
        }
        let s = w.add_switch();
        for h in 0..4 {
            let p = w.wire_host(h, s, 10_000_000_000, 5_000, &cfg);
            w.set_route(s, h, p..p + 1);
        }
        w.add_flow(FlowDesc::long_lived(0, 3, 0));
        w.add_flow(FlowDesc::long_lived(1, 3, 0));
        for i in 0..8u64 {
            w.add_flow(FlowDesc::bulk(2, 3, 1, 30_000).starting_at(3_000_000 + i * 3_000_000));
        }
        let res = w.run_until_nanos(millis * 1_000_000);
        res.fct
            .stats(SizeClass::Small)
            .map(|s| s.p99 / 1e3)
            .unwrap_or(f64::NAN)
    };
    let stat = run(None);
    let dt = run(Some(1.0));
    outln!(out, "buffer_policy,mice_p99_us");
    outln!(out, "static,{stat:.1}");
    outln!(out, "dynamic-threshold,{dt:.1}");
    outln!(
        out,
        "# DT keeps headroom for bursty queues even without ECN"
    );
    (stat, dt)
}

/// Extension: incast — `n` synchronized senders each ship one small
/// response (256 KB) to a single receiver, the classic partition-
/// aggregate pattern. Reports the time until the *last* response
/// completes for each scheme. Returns `(scheme, completion_us)` rows.
pub fn ext_incast(out: &mut String, quick: bool) -> Vec<(&'static str, f64)> {
    banner(out, "Extension: 16-to-1 incast (256 KB responses)");
    let n = 16usize;
    let resp = 256_000u64;
    let _ = quick; // the scenario is already small
    let mut rows = Vec::new();
    outln!(out, "scheme,last_completion_us,drops,timeouts");
    for (name, marking, pmsbe, point) in [
        (
            "pmsb",
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            None,
            pmsb::MarkPoint::Enqueue,
        ),
        (
            "pmsb(e)",
            MarkingConfig::PerPort { threshold_pkts: 12 },
            Some(40_000u64),
            pmsb::MarkPoint::Enqueue,
        ),
        (
            "tcn",
            MarkingConfig::Tcn {
                threshold_nanos: 39_000,
            },
            None,
            pmsb::MarkPoint::Dequeue,
        ),
        (
            "drop-tail",
            MarkingConfig::None,
            None,
            pmsb::MarkPoint::Enqueue,
        ),
    ] {
        let mut e = Experiment::dumbbell(n, 2)
            .marking(marking)
            .mark_point(point)
            .buffer_bytes(128 * 1500);
        if let Some(thr) = pmsbe {
            e = e.pmsbe_rtt_threshold_nanos(thr);
        }
        for s in 0..n {
            e.add_flow(FlowDesc::bulk(s, n, s % 2, resp));
        }
        let res = e.run_for_millis(400);
        let last = res
            .fct
            .records()
            .iter()
            .map(|r| r.end_nanos)
            .max()
            .unwrap_or(u64::MAX);
        let timeouts: u64 = res.sender_stats.values().map(|s| s.timeouts).sum();
        outln!(
            out,
            "{name},{:.1},{},{}",
            last as f64 / 1e3,
            res.drops,
            timeouts
        );
        rows.push((name, last as f64 / 1e3));
    }
    outln!(
        out,
        "# ECN absorbs the synchronized burst; drop-tail pays RTOs"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_pool_couples_ports_and_per_port_does_not() {
        let (pool, port) = ext_per_pool_violation(&mut String::new(), true);
        assert!(
            pool < port * 0.75,
            "per-pool ({pool:.2}) must victimize receiver B vs per-port ({port:.2})"
        );
        assert!(port > 8.0, "per-port B should run near line rate");
    }

    #[test]
    fn incast_ecn_beats_droptail() {
        let rows = ext_incast(&mut String::new(), true);
        let get = |n: &str| rows.iter().find(|(name, _)| *name == n).unwrap().1;
        assert!(
            get("pmsb") < get("drop-tail"),
            "ECN must finish the incast sooner: {rows:?}"
        );
    }

    #[test]
    fn delayed_acks_keep_pmsb_fairness() {
        let rows = ablation_delayed_acks(&mut String::new(), true);
        for (m, _p99, share) in &rows {
            assert!(
                (*share - 5.0).abs() < 0.9,
                "fair share must survive ack_every={m}: {share}"
            );
        }
    }

    #[test]
    fn classic_halving_loses_throughput() {
        let (dctcp, classic) = ablation_classic_ecn(&mut String::new(), true);
        assert!(dctcp > 9.0, "dctcp should hold near line rate: {dctcp}");
        assert!(
            classic < dctcp - 0.3,
            "classic halving must lose throughput: {classic} vs {dctcp}"
        );
    }

    #[test]
    fn pmsbe_threshold_sweep_shows_the_tradeoff() {
        let rows = ablation_pmsbe_threshold(&mut String::new(), true);
        // Far below base RTT: ~nothing ignored, victim suppressed.
        let low = &rows[0];
        // Generous threshold: victim recovers its fair share.
        let good = rows.iter().find(|r| r.0 == 80.0).unwrap();
        assert!(low.2 < 0.05, "threshold below base RTT ignores ~nothing");
        assert!(
            good.1 > low.1 + 1.0,
            "a sane threshold must rescue the victim ({:.2} vs {:.2})",
            good.1,
            low.1
        );
    }
}
