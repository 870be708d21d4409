//! Static-flow experiments: Figs. 1–15, Table I, Theorem IV.1 (§VI-A).

use pmsb::analysis;
use pmsb::marking::{MarkingScheme, MqEcn, Pmsb, Tcn};
use pmsb::MarkPoint;
use pmsb_metrics::{Cdf, Summary};
use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig, SchedulerConfig};

use crate::outln;
use crate::util::{banner, weighted_share, ShareResult};

/// Fig. 1 — per-queue marking with the standard threshold: RTT inflates
/// with the number of active queues. Returns `(num_queues, rtt_summary)`
/// rows (RTT in nanoseconds).
pub fn fig01(out: &mut String, quick: bool) -> Vec<(usize, Summary)> {
    banner(
        out,
        "Fig 1: per-queue marking, standard threshold K=16 pkts -- RTT vs #queues",
    );
    let millis = if quick { 10 } else { 40 };
    let queue_counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    outln!(out, "queues,rtt_avg_us,rtt_p50_us,rtt_p95_us,rtt_p99_us");
    for &nq in &queue_counts {
        let mut e = Experiment::dumbbell(8, nq)
            .marking(MarkingConfig::PerQueueStandard { threshold_pkts: 16 })
            .record_rtt();
        for s in 0..8 {
            e.add_flow(FlowDesc::long_lived(s, 8, s % nq));
        }
        let res = e.run_for_millis(millis);
        let mut samples: Vec<f64> = Vec::new();
        for v in res.rtt_nanos_by_flow.values() {
            // Skip the slow-start quarter of each flow's samples.
            samples.extend(v.iter().skip(v.len() / 4).map(|r| *r as f64));
        }
        let s = Summary::from_samples(samples.clone()).expect("rtt samples");
        outln!(
            out,
            "{nq},{:.1},{:.1},{:.1},{:.1}",
            s.mean / 1e3,
            s.p50 / 1e3,
            s.p95 / 1e3,
            s.p99 / 1e3
        );
        if !quick {
            print_cdf(out, &format!("queues={nq}"), samples);
        }
        rows.push((nq, s));
    }
    rows
}

/// Fig. 2 — per-queue marking with a fractional threshold loses
/// throughput for a lone flow. Returns `(gbps_at_k16, gbps_at_k2)`.
pub fn fig02(out: &mut String, quick: bool) -> (f64, f64) {
    banner(
        out,
        "Fig 2: per-queue fractional threshold -- lone-flow throughput, K=16 vs K=2 pkts",
    );
    let millis = if quick { 15 } else { 50 };
    let run = |k: u64| -> f64 {
        let mut e = Experiment::dumbbell(1, 8)
            .marking(MarkingConfig::PerQueueStandard { threshold_pkts: k })
            .watch_bottleneck(100_000);
        e.add_flow(FlowDesc::long_lived(0, 1, 0));
        let res = e.run_for_millis(millis);
        let t = &res.port_traces[&(0, 1)];
        let bins = t.queue_throughput[0].num_bins();
        t.mean_queue_gbps(0, bins / 4, bins)
    };
    let full = run(16);
    let frac = run(2);
    outln!(out, "threshold_pkts,throughput_gbps");
    outln!(out, "16,{full:.3}");
    outln!(out, "2,{frac:.3}");
    outln!(
        out,
        "# fractional threshold loses {:.1}% throughput",
        (1.0 - frac / full) * 100.0
    );
    (full, frac)
}

/// Fig. 3 — plain per-port marking (K=16) violates weighted fair sharing
/// with 1 vs 8 flows. Paper: ≈2.49 / 7.51 Gbps.
pub fn fig03(out: &mut String, quick: bool) -> ShareResult {
    banner(
        out,
        "Fig 3: per-port K=16 pkts, queues 1:1, flows 1 vs 8 -- fair-share violation",
    );
    let r = weighted_share(
        MarkingConfig::PerPort { threshold_pkts: 16 },
        None,
        &[1, 8],
        if quick { 15 } else { 50 },
    );
    print_share(out, &r);
    r
}

/// Fig. 4 — DCTCP enqueue vs dequeue marking: dequeue marking delivers
/// congestion information earlier and lowers the slow-start buffer peak
/// ≈25%. Returns `(enqueue_peak_pkts, dequeue_peak_pkts)`.
pub fn fig04(out: &mut String, quick: bool) -> (f64, f64) {
    banner(
        out,
        "Fig 4: DCTCP K=16 pkts at 1 Gbps, 4 flows -- enqueue vs dequeue marking peak",
    );
    let (enq, deq) = (
        slow_start_peak(
            MarkingConfig::PerQueueStandard { threshold_pkts: 16 },
            MarkPoint::Enqueue,
            None,
            quick,
        ),
        slow_start_peak(
            MarkingConfig::PerQueueStandard { threshold_pkts: 16 },
            MarkPoint::Dequeue,
            None,
            quick,
        ),
    );
    outln!(out, "mark_point,peak_pkts");
    outln!(out, "enqueue,{enq:.1}");
    outln!(out, "dequeue,{deq:.1}");
    outln!(
        out,
        "# dequeue marking lowers the peak {:.1}%",
        (1.0 - deq / enq) * 100.0
    );
    (enq, deq)
}

/// Fig. 5 — TCN cannot deliver congestion information early: its
/// (necessarily dequeue-time) sojourn marking still shows the tall
/// slow-start peak of enqueue-style DCTCP. Returns the TCN peak in pkts.
pub fn fig05(out: &mut String, quick: bool) -> f64 {
    // The sojourn threshold matches Fig. 4's congestion level: the time
    // to drain 16 packets at the 1 Gbps bottleneck (192 us).
    banner(
        out,
        "Fig 5: TCN T_k=192 us at 1 Gbps, 4 flows -- no early notification",
    );
    let peak = slow_start_peak(
        MarkingConfig::Tcn {
            threshold_nanos: 192_000,
        },
        MarkPoint::Dequeue,
        None,
        quick,
    );
    outln!(out, "scheme,peak_pkts");
    outln!(out, "tcn,{peak:.1}");
    peak
}

/// Fig. 6 — raising the port threshold to 65 pkts restores fairness for
/// 1 vs 8 flows (marks become rare).
pub fn fig06(out: &mut String, quick: bool) -> ShareResult {
    banner(
        out,
        "Fig 6: per-port K=65 pkts, flows 1 vs 8 -- fairness restored",
    );
    let r = weighted_share(
        MarkingConfig::PerPort { threshold_pkts: 65 },
        None,
        &[1, 8],
        if quick { 15 } else { 50 },
    );
    print_share(out, &r);
    r
}

/// Fig. 7 — but with 1 vs 40 flows the stable queue exceeds even 65 pkts
/// and the violation returns: thresholds cannot be raised forever.
pub fn fig07(out: &mut String, quick: bool) -> ShareResult {
    banner(
        out,
        "Fig 7: per-port K=65 pkts, flows 1 vs 40 -- violation returns",
    );
    let r = weighted_share(
        MarkingConfig::PerPort { threshold_pkts: 65 },
        None,
        &[1, 40],
        if quick { 15 } else { 50 },
    );
    print_share(out, &r);
    r
}

/// Fig. 8 — PMSB (port K=12) preserves 1:1 weighted fair sharing with
/// 1 vs 4 flows while using the whole link.
pub fn fig08(out: &mut String, quick: bool) -> ShareResult {
    banner(
        out,
        "Fig 8: PMSB port K=12 pkts, DWRR 1:1, flows 1 vs 4 -- fair sharing preserved",
    );
    let r = weighted_share(
        MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        },
        None,
        &[1, 4],
        if quick { 15 } else { 50 },
    );
    print_share(out, &r);
    r
}

/// Fig. 9 — RTT distribution of the queue-2 (4-flow) traffic under each
/// scheme. Returns `(scheme, rtt_summary)` rows.
pub fn fig09(out: &mut String, quick: bool) -> Vec<(&'static str, Summary)> {
    banner(
        out,
        "Fig 9: RTT of queue-2 flows -- PMSB / PMSB(e) / MQ-ECN / TCN / per-queue-std",
    );
    let millis = if quick { 15 } else { 50 };
    let schemes: Vec<(&'static str, MarkingConfig, Option<u64>, MarkPoint)> = vec![
        (
            "pmsb",
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            None,
            MarkPoint::Enqueue,
        ),
        (
            "pmsb(e)",
            MarkingConfig::PerPort { threshold_pkts: 12 },
            Some(40_000),
            MarkPoint::Enqueue,
        ),
        (
            "mq-ecn",
            MarkingConfig::MqEcn { standard_pkts: 16 },
            None,
            MarkPoint::Enqueue,
        ),
        (
            "tcn",
            MarkingConfig::Tcn {
                threshold_nanos: 39_000,
            },
            None,
            MarkPoint::Dequeue, // TCN can only mark at dequeue
        ),
        (
            "per-queue-std",
            MarkingConfig::PerQueueStandard { threshold_pkts: 16 },
            None,
            MarkPoint::Enqueue,
        ),
    ];
    let mut rows = Vec::new();
    outln!(out, "scheme,rtt_avg_us,rtt_p50_us,rtt_p95_us,rtt_p99_us");
    for (name, marking, pmsbe, point) in schemes {
        let mut e = Experiment::dumbbell(5, 2)
            .marking(marking)
            .mark_point(point)
            .record_rtt();
        if let Some(thr) = pmsbe {
            e = e.pmsbe_rtt_threshold_nanos(thr);
        }
        // Queue 0: one flow from sender 0; queue 1: four flows.
        e.add_flow(FlowDesc::long_lived(0, 5, 0));
        for s in 1..5 {
            e.add_flow(FlowDesc::long_lived(s, 5, 1));
        }
        let res = e.run_for_millis(millis);
        let mut samples = Vec::new();
        for flow in 1..5u64 {
            if let Some(v) = res.rtt_nanos_by_flow.get(&flow) {
                samples.extend(v.iter().skip(v.len() / 4).map(|r| *r as f64));
            }
        }
        let s = Summary::from_samples(samples.clone()).expect("rtt samples");
        outln!(
            out,
            "{name},{:.1},{:.1},{:.1},{:.1}",
            s.mean / 1e3,
            s.p50 / 1e3,
            s.p95 / 1e3,
            s.p99 / 1e3
        );
        if !quick {
            print_cdf(out, name, samples);
        }
        rows.push((name, s));
    }
    rows
}

/// Fig. 10 — PMSB keeps fair sharing even at 1 vs 100 flows.
pub fn fig10(out: &mut String, quick: bool) -> ShareResult {
    banner(
        out,
        "Fig 10: PMSB port K=12 pkts, flows 1 vs 100 -- heavy traffic",
    );
    let r = weighted_share(
        MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        },
        None,
        &[1, 100],
        if quick { 15 } else { 50 },
    );
    print_share(out, &r);
    r
}

/// Figs. 11/12 — PMSB and PMSB(e) deliver congestion information early:
/// dequeue marking lowers the slow-start peak ≈20%. Returns
/// `(scheme, enqueue_peak, dequeue_peak)` rows in packets.
pub fn fig11_12(out: &mut String, quick: bool) -> Vec<(&'static str, f64, f64)> {
    banner(
        out,
        "Figs 11/12: PMSB & PMSB(e) port K=12 pkts, 4 flows -- enqueue vs dequeue peaks",
    );
    let mut rows = Vec::new();
    outln!(out, "scheme,enqueue_peak_pkts,dequeue_peak_pkts");
    for (name, marking, pmsbe) in [
        (
            "pmsb",
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            None,
        ),
        (
            "pmsb(e)",
            MarkingConfig::PerPort { threshold_pkts: 12 },
            Some(90_000u64),
        ),
    ] {
        let enq = slow_start_peak(marking.clone(), MarkPoint::Enqueue, pmsbe, quick);
        let deq = slow_start_peak(marking, MarkPoint::Dequeue, pmsbe, quick);
        outln!(out, "{name},{enq:.1},{deq:.1}");
        rows.push((name, enq, deq));
    }
    rows
}

/// Fig. 13 — SP+WFQ with PMSB: queue 1 strictly above queues 2 and 3
/// (1:1). Staged starts; final shares should be 5 / 2.5 / 2.5 Gbps.
/// Returns the final per-queue Gbps.
pub fn fig13(out: &mut String, quick: bool) -> Vec<f64> {
    banner(
        out,
        "Fig 13: SP+WFQ under PMSB -- staged flows, expect 5 / 2.5 / 2.5 Gbps",
    );
    let (t1, t2, end) = stage_times(quick);
    let mut e = Experiment::dumbbell(6, 3)
        .scheduler(SchedulerConfig::SpWfq {
            group_of: vec![0, 1, 1],
            weights: vec![1, 1, 1],
        })
        .marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        })
        .watch_bottleneck(100_000);
    e.add_flow(FlowDesc::long_lived(0, 6, 0).with_app_rate_bps(5_000_000_000));
    e.add_flow(FlowDesc::long_lived(1, 6, 1).starting_at(t1));
    for s in 2..6 {
        e.add_flow(FlowDesc::long_lived(s, 6, 2).starting_at(t2));
    }
    let shares = staged_shares(e, 6, 3, t2, end);
    outln!(out, "queue,final_gbps");
    for (q, g) in shares.iter().enumerate() {
        outln!(out, "{},{g:.2}", q + 1);
    }
    shares
}

/// Fig. 14 — strict priority with PMSB: app-limited 5/3/10 Gbps flows in
/// priority order; final shares should be 5 / 3 / 2 Gbps.
pub fn fig14(out: &mut String, quick: bool) -> Vec<f64> {
    banner(
        out,
        "Fig 14: SP under PMSB -- staged 5G/3G/10G flows, expect 5 / 3 / 2 Gbps",
    );
    let (t1, t2, end) = stage_times(quick);
    let mut e = Experiment::dumbbell(3, 3)
        .scheduler(SchedulerConfig::Sp { num_queues: 3 })
        .marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        })
        .watch_bottleneck(100_000);
    e.add_flow(FlowDesc::long_lived(0, 3, 0).with_app_rate_bps(5_000_000_000));
    e.add_flow(
        FlowDesc::long_lived(1, 3, 1)
            .with_app_rate_bps(3_000_000_000)
            .starting_at(t1),
    );
    e.add_flow(
        FlowDesc::long_lived(2, 3, 2)
            .with_app_rate_bps(10_000_000_000)
            .starting_at(t2),
    );
    let shares = staged_shares(e, 3, 3, t2, end);
    outln!(out, "queue,final_gbps");
    for (q, g) in shares.iter().enumerate() {
        outln!(out, "{},{g:.2}", q + 1);
    }
    shares
}

/// Fig. 15 — WFQ with PMSB: a lone queue-1 flow takes the full link, then
/// four queue-2 flows arrive and the split becomes 5 / 5 Gbps. Returns
/// `(solo_gbps, final_q1, final_q2)`.
pub fn fig15(out: &mut String, quick: bool) -> (f64, f64, f64) {
    banner(
        out,
        "Fig 15: WFQ under PMSB -- 10 Gbps solo, then 5 / 5 Gbps split",
    );
    let (t1, _t2, end) = stage_times(quick);
    let mut e = Experiment::dumbbell(5, 2)
        .scheduler(SchedulerConfig::Wfq {
            weights: vec![1, 1],
        })
        .marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        })
        .watch_bottleneck(100_000);
    e.add_flow(FlowDesc::long_lived(0, 5, 0));
    for s in 1..5 {
        e.add_flow(FlowDesc::long_lived(s, 5, 1).starting_at(t1));
    }
    let res = e.run_until_nanos(end);
    let trace = &res.port_traces[&(0, 5)];
    let bin = 1_000_000u64;
    // Solo window: second quarter of [0, t1); final window: last quarter.
    let solo =
        trace.queue_throughput[0].mean_gbps((t1 / bin / 4) as usize, (t1 / bin / 2) as usize);
    let from = (end - (end - t1) / 4) / bin;
    let q1 = trace.queue_throughput[0].mean_gbps(from as usize, (end / bin) as usize);
    let q2 = trace.queue_throughput[1].mean_gbps(from as usize, (end / bin) as usize);
    outln!(out, "phase,q1_gbps,q2_gbps");
    outln!(out, "solo,{solo:.2},0.00");
    outln!(out, "shared,{q1:.2},{q2:.2}");
    (solo, q1, q2)
}

/// Table I — the capability matrix, generated from the implementations.
pub fn table1(out: &mut String) -> Vec<(String, [bool; 4])> {
    banner(out, "Table I: capability matrix");
    let schemes: Vec<(String, Box<dyn MarkingScheme>)> = vec![
        (
            "MQ-ECN".into(),
            Box::new(MqEcn::new(65 * 1500, vec![1500; 8])),
        ),
        ("TCN".into(), Box::new(Tcn::new(78_200))),
        ("PMSB".into(), Box::new(Pmsb::new(12 * 1500, vec![1; 8]))),
    ];
    let mut rows = Vec::new();
    outln!(
        out,
        "scheme,generic_sched,round_based_sched,early_notification,no_switch_mod"
    );
    for (name, s) in schemes {
        let c = s.capabilities();
        let row = [
            c.generic_scheduler,
            c.round_based_scheduler,
            c.early_notification,
            c.no_switch_modification,
        ];
        outln!(
            out,
            "{name},{},{},{},{}",
            yn(row[0]),
            yn(row[1]),
            yn(row[2]),
            yn(row[3])
        );
        rows.push((name, row));
    }
    // PMSB(e) runs per-port marking at switches (no modification) and the
    // selective-blindness rule at end hosts.
    let row = [true, true, true, true];
    outln!(
        out,
        "PMSB(e),{},{},{},{}",
        yn(true),
        yn(true),
        yn(true),
        yn(true)
    );
    rows.push(("PMSB(e)".into(), row));
    rows
}

/// Theorem IV.1 — empirical validation: sweep the per-queue threshold
/// around the `γ·C·RTT/7` bound at the worst-case flow count and measure
/// utilization. Returns `(k_over_bound, k_pkts, utilization)` rows.
pub fn thm_iv1(out: &mut String, quick: bool) -> Vec<(f64, u64, f64)> {
    banner(
        out,
        "Theorem IV.1: threshold sweep around gamma*C*RTT/7 at the worst-case flow count",
    );
    let millis = if quick { 20 } else { 60 };
    // Longer links make the bound land on convenient packet counts:
    // RTT ~= 8*25us prop + serialization ~= 104 us => BDP ~= 87 pkts.
    let delay = 25_000u64;
    let rtt_nanos = 4 * delay + 4_800; // props + ~4 serializations
    let bdp = analysis::bdp_segments(10_000_000_000, rtt_nanos, 1500);
    let bound = analysis::theorem_iv1_min_threshold_segments(bdp);
    let mut rows = Vec::new();
    outln!(
        out,
        "# BDP ~= {bdp:.1} pkts, Theorem IV.1 bound ~= {bound:.1} pkts"
    );
    outln!(out, "k_over_bound,k_pkts,n_flows,utilization");
    for ratio in [0.35, 0.6, 1.0, 1.5, 2.5] {
        let k = ((bound * ratio).round() as u64).max(1);
        let n = analysis::worst_case_flow_count(bdp, k as f64)
            .round()
            .max(2.0) as usize;
        let mut e = Experiment::dumbbell(n, 1)
            .marking(MarkingConfig::PerQueueStandard { threshold_pkts: k })
            .link_delay_nanos(delay)
            .watch_bottleneck(200_000);
        for s in 0..n {
            e.add_flow(FlowDesc::long_lived(s, n, 0));
        }
        let res = e.run_for_millis(millis);
        let t = &res.port_traces[&(0, n)];
        let bins = t.queue_throughput[0].num_bins();
        let util = t.mean_queue_gbps(0, bins / 3, bins) / 10.0;
        outln!(out, "{ratio:.2},{k},{n},{util:.4}");
        rows.push((ratio, k, util));
    }
    rows
}

// ----------------------------------------------------------------------
// Helpers.
// ----------------------------------------------------------------------

/// Prints an 11-point CDF of microsecond-converted samples — the data
/// behind the paper's distribution plots.
fn print_cdf(out: &mut String, label: &str, samples_nanos: Vec<f64>) {
    if let Some(cdf) = Cdf::from_samples(samples_nanos) {
        let pts: Vec<String> = cdf
            .plot_points(11)
            .into_iter()
            .map(|(v, q)| format!("{q:.1}:{:.1}us", v / 1e3))
            .collect();
        outln!(out, "# cdf {label}: {}", pts.join(" "));
    }
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn print_share(out: &mut String, r: &ShareResult) {
    outln!(out, "queue,gbps");
    for (q, g) in r.queue_gbps.iter().enumerate() {
        outln!(out, "{},{g:.2}", q + 1);
    }
    outln!(
        out,
        "# total {:.2} Gbps, {} marks, {} drops",
        r.total_gbps,
        r.marks,
        r.drops
    );
}

/// Slow-start buffer peak (in packets) at a 1 Gbps bottleneck with 4
/// synchronized flows in one queue — the Figs. 4/5/11/12 measurement.
fn slow_start_peak(
    marking: MarkingConfig,
    point: MarkPoint,
    pmsbe: Option<u64>,
    quick: bool,
) -> f64 {
    let millis = if quick { 10 } else { 30 };
    let mut e = Experiment::dumbbell(4, 1)
        .marking(marking)
        .mark_point(point)
        .link_rate_bps(1_000_000_000)
        .watch_bottleneck(5_000);
    if let Some(thr) = pmsbe {
        e = e.pmsbe_rtt_threshold_nanos(thr);
    }
    for s in 0..4 {
        e.add_flow(FlowDesc::long_lived(s, 4, 0));
    }
    let res = e.run_for_millis(millis);
    res.port_traces[&(0, 4)]
        .port_occupancy_pkts
        .peak()
        .expect("occupancy samples")
}

/// Stage boundaries for the Figs. 13–15 staged-start experiments:
/// `(first_join, second_join, end)` in nanoseconds.
fn stage_times(quick: bool) -> (u64, u64, u64) {
    if quick {
        (4_000_000, 8_000_000, 12_000_000)
    } else {
        (10_000_000, 20_000_000, 30_000_000)
    }
}

/// Runs a staged experiment and reports the mean per-queue Gbps over the
/// last quarter of the final stage.
fn staged_shares(
    e: Experiment,
    bottleneck_port: usize,
    num_queues: usize,
    last_stage_start: u64,
    end: u64,
) -> Vec<f64> {
    let res = e.run_until_nanos(end);
    let trace = &res.port_traces[&(0, bottleneck_port)];
    let bin = 1_000_000u64;
    let from = ((last_stage_start + (end - last_stage_start) / 2) / bin) as usize;
    let to = (end / bin) as usize;
    (0..num_queues)
        .map(|q| {
            let b = trace.queue_throughput[q].num_bins();
            if b <= from {
                0.0
            } else {
                trace.mean_queue_gbps(q, from, to.min(b))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_shows_violation_and_fig08_fixes_it() {
        let violated = fig03(&mut String::new(), true);
        assert!(
            violated.queue_gbps[0] < 4.0,
            "per-port K=16 must victimize queue 1: {:?}",
            violated.queue_gbps
        );
        let fair = fig08(&mut String::new(), true);
        assert!(
            (fair.queue_gbps[0] - 5.0).abs() < 0.8,
            "PMSB must restore ~5 Gbps: {:?}",
            fair.queue_gbps
        );
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1(&mut String::new());
        let get = |n: &str| rows.iter().find(|(name, _)| name == n).unwrap().1;
        assert_eq!(get("MQ-ECN"), [false, true, true, false]);
        assert_eq!(get("TCN"), [true, true, false, false]);
        assert_eq!(get("PMSB"), [true, true, true, false]);
        assert_eq!(get("PMSB(e)"), [true, true, true, true]);
    }
}
