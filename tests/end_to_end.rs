//! Cross-crate integration tests of the full simulation stack.

use pmsb::MarkPoint;
use pmsb_metrics::fct::SizeClass;
use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig, SchedulerConfig};
use pmsb_simcore::rng::SimRng;
use pmsb_workload::traffic::TrafficSpec;

#[test]
fn leaf_spine_workload_is_deterministic() {
    let run = || {
        let spec = TrafficSpec::paper_large_scale(12, 0.4);
        let flows = spec.generate(40, &mut SimRng::seed_from(11));
        let mut e = Experiment::leaf_spine(2, 2, 6).marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        });
        for f in &flows {
            e.add_flow(
                FlowDesc::bulk(f.src_host, f.dst_host, f.service, f.size_bytes)
                    .starting_at(f.start_nanos),
            );
        }
        let end = flows.last().unwrap().start_nanos + 400_000_000;
        let res = e.run_until_nanos(end);
        let mut records: Vec<(u64, u64)> = res
            .fct
            .records()
            .iter()
            .map(|r| (r.flow_id, r.end_nanos))
            .collect();
        records.sort_unstable();
        (records, res.marks, res.drops)
    };
    assert_eq!(run(), run(), "identical seeds must replay identically");
}

#[test]
fn workload_flows_complete_on_fabric() {
    let spec = TrafficSpec::paper_large_scale(12, 0.3);
    let flows = spec.generate(30, &mut SimRng::seed_from(5));
    let mut e = Experiment::leaf_spine(2, 2, 6).marking(MarkingConfig::Pmsb {
        port_threshold_pkts: 12,
    });
    for f in &flows {
        e.add_flow(
            FlowDesc::bulk(f.src_host, f.dst_host, f.service, f.size_bytes)
                .starting_at(f.start_nanos),
        );
    }
    let end = flows.last().unwrap().start_nanos + 2_000_000_000;
    let res = e.run_until_nanos(end);
    assert_eq!(res.fct.len(), flows.len(), "every injected flow completes");
    // Small flows finish orders of magnitude faster than large ones.
    let small = res.fct.stats(SizeClass::Small).unwrap();
    if let Some(large) = res.fct.stats(SizeClass::Large) {
        assert!(small.mean * 20.0 < large.mean);
    }
}

#[test]
fn tiny_buffers_drop_and_flows_still_finish() {
    let mut e = Experiment::dumbbell(4, 2)
        .marking(MarkingConfig::None)
        .host_nic_marking(MarkingConfig::None)
        .buffer_bytes(20 * 1500); // 20-packet port buffer, no ECN
    for s in 0..4 {
        e.add_flow(FlowDesc::bulk(s, 4, s % 2, 1_000_000));
    }
    let res = e.run_for_millis(400);
    assert!(res.drops > 0, "slow start into a 20-pkt buffer must drop");
    assert_eq!(res.marks, 0, "ECN disabled");
    assert_eq!(res.fct.len(), 4, "loss recovery completes the flows");
}

#[test]
fn pmsbe_victim_flow_ignores_marks() {
    // Per-port marking with a PMSB(e) endpoint: the lone queue-0 flow is
    // marked because of queue 1's backlog but ignores (most of) it.
    let mut e = Experiment::dumbbell(5, 2)
        .marking(MarkingConfig::PerPort { threshold_pkts: 12 })
        .pmsbe_rtt_threshold_nanos(40_000);
    e.add_flow(FlowDesc::bulk(0, 5, 0, 4_000_000));
    for s in 1..5 {
        e.add_flow(FlowDesc::long_lived(s, 5, 1));
    }
    let res = e.run_for_millis(60);
    let stats = res.sender_stats[&0];
    assert!(stats.marks_seen > 0, "victim must receive marks");
    assert!(
        stats.marks_ignored * 2 > stats.marks_seen,
        "victim should ignore most marks: {stats:?}"
    );
    assert_eq!(res.fct.len(), 1, "the bulk flow completes");
}

#[test]
fn mq_ecn_only_meaningful_on_round_based_schedulers() {
    // MQ-ECN's dynamic threshold needs the scheduler's round time. On
    // DWRR (8 active queues) each queue's threshold shrinks to ~1/8 of
    // the standard 65 packets, keeping the buffer low; on WFQ there is no
    // round signal, MQ-ECN falls back to the full standard threshold per
    // queue, and the port buffer stabilizes several times higher.
    let run = |sched: SchedulerConfig| {
        let mut e = Experiment::dumbbell(8, 8)
            .scheduler(sched)
            .marking(MarkingConfig::MqEcn { standard_pkts: 65 })
            .host_nic_marking(MarkingConfig::None)
            .watch_bottleneck(50_000);
        for s in 0..8 {
            e.add_flow(FlowDesc::long_lived(s, 8, s));
        }
        let res = e.run_for_millis(40);
        let trace = &res.port_traces[&(0, 8)];
        let pts = trace.port_occupancy_pkts.points();
        // Time-weighted mean over the second half of the run.
        let tail: Vec<f64> = pts[pts.len() / 2..].iter().map(|(_, v)| *v).collect();
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    let dwrr_occ = run(SchedulerConfig::Dwrr {
        weights: vec![1; 8],
    });
    let wfq_occ = run(SchedulerConfig::Wfq {
        weights: vec![1; 8],
    });
    assert!(
        dwrr_occ * 2.0 < wfq_occ,
        "MQ-ECN on DWRR should keep the buffer far lower than on WFQ \
         (round-less fallback): dwrr {dwrr_occ:.1} pkts vs wfq {wfq_occ:.1} pkts"
    );
}

#[test]
fn ecn_outperforms_droptail_for_small_flow_latency() {
    // A sanity check of the whole premise (the classic DCTCP motivation):
    // mice sharing a queue with elephants complete much faster when the
    // switch marks ECN than under plain drop-tail, because the standing
    // queue they wait behind is ~K packets instead of a full buffer.
    let run = |marking: MarkingConfig| {
        let mut e = Experiment::dumbbell(3, 1)
            .marking(marking)
            .buffer_bytes(96 * 1500);
        e.add_flow(FlowDesc::long_lived(0, 3, 0));
        e.add_flow(FlowDesc::long_lived(1, 3, 0));
        for i in 0..10u64 {
            e.add_flow(FlowDesc::bulk(2, 3, 0, 30_000).starting_at(2_000_000 + i * 2_000_000));
        }
        let res = e.run_for_millis(60);
        res.fct.stats(SizeClass::Small).unwrap().p99
    };
    let droptail = run(MarkingConfig::None);
    let pmsb = run(MarkingConfig::Pmsb {
        port_threshold_pkts: 12,
    });
    assert!(
        pmsb * 2.0 < droptail,
        "PMSB small-flow p99 ({pmsb} ns) should be far below drop-tail ({droptail} ns)"
    );
}

#[test]
fn mark_point_is_honoured_per_packet() {
    // Dequeue marking and enqueue marking both produce marks; the run
    // with dequeue marking sees lower buffer peaks (early notification).
    let run = |point: MarkPoint| {
        let mut e = Experiment::dumbbell(4, 1)
            .marking(MarkingConfig::PerQueueStandard { threshold_pkts: 16 })
            .mark_point(point)
            .link_rate_bps(1_000_000_000)
            .watch_bottleneck(10_000);
        for s in 0..4 {
            e.add_flow(FlowDesc::long_lived(s, 4, 0));
        }
        let res = e.run_for_millis(15);
        (
            res.marks,
            res.port_traces[&(0, 4)].port_occupancy_pkts.peak().unwrap(),
        )
    };
    let (enq_marks, enq_peak) = run(MarkPoint::Enqueue);
    let (deq_marks, deq_peak) = run(MarkPoint::Dequeue);
    assert!(enq_marks > 0 && deq_marks > 0);
    assert!(
        deq_peak <= enq_peak,
        "dequeue {deq_peak} vs enqueue {enq_peak}"
    );
}
