//! Differential tests for the sharded conservative runner (DESIGN.md §8):
//! `sim_threads(n)` must reproduce the sequential run byte-for-byte —
//! every record, counter, trace, and fault interaction — for any `n`,
//! across all marking schemes and with fault schedules attached. Most of these runs meet an ambiguous tie and
//! rerun sequentially, so the suite also pins which path ran: at least
//! one case must shard end to end, and a fallback must stop early.

use pmsb_netsim::experiment::{
    EnginePath, Experiment, FaultSchedule, FlowDesc, MarkingConfig, RunResults, TraceConfig,
};
use pmsb_workload::{PatternSpec, SizeDistSpec};

/// Canonical text form of everything a run observes; byte equality here
/// is the parallel-vs-sequential gate. `engine_path` is left out: it is
/// the one field that names how the run was executed.
fn fingerprint(res: &RunResults) -> String {
    let mut out = String::new();
    for r in res.fct.records() {
        out.push_str(&format!(
            "fct {} {} {} {}\n",
            r.flow_id, r.bytes, r.start_nanos, r.end_nanos
        ));
    }
    out.push_str(&format!(
        "marks {} drops {} deliveries {} events {} end {}\n",
        res.marks, res.drops, res.deliveries, res.events, res.end_nanos
    ));
    let mut stats: Vec<_> = res.sender_stats.iter().collect();
    stats.sort_by_key(|(id, _)| **id);
    for (id, s) in stats {
        out.push_str(&format!("sender {id} {s:?}\n"));
    }
    let mut rtt: Vec<_> = res.rtt_nanos_by_flow.iter().collect();
    rtt.sort_by_key(|(id, _)| **id);
    for (id, samples) in rtt {
        out.push_str(&format!("rtt {id} {samples:?}\n"));
    }
    let mut traces: Vec<_> = res.port_traces.iter().collect();
    traces.sort_by_key(|(k, _)| **k);
    for (k, t) in traces {
        out.push_str(&format!("trace {k:?} {t:?}\n"));
    }
    if let Some(f) = &res.faults {
        out.push_str(&format!("faults {f:?}\n"));
    }
    if let Some(s) = &res.stream {
        // Everything except `slab_high_water`, which is documented as a
        // sum of per-LP peaks (an upper bound, not a shared observable).
        out.push_str(&format!(
            "stream {} {} {} {:?} {:?}\n",
            s.injected, s.completed, s.bytes_completed, s.agg_sender, s.sketch
        ));
    }
    out
}

/// A 2×2 leaf–spine (4 hosts per leaf) with deterministic cross- and
/// intra-leaf flows exercising ECMP, congestion, and queue diversity.
fn small_fabric(marking: MarkingConfig) -> Experiment {
    let mut e = Experiment::leaf_spine(2, 2, 4).marking(marking);
    // Cross-leaf incast onto host 7 plus reverse and intra-leaf traffic.
    e.add_flow(FlowDesc::bulk(0, 7, 0, 400_000));
    e.add_flow(FlowDesc::bulk(1, 7, 1, 300_000).starting_at(50_000));
    e.add_flow(FlowDesc::bulk(2, 7, 2, 200_000).starting_at(100_000));
    e.add_flow(FlowDesc::bulk(3, 6, 3, 250_000).starting_at(150_000));
    e.add_flow(FlowDesc::bulk(4, 1, 4, 350_000).starting_at(200_000));
    e.add_flow(FlowDesc::bulk(5, 0, 5, 150_000).starting_at(250_000));
    e.add_flow(FlowDesc::bulk(6, 2, 6, 100_000).starting_at(300_000));
    e.add_flow(FlowDesc::bulk(0, 4, 7, 50_000).starting_at(400_000));
    e.add_flow(FlowDesc::bulk(1, 2, 0, 80_000).starting_at(500_000)); // intra-leaf
    e.add_flow(FlowDesc::bulk(7, 3, 1, 120_000).starting_at(600_000));
    e
}

/// Runs `mk` sequentially and at 2 and 4 threads, asserts every sharded
/// fingerprint equals the sequential one, and returns the path each
/// sharded run took.
fn assert_threads_match(mk: impl Fn() -> Experiment, millis: u64) -> Vec<EnginePath> {
    let seq = mk().run_for_millis(millis);
    assert_eq!(seq.engine_path, EnginePath::PacketSequential);
    let sequential = fingerprint(&seq);
    let mut paths = Vec::new();
    for threads in [2, 4] {
        let res = mk().sim_threads(threads).run_for_millis(millis);
        paths.push(res.engine_path);
        let parallel = fingerprint(&res);
        if sequential != parallel {
            for (a, b) in sequential.lines().zip(parallel.lines()) {
                if a != b {
                    panic!("sim_threads({threads}) diverged:\nseq: {a}\npar: {b}");
                }
            }
            panic!(
                "sim_threads({threads}) diverged: line counts {} vs {}",
                sequential.lines().count(),
                parallel.lines().count()
            );
        }
    }
    paths
}

#[test]
fn all_marking_schemes_match_sequential() {
    let schemes = [
        MarkingConfig::None,
        MarkingConfig::PerQueueStandard { threshold_pkts: 16 },
        MarkingConfig::PerQueueFractional { total_pkts: 16 },
        MarkingConfig::PerPort { threshold_pkts: 16 },
        MarkingConfig::PerPool { threshold_pkts: 24 },
        MarkingConfig::MqEcn { standard_pkts: 16 },
        MarkingConfig::Tcn {
            threshold_nanos: 39_000,
        },
        MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        },
        MarkingConfig::Red {
            min_pkts: 5,
            max_pkts: 20,
            max_p: 0.8,
        },
    ];
    let mut paths = Vec::new();
    for marking in schemes {
        paths.extend(assert_threads_match(|| small_fabric(marking.clone()), 15));
    }
    // Byte-identity must be checked against at least one run that really
    // sharded, not only against sequential fallbacks.
    assert!(
        paths
            .iter()
            .any(|p| matches!(p, EnginePath::PacketSharded { .. })),
        "no run sharded end to end: {paths:?}"
    );
}

#[test]
fn traces_and_rtt_match_sequential() {
    assert_threads_match(
        || {
            let mut t = TraceConfig::watch_port(0, 4, 50_000); // a leaf uplink
            t.watch_ports.push((2, 0)); // and a spine downlink
            small_fabric(MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            })
            .trace(t)
            .record_rtt()
        },
        15,
    );
}

/// The committed example schedule (an uplink flap plus steady random
/// loss on a second uplink) on the paper fabric: fault state, ECMP
/// rerouting, loss randomness, and recovery must all shard cleanly.
#[test]
fn uplink_flap_schedule_matches_sequential() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/uplink_flap.faults"
    ))
    .expect("committed example schedule");
    let schedule = FaultSchedule::parse(&text).expect("parses");
    let mk = move || {
        let mut e = Experiment::paper_leaf_spine()
            .marking(MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            })
            .faults(schedule.clone());
        // Long flows through leaf 0's uplinks spanning the 5–15 ms flap,
        // plus background cross-leaf traffic.
        for i in 0..12u64 {
            let src = (i % 12) as usize; // leaf 0 hosts
            let dst = 12 + ((i * 7) % 36) as usize; // other leaves
            e.add_flow(
                FlowDesc::bulk(src, dst, (i % 8) as usize, 600_000 + i * 40_000)
                    .starting_at(i * 300_000),
            );
        }
        for i in 0..6u64 {
            let src = 12 + (i * 5 % 36) as usize;
            let dst = (i % 12) as usize;
            e.add_flow(
                FlowDesc::bulk(src, dst, (i % 8) as usize, 300_000)
                    .starting_at(2_000_000 + i * 500_000),
            );
        }
        e
    };
    let sequential = mk().run_for_millis(30);
    assert!(
        sequential
            .faults
            .as_ref()
            .is_some_and(|f| f.link_down_events == 1 && f.link_up_events == 1),
        "flap must fire inside the horizon"
    );
    let sequential = fingerprint(&sequential);
    for threads in [2, 4] {
        let parallel = fingerprint(&mk().sim_threads(threads).run_for_millis(30));
        assert_eq!(
            sequential, parallel,
            "sim_threads({threads}) diverged under the fault schedule"
        );
    }
}

/// The paper's §VI-B fabric (4 leaves × 4 spines, 48 hosts) under a
/// dense all-to-all-ish load — the shape of the large-scale benchmark
/// cell, shrunk to test scale. Eight switches give the partitioner real
/// choices at 2 and 4 LPs.
#[test]
fn large_scale_fabric_matches_sequential() {
    let mk = || {
        let mut e = Experiment::paper_leaf_spine().marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        });
        for i in 0..32u64 {
            let src = ((i * 5) % 48) as usize;
            let dst = ((i * 11 + 17) % 48) as usize;
            if src == dst {
                continue;
            }
            e.add_flow(
                FlowDesc::bulk(src, dst, (i % 8) as usize, 100_000 + i * 20_000)
                    .starting_at(i * 150_000),
            );
        }
        e
    };
    assert_threads_match(mk, 20);
}

/// A k=8 fat-tree (80 switches, 128 hosts) driven by a streaming
/// shuffle with web-search sizes: the bounded-memory streaming path —
/// sender slab, completion sketch, aggregate counters — must shard as
/// cleanly as the static flow list, on a fabric deep enough that the
/// lookahead matrix has real multi-hop structure.
#[test]
fn fat_tree_streaming_matches_sequential() {
    let mk = || {
        Experiment::fat_tree(8)
            .marking(MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            })
            .stream(
                PatternSpec::sized(PatternSpec::shuffle(), SizeDistSpec::WebSearch),
                7,
                256,
            )
            .stream_record_exact()
    };
    for path in assert_threads_match(mk, 15) {
        // A doomed attempt stops at its first ambiguous tie instead of
        // running to the horizon and being thrown away.
        if let EnginePath::ShardedFallback { window, .. } = path {
            assert!(window <= 16, "fallback ran {window} windows: {path}");
        }
    }
}

/// A dumbbell has one switch: any thread count collapses to the
/// sequential path and still produces identical results.
#[test]
fn dumbbell_collapses_to_sequential() {
    let mk = || {
        let mut e = Experiment::dumbbell(3, 4).marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        });
        e.add_flow(FlowDesc::bulk(0, 3, 0, 500_000));
        e.add_flow(FlowDesc::bulk(1, 3, 1, 500_000));
        e.add_flow(FlowDesc::bulk(2, 3, 2, 500_000));
        e
    };
    let paths = assert_threads_match(mk, 10);
    assert!(paths.iter().all(|p| *p == EnginePath::PacketSequential));
}
