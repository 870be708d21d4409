//! Byte-for-byte pin of every way a port marks, admits and serves.
//!
//! One small leaf–spine (two leaves, one spine, four hosts per leaf,
//! DWRR over four queues weighted 2:1:1:1) carries the same static
//! flows in every cell: four cross-rack senders on four services into
//! one receiver, a two-flow sender whose own NIC backs up, an
//! intra-rack flow that shares only the receiver's leaf switch, and a
//! reverse flow. Each cell moves one axis a port reads:
//!
//! * every marking scheme at each mark point it allows (TCN decides on
//!   the sojourn time, so at the dequeue point only; the `pool` scheme
//!   at the enqueue point on a static buffer),
//! * NIC marking alone, at both mark points,
//! * the `static`, `dt:1` and `delay` pools on the packet engine, the
//!   shared ones with buffers small enough to reject (and `pool`
//!   marking over a `dt:1` pool at both points),
//! * and the hybrid engine's micro-sims at the enqueue point.
//!
//! The fingerprint is every flow's FCT record and sender counters, and
//! the run's marks, drops, events and shared-buffer summary.
//!
//! `tests/golden/port_paths.txt` holds the expected fingerprints.
//! Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test port_paths`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use pmsb::MarkPoint;
use pmsb_netsim::experiment::{
    EngineKind, Experiment, FlowDesc, MarkingConfig, RunResults, SchedulerConfig,
};
use pmsb_netsim::BufferPolicy;

/// Horizon of every cell: long enough for every flow to finish.
const MILLIS: u64 = 6;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("port_paths.txt")
}

/// The fabric and flows every cell shares: hosts 0..4 on leaf 0, hosts
/// 4..8 on leaf 1.
fn cell(marking: MarkingConfig, point: MarkPoint) -> Experiment {
    let mut e = Experiment::leaf_spine(2, 1, 4)
        .scheduler(SchedulerConfig::Dwrr {
            weights: vec![2, 1, 1, 1],
        })
        .marking(marking)
        .mark_point(point);
    for src in 0..4 {
        let start = src as u64 * 20_000;
        e.add_flow(FlowDesc::bulk(src, 4, src, 300_000).starting_at(start));
    }
    // Host 0's second flow: two windows at once back up its NIC.
    e.add_flow(FlowDesc::bulk(0, 5, 1, 200_000).starting_at(10_000));
    e.add_flow(FlowDesc::bulk(5, 6, 0, 300_000).starting_at(30_000));
    e.add_flow(FlowDesc::bulk(7, 1, 2, 100_000).starting_at(50_000));
    e
}

/// Every marking scheme the simulator has, with its thresholds.
fn schemes() -> Vec<(&'static str, MarkingConfig)> {
    vec![
        ("none", MarkingConfig::None),
        (
            "per-queue-std",
            MarkingConfig::PerQueueStandard { threshold_pkts: 16 },
        ),
        (
            "per-queue-frac",
            MarkingConfig::PerQueueFractional { total_pkts: 16 },
        ),
        ("per-port", MarkingConfig::PerPort { threshold_pkts: 12 }),
        ("pool", MarkingConfig::PerPool { threshold_pkts: 16 }),
        ("mq-ecn", MarkingConfig::MqEcn { standard_pkts: 16 }),
        (
            "tcn",
            MarkingConfig::Tcn {
                threshold_nanos: 20_000,
            },
        ),
        (
            "pmsb",
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
        ),
        (
            "red",
            MarkingConfig::Red {
                min_pkts: 5,
                max_pkts: 15,
                max_p: 0.2,
            },
        ),
    ]
}

/// Renders one cell's fingerprint: a header line, then one line per
/// flow the senders know of.
fn fingerprint(name: &str, res: &RunResults) -> String {
    let mut out = String::new();
    write!(
        out,
        "cell {name} marks={} drops={} events={}",
        res.marks, res.drops, res.events
    )
    .unwrap();
    match &res.shared_buffer {
        Some(sb) => writeln!(
            out,
            " shared_drops={} admit_rejects={} pool_high_water={}/{}",
            sb.shared_drops, sb.admit_rejects, sb.pool_high_water_bytes, sb.pool_total_bytes
        )
        .unwrap(),
        None => writeln!(out, " shared=none").unwrap(),
    }
    let mut ids: Vec<u64> = res.sender_stats.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let st = &res.sender_stats[&id];
        write!(
            out,
            "  flow {id} marks_seen={} marks_ignored={} retx={} rtos={}",
            st.marks_seen, st.marks_ignored, st.retransmissions, st.timeouts
        )
        .unwrap();
        if let Some(r) = res.fct.records().iter().find(|r| r.flow_id == id) {
            write!(
                out,
                " bytes={} start_ns={} end_ns={}",
                r.bytes, r.start_nanos, r.end_nanos
            )
            .unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn every_port_path_matches_its_golden_fingerprint() {
    use MarkPoint::{Dequeue, Enqueue};
    let mut cells: Vec<(String, Experiment)> = Vec::new();
    for (name, marking) in schemes() {
        // TCN reads the sojourn time a packet has only at dequeue; the
        // pool scheme at the dequeue point is pinned over a shared pool
        // below.
        let points: &[MarkPoint] = match name {
            "tcn" => &[Dequeue],
            "pool" | "none" => &[Enqueue],
            _ => &[Enqueue, Dequeue],
        };
        for &point in points {
            cells.push((format!("{name}-{point}"), cell(marking.clone(), point)));
        }
    }
    for point in [Enqueue, Dequeue] {
        cells.push((
            format!("nic-only-{point}"),
            cell(MarkingConfig::None, point)
                .host_nic_marking(MarkingConfig::PerPort { threshold_pkts: 8 }),
        ));
    }
    let pmsb = MarkingConfig::Pmsb {
        port_threshold_pkts: 12,
    };
    let dt1 = BufferPolicy::DynamicThreshold { alpha: 1.0 };
    let delay = BufferPolicy::DelayDriven {
        target_delay_nanos: 20_000,
    };
    let pool = MarkingConfig::PerPool { threshold_pkts: 16 };
    let buffers = [
        ("static", BufferPolicy::Static, pmsb.clone(), Enqueue),
        ("dt1", dt1, pmsb.clone(), Enqueue),
        ("delay", delay, pmsb.clone(), Enqueue),
        ("dt1-pool", dt1, pool.clone(), Enqueue),
        ("dt1-pool", dt1, pool, Dequeue),
        ("dt1", dt1, pmsb.clone(), Dequeue),
    ];
    for (name, policy, marking, point) in buffers {
        cells.push((
            format!("buffer-{name}-{point}"),
            cell(marking, point).buffer(policy).buffer_bytes(30_000),
        ));
    }
    for (name, marking) in [
        ("pmsb", pmsb),
        ("per-port", MarkingConfig::PerPort { threshold_pkts: 12 }),
    ] {
        cells.push((
            format!("hybrid-{name}-enqueue"),
            cell(marking, Enqueue).engine(EngineKind::Hybrid),
        ));
    }
    let mut produced = String::new();
    for (name, e) in cells {
        produced.push_str(&fingerprint(&name, &e.run_for_millis(MILLIS)));
    }

    let golden = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
        fs::write(&golden, &produced).unwrap();
        eprintln!("golden file updated: {}", golden.display());
        return;
    }
    let expected = fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden.display()));
    assert_eq!(
        produced, expected,
        "a port path diverged from its recorded fingerprint"
    );
}
