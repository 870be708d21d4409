//! Byte-for-byte pin of the regional engine's packet region.
//!
//! The base cell streams ~300 flows of the `mix` pattern over a
//! fat_tree(4) with an auto-scouted hot set and exact per-flow records.
//! Each further cell moves one axis the region reads:
//!
//! * an explicit port list (the auto set plus one port that is not hot),
//! * TCN marking at the dequeue point,
//! * the `pool` scheme, which reads the hot ports' pool occupancy,
//! * a Dynamic-Threshold shared buffer (`dt:1`) small enough to reject,
//! * NewReno's halve-on-mark window loop,
//! * PMSB(e) at 30 µs, which ignores some of the region's marks,
//! * and a static-flow leaf–spine cell, whose results come back as
//!   per-flow sender counters instead of streamed aggregates.
//!
//! The fingerprint is every flow's FCT record, the run's marks, drops
//! and events, the marks senders saw and ignored, and the shared-buffer
//! summary. It leaves out `engine_path`, whose text is not a record.
//!
//! `tests/golden/regional_paths.txt` holds the expected fingerprints.
//! Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test regional_paths`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use pmsb::MarkPoint;
use pmsb_netsim::experiment::{
    EngineKind, Experiment, FlowDesc, MarkingConfig, RegionSpec, RunResults, TransportKind,
};
use pmsb_netsim::BufferPolicy;
use pmsb_workload::PatternSpec;

const SEED: u64 = 42;
const FLOWS: u64 = 300;
/// Drain time after the last streamed arrival.
const DRAIN_NANOS: u64 = 20_000_000;

/// The base cell's auto hot set (27 ports), plus switch 0's port 2,
/// which no flow of the cell crosses.
const EXPLICIT_PORTS: &[(usize, usize)] = &[
    (0, 0),
    (0, 1),
    (0, 2),
    (1, 0),
    (1, 1),
    (2, 0),
    (2, 1),
    (3, 0),
    (3, 1),
    (4, 0),
    (4, 1),
    (5, 0),
    (5, 1),
    (6, 0),
    (8, 1),
    (9, 3),
    (10, 2),
    (12, 2),
    (13, 3),
    (14, 2),
    (15, 3),
    (16, 0),
    (16, 2),
    (16, 3),
    (19, 0),
    (19, 1),
    (19, 2),
    (19, 3),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("regional_paths.txt")
}

fn mix() -> PatternSpec {
    PatternSpec::Mix(vec![PatternSpec::incast(32), PatternSpec::shuffle()])
}

/// The base cell: fat_tree(4), streamed `mix`, exact records, regional
/// engine with an auto hot set.
fn fat_tree_cell() -> Experiment {
    Experiment::fat_tree(4)
        .engine(EngineKind::Regional)
        .region(RegionSpec::Auto)
        .stream(mix(), SEED, FLOWS)
        .stream_record_exact()
}

fn fat_tree_horizon() -> u64 {
    let last = mix()
        .flows(Experiment::fat_tree(4).num_hosts(), SEED, FLOWS)
        .last()
        .map_or(0, |f| f.start_nanos);
    last + DRAIN_NANOS
}

/// A leaf–spine incast of static flows: twelve senders in three racks
/// into two receivers on the last rack, over three services, with the
/// PMSB(e) threshold at 100 µs, a little above the cell's unloaded RTT.
fn leaf_spine_cell() -> Experiment {
    let mut e = Experiment::leaf_spine(4, 2, 4)
        .engine(EngineKind::Regional)
        .region(RegionSpec::Auto)
        .pmsbe_rtt_threshold_nanos(100_000);
    for (i, src) in (0..12).enumerate() {
        let dst = 12 + i % 2;
        let start = (i as u64 % 4) * 50_000;
        e.add_flow(FlowDesc::bulk(src, dst, i % 3, 400_000).starting_at(start));
    }
    e
}

/// Renders one cell's fingerprint: a header line, then one line per flow.
fn fingerprint(name: &str, res: &RunResults) -> String {
    let mut out = String::new();
    write!(
        out,
        "cell {name} marks={} drops={} events={}",
        res.marks, res.drops, res.events
    )
    .unwrap();
    if let Some(s) = &res.stream {
        write!(
            out,
            " injected={} completed={} bytes_completed={} marks_seen={} marks_ignored={}",
            s.injected,
            s.completed,
            s.bytes_completed,
            s.agg_sender.marks_seen,
            s.agg_sender.marks_ignored
        )
        .unwrap();
    }
    match &res.shared_buffer {
        Some(sb) => writeln!(
            out,
            " shared_drops={} admit_rejects={} pool_high_water={}/{}",
            sb.shared_drops, sb.admit_rejects, sb.pool_high_water_bytes, sb.pool_total_bytes
        )
        .unwrap(),
        None => writeln!(out, " shared=none").unwrap(),
    }
    let mut records = res.fct.records().to_vec();
    records.sort_by_key(|r| r.flow_id);
    for r in &records {
        write!(
            out,
            "  flow {} bytes={} start_ns={} end_ns={}",
            r.flow_id, r.bytes, r.start_nanos, r.end_nanos
        )
        .unwrap();
        if let Some(st) = res.sender_stats.get(&r.flow_id) {
            write!(
                out,
                " marks_seen={} marks_ignored={}",
                st.marks_seen, st.marks_ignored
            )
            .unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn every_regional_path_matches_its_golden_fingerprint() {
    let horizon = fat_tree_horizon();
    let cells: Vec<(&str, Experiment)> = vec![
        ("base", fat_tree_cell()),
        (
            "explicit-ports",
            fat_tree_cell().region(RegionSpec::Ports(EXPLICIT_PORTS.to_vec())),
        ),
        (
            "tcn-dequeue",
            fat_tree_cell()
                .marking(MarkingConfig::Tcn {
                    threshold_nanos: 20_000,
                })
                .mark_point(MarkPoint::Dequeue),
        ),
        (
            "pool",
            fat_tree_cell().marking(MarkingConfig::PerPool { threshold_pkts: 40 }),
        ),
        (
            "dt1",
            fat_tree_cell()
                .buffer(BufferPolicy::DynamicThreshold { alpha: 1.0 })
                .buffer_bytes(24_000),
        ),
        (
            "newreno",
            fat_tree_cell().transport_kind(TransportKind::NewReno),
        ),
        ("pmsbe30", fat_tree_cell().pmsbe_rtt_threshold_nanos(30_000)),
    ];
    let mut produced = String::new();
    for (name, e) in cells {
        produced.push_str(&fingerprint(name, &e.run_until_nanos(horizon)));
    }
    let res = leaf_spine_cell().run_for_millis(20);
    produced.push_str(&fingerprint("leaf-spine-static", &res));

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
        "a regional path diverged from its recorded fingerprint"
    );
}
