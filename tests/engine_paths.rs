//! Engine dispatch smoke tests: which path a run reports, that a run at
//! 2 simulation threads reproduces the 1-thread run whether it sharded
//! end to end or fell back, and that a regional run with no hot port is
//! the fluid engine byte for byte. The workspace's differential suites
//! cover this in depth; these cells are small enough for a debug build.

use pmsb_netsim::experiment::{
    EngineKind, EnginePath, Experiment, MarkingConfig, RegionSpec, RunResults,
};
use pmsb_workload::PatternSpec;

/// Last incast epoch (25 epochs of 8 flows, 500 µs apart) plus drain.
const HORIZON_NANOS: u64 = 60_000_000;
const FLOWS: u64 = 200;

/// A fat_tree(4) streaming incast cell with exact per-flow records.
fn cell(threads: usize) -> Experiment {
    Experiment::fat_tree(4)
        .marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        })
        .stream(PatternSpec::incast(8), 3, FLOWS)
        .stream_record_exact()
        .sim_threads(threads)
}

/// Everything the run observed, without `engine_path`.
fn fingerprint(res: &RunResults) -> String {
    let mut out = String::new();
    for r in res.fct.records() {
        out.push_str(&format!(
            "fct {} {} {} {}\n",
            r.flow_id, r.bytes, r.start_nanos, r.end_nanos
        ));
    }
    let s = res.stream.as_ref().expect("streaming run");
    out.push_str(&format!(
        "marks {} drops {} deliveries {} events {} stream {} {} {} {:?}\n",
        res.marks,
        res.drops,
        res.deliveries,
        res.events,
        s.injected,
        s.completed,
        s.bytes_completed,
        s.agg_sender
    ));
    out
}

#[test]
fn two_thread_fat_tree_matches_one_thread_and_names_its_path() {
    let one = cell(1).run_until_nanos(HORIZON_NANOS);
    assert_eq!(one.engine_path, EnginePath::PacketSequential);
    assert_eq!(one.stream.as_ref().map(|s| s.completed), Some(FLOWS));

    let two = cell(2).run_until_nanos(HORIZON_NANOS);
    assert!(
        matches!(
            two.engine_path,
            EnginePath::PacketSharded { lps: 2 } | EnginePath::ShardedFallback { lps: 2, .. }
        ),
        "2 threads took {}",
        two.engine_path
    );
    assert_eq!(fingerprint(&one), fingerprint(&two));
}

#[test]
fn fluid_run_reports_fluid() {
    let res = cell(1)
        .engine(EngineKind::Fluid)
        .run_until_nanos(HORIZON_NANOS);
    assert_eq!(res.engine_path, EnginePath::Fluid);
    assert_eq!(res.engine_path.to_string(), "fluid");
}

#[test]
fn regional_with_an_empty_hot_set_is_fluid_and_auto_names_its_hot_set() {
    let fluid = cell(1)
        .engine(EngineKind::Fluid)
        .run_until_nanos(HORIZON_NANOS);
    let empty = cell(1)
        .engine(EngineKind::Regional)
        .region(RegionSpec::Ports(vec![]))
        .run_until_nanos(HORIZON_NANOS);
    assert_eq!(empty.engine_path.to_string(), "fluid");
    assert_eq!(fingerprint(&empty), fingerprint(&fluid));

    let auto = cell(1)
        .engine(EngineKind::Regional)
        .region(RegionSpec::Auto)
        .run_until_nanos(HORIZON_NANOS);
    let EnginePath::Regional { hot_ports } = auto.engine_path else {
        panic!("an auto region took {}", auto.engine_path);
    };
    assert!(hot_ports >= 1);
    assert_eq!(
        auto.engine_path.to_string(),
        format!("regional,hot_ports={hot_ports}")
    );
    assert_eq!(auto.stream.as_ref().map(|s| s.completed), Some(FLOWS));
}
