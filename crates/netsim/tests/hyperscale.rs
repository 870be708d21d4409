//! Hyperscale subsystem tests: fat-tree structural invariants, ECMP
//! determinism, bounded-memory streaming runs, and sketch-vs-exact
//! differential validation.

use pmsb_metrics::QuantileSketch;
use pmsb_netsim::config::TransportConfig;
use pmsb_netsim::experiment::{Experiment, MarkingConfig};
use pmsb_netsim::topology;
use pmsb_netsim::world::NodeRef;
use pmsb_netsim::{HostConfig, SwitchConfig, World};
use pmsb_workload::PatternSpec;

fn build_fat_tree(k: usize) -> World {
    topology::fat_tree(
        k,
        10_000_000_000,
        1_000,
        &SwitchConfig::default(),
        &HostConfig::default(),
        TransportConfig::default(),
    )
}

/// Walks the fabric from `src`'s edge switch towards `dst` following the
/// ECMP choice for `flow_id`; returns the hop count, panicking on a loop.
fn hops_to(w: &World, src: usize, dst: usize, flow_id: u64) -> usize {
    let mut node = NodeRef::Switch(w.host_switch(src));
    let mut hops = 0;
    loop {
        hops += 1;
        assert!(hops <= 8, "routing loop from host {src} to host {dst}");
        let NodeRef::Switch(s) = node else {
            unreachable!("walk stays on switches until arrival")
        };
        let port = w.route_port_for(s, dst, flow_id);
        match w.port_peer(s, port) {
            NodeRef::Host(h) => {
                assert_eq!(h, dst, "route from {src} delivered to wrong host");
                return hops;
            }
            sw => node = sw,
        }
    }
}

/// Counts distinct switch-level paths from `src`'s edge switch to `dst`
/// by exhaustive DFS over every route candidate.
fn count_paths(w: &World, src: usize, dst: usize) -> usize {
    fn dfs(w: &World, node: NodeRef, dst: usize, depth: usize) -> usize {
        assert!(depth <= 8, "path explosion towards host {dst}");
        match node {
            NodeRef::Host(h) => usize::from(h == dst),
            NodeRef::Switch(s) => w
                .route_candidates(s, dst)
                .iter()
                .map(|&p| dfs(w, w.port_peer(s, p), dst, depth + 1))
                .sum(),
        }
    }
    dfs(w, NodeRef::Switch(w.host_switch(src)), dst, 0)
}

#[test]
fn fat_tree_structural_invariants() {
    for k in [4usize, 6, 24] {
        let w = build_fat_tree(k);
        assert_eq!(w.num_hosts(), k * k * k / 4, "k={k} host count");
        assert_eq!(w.num_switches(), 5 * k * k / 4, "k={k} switch count");
    }
}

/// The last hyperscale ROADMAP remnant: `fat_tree(24)` — 3456 hosts,
/// 720 switches — must build and stream a workload end to end, with
/// flows actually crossing pods and the slab staying bounded.
#[test]
fn fat_tree_k24_streams_a_quick_smoke() {
    let total = 500u64;
    let exp = Experiment::fat_tree(24)
        .marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        })
        .stream(PatternSpec::shuffle(), 9, total);
    let res = exp.run_until_nanos(50_000_000);
    let stream = res.stream.as_ref().expect("streaming run");
    assert_eq!(stream.injected, total, "all flows must be injected");
    assert!(
        stream.completed >= total * 9 / 10,
        "shuffle must drain on k=24: {} of {total} completed",
        stream.completed
    );
    assert!(res.deliveries > 0);
    assert!(
        stream.slab_high_water <= total,
        "slab must stay bounded on the big fabric"
    );
}

#[test]
fn fat_tree_all_pairs_reachable() {
    let k = 4;
    let w = build_fat_tree(k);
    let n = w.num_hosts();
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            for flow_id in 0..4u64 {
                let hops = hops_to(&w, src, dst, flow_id);
                // Same edge: 1 switch. Same pod: 3. Inter-pod: 5.
                assert!(
                    hops == 1 || hops == 3 || hops == 5,
                    "host {src} -> {dst}: unexpected hop count {hops}"
                );
            }
        }
    }
}

#[test]
fn fat_tree_equal_cost_core_paths() {
    for k in [4usize, 6] {
        let w = build_fat_tree(k);
        let half = k / 2;
        let hosts_per_pod = half * half;
        // Inter-pod: (k/2)^2 equal-cost paths through the core.
        assert_eq!(
            count_paths(&w, 0, hosts_per_pod),
            half * half,
            "k={k} inter-pod path count"
        );
        // Same pod, different edge: one path per aggregation switch.
        assert_eq!(count_paths(&w, 0, half), half, "k={k} intra-pod path count");
        // Same edge switch: the single local hop.
        assert_eq!(count_paths(&w, 0, 1), 1, "k={k} same-edge path count");
    }
}

#[test]
fn ecmp_is_deterministic_and_diverse() {
    // Two independently built fabrics must agree on every path choice
    // (routing is keyed by flow id alone, never by RNG or build order),
    // and the choices must actually spread over the equal-cost paths.
    let a = build_fat_tree(4);
    let b = build_fat_tree(4);
    let edge = a.host_switch(0);
    let dst = a.num_hosts() - 1; // other pod: 4 equal-cost paths
    let mut first_hops = std::collections::BTreeSet::new();
    for flow_id in 0..64u64 {
        let pa = a.route_port_for(edge, dst, flow_id);
        let pb = b.route_port_for(edge, dst, flow_id);
        assert_eq!(pa, pb, "ECMP choice differs between identical builds");
        first_hops.insert(pa);
    }
    assert!(
        first_hops.len() > 1,
        "64 flows all hashed onto one uplink: no path diversity"
    );
}

/// The exact nearest-rank order statistic the sketch approximates.
fn exact_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

#[test]
fn sketch_matches_exact_percentiles_on_leaf_spine() {
    // The paper's 48-host leaf–spine under a streamed hot-service load,
    // recording both the sketch and the exhaustive recorder: every
    // reported quantile must sit within the sketch's documented relative
    // error of the true order statistic at the same (nearest) rank.
    let exp = Experiment::paper_leaf_spine()
        .marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        })
        .stream(PatternSpec::hotservice(1.1), 7, 2_000)
        .stream_record_exact();
    let res = exp.run_for_millis(200);
    let stream = res.stream.as_ref().expect("streaming run");
    assert_eq!(
        stream.completed,
        res.fct.len() as u64,
        "sketch and exact recorder must see the same completions"
    );
    assert!(stream.completed > 1_000, "workload too idle to validate");
    let mut exact: Vec<u64> = res.fct.records().iter().map(|r| r.fct_nanos()).collect();
    exact.sort_unstable();
    for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99] {
        let truth = exact_rank(&exact, q) as f64;
        let approx = stream.sketch.quantile(q).expect("non-empty sketch") as f64;
        let rel = (approx - truth).abs() / truth;
        assert!(
            rel <= QuantileSketch::RELATIVE_ERROR,
            "q={q}: sketch {approx} vs exact {truth} (rel {rel})"
        );
    }
    assert_eq!(stream.sketch.count(), stream.completed);
}

#[test]
fn streaming_slab_is_bounded_by_concurrency() {
    // 5 000 incast flows through a k=4 fat-tree: total flow count is two
    // orders of magnitude above the synchronized fan-in, so a bounded
    // high-water mark proves slots are recycled, not accumulated.
    let total = 5_000u64;
    let exp = Experiment::fat_tree(4)
        .marking(MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        })
        .stream(PatternSpec::incast(8), 3, total);
    let res = exp.run_until_nanos(400_000_000);
    let stream = res.stream.as_ref().expect("streaming run");
    assert_eq!(stream.injected, total, "all flows must be injected");
    assert!(
        stream.completed >= total * 99 / 100,
        "incast epochs must drain: {} of {total} completed",
        stream.completed
    );
    assert!(
        stream.slab_high_water < total / 10,
        "slab high-water {} not bounded by concurrency (total {total})",
        stream.slab_high_water
    );
    assert!(stream.bytes_completed >= stream.completed * 20_000);
}

#[test]
#[should_panic(expected = "mutually exclusive")]
fn stream_rejects_static_flows() {
    let mut exp = Experiment::fat_tree(4);
    exp.add_flow(pmsb_netsim::FlowDesc::bulk(0, 1, 0, 1_000));
    let _ = exp
        .stream(PatternSpec::shuffle(), 1, 10)
        .run_until_nanos(1_000_000);
}
