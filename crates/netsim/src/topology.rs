//! Topology builders: the paper's dumbbell and leaf–spine fabrics, plus
//! the hyperscale `fat_tree(k)` Clos.

use crate::config::{HostConfig, SwitchConfig, TransportConfig};
use crate::world::World;

/// Builds an `n`-sender dumbbell: hosts `0..n` are senders, host `n` is
/// the receiver, all attached to one switch. The bottleneck is the
/// receiver-facing port, **port `n` of switch 0** — watch that port for
/// queue traces.
///
/// Every link runs at `rate_bps` with `delay_nanos` propagation delay,
/// so the unloaded RTT is `4 × delay` plus serialization.
///
/// # Example
///
/// ```
/// use pmsb_netsim::config::{HostConfig, SwitchConfig, TransportConfig};
/// use pmsb_netsim::topology::dumbbell;
///
/// let w = dumbbell(
///     8,
///     10_000_000_000,
///     5_000,
///     &SwitchConfig::default(),
///     &HostConfig::default(),
///     TransportConfig::default(),
/// );
/// drop(w);
/// ```
pub fn dumbbell(
    num_senders: usize,
    rate_bps: u64,
    delay_nanos: u64,
    switch_cfg: &SwitchConfig,
    host_cfg: &HostConfig,
    transport: TransportConfig,
) -> World {
    assert!(num_senders >= 1, "need at least one sender");
    let mut w = World::new(transport);
    let mut hosts = Vec::new();
    for _ in 0..=num_senders {
        hosts.push(w.add_host(host_cfg.clone()));
    }
    let s = w.add_switch();
    for &h in &hosts {
        let port = w.wire_host(h, s, rate_bps, delay_nanos, switch_cfg);
        w.set_route(s, h, port..port + 1);
    }
    w
}

/// Builds the paper's leaf–spine fabric: `leaves × hosts_per_leaf` hosts,
/// each leaf with `hosts_per_leaf` downlinks and one uplink per spine,
/// per-flow ECMP over the uplinks. The paper's §VI-B topology is
/// `leaf_spine(4, 4, 12, …)`: 48 hosts, non-blocking at 10 Gbps.
///
/// Host `h` sits under leaf `h / hosts_per_leaf`. Leaf `l`'s ports
/// `0..hosts_per_leaf` face its hosts; ports
/// `hosts_per_leaf..hosts_per_leaf+spines` face spines `0..spines`.
/// Spine `s`'s port `l` faces leaf `l`.
#[allow(clippy::too_many_arguments)]
pub fn leaf_spine(
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    rate_bps: u64,
    delay_nanos: u64,
    switch_cfg: &SwitchConfig,
    host_cfg: &HostConfig,
    transport: TransportConfig,
) -> World {
    assert!(leaves >= 1 && spines >= 1 && hosts_per_leaf >= 1);
    let mut w = World::new(transport);
    let num_hosts = leaves * hosts_per_leaf;
    for _ in 0..num_hosts {
        w.add_host(host_cfg.clone());
    }
    let leaf_idx: Vec<usize> = (0..leaves).map(|_| w.add_switch()).collect();
    let spine_idx: Vec<usize> = (0..spines).map(|_| w.add_switch()).collect();

    // Host downlinks: leaf l port h%hosts_per_leaf.
    for h in 0..num_hosts {
        let l = h / hosts_per_leaf;
        w.wire_host(h, leaf_idx[l], rate_bps, delay_nanos, switch_cfg);
    }
    // Uplinks: leaf l ports hosts_per_leaf..hosts_per_leaf+spines;
    // spine s collects port l per leaf (wired in leaf order).
    for &l in &leaf_idx {
        for &s in &spine_idx {
            w.wire_switch_pair(l, s, rate_bps, delay_nanos, switch_cfg);
        }
    }
    // Routes.
    for dst in 0..num_hosts {
        let dst_leaf = dst / hosts_per_leaf;
        for (l, &leaf) in leaf_idx.iter().enumerate() {
            if l == dst_leaf {
                let down = dst % hosts_per_leaf;
                w.set_route(leaf, dst, down..down + 1);
            } else {
                w.set_route(leaf, dst, hosts_per_leaf..hosts_per_leaf + spines);
            }
        }
        for &spine in &spine_idx {
            w.set_route(spine, dst, dst_leaf..dst_leaf + 1);
        }
    }
    w
}

/// Builds a `k`-ary fat tree (Al-Fares et al.): `k` pods of `k/2` edge
/// and `k/2` aggregation switches plus `(k/2)²` cores — `k³/4` hosts on
/// `(5/4)k²` switches, with full per-flow ECMP over the `(k/2)²`
/// equal-cost core paths between hosts in different pods. `fat_tree(4)`
/// is the 16-host smoke fabric; `fat_tree(16)` is the 1024-host
/// hyperscale fabric.
///
/// Index layout (all dense, pods outermost):
///
/// * host `h`: pod `h / (k²/4)`, edge `(h % (k²/4)) / (k/2)` within the
///   pod, edge port `h % (k/2)`,
/// * switch `p·(k/2)+i` = edge `i` of pod `p`; switch `k²/2 + p·(k/2)+j`
///   = aggregation `j` of pod `p`; switch `k² + j·(k/2)+c` = core
///   `(j, c)` — reachable from aggregation `j` of every pod,
/// * edge ports `0..k/2` face hosts, `k/2..k` face aggregations `0..k/2`;
///   aggregation ports `0..k/2` face edges `0..k/2`, `k/2..k` face cores
///   `(j, 0..k/2)`; core `(j, c)` port `p` faces pod `p`.
///
/// Every link runs at `rate_bps` — a non-blocking (1:1 oversubscription)
/// Clos, like the paper's leaf–spine.
///
/// # Panics
///
/// Panics unless `k` is even and at least 4.
pub fn fat_tree(
    k: usize,
    rate_bps: u64,
    delay_nanos: u64,
    switch_cfg: &SwitchConfig,
    host_cfg: &HostConfig,
    transport: TransportConfig,
) -> World {
    assert!(
        k >= 4 && k.is_multiple_of(2),
        "fat-tree k must be even and >= 4, got {k}"
    );
    let half = k / 2;
    let hosts_per_pod = half * half;
    let num_hosts = k * hosts_per_pod;
    let mut w = World::new(transport);
    for _ in 0..num_hosts {
        w.add_host(host_cfg.clone());
    }
    // Switch index ranges (see the layout above).
    let edge = |p: usize, i: usize| p * half + i;
    let agg = |p: usize, j: usize| k * half + p * half + j;
    let core = |j: usize, c: usize| k * k + j * half + c;
    for _ in 0..(k * half * 2 + half * half) {
        w.add_switch();
    }
    // Host downlinks first, so edge ports 0..k/2 are host-facing.
    for h in 0..num_hosts {
        let p = h / hosts_per_pod;
        let i = (h % hosts_per_pod) / half;
        w.wire_host(h, edge(p, i), rate_bps, delay_nanos, switch_cfg);
    }
    // Pod meshes: edge i port k/2+j <-> aggregation j port i.
    for p in 0..k {
        for i in 0..half {
            for j in 0..half {
                w.wire_switch_pair(edge(p, i), agg(p, j), rate_bps, delay_nanos, switch_cfg);
            }
        }
    }
    // Core uplinks: aggregation j port k/2+c <-> core (j, c) port p.
    for p in 0..k {
        for j in 0..half {
            for c in 0..half {
                w.wire_switch_pair(agg(p, j), core(j, c), rate_bps, delay_nanos, switch_cfg);
            }
        }
    }
    // Routes: downward paths are unique, upward paths fan out over every
    // uplink (per-flow ECMP picks one deterministically by flow id).
    // Uplinks are ports `k/2..k` on edges and aggregations alike.
    let uplinks = half..k;
    for dst in 0..num_hosts {
        let dp = dst / hosts_per_pod;
        let di = (dst % hosts_per_pod) / half;
        for p in 0..k {
            for i in 0..half {
                let e = edge(p, i);
                if p == dp && i == di {
                    let down = dst % half;
                    w.set_route(e, dst, down..down + 1);
                } else {
                    w.set_route(e, dst, uplinks.clone());
                }
            }
            for j in 0..half {
                let a = agg(p, j);
                if p == dp {
                    w.set_route(a, dst, di..di + 1);
                } else {
                    w.set_route(a, dst, uplinks.clone());
                }
            }
        }
        for j in 0..half {
            for c in 0..half {
                w.set_route(core(j, c), dst, dp..dp + 1);
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MarkingConfig, SchedulerConfig};
    use crate::world::FlowDesc;

    fn cfg() -> SwitchConfig {
        SwitchConfig {
            scheduler: SchedulerConfig::Dwrr {
                weights: vec![1; 8],
            },
            marking: MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            ..SwitchConfig::default()
        }
    }

    #[test]
    fn dumbbell_delivers_between_any_pair() {
        let mut w = dumbbell(
            3,
            10_000_000_000,
            5_000,
            &cfg(),
            &HostConfig::default(),
            TransportConfig::default(),
        );
        // Senders to receiver and sender-to-sender both route.
        w.add_flow(FlowDesc::bulk(0, 3, 0, 50_000));
        w.add_flow(FlowDesc::bulk(1, 3, 1, 50_000));
        w.add_flow(FlowDesc::bulk(2, 0, 2, 50_000));
        let res = w.run_until_nanos(50_000_000);
        assert_eq!(res.fct.len(), 3);
    }

    #[test]
    fn leaf_spine_intra_and_inter_rack() {
        let mut w = leaf_spine(
            2,
            2,
            3,
            10_000_000_000,
            5_000,
            &cfg(),
            &HostConfig::default(),
            TransportConfig::default(),
        );
        // Intra-rack: hosts 0 -> 2 (same leaf). Inter-rack: 0 -> 5.
        w.add_flow(FlowDesc::bulk(0, 2, 0, 100_000));
        w.add_flow(FlowDesc::bulk(0, 5, 1, 100_000));
        w.add_flow(FlowDesc::bulk(4, 1, 2, 100_000));
        let res = w.run_until_nanos(100_000_000);
        assert_eq!(res.fct.len(), 3, "all flows complete across the fabric");
        assert_eq!(res.drops, 0);
    }

    #[test]
    fn paper_topology_shape_48_hosts() {
        let mut w = leaf_spine(
            4,
            4,
            12,
            10_000_000_000,
            5_000,
            &cfg(),
            &HostConfig::default(),
            TransportConfig::default(),
        );
        // A far corner-to-corner flow works: host 0 (leaf 0) -> host 47
        // (leaf 3).
        w.add_flow(FlowDesc::bulk(0, 47, 7, 1_000_000));
        let res = w.run_until_nanos(100_000_000);
        assert_eq!(res.fct.len(), 1);
    }

    #[test]
    fn fat_tree_smoke_all_tiers_route() {
        let mut w = fat_tree(
            4,
            10_000_000_000,
            5_000,
            &cfg(),
            &HostConfig::default(),
            TransportConfig::default(),
        );
        // Same edge, same pod different edge, different pods.
        w.add_flow(FlowDesc::bulk(0, 1, 0, 100_000));
        w.add_flow(FlowDesc::bulk(0, 3, 1, 100_000));
        w.add_flow(FlowDesc::bulk(0, 15, 2, 100_000));
        w.add_flow(FlowDesc::bulk(14, 2, 3, 100_000));
        let res = w.run_until_nanos(100_000_000);
        assert_eq!(res.fct.len(), 4, "all tiers deliver");
        assert_eq!(res.drops, 0);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fat_tree_rejects_odd_k() {
        fat_tree(
            5,
            10_000_000_000,
            5_000,
            &cfg(),
            &HostConfig::default(),
            TransportConfig::default(),
        );
    }

    #[test]
    fn inter_rack_rtt_exceeds_intra_rack() {
        // The spine detour adds two links each way.
        let run = |src: usize, dst: usize| {
            let mut w = leaf_spine(
                2,
                1,
                2,
                10_000_000_000,
                5_000,
                &cfg(),
                &HostConfig::default(),
                TransportConfig::default(),
            );
            w.add_flow(FlowDesc::bulk(src, dst, 0, 1_000));
            let res = w.run_until_nanos(10_000_000);
            res.fct.records()[0].fct_nanos()
        };
        let intra = run(0, 1);
        let inter = run(0, 3);
        assert!(
            inter > intra + 15_000,
            "inter-rack {inter} vs intra-rack {intra}"
        );
    }
}
