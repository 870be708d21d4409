//! Switch-graph partitioning for sharded parallel runs (DESIGN.md §8).
//!
//! A parallel run assigns every switch (and the hosts attached to it) to
//! one logical process. The assignment never changes the results — the
//! conservative protocol is byte-identical for any disjoint+complete
//! owner array — but it decides the wall clock: unbalanced partitions
//! leave workers idling at the barrier, and heavily-cut partitions pay
//! for every packet crossing an LP boundary.
//!
//! The partitioner grows balanced partitions greedily over the switch
//! graph, weighted by the workload's expected traffic: the experiment's
//! flows (static list or a deterministic sample of the streaming
//! pattern) are walked along their ECMP routes, the two endpoint
//! switches accumulate node weight and every switch-to-switch hop
//! accumulates edge weight. Partitions grow to a balanced share of the
//! total node weight while preferring the unassigned switch most
//! connected to the partition so far — balancing LP load and keeping
//! heavy links internal. With no flows attached the weights fall back
//! to topology degree (node = port count, edge = 1), which still beats
//! index ranges on fabrics whose tiers interleave in the index space.
//!
//! The partition is a pure function of the experiment, so the owner
//! array — like everything downstream of it — is deterministic.

use crate::experiment::Experiment;
use crate::world::{NodeRef, World};

/// Flows sampled from a workload when estimating per-link traffic; keeps
/// partition planning O(sample · path) even for million-flow streams.
const SAMPLE_FLOWS: u64 = 4096;

/// Routing-walk guard: no sane fabric routes a flow through more hops.
const MAX_HOPS: usize = 64;

/// Long-lived flows report `u64::MAX` bytes; weigh them as a large but
/// finite transfer so one immortal flow cannot erase every other signal.
const LONG_LIVED_WEIGHT_BYTES: u64 = 100_000_000;

/// The switch-graph weights the traffic partitioner balances:
/// `node[s]` is the bytes sourced or sunk by hosts attached to switch
/// `s`, `adj[s]` the neighboring switches with the bytes expected to
/// transit each link. Nodes carry endpoint traffic only — counting
/// transit bytes on nodes would let a hub switch (a spine crossed by
/// every pair) swallow a partition's whole quota by itself, even though
/// hubs are exactly the switches that should ride along with whichever
/// endpoint group absorbs them.
struct SwitchGraph {
    node: Vec<u64>,
    adj: Vec<Vec<(usize, u64)>>,
}

impl SwitchGraph {
    fn add_edge_weight(&mut self, s: usize, t: usize, w: u64) {
        match self.adj[s].iter_mut().find(|(peer, _)| *peer == t) {
            Some((_, acc)) => *acc += w,
            None => self.adj[s].push((t, w)),
        }
    }
}

/// Builds the weighted switch graph for `exp`'s workload on `world`.
///
/// Every flow in the sample is walked along its ECMP route; its byte
/// count lands on the two endpoint switches and on each traversed
/// switch-to-switch hop (both directions — data and its reverse ACK
/// stream cross the same links). When the experiment carries no flows
/// at all, weights fall back to topology degree.
fn traffic_graph(world: &World, exp: &Experiment) -> SwitchGraph {
    let n = world.num_switches();
    let mut g = SwitchGraph {
        node: vec![0; n],
        adj: vec![Vec::new(); n],
    };
    // The link skeleton first (weight 0): keeps the adjacency complete
    // even where the sample routes no traffic, which the degree
    // fallback and the growth step both rely on.
    for s in 0..n {
        for p in 0..world.num_ports(s) {
            if let NodeRef::Switch(t) = world.port_peer(s, p) {
                g.add_edge_weight(s, t, 0);
            }
        }
    }
    let mut route = |src: usize, dst: usize, bytes: u64, flow_id: u64| {
        if src == dst {
            return;
        }
        let bytes = bytes.clamp(1, LONG_LIVED_WEIGHT_BYTES);
        let mut sw = world.host_switch(src);
        g.node[sw] += bytes;
        g.node[world.host_switch(dst)] += bytes;
        for _ in 0..MAX_HOPS {
            match world.port_peer(sw, world.route_port_for(sw, dst, flow_id)) {
                NodeRef::Host(_) => break,
                NodeRef::Switch(t) => {
                    g.add_edge_weight(sw, t, bytes);
                    g.add_edge_weight(t, sw, bytes);
                    sw = t;
                }
            }
        }
    };
    for (id, f) in exp.flows.iter().take(SAMPLE_FLOWS as usize).enumerate() {
        route(f.src_host, f.dst_host, f.size_bytes, id as u64);
    }
    if let Some(sp) = &exp.stream {
        let sample = sp.total_flows.min(SAMPLE_FLOWS);
        for f in sp.pattern.flows(world.num_hosts(), sp.seed, sample) {
            route(f.src_host, f.dst_host, f.size_bytes, f.flow_id);
        }
    }
    if g.node.iter().all(|&w| w == 0) {
        // No workload attached: weight by degree so dense tiers (cores,
        // spines) spread across LPs instead of pooling in one range.
        for s in 0..n {
            g.node[s] = world.num_ports(s) as u64;
            for e in &mut g.adj[s] {
                e.1 = 1;
            }
        }
    }
    // A floor of one keeps zero-traffic switches countable, so balance
    // still distributes them instead of dumping them all on one LP.
    for w in &mut g.node {
        *w += 1;
    }
    g
}

/// Greedy balanced growth: each partition seeds at the heaviest
/// unassigned switch, then repeatedly absorbs the unassigned switch
/// with the strongest edge connection to it (ties: heavier node, lower
/// index) until it reaches a balanced share of the remaining node
/// weight. A candidate that would overshoot the share by more than it
/// undershoots is declined, so every partition lands within one switch
/// weight of its target; the last partition takes the remainder, and a
/// count guard keeps every partition nonempty.
pub(crate) fn traffic_partition(world: &World, exp: &Experiment, k: usize) -> Vec<u32> {
    /// Assigns `s` to `lp` and folds its edges into the frontier
    /// connectivity of the partition currently growing.
    fn absorb(
        s: usize,
        lp: u32,
        g: &SwitchGraph,
        owner: &mut [u32],
        conn: &mut [u64],
        unassigned: &mut usize,
        grown: &mut u64,
    ) {
        owner[s] = lp;
        *unassigned -= 1;
        *grown += g.node[s];
        conn[s] = 0;
        for &(t, w) in &g.adj[s] {
            if owner[t] == u32::MAX {
                // Even a zero-traffic link counts as adjacency, so the
                // partition keeps growing along the topology when the
                // sampled traffic runs out of frontier links.
                conn[t] += w.max(1);
            }
        }
    }

    let g = traffic_graph(world, exp);
    let n = g.node.len();
    debug_assert!(k >= 1 && n >= k, "threads are clamped to the switch count");
    let mut owner = vec![u32::MAX; n];
    let mut unassigned = n;
    let mut remaining_weight: u64 = g.node.iter().sum();
    // conn[s] = total edge weight from unassigned switch s into the
    // partition currently growing.
    let mut conn = vec![0u64; n];
    for lp in 0..k as u32 {
        let parts_left = k as u32 - lp;
        if parts_left == 1 {
            for o in owner.iter_mut().filter(|o| **o == u32::MAX) {
                *o = lp;
            }
            break;
        }
        let target = remaining_weight / parts_left as u64;
        let seed = (0..n)
            .filter(|&s| owner[s] == u32::MAX)
            .max_by_key(|&s| (g.node[s], std::cmp::Reverse(s)))
            .expect("count guard keeps switches available");
        let mut grown = 0u64;
        absorb(
            seed,
            lp,
            &g,
            &mut owner,
            &mut conn,
            &mut unassigned,
            &mut grown,
        );
        while grown < target && unassigned > (parts_left - 1) as usize {
            let next = (0..n)
                .filter(|&s| owner[s] == u32::MAX)
                .max_by_key(|&s| (conn[s], g.node[s], std::cmp::Reverse(s)))
                .expect("count guard keeps switches available");
            let overshoot = (grown + g.node[next]).saturating_sub(target);
            if overshoot > target - grown {
                break;
            }
            absorb(
                next,
                lp,
                &g,
                &mut owner,
                &mut conn,
                &mut unassigned,
                &mut grown,
            );
        }
        remaining_weight -= grown;
        conn.fill(0);
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, FlowDesc};
    use pmsb_simcore::rng::SimRng;

    /// A randomized leaf-spine experiment with `flows` bulk flows drawn
    /// from `rng` (deterministic per seed).
    fn random_experiment(rng: &mut SimRng, flows: usize) -> Experiment {
        let leaves = 2 + (rng.next_u64() % 7) as usize; // 2..=8
        let spines = 1 + (rng.next_u64() % 4) as usize; // 1..=4
        let hosts_per_leaf = 2 + (rng.next_u64() % 3) as usize; // 2..=4
        let num_hosts = leaves * hosts_per_leaf;
        let mut e = Experiment::leaf_spine(leaves, spines, hosts_per_leaf);
        for _ in 0..flows {
            let src = (rng.next_u64() % num_hosts as u64) as usize;
            let mut dst = (rng.next_u64() % num_hosts as u64) as usize;
            if dst == src {
                dst = (dst + 1) % num_hosts;
            }
            let bytes = 1_000 + rng.next_u64() % 1_000_000;
            e.add_flow(FlowDesc::bulk(src, dst, 0, bytes));
        }
        e
    }

    /// Property suite over random fabrics and workloads: ownership is
    /// disjoint and complete, every LP is nonempty, the assignment is
    /// deterministic for a fixed seed, and the per-LP node weight stays
    /// within one switch weight of the balanced share.
    #[test]
    fn traffic_partition_properties() {
        let mut rng = SimRng::seed_from(7);
        for trial in 0..24 {
            let flows = (trial % 5) * 12; // includes the zero-flow fallback
            let exp = random_experiment(&mut rng, flows);
            let world = exp.build_world();
            let n = world.num_switches();
            for k in [1, 2, 3, 4] {
                if k > n {
                    continue;
                }
                let owner = traffic_partition(&world, &exp, k);
                // Complete: every switch owned by a real LP.
                assert_eq!(owner.len(), n);
                assert!(
                    owner.iter().all(|&o| (o as usize) < k),
                    "trial {trial} k {k}"
                );
                // Nonempty: every LP owns at least one switch (disjoint
                // is implied: one owner entry per switch).
                for lp in 0..k as u32 {
                    assert!(
                        owner.contains(&lp),
                        "trial {trial}: LP {lp}/{k} owns nothing: {owner:?}"
                    );
                }
                // Deterministic: same experiment, same partition.
                assert_eq!(owner, traffic_partition(&world, &exp, k));
                // Balanced within one switch weight of the ideal share.
                let g = traffic_graph(&world, &exp);
                let total: u64 = g.node.iter().sum();
                let max_node = *g.node.iter().max().expect("nonempty fabric");
                let share = total / k as u64;
                for lp in 0..k as u32 {
                    let w: u64 = (0..n).filter(|&s| owner[s] == lp).map(|s| g.node[s]).sum();
                    assert!(
                        w <= share + max_node && w + max_node >= share,
                        "trial {trial} k {k} lp {lp}: weight {w} vs share {share} \
                         (max switch {max_node}): {owner:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn traffic_partition_keeps_heavy_pairs_together() {
        // All traffic flows inside leaf 0 <-> leaf 1 (via the single
        // spine) and inside leaf 2 <-> leaf 3; a 2-way traffic split
        // must not pair a busy leaf with an idle one.
        let mut e = Experiment::leaf_spine(4, 1, 2);
        // Hosts 0..=1 on leaf 0, 2..=3 on leaf 1, etc.
        for _ in 0..8 {
            e.add_flow(FlowDesc::bulk(0, 3, 0, 1_000_000));
            e.add_flow(FlowDesc::bulk(4, 7, 0, 1_000_000));
        }
        let world = e.build_world();
        let owner = traffic_partition(&world, &e, 2);
        // Switches: leaves 0..=3, spine 4. The two busy pairs must land
        // on different LPs (both include the spine's LP somewhere).
        assert_eq!(owner[0], owner[1], "busy pair 0-1 split: {owner:?}");
        assert_eq!(owner[2], owner[3], "busy pair 2-3 split: {owner:?}");
        assert_ne!(
            owner[0], owner[2],
            "independent pairs share an LP: {owner:?}"
        );
    }
}
