//! Static routing with per-flow ECMP.

use std::ops::Range;

/// One destination's candidate ports, `first..first + count`; a zero
/// `count` means no route.
#[derive(Debug, Clone, Copy, Default)]
struct PortRange {
    first: u32,
    count: u32,
}

impl PortRange {
    fn ports(self) -> Range<usize> {
        let first = self.first as usize;
        first..first + self.count as usize
    }
}

/// A switch's forwarding table: for each destination host, the candidate
/// output ports as one contiguous range, 8 bytes per destination and no
/// allocation per route. Multiple candidates (leaf uplinks) are
/// load-balanced by per-flow ECMP hashing, so one flow always takes one
/// path (no packet reordering from the fabric).
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    /// `routes[dst_host]` = candidate output ports.
    routes: Vec<PortRange>,
}

impl RouteTable {
    /// Creates a table covering `num_hosts` destinations with no routes.
    pub fn new(num_hosts: usize) -> Self {
        RouteTable {
            routes: vec![PortRange::default(); num_hosts],
        }
    }

    /// Sets the candidate ports for `dst_host`, growing the table as
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty or ends past port `u32::MAX`.
    pub fn set(&mut self, dst_host: usize, ports: Range<usize>) {
        assert!(!ports.is_empty(), "a route needs at least one port");
        let end = u32::try_from(ports.end).expect("port indices fit in u32");
        if dst_host >= self.routes.len() {
            self.routes.resize(dst_host + 1, PortRange::default());
        }
        self.routes[dst_host] = PortRange {
            first: ports.start as u32,
            count: end - ports.start as u32,
        };
    }

    /// The candidate ports for `dst_host`.
    ///
    /// # Panics
    ///
    /// Panics if no route to `dst_host` exists.
    fn route(&self, dst_host: usize, flow_id: u64) -> Range<usize> {
        let ports = self.candidates(dst_host);
        assert!(
            !ports.is_empty(),
            "no route to host {dst_host} (flow {flow_id})"
        );
        ports
    }

    /// The output port for `flow_id` towards `dst_host` (ECMP over the
    /// candidates).
    ///
    /// # Panics
    ///
    /// Panics if no route to `dst_host` exists.
    pub fn port_for(&self, dst_host: usize, flow_id: u64) -> usize {
        let ports = self.route(dst_host, flow_id);
        ports.start + ecmp_hash(flow_id) as usize % ports.len()
    }

    /// The candidate ports for `dst_host`, empty when there is no route
    /// (for tests/diagnostics).
    pub fn candidates(&self, dst_host: usize) -> Range<usize> {
        self.routes.get(dst_host).map_or(0..0, |&r| r.ports())
    }

    /// The output port for `flow_id` towards `dst_host`, skipping
    /// candidates for which `is_up` is false (dead links during fault
    /// injection). `None` when every candidate is down.
    ///
    /// The selection re-hashes deterministically over the surviving
    /// candidates in port order: two runs with the same topology, flow
    /// ids, and fault schedule pick identical paths. With every
    /// candidate up the choice equals [`RouteTable::port_for`], so ECMP
    /// re-converges to the original paths when a link recovers.
    ///
    /// # Panics
    ///
    /// Panics if no route to `dst_host` exists.
    pub fn port_for_masked(
        &self,
        dst_host: usize,
        flow_id: u64,
        is_up: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let ports = self.route(dst_host, flow_id);
        let live = ports.clone().filter(|&p| is_up(p)).count();
        if live == 0 {
            return None;
        }
        let k = ecmp_hash(flow_id) as usize % live;
        ports.filter(|&p| is_up(p)).nth(k)
    }
}

/// Deterministic per-flow hash (SplitMix64 finalizer) used for ECMP path
/// selection: uniform across flows, stable across packets of one flow.
pub fn ecmp_hash(flow_id: u64) -> u64 {
    let mut z = flow_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmsb_simcore::rng::SimRng;

    #[test]
    fn single_route_always_used() {
        let mut t = RouteTable::new(4);
        t.set(2, 7..8);
        for flow in 0..100 {
            assert_eq!(t.port_for(2, flow), 7);
        }
    }

    /// A range picks the port a list of the same ports in order picked,
    /// the one at `ecmp_hash(flow) % count`, so every path stays put.
    #[test]
    fn a_range_picks_the_listed_port_at_the_hash() {
        let mut t = RouteTable::new(1);
        t.set(0, 2..6);
        let listed = [2, 3, 4, 5];
        for flow in 0..1000 {
            let expected = listed[ecmp_hash(flow) as usize % listed.len()];
            assert_eq!(t.port_for(0, flow), expected);
        }
    }

    /// One route is one 8-byte entry with no allocation of its own; a
    /// destination without a route has no candidates.
    #[test]
    fn a_route_is_one_eight_byte_range() {
        assert!(std::mem::size_of::<PortRange>() <= 8);
        let mut t = RouteTable::new(2);
        t.set(0, 4..8);
        assert_eq!(t.candidates(0), 4..8);
        assert!(t.candidates(1).is_empty());
        assert!(t.candidates(9).is_empty());
    }

    #[test]
    fn ecmp_spreads_flows_roughly_evenly() {
        let mut t = RouteTable::new(1);
        t.set(0, 0..4);
        let mut counts = [0usize; 4];
        for flow in 0..4000 {
            counts[t.port_for(0, flow)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "uneven ECMP spread: {counts:?}");
        }
    }

    #[test]
    fn same_flow_same_path() {
        let mut t = RouteTable::new(1);
        t.set(0, 0..4);
        for flow in 0..50 {
            let first = t.port_for(0, flow);
            for _ in 0..10 {
                assert_eq!(t.port_for(0, flow), first);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        RouteTable::new(2).port_for(1, 0);
    }

    /// The hash is deterministic for any flow id.
    #[test]
    fn hash_deterministic() {
        let mut rng = SimRng::seed_from(0xec);
        for _ in 0..128 {
            let flow = rng.next_u64();
            assert_eq!(ecmp_hash(flow), ecmp_hash(flow));
        }
    }

    /// Two tables built from the same topology make identical choices
    /// for every flow: path selection depends only on (table, flow id).
    #[test]
    fn identical_tables_pick_identical_paths() {
        let build = || {
            let mut t = RouteTable::new(8);
            for dst in 0..8 {
                t.set(dst, 4..8);
            }
            t
        };
        let (a, b) = (build(), build());
        let mut rng = SimRng::seed_from(0x31);
        for _ in 0..512 {
            let flow = rng.next_u64();
            let dst = rng.below(8);
            assert_eq!(a.port_for(dst, flow), b.port_for(dst, flow));
        }
    }

    /// With every candidate up, the masked selection equals the
    /// unmasked one — fault-free runs are unperturbed.
    #[test]
    fn masked_selection_matches_unmasked_when_all_up() {
        let mut t = RouteTable::new(1);
        t.set(0, 2..6);
        for flow in 0..1000 {
            assert_eq!(
                t.port_for_masked(0, flow, |_| true),
                Some(t.port_for(0, flow))
            );
        }
    }

    /// Re-selection around a dead link is deterministic, never picks the
    /// dead port, and re-converges to the original path on recovery.
    #[test]
    fn rehash_avoids_dead_link_and_reconverges() {
        let mut t = RouteTable::new(1);
        t.set(0, 2..6);
        let dead = 4usize;
        let mut moved = 0;
        for flow in 0..1000u64 {
            let before = t.port_for(0, flow);
            let during = t
                .port_for_masked(0, flow, |p| p != dead)
                .expect("three candidates still live");
            assert_ne!(during, dead, "flow {flow} routed onto the dead link");
            let replay = t.port_for_masked(0, flow, |p| p != dead).unwrap();
            assert_eq!(during, replay, "re-selection must be deterministic");
            if before != dead {
                // Unaffected flows may still re-hash, but whatever they
                // pick must be stable; affected flows must move.
            } else {
                moved += 1;
            }
            let after = t.port_for_masked(0, flow, |_| true).unwrap();
            assert_eq!(after, before, "recovery restores the original path");
        }
        assert!(
            moved > 150,
            "about a quarter of flows crossed the dead link"
        );
    }

    /// All candidates dead: no route, never a panic mid-run.
    #[test]
    fn fully_dead_candidate_set_yields_none() {
        let mut t = RouteTable::new(1);
        t.set(0, 1..3);
        assert_eq!(t.port_for_masked(0, 7, |_| false), None);
    }
}
