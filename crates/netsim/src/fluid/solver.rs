//! Deterministic integer max-min bandwidth sharing (water-filling).
//!
//! Each solve distributes every directed link's capacity over the active
//! flows crossing it: repeatedly find the link with the smallest fair
//! share (remaining capacity / unfrozen flows, ties broken towards the
//! lowest link id), freeze its flows at that share, subtract, repeat.
//! All arithmetic is integer (bits/second), and the iteration order is
//! fixed, so the resulting rate vector is byte-stable across runs and
//! platforms.
//!
//! The bottleneck search is a lazy min-heap rather than a per-round
//! rescan. Each entry is one `u128`, `(share << 32) | link`, so entries
//! pop by share and then by link id, and the heap holds at most one
//! entry per link: every touched link is pushed once, and a pop
//! re-pushes only the link it removed. Freezing a bottleneck's flows
//! can only *raise* the fair share of every other link (the frozen rate
//! is the global minimum), so an entry's share is a lower bound of its
//! link's live share `max(1, cap / nflows)`. Popping the minimum either
//! finds the two equal — the link is the true global minimum — or the
//! entry stale, in which case the link is re-pushed under its live
//! share and the pop retries. This turns the O(rounds × links) scan
//! (the measured hot spot at fabric scale: ~30 rounds over ~2k touched
//! links per solve) into O(links log links) plus one re-push per
//! staleness event.
//!
//! Application rate caps are modelled as one virtual single-flow link
//! per flow capped below the line rate, appended after the real link id
//! space; the uniform algorithm then handles caps with no special cases.
//! A cap at or above the line rate constrains nothing, so it gets no
//! link. Virtual links are excluded from the returned saturated set (a
//! flow pinned at its own application cap is not congested).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-solve view of one flow: which links it crosses and, on output,
/// the max-min rate it was frozen at.
#[derive(Debug)]
pub(super) struct SolverFlow {
    /// Real link ids the flow's data path crosses.
    pub(super) path: Vec<u32>,
    /// Application rate cap in bits/second (`u64::MAX` = uncapped).
    pub(super) cap_bps: u64,
    /// Output: allocated rate in bits/second (always ≥ 1).
    pub(super) rate_bps: u64,
}

/// Reusable water-filling state, sized to the link id space once and
/// reset sparsely (only touched links) between solves.
pub(super) struct Solver {
    num_real_links: usize,
    /// Remaining capacity per link, bits/second.
    cap: Vec<u64>,
    /// Unfrozen flows currently crossing each link.
    nflows: Vec<u32>,
    /// Per-link flow membership in CSR form, rebuilt per solve:
    /// `members[offset[l]..offset[l] + count(l)]` are the flow indices
    /// crossing link `l`. Contiguous storage keeps the rebuild two
    /// streaming passes instead of thousands of scattered `Vec` pushes.
    offset: Vec<u32>,
    count: Vec<u32>,
    members: Vec<u32>,
    /// Links touched by the current solve, for sparse reset.
    touched: Vec<u32>,
    /// Flow index → its virtual cap link (`usize::MAX` = uncapped),
    /// rebuilt per solve.
    virtual_of: Vec<usize>,
    /// Bottleneck candidates keyed `(share << 32) | link` (see the
    /// module doc). Its buffer is reused across solves.
    heap: BinaryHeap<Reverse<u128>>,
}

/// A heap key: pops by fair share, then by link id.
fn key(share: u64, link: u32) -> Reverse<u128> {
    Reverse(u128::from(share) << 32 | u128::from(link))
}

impl Solver {
    /// `num_real_links` directed links, shared by flows of up to
    /// `max_concurrent` — virtual cap links grow the arrays on demand.
    pub(super) fn new(num_real_links: usize) -> Self {
        Solver {
            num_real_links,
            cap: vec![0; num_real_links],
            nflows: vec![0; num_real_links],
            offset: vec![0; num_real_links],
            count: vec![0; num_real_links],
            members: Vec::new(),
            touched: Vec::new(),
            virtual_of: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Computes the max-min allocation for `flows`, writing each flow's
    /// `rate_bps`. Returns the saturated **real** links in freeze order
    /// (each appears once).
    pub(super) fn solve(&mut self, flows: &mut [SolverFlow], link_rate_bps: u64) -> Vec<u32> {
        // Sparse reset of the previous solve's state.
        for &l in &self.touched {
            self.nflows[l as usize] = 0;
        }
        self.touched.clear();

        // Pass 1: count flows per link. Virtual links for application
        // caps below the line rate live past the real id space.
        let mut next_virtual = self.num_real_links;
        let virtual_of = &mut self.virtual_of;
        virtual_of.clear();
        virtual_of.resize(flows.len(), usize::MAX);
        for (i, f) in flows.iter_mut().enumerate() {
            f.rate_bps = 0; // 0 = unfrozen sentinel
            for &l in &f.path {
                let l = l as usize;
                if self.nflows[l] == 0 {
                    self.cap[l] = link_rate_bps;
                    self.touched.push(l as u32);
                }
                self.nflows[l] += 1;
            }
            if f.cap_bps < link_rate_bps {
                if next_virtual == self.cap.len() {
                    self.cap.push(0);
                    self.nflows.push(0);
                    self.offset.push(0);
                    self.count.push(0);
                }
                let v = next_virtual;
                next_virtual += 1;
                self.cap[v] = f.cap_bps.max(1);
                self.nflows[v] = 1;
                self.touched.push(v as u32);
                virtual_of[i] = v;
            }
        }

        // CSR offsets, then pass 2 fills the membership slices. After
        // the fill, `offset[l]` is the END of l's slice and `count[l]`
        // its (pristine) length — `nflows` decays during freezing.
        let mut total = 0u32;
        for &lt in &self.touched {
            let l = lt as usize;
            self.offset[l] = total;
            self.count[l] = self.nflows[l];
            total += self.nflows[l];
        }
        self.members.clear();
        self.members.resize(total as usize, 0);
        for (i, f) in flows.iter().enumerate() {
            for &l in &f.path {
                let l = l as usize;
                self.members[self.offset[l] as usize] = i as u32;
                self.offset[l] += 1;
            }
            let v = virtual_of[i];
            if v != usize::MAX {
                self.members[self.offset[v] as usize] = i as u32;
                self.offset[v] += 1;
            }
        }

        // Only links that can constrain anything enter the heap: shared
        // links, and capped (virtual) links. A link carrying one flow at
        // full line rate has the maximum possible fair share — it can
        // only freeze last, at line rate, which the leftover pass below
        // reproduces exactly for uniform link capacity.
        let mut saturated = Vec::new();
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        for &lt in &self.touched {
            let l = lt as usize;
            if self.nflows[l] > 1 || self.cap[l] != link_rate_bps {
                entries.push(key(self.share(l), lt));
            }
        }
        let mut heap = BinaryHeap::from(entries);
        while let Some(Reverse(entry)) = heap.pop() {
            let lt = entry as u32;
            let l = lt as usize;
            if self.nflows[l] == 0 {
                continue; // fully frozen since the entry was pushed
            }
            let share = self.share(l);
            if share != (entry >> 32) as u64 {
                // Stale lower bound: freezing other bottlenecks raised
                // this link's share. Re-push at its live level.
                heap.push(key(share, lt));
                continue;
            }
            // Current and minimal (every other entry is a lower bound of
            // its link's live share): this is the bottleneck. Freeze
            // every unfrozen flow crossing it.
            let end = self.offset[l] as usize;
            let start = end - self.count[l] as usize;
            for m in start..end {
                let fi = self.members[m];
                let f = &mut flows[fi as usize];
                if f.rate_bps != 0 {
                    continue;
                }
                f.rate_bps = share;
                for &pl in &f.path {
                    let pl = pl as usize;
                    self.nflows[pl] -= 1;
                    self.cap[pl] = self.cap[pl].saturating_sub(share);
                }
                let v = self.virtual_of[fi as usize];
                if v != usize::MAX {
                    // Its virtual cap link too.
                    self.nflows[v] -= 1;
                    self.cap[v] = self.cap[v].saturating_sub(share);
                }
            }
            if l < self.num_real_links {
                saturated.push(lt);
            }
        }
        self.heap = heap;

        // Leftover flows cross only links they have to themselves (any
        // shared or capped link would have frozen them above), so each
        // runs at the smallest remaining capacity on its path; its
        // lowest-capacity link — lowest id on ties — saturates.
        let mut leftovers: Vec<u32> = Vec::new();
        for f in flows.iter_mut() {
            if f.rate_bps != 0 {
                continue;
            }
            let mut rate = u64::MAX;
            let mut sat_l = u32::MAX;
            for &l in &f.path {
                let c = self.cap[l as usize];
                if c < rate || (c == rate && l < sat_l) {
                    rate = c;
                    sat_l = l;
                }
            }
            f.rate_bps = rate.max(1);
            if sat_l != u32::MAX {
                leftovers.push(sat_l);
            }
        }
        leftovers.sort_unstable();
        saturated.extend(leftovers);
        saturated
    }

    /// Link `l`'s live fair share (`l` carries unfrozen flows).
    fn share(&self, l: usize) -> u64 {
        (self.cap[l] / u64::from(self.nflows[l])).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(path: &[u32]) -> SolverFlow {
        SolverFlow {
            path: path.to_vec(),
            cap_bps: u64::MAX,
            rate_bps: 0,
        }
    }

    #[test]
    fn single_bottleneck_splits_evenly() {
        let mut s = Solver::new(4);
        let mut flows = vec![flow(&[0, 3]), flow(&[1, 3]), flow(&[2, 3])];
        let sat = s.solve(&mut flows, 9_000_000_000);
        assert_eq!(sat, vec![3]);
        for f in &flows {
            assert_eq!(f.rate_bps, 3_000_000_000);
        }
    }

    #[test]
    fn max_min_fills_the_unconstrained_flow() {
        // A and B share link 0; B and C are pinned at 2 Gb/s by
        // application caps, so max-min must hand A the remaining 8 Gb/s.
        let mut s = Solver::new(2);
        let mut flows = vec![flow(&[0]), flow(&[0, 1]), flow(&[1])];
        flows[1].cap_bps = 2_000_000_000;
        flows[2].cap_bps = 2_000_000_000;
        let sat = s.solve(&mut flows, 10_000_000_000);
        assert_eq!(flows[1].rate_bps, 2_000_000_000);
        assert_eq!(flows[2].rate_bps, 2_000_000_000);
        assert_eq!(flows[0].rate_bps, 8_000_000_000);
        assert_eq!(sat, vec![0], "link 0 is the only saturated real link");
    }

    #[test]
    fn deterministic_across_identical_solves() {
        let mut paths = Vec::new();
        for i in 0..64u32 {
            paths.push(vec![i % 8, 8 + (i % 4), 12]);
        }
        let run = || {
            let mut s = Solver::new(16);
            let mut flows: Vec<SolverFlow> = paths.iter().map(|p| flow(p)).collect();
            let sat = s.solve(&mut flows, 10_000_000_000);
            (sat, flows.iter().map(|f| f.rate_bps).collect::<Vec<_>>())
        };
        assert_eq!(run(), run());
    }

    /// Water-filling by full rescan, the definition the heap solver
    /// must reproduce: each round takes the link with the smallest live
    /// share (lowest id on ties; flow `i`'s cap is a virtual link after
    /// the real ones) and freezes its unfrozen flows at that share.
    /// Returns the rates and the saturated real links.
    fn rescan(flows: &[SolverFlow], num_links: usize, link_rate_bps: u64) -> (Vec<u64>, Vec<u32>) {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_links];
        let mut cap = vec![link_rate_bps; num_links];
        let mut virtual_of = vec![usize::MAX; flows.len()];
        for (i, f) in flows.iter().enumerate() {
            for &l in &f.path {
                members[l as usize].push(i);
            }
            if f.cap_bps != u64::MAX {
                virtual_of[i] = members.len();
                members.push(vec![i]);
                cap.push(f.cap_bps.max(1));
            }
        }
        let mut rate = vec![0u64; flows.len()];
        let mut saturated = Vec::new();
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (l, m) in members.iter().enumerate() {
                let unfrozen = m.iter().filter(|&&i| rate[i] == 0).count() as u64;
                if unfrozen == 0 {
                    continue;
                }
                let share = (cap[l] / unfrozen).max(1);
                if best.is_none_or(|(b, _)| share < b) {
                    best = Some((share, l));
                }
            }
            let Some((share, l)) = best else {
                break;
            };
            for i in members[l].clone() {
                if rate[i] != 0 {
                    continue;
                }
                rate[i] = share;
                let links = flows[i].path.iter().map(|&pl| pl as usize);
                for pl in links.chain((virtual_of[i] != usize::MAX).then_some(virtual_of[i])) {
                    cap[pl] = cap[pl].saturating_sub(share);
                }
            }
            if l < num_links {
                saturated.push(l as u32);
            }
        }
        (rate, saturated)
    }

    #[test]
    fn heap_solver_matches_a_full_rescan_on_random_instances() {
        let mut rng = pmsb_simcore::rng::SimRng::seed_from(0x5017);
        let mut s = Solver::new(12);
        for _ in 0..2_000 {
            let num_links = 1 + rng.below(12);
            let link_rate_bps = [7, 1_000, 10_000_000_000][rng.below(3)];
            let mut flows: Vec<SolverFlow> = (0..1 + rng.below(10))
                .map(|_| {
                    let mut links: Vec<u32> = (0..num_links as u32).collect();
                    let hops = 1 + rng.below(num_links.min(4));
                    let path = (0..hops)
                        .map(|_| links.swap_remove(rng.below(links.len())))
                        .collect();
                    let cap_bps = match rng.below(3) {
                        0 => 1 + rng.below(2 * link_rate_bps as usize) as u64,
                        _ => u64::MAX,
                    };
                    SolverFlow {
                        path,
                        cap_bps,
                        rate_bps: 0,
                    }
                })
                .collect();
            let (want_rates, mut want_sat) = rescan(&flows, num_links, link_rate_bps);
            let mut sat = s.solve(&mut flows, link_rate_bps);
            let rates: Vec<u64> = flows.iter().map(|f| f.rate_bps).collect();
            assert_eq!(rates, want_rates, "{flows:?} at {link_rate_bps} bps");
            sat.sort_unstable();
            want_sat.sort_unstable();
            assert_eq!(sat, want_sat, "{flows:?} at {link_rate_bps} bps");
        }
    }

    #[test]
    fn solver_state_resets_between_solves() {
        let mut s = Solver::new(4);
        let mut a = vec![flow(&[0, 3]), flow(&[1, 3])];
        let first = s.solve(&mut a, 10_000_000_000);
        let mut b = vec![flow(&[0, 3]), flow(&[1, 3])];
        let second = s.solve(&mut b, 10_000_000_000);
        assert_eq!(first, second);
        assert_eq!(a[0].rate_bps, b[0].rate_bps);
        assert_eq!(a[0].rate_bps, 5_000_000_000);
    }
}
