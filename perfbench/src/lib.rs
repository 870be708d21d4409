//! The simulator's benchmark: four named workloads, each one simulation
//! cell run through the public [`Experiment`] API, timed end to end and
//! checked against what the benchmark itself computes from the same
//! generator and seed.
//!
//! Everything here measures the program from outside: spans around the
//! benchmark's own calls, counts read from the public result types, and
//! (in [`layers`]) per-op costs replayed on each layer's public functions.

use std::time::{Duration, Instant};

use pmsb::MarkPoint;
use pmsb_netsim::config::{HostConfig, SwitchConfig, TransportConfig};
use pmsb_netsim::experiment::{
    EngineKind, Experiment, FlowDesc, MarkingConfig, RegionSpec, RunResults,
};
use pmsb_netsim::{topology, World};
use pmsb_simcore::rng::SimRng;
use pmsb_workload::{PatternSpec, TrafficSpec};

pub mod layers;
pub mod stats;

/// PMSB's port threshold in packets on every workload (the paper's K).
const PMSB_PORT_K: u64 = 12;
/// 10 Gbps, the link rate of every fabric here.
const LINK_BPS: u64 = 10_000_000_000;
/// Seed of the `(source, destination, size)` triples every static cell
/// deals out (see [`Cell::static_flows`]).
const TRIPLE_SEED: u64 = 0;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §VI-B leaf–spine with its own traffic, packet engine.
    LeafspinePaper,
    /// fat_tree(8) streamed `mix`, packet engine on 2 threads.
    Fattree8MixT2,
    /// fat_tree(16) streamed `mix`, fluid engine.
    Fattree16MixFluid,
    /// fat_tree(8) streamed `mix`, regional engine with an auto hot set.
    Fattree8MixRegional,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::LeafspinePaper,
        Workload::Fattree8MixT2,
        Workload::Fattree16MixFluid,
        Workload::Fattree8MixRegional,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LeafspinePaper => "leafspine-paper",
            Workload::Fattree8MixT2 => "fattree8-mix-t2",
            Workload::Fattree16MixFluid => "fattree16-mix-fluid",
            Workload::Fattree8MixRegional => "fattree8-mix-regional",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cell this workload runs at `seed`, at its fixed input size.
    pub fn cell(self, seed: u64) -> Cell {
        let (flows, threads) = match self {
            Workload::LeafspinePaper => (120, 1),
            Workload::Fattree8MixT2 => (2_000, 2),
            Workload::Fattree16MixFluid => (120_000, 1),
            Workload::Fattree8MixRegional => (15_000, 1),
        };
        Cell {
            workload: self,
            seed,
            flows,
            threads,
        }
    }
}

/// One simulation cell: a workload at a seed, a flow count and a
/// thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Which workload the cell belongs to.
    pub workload: Workload,
    /// Seed of the flow generator.
    pub seed: u64,
    /// Flows offered.
    pub flows: u64,
    /// `Experiment::sim_threads`.
    pub threads: usize,
}

/// A cell's inputs, generated once and reused by every repetition.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The static flow list (`None` for streamed workloads, whose
    /// generator runs inside the simulator).
    pub flows: Option<Vec<FlowDesc>>,
    /// Flows offered.
    pub offered: u64,
    /// Payload bytes of every offered flow: what `bytes_completed` must
    /// equal once every flow has completed.
    pub offered_bytes: u64,
    /// Simulated horizon in nanoseconds.
    pub horizon_nanos: u64,
}

impl Cell {
    /// Whether the cell streams its flows (fat-tree `mix`) rather than
    /// registering a static list (the paper's leaf–spine traffic).
    pub fn is_streamed(&self) -> bool {
        self.workload != Workload::LeafspinePaper
    }

    /// fat-tree `k` of a streamed cell.
    fn fat_tree_k(&self) -> usize {
        match self.workload {
            Workload::Fattree16MixFluid => 16,
            _ => 8,
        }
    }

    /// Hosts in the cell's fabric.
    fn num_hosts(&self) -> usize {
        if self.is_streamed() {
            let k = self.fat_tree_k();
            k * k * k / 4
        } else {
            48
        }
    }

    /// The switch configuration every port runs: PMSB K=12 over DWRR × 8
    /// (the simulator's defaults, spelled out).
    fn switch_config() -> SwitchConfig {
        SwitchConfig {
            marking: MarkingConfig::Pmsb {
                port_threshold_pkts: PMSB_PORT_K,
            },
            ..SwitchConfig::default()
        }
    }

    /// Host NICs mirror the switch marking, as `Experiment` resolves it.
    fn host_config() -> HostConfig {
        HostConfig {
            nic_marking: Cell::switch_config().marking,
            nic_mark_point: MarkPoint::Enqueue,
            ..HostConfig::default()
        }
    }

    /// The `mix` pattern of the fabric CLI: incast(32) merged with shuffle.
    fn mix() -> PatternSpec {
        PatternSpec::Mix(vec![PatternSpec::incast(32), PatternSpec::shuffle()])
    }

    /// Calls the topology builder with the cell's configuration — the
    /// world-building part of set-up.
    pub fn build_topology(&self) -> World {
        let (sw, host, tr) = (
            Cell::switch_config(),
            Cell::host_config(),
            TransportConfig::default(),
        );
        if self.is_streamed() {
            topology::fat_tree(self.fat_tree_k(), LINK_BPS, 1_000, &sw, &host, tr)
        } else {
            topology::leaf_spine(4, 4, 12, LINK_BPS, 9_000, &sw, &host, tr)
        }
    }

    /// The paper's §VI-B flow list at load 0.6 (static cells only).
    ///
    /// Arrival times and services come from the generator at the cell's
    /// seed. The `(source, destination, size)` triples are the ones the
    /// same generator draws at [`TRIPLE_SEED`], dealt to the arrivals in a
    /// seed-shuffled order. The paper mix is heavy-tailed and a large
    /// flow costs twice the events across the spine as inside a rack, so
    /// at a few hundred flows fresh triples per seed would swing the
    /// simulated work (and flows/s) by up to 2× from seed to seed, and
    /// the metric would compare seeds rather than code.
    pub fn static_flows(&self) -> Vec<FlowDesc> {
        let spec = TrafficSpec::paper_large_scale(self.num_hosts(), 0.6);
        let n = self.flows as usize;
        let mut triples = spec.generate(n, &mut SimRng::seed_from(TRIPLE_SEED));
        let mut rng = SimRng::seed_from(self.seed);
        let arrivals = spec.generate(n, &mut rng);
        for i in (1..n).rev() {
            triples.swap(i, rng.below(i + 1));
        }
        arrivals
            .into_iter()
            .zip(triples)
            .map(|(a, t)| {
                FlowDesc::bulk(t.src_host, t.dst_host, a.service, t.size_bytes)
                    .starting_at(a.start_nanos)
            })
            .collect()
    }

    /// Generates the cell's inputs and the totals its output must match.
    /// A static cell keeps its flow list; a streamed one walks the same
    /// generator the simulator will replay, for the horizon and totals.
    pub fn inputs(&self) -> Inputs {
        if self.is_streamed() {
            let (mut last, mut bytes, mut offered) = (0, 0, 0);
            for f in Cell::mix().flows(self.num_hosts(), self.seed, self.flows) {
                last = f.start_nanos;
                bytes += f.size_bytes;
                offered += 1;
            }
            Inputs {
                flows: None,
                offered,
                offered_bytes: bytes,
                horizon_nanos: last + 50_000_000,
            }
        } else {
            let flows = self.static_flows();
            let last = flows.last().map_or(0, |f| f.start_nanos);
            Inputs {
                offered: flows.len() as u64,
                offered_bytes: flows.iter().map(|f| f.size_bytes).sum(),
                horizon_nanos: last + 1_000_000_000,
                flows: Some(flows),
            }
        }
    }

    /// The `Experiment` this cell runs.
    pub fn experiment(&self, inputs: &Inputs) -> Experiment {
        let marking = Cell::switch_config().marking;
        let mut e = if self.is_streamed() {
            Experiment::fat_tree(self.fat_tree_k())
                .marking(marking)
                .stream(Cell::mix(), self.seed, self.flows)
        } else {
            let mut e = Experiment::paper_leaf_spine().marking(marking);
            e.add_flows(inputs.flows.iter().flatten().copied());
            e
        };
        e = e.sim_threads(self.threads);
        match self.workload {
            Workload::Fattree16MixFluid => e.engine(EngineKind::Fluid),
            Workload::Fattree8MixRegional => {
                e.engine(EngineKind::Regional).region(RegionSpec::Auto)
            }
            _ => e,
        }
    }

    /// Builds and runs the cell, returning its results and the host time
    /// from building the `Experiment` to harvested results.
    pub fn run(&self, inputs: &Inputs) -> (RunResults, Duration) {
        let t0 = Instant::now();
        let res = self
            .experiment(inputs)
            .run_until_nanos(inputs.horizon_nanos);
        (res, t0.elapsed())
    }
}

/// The simulated outputs every repetition of one cell must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Flows completed by the horizon.
    pub completed: u64,
    /// Payload bytes of completed flows.
    pub bytes: u64,
    /// FCT quantiles in nanoseconds (0 when nothing completed).
    pub fct_p50: u64,
    /// 90th-percentile FCT, nanoseconds.
    pub fct_p90: u64,
    /// 99th-percentile FCT, nanoseconds.
    pub fct_p99: u64,
    /// CE marks applied by switches.
    pub marks: u64,
    /// Packets dropped.
    pub drops: u64,
    /// ECN-Echo marks senders saw.
    pub marks_seen: u64,
    /// Events the engine counted.
    pub events: u64,
}

impl Digest {
    /// Digests a run: the streamed aggregates when present, else the
    /// per-flow records.
    pub fn of(res: &RunResults) -> Digest {
        let (completed, bytes, q, marks_seen) = match &res.stream {
            Some(s) => {
                let q = [0.5, 0.9, 0.99].map(|p| s.sketch.quantile(p).unwrap_or(0));
                (s.completed, s.bytes_completed, q, s.agg_sender.marks_seen)
            }
            None => {
                let records = res.fct.records();
                let mut fcts: Vec<u64> = records.iter().map(|r| r.fct_nanos()).collect();
                fcts.sort_unstable();
                let q = [0.5, 0.9, 0.99].map(|p| nearest_rank(&fcts, p));
                (
                    records.len() as u64,
                    records.iter().map(|r| r.bytes).sum(),
                    q,
                    res.sender_stats.values().map(|s| s.marks_seen).sum(),
                )
            }
        };
        Digest {
            completed,
            bytes,
            fct_p50: q[0],
            fct_p90: q[1],
            fct_p99: q[2],
            marks: res.marks,
            drops: res.drops,
            marks_seen,
            events: res.events,
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "completed={} bytes={} fct_p50_ns={} fct_p90_ns={} fct_p99_ns={} marks={} \
             drops={} marks_seen={} events={}",
            self.completed,
            self.bytes,
            self.fct_p50,
            self.fct_p90,
            self.fct_p99,
            self.marks,
            self.drops,
            self.marks_seen,
            self.events
        )
    }
}

/// Nearest-rank `p` quantile of sorted `v` (0 when empty).
fn nearest_rank(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Why a repetition failed its output check, if it did.
pub fn check(inputs: &Inputs, digest: &Digest, first: Option<&Digest>) -> Result<(), String> {
    if digest.completed != inputs.offered {
        return Err(format!(
            "{} of {} flows completed by the horizon",
            digest.completed, inputs.offered
        ));
    }
    if digest.bytes != inputs.offered_bytes {
        return Err(format!(
            "bytes_completed {} != {} offered",
            digest.bytes, inputs.offered_bytes
        ));
    }
    match first {
        Some(d) if d != digest => Err(format!("digest differs from the first run's: {d}")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sharded engine must reproduce the sequential run exactly, so
    /// `fattree8-mix-t2`'s cell digests the same on 1 and on 2 threads.
    #[test]
    fn t2_cell_digest_matches_one_thread() {
        let two = Cell {
            flows: 300,
            ..Workload::Fattree8MixT2.cell(7)
        };
        let one = Cell { threads: 1, ..two };
        let inputs = two.inputs();
        let d2 = Digest::of(&two.run(&inputs).0);
        let d1 = Digest::of(&one.run(&inputs).0);
        assert_eq!(d1, d2);
        check(&inputs, &d1, None).expect("every flow completes");
    }

    #[test]
    fn every_cell_checks_at_a_small_size() {
        for w in Workload::ALL {
            let cell = Cell {
                flows: 40,
                ..w.cell(3)
            };
            let inputs = cell.inputs();
            let d = Digest::of(&cell.run(&inputs).0);
            check(&inputs, &d, None).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.99), 4);
    }
}
