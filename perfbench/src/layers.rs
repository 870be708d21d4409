//! The traced run: per-layer counts read from the public result types,
//! spans around the benchmark's own calls into each layer, and per-op
//! costs timed by replaying each layer's public functions on inputs
//! shaped like the workload's. Their products form the attribution row:
//! how much of the engine's self time the replayed layers explain.

use std::hint::black_box;
use std::time::Instant;

use pmsb::marking::{MarkingScheme, Pmsb};
use pmsb::PortSnapshot;
use pmsb_metrics::sketch::QuantileSketch;
use pmsb_netsim::config::TransportConfig;
use pmsb_netsim::experiment::RunResults;
use pmsb_netsim::packet::{PacketKind, DEFAULT_MSS, MTU_WIRE_BYTES};
use pmsb_netsim::transport::{Receiver as _, Sender as _, TransportReceiver, TransportSender};
use pmsb_netsim::World;
use pmsb_sched::{Dwrr, MultiQueue, SchedItem};
use pmsb_simcore::rng::SimRng;
use pmsb_simcore::{EventQueue, SimTime};

use crate::stats::{median, process_cpu_s, ratio, Metric};
use crate::{check, Cell, Digest, Inputs, Workload};

/// Samples per replay; the median sample's per-op cost is reported.
const SAMPLES: usize = 7;

/// Times `f` (which performs `ops` operations) once to warm up, then
/// [`SAMPLES`] times, and returns the median nanoseconds per operation.
fn per_op_ns(ops: u64, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Median seconds of `f` over [`SAMPLES`] calls.
fn span_s<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Output ports of a built world: every switch port plus one NIC per host.
fn port_count(world: &World) -> usize {
    let switch_ports: usize = (0..world.num_switches()).map(|s| world.num_ports(s)).sum();
    switch_ports + world.num_hosts()
}

/// `simcore`: hold model on [`EventQueue`] — one pending event per
/// output port, each pop re-scheduling its event one MTU serialization
/// plus a link delay later. One op is one pop plus one push.
fn fel_ns_per_op(resident: usize, link_delay_nanos: u64) -> f64 {
    const OPS: usize = 200_000;
    let serialize = MTU_WIRE_BYTES * 8 / 10; // ns at 10 Gbps
    let mut rng = SimRng::seed_from(1);
    let deltas: Vec<u64> = (0..1024)
        .map(|_| serialize + rng.below(link_delay_nanos as usize + 1) as u64)
        .collect();
    per_op_ns(OPS as u64, || {
        let mut q = EventQueue::new();
        for i in 0..resident {
            q.push(SimTime::from_nanos(deltas[i % deltas.len()]), i);
        }
        for i in 0..OPS {
            let (t, e) = q.pop().expect("hold model keeps the queue full");
            q.push(
                SimTime::from_nanos(t.as_nanos() + deltas[i % deltas.len()]),
                e,
            );
        }
        black_box(q.len());
    })
}

#[derive(Debug, Clone, Copy)]
struct Pkt(u64);
impl SchedItem for Pkt {
    fn len_bytes(&self) -> u64 {
        self.0
    }
}

/// `sched`: a backlogged 8-queue [`MultiQueue`] under [`Dwrr`] with the
/// switch's equal weights. One op is one dequeue plus one enqueue.
fn sched_ns_per_op() -> f64 {
    const OPS: usize = 200_000;
    per_op_ns(OPS as u64, || {
        let mut mq = MultiQueue::new(Box::new(Dwrr::new(vec![1; 8], 1500)), u64::MAX);
        let mut now = 0;
        for q in 0..8 {
            for _ in 0..4 {
                mq.enqueue(q, Pkt(MTU_WIRE_BYTES), now).expect("uncapped");
            }
        }
        for _ in 0..OPS {
            let (q, p) = mq.dequeue(now).expect("backlogged");
            now += p.0 * 8 / 10;
            mq.enqueue(q, Pkt(MTU_WIRE_BYTES), now).expect("uncapped");
        }
        black_box(now);
    })
}

/// `marking`: [`Pmsb::should_mark`] at K=12 over an 8-queue port whose
/// occupancy sits around the threshold, as under a standing backlog.
fn marking_ns_per_decision() -> f64 {
    const ROUNDS: usize = 25_000;
    let k = 12 * MTU_WIRE_BYTES;
    let views: Vec<PortSnapshot> = (0..16u64)
        .map(|i| {
            let mut b = PortSnapshot::builder(8);
            for q in 0..8u64 {
                b = b.queue_bytes(q as usize, ((q + i) % 5) * MTU_WIRE_BYTES / 2 + i * 300);
            }
            b.build()
        })
        .collect();
    let mut pmsb = Pmsb::new(k, vec![1; 8]);
    per_op_ns((ROUNDS * 8) as u64, || {
        let mut marks = 0u32;
        for r in 0..ROUNDS {
            let view = &views[r % views.len()];
            for q in 0..8 {
                marks += pmsb.should_mark(black_box(view), q).is_mark() as u32;
            }
        }
        black_box(marks);
    })
}

/// One DCTCP transfer of `bytes` with sender and receiver joined
/// directly, every `mark_every`-th data packet CE-marked (0 = none).
/// Returns the ACKs processed.
fn loopback(bytes: u64, mark_every: u64) -> u64 {
    let cfg = TransportConfig::default();
    let mut s = TransportSender::new(1, 0, 1, 0, bytes, None, 0, &cfg);
    let mut r = TransportReceiver::new(1, &cfg);
    let (mut now, mut acks) = (0u64, 0u64);
    let mut in_flight = s.start(now).packets;
    while !s.is_completed() && !in_flight.is_empty() {
        now += 10_000;
        let replies: Vec<_> = in_flight
            .drain(..)
            .map(|mut p| {
                acks += 1;
                p.ce = mark_every > 0 && acks.is_multiple_of(mark_every);
                r.on_data(&p, now).ack.expect("per-packet ACKs")
            })
            .collect();
        now += 10_000;
        for a in replies {
            let PacketKind::Ack { cum_ack, ece } = a.kind else {
                unreachable!("receivers answer with ACKs")
            };
            in_flight.extend(s.on_ack(cum_ack, ece, a.sent_at_nanos, now).packets);
        }
    }
    acks
}

/// `transport`: the loopback at the run's observed mark share. One op is
/// one data packet received plus its ACK handled by the sender.
fn transport_ns_per_ack(mark_share: f64) -> f64 {
    let mark_every = if mark_share > 0.0 {
        (1.0 / mark_share).round().max(1.0) as u64
    } else {
        0
    };
    let acks = loopback(2_000_000, mark_every);
    per_op_ns(acks, || {
        black_box(loopback(2_000_000, mark_every));
    })
}

/// `metrics`: [`QuantileSketch::insert`] of FCT-like values spread over
/// the run's own p50..p99 range.
fn sketch_ns_per_insert(d: &Digest) -> f64 {
    const OPS: usize = 200_000;
    let lo = d.fct_p50.max(1_000) / 2;
    let span = (d.fct_p99.max(lo) * 2 - lo) as usize;
    let mut rng = SimRng::seed_from(2);
    let values: Vec<u64> = (0..4096).map(|_| lo + rng.below(span) as u64).collect();
    per_op_ns(OPS as u64, || {
        let mut s = QuantileSketch::new();
        for i in 0..OPS {
            s.insert(values[i % values.len()]);
        }
        black_box(s.count());
    })
}

/// `workload`: the cell's generator replayed at its seed and count.
fn workload_s(cell: &Cell) -> f64 {
    span_s(|| {
        if cell.is_streamed() {
            Cell::mix()
                .flows(cell.num_hosts(), cell.seed, cell.flows)
                .count()
        } else {
            cell.static_flows().len()
        }
    })
}

/// What the traced run produced.
pub struct Traced {
    /// Every per-layer metric, by `BENCHMARK.json` name.
    pub metrics: Vec<Metric>,
    /// Whether the traced repetition passed the output check.
    pub passed: bool,
}

/// Runs `cell` once more with spans around each layer call, reads the
/// layer counts, replays the per-op costs, and prints the attribution
/// row. `untraced_wall_s` is the timed repetitions' median, the base of
/// `trace.overhead_share`; `first` is their digest, which the traced
/// repetition must reproduce.
pub fn traced(
    cell: &Cell,
    inputs: &Inputs,
    untraced_wall_s: f64,
    first: Option<&Digest>,
) -> Traced {
    // Spans around the benchmark's calls: topology, generator, engine.
    let mut ports = 0;
    let topology_build_s = span_s(|| {
        let w = cell.build_topology();
        ports = port_count(&w);
        w
    });
    let workload_s = workload_s(cell);
    let cpu0 = process_cpu_s();
    let (res, run) = cell.run(inputs);
    let cpu_s = process_cpu_s() - cpu0;
    let lp = pmsb_simcore::lp::last_run_profile();
    let run_s = run.as_secs_f64();
    let self_s = run_s - topology_build_s;

    let d = Digest::of(&res);
    let passed = match check(inputs, &d, first) {
        Ok(()) => true,
        Err(e) => {
            println!("traced rep FAILED {e}");
            false
        }
    };
    let c = Counts::of(cell, &res, &d);
    drop(res);

    // Replayed per-op costs, shaped like this cell.
    let link_delay = if cell.is_streamed() { 1_000 } else { 9_000 };
    let fel_ns = fel_ns_per_op(ports, link_delay);
    let sched_ns = sched_ns_per_op();
    let marking_ns = marking_ns_per_decision();
    let mark_share = ratio(c.marks as f64, c.deliveries as f64);
    let ack_ns = transport_ns_per_ack(mark_share);
    let sketch_ns = sketch_ns_per_insert(&d);
    let flow_ns = workload_s * 1e9 / inputs.offered as f64;

    // Attribution: count × replayed cost for each layer whose ops run
    // inside the engine span.
    let packet = !matches!(
        cell.workload,
        Workload::Fattree16MixFluid | Workload::Fattree8MixRegional
    );
    let on = |yes: bool, count: u64, ns: f64| if yes { count as f64 * ns / 1e9 } else { 0.0 };
    let rows = [
        ("workload", on(cell.is_streamed(), inputs.offered, flow_ns)),
        ("simcore", on(packet, c.events, fel_ns)),
        ("sched", on(packet, c.deliveries, sched_ns)),
        ("marking", on(packet, c.deliveries, marking_ns)),
        ("transport", on(packet, c.data_packets, ack_ns)),
        ("metrics", on(cell.is_streamed(), c.completed, sketch_ns)),
    ];
    let explained: f64 = rows.iter().map(|(_, s)| s).sum();
    let cells: Vec<String> = rows.iter().map(|(n, s)| format!("{n}={s:.4}")).collect();
    println!(
        "attribution {} {} sum={explained:.4} engine.self_s={self_s:.4} residual={:.4}",
        cell.workload.name(),
        cells.join(" "),
        self_s - explained
    );

    let fluid_events = if packet { 0 } else { c.events };
    let regional = cell.workload == Workload::Fattree8MixRegional;
    let pick = |yes: bool, v: u64| if yes { v as f64 } else { 0.0 };
    let metrics = vec![
        Metric::new("topology.build_s", topology_build_s, "s"),
        Metric::new("workload.flows", inputs.offered as f64, "count"),
        Metric::new("workload.ns_per_flow", flow_ns, "ns"),
        Metric::new("engine.run_s", run_s, "s"),
        Metric::new("engine.self_s", self_s, "s"),
        Metric::new("simcore.events", pick(packet, c.events), "count"),
        Metric::new(
            "simcore.events_per_s",
            pick(packet, c.events) / run_s,
            "1/s",
        ),
        Metric::new("simcore.fel_ns_per_op", fel_ns, "ns"),
        Metric::new("sched.ns_per_op", sched_ns, "ns"),
        Metric::new("marking.ns_per_decision", marking_ns, "ns"),
        Metric::new("marking.marks", c.marks as f64, "count"),
        Metric::new("marking.mark_share", mark_share, "ratio"),
        Metric::new("transport.ns_per_ack", ack_ns, "ns"),
        Metric::new("transport.marks_seen", c.marks_seen as f64, "count"),
        Metric::new(
            "transport.retransmissions",
            c.retransmissions as f64,
            "count",
        ),
        Metric::new("transport.timeouts", c.timeouts as f64, "count"),
        Metric::new("world.deliveries", c.deliveries as f64, "count"),
        Metric::new("world.drops", c.drops as f64, "count"),
        Metric::new("world.slab_high_water", c.slab_high_water as f64, "count"),
        Metric::new(
            "world.ns_per_delivery",
            ratio(self_s * 1e9, c.deliveries as f64),
            "ns",
        ),
        Metric::new("lp.windows", lp.windows as f64, "count"),
        Metric::new("lp.messages", lp.messages as f64, "count"),
        Metric::new("lp.msgs_per_window", lp.msgs_per_window(), "count"),
        Metric::new("lp.barrier_wait_share", lp.barrier_wait_share(), "ratio"),
        Metric::new("lp.imbalance", lp.lp_imbalance(), "ratio"),
        Metric::new(
            "lp.sharded_wall_share",
            lp.total_wall_nanos as f64 / 1e9 / run_s,
            "ratio",
        ),
        Metric::new("process.cpu_per_wall", cpu_s / run_s, "ratio"),
        Metric::new("fluid.events", fluid_events as f64, "count"),
        Metric::new(
            "fluid.ns_per_event",
            ratio(self_s * 1e9, fluid_events as f64),
            "ns",
        ),
        Metric::new("region.drops", pick(regional, c.drops), "count"),
        Metric::new("region.marks", pick(regional, c.marks), "count"),
        Metric::new(
            "region.pool_high_water_bytes",
            pick(regional, c.pool_high_water_bytes),
            "bytes",
        ),
        Metric::new("metrics.sketch_ns_per_insert", sketch_ns, "ns"),
        Metric::new("attrib.explained_share", ratio(explained, self_s), "ratio"),
        Metric::new("attrib.residual_s", self_s - explained, "s"),
        Metric::new(
            "trace.overhead_share",
            ratio(run_s, untraced_wall_s) - 1.0,
            "ratio",
        ),
    ];
    Traced { metrics, passed }
}

/// Layer counts read from one run's public results.
struct Counts {
    events: u64,
    deliveries: u64,
    drops: u64,
    marks: u64,
    marks_seen: u64,
    retransmissions: u64,
    timeouts: u64,
    completed: u64,
    /// Data packets the transports sent: payload over MSS, plus
    /// retransmissions — one receiver step and one ACK each.
    data_packets: u64,
    slab_high_water: u64,
    pool_high_water_bytes: u64,
}

impl Counts {
    fn of(cell: &Cell, res: &RunResults, d: &Digest) -> Counts {
        let (retransmissions, timeouts, slab_high_water) = match &res.stream {
            Some(s) => (
                s.agg_sender.retransmissions,
                s.agg_sender.timeouts,
                s.slab_high_water,
            ),
            // A static run holds every flow's slot for the whole run.
            None => (
                res.sender_stats.values().map(|s| s.retransmissions).sum(),
                res.sender_stats.values().map(|s| s.timeouts).sum(),
                cell.flows,
            ),
        };
        Counts {
            events: res.events,
            deliveries: res.deliveries,
            drops: res.drops,
            marks: res.marks,
            marks_seen: d.marks_seen,
            retransmissions,
            timeouts,
            completed: d.completed,
            data_packets: d.bytes.div_ceil(DEFAULT_MSS) + retransmissions,
            slab_high_water,
            pool_high_water_bytes: res
                .shared_buffer
                .as_ref()
                .map_or(0, |s| s.pool_high_water_bytes),
        }
    }
}
