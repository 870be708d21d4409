//! Self-timed micro-benchmarks (the former criterion benches), run by
//! the `microbench` binary. No external benchmarking crate: each case
//! is a closure timed over a fixed batch, repeated for several samples,
//! reporting the per-iteration mean and the best sample.
//!
//! Cases:
//! * `marking_decision/*` — per-packet decision cost of each marking
//!   scheme (the paper's §IV-C complexity claim);
//! * `scheduler_ops/*` — enqueue+dequeue cost per scheduler;
//! * `event_queue/*` — future-event-list throughput;
//! * `dctcp_transfer/*` — sender/receiver state-machine cost;
//! * `transport_newreno/*` — the same loopback on the NewReno transport;
//! * `dumbbell_4x500KB/*` — end-to-end simulator throughput;
//! * `large_scale_parallel/threads_*` — one leaf–spine cell sharded
//!   across 1/2/4 worker threads (wall-clock scaling of `--sim-threads`);
//! * `hyperscale/fat_tree_k4_stream` — a streamed mixed workload through
//!   the slab flow state on the smoke fat-tree;
//! * `fluid/*` — the same streamed cell under the flow-level fluid and
//!   hybrid engines, plus a fluid dumbbell (the fast path of DESIGN.md
//!   §11).

use std::hint::black_box;
use std::time::Instant;

use pmsb::marking::{MarkingScheme, MqEcn, PerPort, PerQueue, Pmsb, Tcn};
use pmsb::PortSnapshot;
use pmsb_netsim::config::{TransportConfig, TransportKind};
use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig};
use pmsb_netsim::packet::PacketKind;
use pmsb_netsim::transport::{Receiver as _, Sender as _, TransportReceiver, TransportSender};
use pmsb_sched::{Dwrr, HierSpWfq, MultiQueue, SchedItem, Scheduler, StrictPriority, Wfq, Wrr};
use pmsb_simcore::lp::LpRunProfile;
use pmsb_simcore::{EventQueue, HeapQueue, SimTime};

use crate::outln;
use crate::util::SimOpts;

/// Timing of one benchmark case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// `group/name` label.
    pub label: String,
    /// Mean nanoseconds per iteration across all samples.
    pub mean_nanos: f64,
    /// Best (fastest) sample's nanoseconds per iteration.
    pub best_nanos: f64,
}

/// Times `f` for `iters` iterations per sample, `samples` times (after
/// one warm-up sample), and appends a CSV line to the report.
fn run_case(
    out: &mut String,
    label: &str,
    iters: u32,
    samples: u32,
    mut f: impl FnMut(),
) -> CaseResult {
    for _ in 0..iters.max(1) {
        f(); // warm-up
    }
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per_iter = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per_iter);
        total += per_iter;
    }
    let res = CaseResult {
        label: label.to_string(),
        mean_nanos: total / samples as f64,
        best_nanos: best,
    };
    outln!(
        out,
        "{},{:.1},{:.1}",
        res.label,
        res.mean_nanos,
        res.best_nanos
    );
    res
}

fn snapshot() -> PortSnapshot {
    let mut b = PortSnapshot::builder(8)
        .round_time_nanos(9_600)
        .sojourn_nanos(25_000);
    for q in 0..8 {
        b = b.queue_bytes(q, (q as u64 + 1) * 3_000);
    }
    b.build()
}

fn marking_cases(out: &mut String, iters: u32, samples: u32) -> Vec<CaseResult> {
    let view = snapshot();
    let schemes: Vec<(&str, Box<dyn MarkingScheme>)> = vec![
        ("per_queue", Box::new(PerQueue::standard(16 * 1500, 8))),
        ("per_port", Box::new(PerPort::new(16 * 1500))),
        ("mq_ecn", Box::new(MqEcn::new(65 * 1500, vec![1500; 8]))),
        ("tcn", Box::new(Tcn::new(78_200))),
        ("pmsb", Box::new(Pmsb::new(12 * 1500, vec![1; 8]))),
    ];
    let mut results = Vec::new();
    for (name, mut scheme) in schemes {
        results.push(run_case(
            out,
            &format!("marking_decision/{name}"),
            iters,
            samples,
            || {
                let mut marks = 0u32;
                for q in 0..8 {
                    if scheme.should_mark(black_box(&view), q).is_mark() {
                        marks += 1;
                    }
                }
                black_box(marks);
            },
        ));
    }
    results
}

#[derive(Debug, Clone, Copy)]
struct Pkt(u64);
impl SchedItem for Pkt {
    fn len_bytes(&self) -> u64 {
        self.0
    }
}

/// 8-queue backlogged enqueue+dequeue churn, `ops` operations.
fn drive(sched: Box<dyn Scheduler>, ops: usize) -> u64 {
    let n = sched.num_queues();
    let mut mq = MultiQueue::new(sched, u64::MAX);
    let mut now = 0u64;
    for _ in 0..4 {
        for q in 0..n {
            mq.enqueue(q, Pkt(1500), now).unwrap();
        }
    }
    let mut served = 0u64;
    for _ in 0..ops {
        let (q, p) = mq.dequeue(now).unwrap();
        served += p.0;
        now += 1500;
        mq.enqueue(q, Pkt(1500), now).unwrap();
    }
    served
}

type SchedMaker = fn() -> Box<dyn Scheduler>;

fn scheduler_cases(out: &mut String, iters: u32, samples: u32) -> Vec<CaseResult> {
    let ops = 1000;
    let makers: Vec<(&str, SchedMaker)> = vec![
        ("sp", || Box::new(StrictPriority::new(8))),
        ("wrr", || Box::new(Wrr::new(vec![1; 8]))),
        ("dwrr", || Box::new(Dwrr::new(vec![1; 8], 1500))),
        ("wfq", || Box::new(Wfq::new(vec![1; 8]))),
        ("sp_wfq", || {
            Box::new(HierSpWfq::new(vec![0, 0, 1, 1, 1, 1, 1, 1], vec![1; 8]))
        }),
    ];
    makers
        .into_iter()
        .map(|(name, make)| {
            run_case(
                out,
                &format!("scheduler_ops/{name}"),
                iters,
                samples,
                || {
                    black_box(drive(make(), ops));
                },
            )
        })
        .collect()
}

/// Minimal FEL facade so the wheel and the reference heap run the exact
/// same benchmark workloads in the same process (the PR-2 baseline CSV
/// was captured on different hardware, so same-machine twins are the
/// honest comparison).
trait BenchFel {
    fn push(&mut self, at: u64, e: u64);
    fn pop(&mut self) -> Option<(u64, u64)>;
}

impl BenchFel for EventQueue<u64> {
    fn push(&mut self, at: u64, e: u64) {
        EventQueue::push(self, SimTime::from_nanos(at), e);
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        EventQueue::pop(self).map(|(t, e)| (t.as_nanos(), e))
    }
}

impl BenchFel for HeapQueue<u64> {
    fn push(&mut self, at: u64, e: u64) {
        HeapQueue::push(self, SimTime::from_nanos(at), e);
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        HeapQueue::pop(self).map(|(t, e)| (t.as_nanos(), e))
    }
}

/// 1000 pushes at pseudo-random (deterministic) times, then full drain.
fn push_pop_1k_workload<Q: BenchFel>(q: &mut Q) {
    let mut t = 12345u64;
    for i in 0..1000u64 {
        t = t.wrapping_mul(6364136223846793005).wrapping_add(1);
        q.push(t >> 20, i);
    }
    let mut sum = 0u64;
    while let Some((_, e)) = q.pop() {
        sum += e;
    }
    black_box(sum);
}

/// Steady-state pattern: pop one, push one 64 ns out, 64 resident.
fn interleaved_hold_64_workload<Q: BenchFel>(q: &mut Q) {
    for i in 0..64u64 {
        q.push(i, i);
    }
    let mut sum = 0u64;
    for _ in 0..1000 {
        let (at, e) = q.pop().unwrap();
        sum += e;
        q.push(at + 64, e);
    }
    black_box(sum);
}

fn event_queue_cases(out: &mut String, iters: u32, samples: u32) -> Vec<CaseResult> {
    vec![
        run_case(out, "event_queue/push_pop_1k", iters, samples, || {
            push_pop_1k_workload(&mut EventQueue::new());
        }),
        run_case(
            out,
            "event_queue/interleaved_hold_64",
            iters,
            samples,
            || {
                interleaved_hold_64_workload(&mut EventQueue::new());
            },
        ),
        run_case(out, "event_queue/push_pop_1k_heap", iters, samples, || {
            push_pop_1k_workload(&mut HeapQueue::new());
        }),
        run_case(
            out,
            "event_queue/interleaved_hold_64_heap",
            iters,
            samples,
            || {
                interleaved_hold_64_workload(&mut HeapQueue::new());
            },
        ),
    ]
}

/// One complete in-memory transfer: sender and receiver joined directly.
/// `kind` picks the transport state machine (the `TransportConfig`
/// defaults keep per-packet ACKs, so the loopback below holds for both).
fn transfer_with(kind: TransportKind, bytes: u64, mark_every: u64) -> u64 {
    let cfg = TransportConfig {
        kind,
        ..TransportConfig::default()
    };
    let mut s = TransportSender::new(1, 0, 1, 0, bytes, None, 0, &cfg);
    let mut r = TransportReceiver::new(1, &cfg);
    let mut now = 0u64;
    let mut in_flight = s.start(now).packets;
    let mut count = 0u64;
    while !s.is_completed() {
        now += 10_000;
        let acks: Vec<_> = in_flight
            .drain(..)
            .map(|mut p| {
                count += 1;
                if mark_every > 0 && count.is_multiple_of(mark_every) {
                    p.ce = true;
                }
                r.on_data(&p, now).ack.expect("per-packet ACKs")
            })
            .collect();
        now += 10_000;
        for a in acks {
            let PacketKind::Ack { cum_ack, ece } = a.kind else {
                unreachable!()
            };
            in_flight.extend(s.on_ack(cum_ack, ece, a.sent_at_nanos, now).packets);
        }
        if in_flight.is_empty() && !s.is_completed() {
            break; // safety: should not happen
        }
    }
    count
}

/// The DCTCP loopback transfer (the PR-2 baseline case).
fn transfer(bytes: u64, mark_every: u64) -> u64 {
    transfer_with(TransportKind::Dctcp, bytes, mark_every)
}

fn transport_cases(out: &mut String, iters: u32, samples: u32) -> Vec<CaseResult> {
    vec![
        run_case(out, "dctcp_transfer/1mb_unmarked", iters, samples, || {
            black_box(transfer(1_000_000, 0));
        }),
        run_case(
            out,
            "dctcp_transfer/1mb_marked_every_8",
            iters,
            samples,
            || {
                black_box(transfer(1_000_000, 8));
            },
        ),
        run_case(
            out,
            "transport_newreno/1mb_marked_every_8",
            iters,
            samples,
            || {
                black_box(transfer_with(TransportKind::NewReno, 1_000_000, 8));
            },
        ),
    ]
}

fn small_sim(marking: MarkingConfig) -> usize {
    let mut e = Experiment::dumbbell(4, 2).marking(marking);
    for s in 0..4 {
        e.add_flow(FlowDesc::bulk(s, 4, s % 2, 500_000));
    }
    let res = e.run_for_millis(10);
    res.fct.len()
}

fn small_sim_cases(out: &mut String, iters: u32, samples: u32) -> Vec<CaseResult> {
    [
        (
            "pmsb",
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
        ),
        ("per_port", MarkingConfig::PerPort { threshold_pkts: 16 }),
        ("mq_ecn", MarkingConfig::MqEcn { standard_pkts: 16 }),
        (
            "tcn",
            MarkingConfig::Tcn {
                threshold_nanos: 39_000,
            },
        ),
    ]
    .into_iter()
    .map(|(name, marking)| {
        run_case(
            out,
            &format!("dumbbell_4x500KB/{name}"),
            iters,
            samples,
            || {
                black_box(small_sim(marking.clone()));
            },
        )
    })
    .collect()
}

/// Large-scale leaf–spine cell at `sim_threads` shards: the workload
/// the parallel runtime exists for (one 48-host fabric, paper flow
/// mix). `quick` shrinks the flow count so the smoke suite stays fast.
/// Also returns the conservative-protocol profile of the last sharded
/// run (a `threads_4` sample), from which `report::derive_metrics`
/// reports `derived.parallel.*` without re-running the cell.
fn parallel_cases(out: &mut String, quick: bool, samples: u32) -> (Vec<CaseResult>, LpRunProfile) {
    let num_flows = if quick { 60 } else { 600 };
    let results = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            run_case(
                out,
                &format!("large_scale_parallel/threads_{threads}"),
                1,
                samples,
                || {
                    let row = crate::large_scale::run_cell(
                        pmsb_netsim::experiment::SchedulerConfig::Dwrr {
                            weights: vec![1; 8],
                        },
                        "pmsb",
                        MarkingConfig::Pmsb {
                            port_threshold_pkts: 12,
                        },
                        None,
                        pmsb::MarkPoint::Enqueue,
                        0.6,
                        num_flows,
                        42,
                        &SimOpts {
                            sim_threads: threads,
                            ..SimOpts::default()
                        },
                    );
                    black_box(row.completed);
                },
            )
        })
        .collect();
    // The last sharded run above was a `threads_4` sample (`threads_1`
    // takes the sequential path and never touches the profile), so the
    // process-wide last-run profile describes exactly that case.
    (results, pmsb_simcore::lp::last_run_profile())
}

/// Streaming fat-tree cell through the slab flow state: a k=4 fabric
/// under a mixed incast+shuffle stream, timed end to end (one iteration
/// = one full run). The per-flow cost here is the unit the million-flow
/// throughput in `BENCH_pr6.json` scales up (see
/// `report::hyperscale_run`).
fn hyperscale_cases(out: &mut String, quick: bool, samples: u32) -> Vec<CaseResult> {
    let total_flows = if quick { 1_000 } else { 10_000 };
    let scheme = (
        "pmsb",
        MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        },
        None,
    );
    let pattern = (
        "mix",
        pmsb_workload::PatternSpec::Mix(vec![
            pmsb_workload::PatternSpec::incast(8),
            pmsb_workload::PatternSpec::shuffle(),
        ]),
    );
    vec![run_case(
        out,
        "hyperscale/fat_tree_k4_stream",
        1,
        samples,
        || {
            let row = crate::hyperscale::run_cell(
                &scheme,
                &pattern,
                4,
                total_flows,
                42,
                &SimOpts::default(),
            );
            black_box(row.completed);
        },
    )]
}

/// The same streaming cell under the flow-level engines: `fluid` (pure
/// closed-form marking), `hybrid` (per-port packet micro-sim
/// calibration), and `regional` (auto-scouted hot ports at full packet
/// level inside the fluid run), plus the dumbbell scenario on the fluid
/// path. The per-iteration ratio of `fat_tree_k4_stream` to its
/// `_fluid`/`_hybrid`/`_regional` twins is the in-suite view of
/// `derived.hyperscale.fluid_speedup` (and the regional twin backs the
/// `regional_speedup` figure in the JSON report).
fn fluid_cases(out: &mut String, quick: bool, samples: u32) -> Vec<CaseResult> {
    use pmsb_netsim::EngineKind;
    let total_flows = if quick { 1_000 } else { 10_000 };
    let scheme = (
        "pmsb",
        MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        },
        None,
    );
    let pattern = (
        "mix",
        pmsb_workload::PatternSpec::Mix(vec![
            pmsb_workload::PatternSpec::incast(8),
            pmsb_workload::PatternSpec::shuffle(),
        ]),
    );
    let mut results: Vec<CaseResult> = [
        ("fluid/fat_tree_k4_stream_fluid", EngineKind::Fluid),
        ("fluid/fat_tree_k4_stream_hybrid", EngineKind::Hybrid),
        ("fluid/fat_tree_k4_stream_regional", EngineKind::Regional),
    ]
    .into_iter()
    .map(|(label, engine)| {
        let opts = SimOpts {
            engine,
            ..SimOpts::default()
        };
        run_case(out, label, 1, samples, || {
            let row = crate::hyperscale::run_cell(&scheme, &pattern, 4, total_flows, 42, &opts);
            black_box(row.completed);
        })
    })
    .collect();
    results.push(run_case(
        out,
        "fluid/dumbbell_4x500KB_fluid",
        if quick { 20 } else { 200 },
        samples,
        || {
            let mut e = Experiment::dumbbell(4, 2)
                .marking(MarkingConfig::Pmsb {
                    port_threshold_pkts: 12,
                })
                .engine(pmsb_netsim::EngineKind::Fluid);
            for s in 0..4 {
                e.add_flow(FlowDesc::bulk(s, 4, s % 2, 500_000));
            }
            black_box(e.run_for_millis(10).fct.len());
        },
    ));
    results
}

/// Runs the whole micro-benchmark suite, appending a
/// `case,mean_ns,best_ns` CSV to `out`. `quick` shrinks iteration
/// counts for smoke runs. Returns the timed cases and the profile of the
/// last sharded `large_scale_parallel/threads_4` run.
pub fn run_all(out: &mut String, quick: bool) -> (Vec<CaseResult>, LpRunProfile) {
    let (fast_iters, slow_iters, samples) = if quick { (200, 2, 2) } else { (2_000, 10, 5) };
    outln!(out, "case,mean_ns,best_ns");
    let mut results = Vec::new();
    results.extend(marking_cases(out, fast_iters * 10, samples));
    results.extend(scheduler_cases(out, fast_iters, samples));
    results.extend(event_queue_cases(out, fast_iters, samples));
    results.extend(transport_cases(out, slow_iters, samples));
    results.extend(small_sim_cases(out, slow_iters, samples));
    let (parallel, profile) = parallel_cases(out, quick, samples);
    results.extend(parallel);
    results.extend(hyperscale_cases(out, quick, samples));
    results.extend(fluid_cases(out, quick, samples));
    (results, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_times_every_case() {
        let mut out = String::new();
        let (results, _) = run_all(&mut out, true);
        assert_eq!(results.len(), 5 + 5 + 4 + 3 + 4 + 3 + 1 + 4);
        for r in &results {
            assert!(
                r.best_nanos > 0.0 && r.best_nanos.is_finite(),
                "case {} must have a positive time",
                r.label
            );
            assert!(r.mean_nanos >= r.best_nanos);
            assert!(out.contains(&r.label));
        }
    }

    #[test]
    fn transfer_completes_marked_and_unmarked() {
        assert!(transfer(100_000, 0) > 0);
        assert!(transfer(100_000, 8) > transfer(100_000, 0) / 2);
    }

    #[test]
    fn newreno_loopback_transfer_completes() {
        assert!(transfer_with(TransportKind::NewReno, 100_000, 0) > 0);
        assert!(transfer_with(TransportKind::NewReno, 100_000, 8) > 0);
    }
}
