//! Machine-readable benchmark reports (`BENCH_*.json`).
//!
//! The `microbench` binary emits one JSON document per run when passed
//! `--json PATH`. Besides the raw per-case timings it records three
//! derived hot-path metrics — event-queue ops/sec, end-to-end dumbbell
//! packets/sec, and the wall-clock of a small in-process harness
//! campaign — plus a determinism cross-check that the timing-wheel FEL
//! pops the exact same sequence as the reference binary heap on
//! randomized seeded workloads.
//!
//! Pass `--baseline PATH` (a `case,mean_ns,best_ns` CSV from a previous
//! run, i.e. a captured stdout of `microbench`) to fold before/after
//! numbers and per-case speedups into the report. The JSON is written
//! by hand — no serialization dependency — and all floats are emitted
//! with a fixed precision so reports diff cleanly.

use std::fmt::Write as _;
use std::time::Instant;

use pmsb_harness::{Campaign, Job, Record, RunOptions};
use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig};
use pmsb_simcore::lp::LpRunProfile;
use pmsb_simcore::rng::SimRng;
use pmsb_simcore::{EventQueue, HeapQueue, SimTime};

use crate::micro::CaseResult;
use crate::util::SimOpts;

/// A baseline entry parsed from a previous run's CSV report.
#[derive(Debug, Clone)]
pub struct BaselineCase {
    /// `group/name` label, matched against [`CaseResult::label`].
    pub label: String,
    /// Baseline mean nanoseconds per iteration.
    pub mean_nanos: f64,
    /// Baseline best-sample nanoseconds per iteration.
    pub best_nanos: f64,
}

/// Parses a `case,mean_ns,best_ns` CSV (the `microbench` stdout format)
/// into baseline entries, skipping the header and malformed lines.
pub fn parse_baseline_csv(text: &str) -> Vec<BaselineCase> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.trim().split(',');
            let label = parts.next()?.to_string();
            let mean_nanos: f64 = parts.next()?.trim().parse().ok()?;
            let best_nanos: f64 = parts.next()?.trim().parse().ok()?;
            Some(BaselineCase {
                label,
                mean_nanos,
                best_nanos,
            })
        })
        .collect()
}

/// The first JSON string literal in `s`, assuming no escapes (true for
/// every label this report family emits).
fn leading_json_string(s: &str) -> Option<String> {
    let s = s.trim_start().strip_prefix('"')?;
    Some(s[..s.find('"')?].to_string())
}

/// The number following the first occurrence of `key` in `s`. The
/// leading quote in keys like `"best_ns":` keeps `"baseline_best_ns":`
/// from matching.
fn number_after(s: &str, key: &str) -> Option<f64> {
    let tail = s[s.find(key)? + key.len()..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Parses a previous run's `pmsb-bench/v1` JSON report (a committed
/// `BENCH_*.json`) into baseline entries. Fails with a descriptive
/// message when the document declares a different — or no — schema,
/// so a stale or foreign report is rejected instead of silently
/// producing an empty baseline.
pub fn parse_baseline_json(text: &str) -> Result<Vec<BaselineCase>, String> {
    match text
        .find("\"schema\":")
        .and_then(|pos| leading_json_string(&text[pos + "\"schema\":".len()..]))
    {
        Some(s) if s == "pmsb-bench/v1" => {}
        Some(s) => {
            return Err(format!(
                "baseline JSON declares schema '{s}', expected 'pmsb-bench/v1'; \
                 regenerate the baseline with this microbench's --json flag"
            ))
        }
        None => {
            return Err(
                "baseline JSON has no \"schema\" field; expected a 'pmsb-bench/v1' report \
                 (or pass a case,mean_ns,best_ns CSV)"
                    .into(),
            )
        }
    }
    let mut cases = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"label\":") {
        rest = &rest[pos + "\"label\":".len()..];
        // The case's numbers sit between this label and the next one.
        let obj = &rest[..rest.find("\"label\":").unwrap_or(rest.len())];
        if let (Some(label), Some(mean_nanos), Some(best_nanos)) = (
            leading_json_string(rest),
            number_after(obj, "\"mean_ns\":"),
            number_after(obj, "\"best_ns\":"),
        ) {
            cases.push(BaselineCase {
                label,
                mean_nanos,
                best_nanos,
            });
        }
    }
    Ok(cases)
}

/// Parses `--baseline` input in either supported format, dispatching on
/// the leading `{`: a committed `pmsb-bench/v1` JSON report, or the
/// legacy `case,mean_ns,best_ns` CSV capture of microbench stdout.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineCase>, String> {
    if text.trim_start().starts_with('{') {
        parse_baseline_json(text)
    } else {
        Ok(parse_baseline_csv(text))
    }
}

/// Outcome of the in-report FEL determinism cross-check.
#[derive(Debug, Clone)]
pub struct DeterminismCheck {
    /// `true` iff every workload popped identically on wheel and heap.
    pub fel_matches_heap: bool,
    /// Number of randomized workloads driven.
    pub workloads: u32,
    /// Total events pushed-and-popped across all workloads.
    pub events_checked: u64,
}

/// Drives the timing-wheel [`EventQueue`] and the reference
/// [`HeapQueue`] through identical randomized seeded workloads and
/// checks that every popped `(time, payload)` pair matches. This is a
/// cut-down in-binary version of the `fel_differential` test suite, so
/// every `BENCH_*.json` carries its own proof that the measured queue
/// still pops the heap's exact order.
pub fn determinism_check() -> DeterminismCheck {
    let mut ok = true;
    let mut events_checked = 0u64;
    let mut workloads = 0u32;
    // (seed, far_shift): far_shift > 0 mixes in far-future times that
    // cross the wheel horizon into the overflow heap.
    for (seed, far_shift) in [(1u64, 0u32), (2, 0), (3, 26), (4, 28)] {
        workloads += 1;
        let mut rng = SimRng::seed_from(seed);
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        for i in 0..5_000u64 {
            let now = wheel.now().as_nanos();
            let at = if far_shift > 0 && rng.below(8) == 0 {
                now + (rng.next_u64() % (1 << far_shift))
            } else {
                now + rng.below(2_000) as u64
            };
            wheel.push(SimTime::from_nanos(at), i);
            heap.push(SimTime::from_nanos(at), i);
            if i % 3 == 0 {
                ok &= wheel.pop() == heap.pop();
                events_checked += 1;
            }
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            ok &= w == h;
            if w.is_none() {
                break;
            }
            events_checked += 1;
        }
    }
    DeterminismCheck {
        fel_matches_heap: ok,
        workloads,
        events_checked,
    }
}

/// Hot-path metrics derived from one representative run, rather than
/// from timed closures.
#[derive(Debug, Clone)]
pub struct DerivedMetrics {
    /// Events processed by one `dumbbell_4x500KB/pmsb` run.
    pub dumbbell_events: u64,
    /// Per-hop packet deliveries in that run.
    pub dumbbell_deliveries: u64,
    /// FEL push+pop operations per second, from `event_queue/push_pop_1k`.
    pub event_queue_ops_per_sec: f64,
    /// Simulated packet deliveries per wall-clock second, from the
    /// best `dumbbell_4x500KB/pmsb` sample.
    pub dumbbell_packets_per_sec: f64,
    /// Events processed per wall-clock second on the same sample.
    pub dumbbell_events_per_sec: f64,
    /// Wall-clock of a 4-cell in-process harness campaign, ms.
    pub campaign_wall_clock_ms: f64,
    /// Sharded large-scale run speedup at 2 threads vs sequential, from
    /// the `large_scale_parallel/threads_*` best samples (NaN when the
    /// cases were not run).
    pub parallel_speedup_t2: f64,
    /// Same at 4 threads.
    pub parallel_speedup_t4: f64,
    /// Conservative-protocol health of the `threads_4` case (window
    /// count, per-window batching, barrier overhead, LP balance).
    pub parallel: ParallelProtocol,
    /// The hyperscale representative run (quick: 20k flows on a k=4
    /// fat-tree; full: one million flows on k=16).
    pub hyperscale: HyperscaleRun,
    /// The `fat_tree(24)` streaming smoke pass — the largest fabric the
    /// suite drives end to end (3456 hosts, 720 switches).
    pub k24: K24Smoke,
}

/// How the conservative protocol spent the `large_scale_parallel/
/// threads_4` benchmark case (the sharded paper fabric), from the
/// [`pmsb_simcore::lp::LpRunProfile`] captured right after that case.
#[derive(Debug, Clone)]
pub struct ParallelProtocol {
    /// Conservative windows the run stepped (fewer is better: each
    /// window costs two barriers).
    pub windows: u64,
    /// Cross-LP messages delivered across all windows.
    pub messages: u64,
    /// Messages batched into each window on average.
    pub msgs_per_window: f64,
    /// Coordinator barrier-wait share of the run's wall clock.
    pub barrier_wait_share: f64,
    /// Max-over-mean per-LP busy time (1.0 = perfectly balanced).
    pub lp_imbalance: f64,
}

/// One streaming shuffle pass over the 3456-host `fat_tree(24)` fabric:
/// proof the suite builds and drives k=24 end to end, with the
/// wall-clock flow throughput it sustains there.
#[derive(Debug, Clone)]
pub struct K24Smoke {
    /// Fat-tree parameter (always 24).
    pub fabric_k: usize,
    /// Host count of the fabric (`k^3/4`).
    pub hosts: usize,
    /// Flows injected from the stream.
    pub flows: u64,
    /// Flows completed before the horizon.
    pub completed: u64,
    /// Completed flows per wall-clock second.
    pub flows_per_sec: f64,
    /// Peak simultaneously-allocated flow slots.
    pub slab_high_water: u64,
}

/// Runs the k=24 streaming smoke pass (quick: 5 000 flows; full:
/// 50 000) and times it.
pub fn k24_smoke(quick: bool) -> K24Smoke {
    use pmsb_workload::PatternSpec;
    let k = 24usize;
    let flows = if quick { 5_000 } else { 50_000 };
    let scheme = (
        "pmsb",
        MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        },
        None,
    );
    let t0 = Instant::now();
    let row = crate::hyperscale::run_cell(
        &scheme,
        &("shuffle", PatternSpec::shuffle()),
        k,
        flows,
        42,
        &SimOpts::default(),
    );
    let secs = t0.elapsed().as_secs_f64();
    K24Smoke {
        fabric_k: k,
        hosts: k * k * k / 4,
        flows: row.injected,
        completed: row.completed,
        flows_per_sec: row.completed as f64 / secs,
        slab_high_water: row.slab_high_water,
    }
}

/// Metrics of one representative streaming fat-tree run: the wall-clock
/// flow throughput and the live-slab high-water mark that bound the
/// memory claim of DESIGN.md §10, under both the packet engine and the
/// hybrid packet/fluid fast path (DESIGN.md §11).
#[derive(Debug, Clone)]
pub struct HyperscaleRun {
    /// Fat-tree parameter `k` of the fabric.
    pub fabric_k: usize,
    /// Flows injected from the stream.
    pub flows: u64,
    /// Flows completed before the horizon (packet engine).
    pub completed: u64,
    /// Completed flows per wall-clock second (packet engine).
    pub flows_per_sec: f64,
    /// Peak simultaneously-allocated flow slots (the resident-memory
    /// proxy: flow state is bounded by this, not by `flows`).
    pub slab_high_water: u64,
    /// Sketch 99th-percentile FCT, µs (packet engine).
    pub fct_p99_us: f64,
    /// Flows completed before the horizon under `--engine hybrid`.
    pub hybrid_completed: u64,
    /// Completed flows per wall-clock second under `--engine hybrid`.
    pub hybrid_flows_per_sec: f64,
    /// Sketch 99th-percentile FCT under `--engine hybrid`, µs.
    pub hybrid_fct_p99_us: f64,
    /// `hybrid_flows_per_sec / flows_per_sec` — the hybrid fast path's
    /// wall-clock advantage on the same cell.
    pub fluid_speedup: f64,
    /// Flows completed before the horizon under `--engine regional`
    /// (auto-scouted hot ports at full packet level, DESIGN.md §13).
    pub regional_completed: u64,
    /// Completed flows per wall-clock second under `--engine regional`.
    pub regional_flows_per_sec: f64,
    /// Sketch 99th-percentile FCT under `--engine regional`, µs.
    pub regional_fct_p99_us: f64,
    /// `regional_flows_per_sec / flows_per_sec` — the regional engine's
    /// wall-clock advantage over the full packet run on the same cell.
    pub regional_speedup: f64,
    /// Conservative windows the packet run's sharded executor stepped
    /// (0 on the sequential fallback; see `pmsb_simcore::lp`).
    pub lp_windows: u64,
    /// Cross-shard messages it delivered.
    pub lp_messages: u64,
    /// Coordinator wall-clock spent on window barriers, ms.
    pub lp_barrier_wait_ms: f64,
}

/// Runs the representative hyperscale cell — a mixed incast+shuffle
/// stream of 20 KB flows over a fat-tree, PMSB marking — once per
/// engine (packet, then hybrid) and times both. `quick` uses 20 000
/// flows on k=4; the full run is the BENCH headline: one million flows
/// on the 1024-host k=16 fabric.
pub fn hyperscale_run(quick: bool) -> HyperscaleRun {
    use pmsb_netsim::EngineKind;
    use pmsb_workload::PatternSpec;
    let (k, flows) = if quick { (4, 20_000) } else { (16, 1_000_000) };
    let pattern = PatternSpec::Mix(vec![
        PatternSpec::Incast {
            fan_in: 64,
            epoch_nanos: 500_000,
            request_bytes: 20_000,
        },
        PatternSpec::Shuffle {
            flow_bytes: 20_000,
            wave_gap_nanos: 1_000_000,
        },
    ]);
    let scheme = (
        "pmsb",
        MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        },
        None,
    );
    let cell = |engine| {
        let t0 = Instant::now();
        let row = crate::hyperscale::run_cell(
            &scheme,
            &("mix", pattern.clone()),
            k,
            flows,
            42,
            &SimOpts {
                engine,
                ..SimOpts::default()
            },
        );
        (row, t0.elapsed().as_secs_f64())
    };
    let (row, secs) = cell(EngineKind::Packet);
    let lp = pmsb_simcore::lp::last_run_profile();
    let (hybrid, hybrid_secs) = cell(EngineKind::Hybrid);
    let (regional, regional_secs) = cell(EngineKind::Regional);
    let packet_fps = row.completed as f64 / secs;
    let hybrid_fps = hybrid.completed as f64 / hybrid_secs;
    let regional_fps = regional.completed as f64 / regional_secs;
    HyperscaleRun {
        fabric_k: k,
        flows: row.injected,
        completed: row.completed,
        flows_per_sec: packet_fps,
        slab_high_water: row.slab_high_water,
        fct_p99_us: row.fct_p99_us,
        hybrid_completed: hybrid.completed,
        hybrid_flows_per_sec: hybrid_fps,
        hybrid_fct_p99_us: hybrid.fct_p99_us,
        fluid_speedup: hybrid_fps / packet_fps,
        regional_completed: regional.completed,
        regional_flows_per_sec: regional_fps,
        regional_fct_p99_us: regional.fct_p99_us,
        regional_speedup: regional_fps / packet_fps,
        lp_windows: lp.windows,
        lp_messages: lp.messages,
        lp_barrier_wait_ms: lp.barrier_wait_nanos as f64 / 1e6,
    }
}

/// Runs the `dumbbell_4x500KB/pmsb` scenario once and returns its
/// `(events, deliveries)` counters.
fn dumbbell_counts() -> (u64, u64) {
    let mut e = Experiment::dumbbell(4, 2).marking(MarkingConfig::Pmsb {
        port_threshold_pkts: 12,
    });
    for s in 0..4 {
        e.add_flow(FlowDesc::bulk(s, 4, s % 2, 500_000));
    }
    let res = e.run_for_millis(10);
    (res.events, res.deliveries)
}

/// Times one 4-cell dumbbell campaign (one cell per marking scheme)
/// through the harness, end to end including the result store.
fn campaign_wall_clock_ms() -> f64 {
    let cells: Vec<(&'static str, MarkingConfig)> = vec![
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
    ];
    let mut campaign = Campaign::new("bench_wallclock");
    for (scheme, marking) in cells {
        campaign.push(
            Job::new("dumbbell_4x500KB", 0, move || {
                let mut e = Experiment::dumbbell(4, 2).marking(marking);
                for s in 0..4 {
                    e.add_flow(FlowDesc::bulk(s, 4, s % 2, 500_000));
                }
                let res = e.run_for_millis(10);
                Record::new()
                    .field("flows_done", res.fct.len())
                    .field("marks", res.marks)
            })
            .param("scheme", scheme),
        );
    }
    let root = std::env::temp_dir().join(format!("pmsb-bench-wallclock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let t0 = Instant::now();
    let out = campaign.run(&RunOptions {
        jobs: Some(1),
        results_root: root.clone(),
        quiet: true,
    });
    let elapsed = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&root);
    match out {
        Ok(r) if r.is_success() => elapsed,
        _ => f64::NAN,
    }
}

fn find_best(results: &[CaseResult], label: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| r.label == label)
        .map(|r| r.best_nanos)
}

/// Computes the derived hot-path metrics from the timed case results
/// and the `threads_4` case's protocol profile (both from
/// [`crate::micro::run_all`]). `quick` sizes the representative
/// hyperscale run.
pub fn derive_metrics(
    results: &[CaseResult],
    parallel: &LpRunProfile,
    quick: bool,
) -> DerivedMetrics {
    let (events, deliveries) = dumbbell_counts();
    // push_pop_1k performs 1000 pushes + 1000 pops per iteration.
    let eq_ops = find_best(results, "event_queue/push_pop_1k")
        .map(|best| 2_000.0 / (best * 1e-9))
        .unwrap_or(f64::NAN);
    let dumbbell_best = find_best(results, "dumbbell_4x500KB/pmsb").unwrap_or(f64::NAN);
    let seq = find_best(results, "large_scale_parallel/threads_1");
    let speedup_vs_seq = |label: &str| match (seq, find_best(results, label)) {
        (Some(a), Some(b)) if b > 0.0 => a / b,
        _ => f64::NAN,
    };
    DerivedMetrics {
        dumbbell_events: events,
        dumbbell_deliveries: deliveries,
        event_queue_ops_per_sec: eq_ops,
        dumbbell_packets_per_sec: deliveries as f64 / (dumbbell_best * 1e-9),
        dumbbell_events_per_sec: events as f64 / (dumbbell_best * 1e-9),
        campaign_wall_clock_ms: campaign_wall_clock_ms(),
        parallel_speedup_t2: speedup_vs_seq("large_scale_parallel/threads_2"),
        parallel_speedup_t4: speedup_vs_seq("large_scale_parallel/threads_4"),
        parallel: ParallelProtocol {
            windows: parallel.windows,
            messages: parallel.messages,
            msgs_per_window: parallel.msgs_per_window(),
            barrier_wait_share: parallel.barrier_wait_share(),
            lp_imbalance: parallel.lp_imbalance(),
        },
        hyperscale: hyperscale_run(quick),
        k24: k24_smoke(quick),
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.1}");
    } else {
        out.push_str("null");
    }
}

/// Like [`push_f64`] but with ratio precision (speedup factors).
fn push_ratio(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.3}");
    } else {
        out.push_str("null");
    }
}

/// Renders the full report as a pretty-printed JSON document.
///
/// Layout:
/// ```json
/// {
///   "schema": "pmsb-bench/v1",
///   "quick": false,
///   "cases": [ {"label", "mean_ns", "best_ns",
///               "baseline_best_ns"?, "speedup"?}, ... ],
///   "derived": { ... },
///   "determinism": { ... }
/// }
/// ```
/// `speedup` is `baseline_best_ns / best_ns` (>1 means this run is
/// faster than the baseline) and appears only when `--baseline` was
/// given and the label matched.
pub fn render_json(
    results: &[CaseResult],
    baseline: &[BaselineCase],
    derived: &DerivedMetrics,
    determinism: &DeterminismCheck,
    quick: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"pmsb-bench/v1\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\"label\": ");
        push_json_str(&mut out, &r.label);
        out.push_str(", \"mean_ns\": ");
        push_f64(&mut out, r.mean_nanos);
        out.push_str(", \"best_ns\": ");
        push_f64(&mut out, r.best_nanos);
        if let Some(b) = baseline.iter().find(|b| b.label == r.label) {
            out.push_str(", \"baseline_best_ns\": ");
            push_f64(&mut out, b.best_nanos);
            out.push_str(", \"speedup\": ");
            if r.best_nanos > 0.0 {
                let _ = write!(out, "{:.3}", b.best_nanos / r.best_nanos);
            } else {
                out.push_str("null");
            }
        }
        out.push('}');
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str("  \"derived\": {\n");
    let _ = writeln!(
        out,
        "    \"dumbbell_events_per_run\": {},",
        derived.dumbbell_events
    );
    let _ = writeln!(
        out,
        "    \"dumbbell_deliveries_per_run\": {},",
        derived.dumbbell_deliveries
    );
    out.push_str("    \"event_queue_ops_per_sec\": ");
    push_f64(&mut out, derived.event_queue_ops_per_sec);
    out.push_str(",\n    \"dumbbell_packets_per_sec\": ");
    push_f64(&mut out, derived.dumbbell_packets_per_sec);
    out.push_str(",\n    \"dumbbell_events_per_sec\": ");
    push_f64(&mut out, derived.dumbbell_events_per_sec);
    out.push_str(",\n    \"campaign_wall_clock_ms\": ");
    push_f64(&mut out, derived.campaign_wall_clock_ms);
    out.push_str(",\n    \"parallel_speedup_t2\": ");
    push_ratio(&mut out, derived.parallel_speedup_t2);
    out.push_str(",\n    \"parallel_speedup_t4\": ");
    push_ratio(&mut out, derived.parallel_speedup_t4);
    out.push_str(",\n    \"parallel\": {\n");
    let pp = &derived.parallel;
    let _ = writeln!(out, "      \"windows\": {},", pp.windows);
    let _ = writeln!(out, "      \"messages\": {},", pp.messages);
    out.push_str("      \"msgs_per_window\": ");
    push_f64(&mut out, pp.msgs_per_window);
    out.push_str(",\n      \"barrier_wait_share\": ");
    push_ratio(&mut out, pp.barrier_wait_share);
    out.push_str(",\n      \"lp_imbalance\": ");
    push_ratio(&mut out, pp.lp_imbalance);
    out.push_str("\n    },\n    \"hyperscale\": {\n");
    let hs = &derived.hyperscale;
    let _ = writeln!(out, "      \"fabric_k\": {},", hs.fabric_k);
    let _ = writeln!(out, "      \"flows\": {},", hs.flows);
    let _ = writeln!(out, "      \"completed\": {},", hs.completed);
    out.push_str("      \"flows_per_sec\": ");
    push_f64(&mut out, hs.flows_per_sec);
    let _ = writeln!(out, ",\n      \"slab_high_water\": {},", hs.slab_high_water);
    out.push_str("      \"fct_p99_us\": ");
    push_f64(&mut out, hs.fct_p99_us);
    let _ = writeln!(
        out,
        ",\n      \"hybrid_completed\": {},",
        hs.hybrid_completed
    );
    out.push_str("      \"hybrid_flows_per_sec\": ");
    push_f64(&mut out, hs.hybrid_flows_per_sec);
    out.push_str(",\n      \"hybrid_fct_p99_us\": ");
    push_f64(&mut out, hs.hybrid_fct_p99_us);
    out.push_str(",\n      \"fluid_speedup\": ");
    push_ratio(&mut out, hs.fluid_speedup);
    let _ = writeln!(
        out,
        ",\n      \"regional_completed\": {},",
        hs.regional_completed
    );
    out.push_str("      \"regional_flows_per_sec\": ");
    push_f64(&mut out, hs.regional_flows_per_sec);
    out.push_str(",\n      \"regional_fct_p99_us\": ");
    push_f64(&mut out, hs.regional_fct_p99_us);
    out.push_str(",\n      \"regional_speedup\": ");
    push_ratio(&mut out, hs.regional_speedup);
    let _ = writeln!(out, ",\n      \"lp_windows\": {},", hs.lp_windows);
    let _ = writeln!(out, "      \"lp_messages\": {},", hs.lp_messages);
    out.push_str("      \"lp_barrier_wait_ms\": ");
    push_f64(&mut out, hs.lp_barrier_wait_ms);
    out.push_str("\n    },\n    \"k24_smoke\": {\n");
    let k24 = &derived.k24;
    let _ = writeln!(out, "      \"fabric_k\": {},", k24.fabric_k);
    let _ = writeln!(out, "      \"hosts\": {},", k24.hosts);
    let _ = writeln!(out, "      \"flows\": {},", k24.flows);
    let _ = writeln!(out, "      \"completed\": {},", k24.completed);
    out.push_str("      \"flows_per_sec\": ");
    push_f64(&mut out, k24.flows_per_sec);
    let _ = writeln!(out, ",\n      \"slab_high_water\": {}", k24.slab_high_water);
    out.push_str("    }\n  },\n");
    out.push_str("  \"determinism\": {\n");
    let _ = writeln!(
        out,
        "    \"fel_matches_heap\": {},",
        determinism.fel_matches_heap
    );
    let _ = writeln!(out, "    \"workloads\": {},", determinism.workloads);
    let _ = writeln!(
        out,
        "    \"events_checked\": {}",
        determinism.events_checked
    );
    out.push_str("  }\n}\n");
    out
}

/// Builds the complete JSON report: derived metrics, determinism
/// cross-check, and (when `baseline_text` is given — JSON report or
/// legacy CSV, see [`parse_baseline`]) per-case speedups. Fails when
/// the baseline text is a JSON document of the wrong schema.
pub fn build(
    results: &[CaseResult],
    parallel: &LpRunProfile,
    baseline_text: Option<&str>,
    quick: bool,
) -> Result<String, String> {
    let baseline = baseline_text
        .map(parse_baseline)
        .transpose()?
        .unwrap_or_default();
    let derived = derive_metrics(results, parallel, quick);
    let determinism = determinism_check();
    Ok(render_json(
        results,
        &baseline,
        &derived,
        &determinism,
        quick,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_hyperscale() -> HyperscaleRun {
        HyperscaleRun {
            fabric_k: 4,
            flows: 20_000,
            completed: 19_900,
            flows_per_sec: 50_000.0,
            slab_high_water: 96,
            fct_p99_us: 250.0,
            hybrid_completed: 19_900,
            hybrid_flows_per_sec: 600_000.0,
            hybrid_fct_p99_us: 245.0,
            fluid_speedup: 12.0,
            regional_completed: 19_900,
            regional_flows_per_sec: 400_000.0,
            regional_fct_p99_us: 252.0,
            regional_speedup: 8.0,
            lp_windows: 0,
            lp_messages: 0,
            lp_barrier_wait_ms: 0.0,
        }
    }

    fn test_parallel() -> ParallelProtocol {
        ParallelProtocol {
            windows: 9_000,
            messages: 5_400_000,
            msgs_per_window: 600.0,
            barrier_wait_share: 0.42,
            lp_imbalance: 1.15,
        }
    }

    fn test_k24() -> K24Smoke {
        K24Smoke {
            fabric_k: 24,
            hosts: 3_456,
            flows: 5_000,
            completed: 4_990,
            flows_per_sec: 12_000.0,
            slab_high_water: 210,
        }
    }

    #[test]
    fn baseline_csv_parses_and_skips_header() {
        let parsed = parse_baseline_csv(
            "case,mean_ns,best_ns\nevent_queue/push_pop_1k,100.5,90.0\nbad line\n",
        );
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].label, "event_queue/push_pop_1k");
        assert_eq!(parsed[0].best_nanos, 90.0);
    }

    #[test]
    fn json_baseline_round_trips_from_a_rendered_report() {
        let results = vec![
            CaseResult {
                label: "event_queue/push_pop_1k".into(),
                mean_nanos: 110.0,
                best_nanos: 100.0,
            },
            CaseResult {
                label: "dumbbell_4x500KB/pmsb".into(),
                mean_nanos: 2_200.0,
                best_nanos: 2_000.0,
            },
        ];
        // Give the first case baseline fields, so the parser must not
        // confuse "baseline_best_ns" with "best_ns".
        let baseline =
            parse_baseline_csv("case,mean_ns,best_ns\nevent_queue/push_pop_1k,160.0,150.0\n");
        let derived = DerivedMetrics {
            dumbbell_events: 0,
            dumbbell_deliveries: 0,
            event_queue_ops_per_sec: f64::NAN,
            dumbbell_packets_per_sec: f64::NAN,
            dumbbell_events_per_sec: f64::NAN,
            campaign_wall_clock_ms: f64::NAN,
            parallel_speedup_t2: f64::NAN,
            parallel_speedup_t4: f64::NAN,
            parallel: test_parallel(),
            hyperscale: test_hyperscale(),
            k24: test_k24(),
        };
        let determinism = DeterminismCheck {
            fel_matches_heap: true,
            workloads: 4,
            events_checked: 20_000,
        };
        let json = render_json(&results, &baseline, &derived, &determinism, true);
        let parsed = parse_baseline(&json).expect("own report parses as a baseline");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].label, "event_queue/push_pop_1k");
        assert_eq!(parsed[0].mean_nanos, 110.0);
        assert_eq!(parsed[0].best_nanos, 100.0);
        assert_eq!(parsed[1].label, "dumbbell_4x500KB/pmsb");
        assert_eq!(parsed[1].best_nanos, 2_000.0);
    }

    #[test]
    fn json_baseline_rejects_wrong_or_missing_schema() {
        let err = parse_baseline_json("{\"schema\": \"pmsb-bench/v2\", \"cases\": []}")
            .expect_err("wrong schema must fail");
        assert!(err.contains("pmsb-bench/v1"), "unhelpful error: {err}");
        assert!(
            err.contains("pmsb-bench/v2"),
            "should name the found schema: {err}"
        );
        let err = parse_baseline_json("{\"cases\": []}").expect_err("missing schema must fail");
        assert!(err.contains("schema"), "unhelpful error: {err}");
        // CSV input never hits the JSON path.
        assert_eq!(
            parse_baseline("case,mean_ns,best_ns\nx,2.0,1.0\n")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn every_committed_report_parses_as_a_baseline() {
        for (name, text) in [
            ("BENCH_pr2.json", include_str!("../../../BENCH_pr2.json")),
            ("BENCH_pr4.json", include_str!("../../../BENCH_pr4.json")),
            ("BENCH_pr6.json", include_str!("../../../BENCH_pr6.json")),
            ("BENCH_pr7.json", include_str!("../../../BENCH_pr7.json")),
            ("BENCH_pr8.json", include_str!("../../../BENCH_pr8.json")),
            ("BENCH_pr9.json", include_str!("../../../BENCH_pr9.json")),
            ("BENCH_pr10.json", include_str!("../../../BENCH_pr10.json")),
        ] {
            let cases = parse_baseline(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!cases.is_empty(), "{name} holds no cases");
        }
    }

    #[test]
    fn determinism_check_passes() {
        let check = determinism_check();
        assert!(check.fel_matches_heap);
        assert!(check.events_checked > 10_000);
        assert_eq!(check.workloads, 4);
    }

    #[test]
    fn report_is_valid_shape_with_baseline_speedups() {
        let results = vec![
            CaseResult {
                label: "event_queue/push_pop_1k".into(),
                mean_nanos: 110.0,
                best_nanos: 100.0,
            },
            CaseResult {
                label: "dumbbell_4x500KB/pmsb".into(),
                mean_nanos: 2_200.0,
                best_nanos: 2_000.0,
            },
        ];
        let baseline =
            parse_baseline_csv("case,mean_ns,best_ns\nevent_queue/push_pop_1k,160.0,150.0\n");
        let derived = DerivedMetrics {
            dumbbell_events: 12_000,
            dumbbell_deliveries: 6_000,
            event_queue_ops_per_sec: 1e9,
            dumbbell_packets_per_sec: 3e9,
            dumbbell_events_per_sec: 6e9,
            campaign_wall_clock_ms: 42.0,
            parallel_speedup_t2: 1.4,
            parallel_speedup_t4: f64::NAN,
            parallel: test_parallel(),
            hyperscale: test_hyperscale(),
            k24: test_k24(),
        };
        let determinism = DeterminismCheck {
            fel_matches_heap: true,
            workloads: 4,
            events_checked: 20_000,
        };
        let json = render_json(&results, &baseline, &derived, &determinism, true);
        assert!(json.contains("\"speedup\": 1.500"));
        assert!(json.contains("\"baseline_best_ns\": 150.0"));
        assert!(json.contains("\"fel_matches_heap\": true"));
        assert!(json.contains("\"campaign_wall_clock_ms\": 42.0"));
        assert!(json.contains("\"parallel_speedup_t2\": 1.400"));
        assert!(json.contains("\"parallel_speedup_t4\": null"));
        assert!(json.contains("\"windows\": 9000"));
        assert!(json.contains("\"msgs_per_window\": 600.0"));
        assert!(json.contains("\"barrier_wait_share\": 0.420"));
        assert!(json.contains("\"lp_imbalance\": 1.150"));
        assert!(json.contains("\"slab_high_water\": 96"));
        assert!(json.contains("\"flows_per_sec\": 50000.0"));
        assert!(json.contains("\"fabric_k\": 4"));
        assert!(json.contains("\"hybrid_flows_per_sec\": 600000.0"));
        assert!(json.contains("\"fluid_speedup\": 12.000"));
        assert!(json.contains("\"regional_flows_per_sec\": 400000.0"));
        assert!(json.contains("\"regional_speedup\": 8.000"));
        assert!(json.contains("\"lp_windows\": 0"));
        assert!(json.contains("\"lp_barrier_wait_ms\": 0.0"));
        assert!(json.contains("\"k24_smoke\""));
        assert!(json.contains("\"fabric_k\": 24"));
        assert!(json.contains("\"hosts\": 3456"));
        // The dumbbell case had no baseline entry: no speedup key on it.
        let dumbbell_line = json
            .lines()
            .find(|l| l.contains("dumbbell_4x500KB/pmsb"))
            .unwrap();
        assert!(!dumbbell_line.contains("speedup"));
        // Shape sanity: balanced braces and brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in: {json}"
        );
    }
}
