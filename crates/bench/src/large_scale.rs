//! Large-scale leaf–spine FCT experiments: Figs. 16–21 (DWRR) and
//! Figs. 22–27 (WFQ) of §VI-B.
//!
//! 48-host leaf–spine fabric, Poisson arrivals of the paper's 60/30/10
//! flow-size mix over 8 services, load swept on the x-axis. Each figure
//! group reports overall average FCT, large-flow average and 99th
//! percentile, and small-flow average / 95th / 99th percentile for each
//! scheme — the same series the paper plots.

use pmsb::MarkPoint;
use pmsb_harness::Record;
use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig, SchedulerConfig};
use pmsb_simcore::rng::SimRng;
use pmsb_workload::traffic::TrafficSpec;

use crate::outln;
use crate::util::{banner, SimOpts};
use pmsb_metrics::fct::SizeClass;
use pmsb_metrics::robustness::{FlowRobustness, RobustnessSummary};

/// One `(scheme, load)` cell of the large-scale tables.
#[derive(Debug, Clone)]
pub struct LsRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Offered load fraction.
    pub load: f64,
    /// Completed / injected flows.
    pub completed: usize,
    /// Injected flows.
    pub injected: usize,
    /// Overall average FCT, µs.
    pub overall_avg_us: f64,
    /// Large-flow (>10 MB) average FCT, µs.
    pub large_avg_us: f64,
    /// Large-flow 99th-percentile FCT, µs.
    pub large_p99_us: f64,
    /// Small-flow (<100 KB) average FCT, µs.
    pub small_avg_us: f64,
    /// Small-flow 95th-percentile FCT, µs.
    pub small_p95_us: f64,
    /// Small-flow 99th-percentile FCT, µs.
    pub small_p99_us: f64,
    /// Tail drops across the fabric.
    pub drops: u64,
    /// CE marks applied.
    pub marks: u64,
    /// ECE marks senders saw across all flows.
    pub marks_seen: u64,
    /// ECE marks PMSB(e) suppressed (0 for schemes without a threshold) —
    /// the blindness rate is `marks_ignored / marks_seen`.
    pub marks_ignored: u64,
    /// Segments retransmitted across all senders.
    pub retransmissions: u64,
    /// Retransmission timeouts across all senders.
    pub timeouts: u64,
    /// Loss-recovery episodes across all senders.
    pub loss_episodes: u64,
    /// Mean per-flow loss-recovery time (lossy flows only), µs; 0 when
    /// no flow lost anything.
    pub mean_recovery_us: f64,
}

/// One scheme of the lineup: `(name, marking, PMSB(e) RTT threshold,
/// mark point)`.
pub type SchemeSpec = (&'static str, MarkingConfig, Option<u64>, MarkPoint);

/// The scheme lineup for a scheduler, as configured in the paper:
/// PMSB port K = 12 pkts; PMSB(e) = per-port K = 12 with an 85.2 µs RTT
/// threshold; MQ-ECN standard K = 65 pkts (round-based schedulers only);
/// TCN T_k = 78.2 µs (dequeue marking by nature).
pub fn schemes(include_mq_ecn: bool) -> Vec<SchemeSpec> {
    let mut v: Vec<SchemeSpec> = vec![
        (
            "pmsb",
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            None,
            MarkPoint::Enqueue,
        ),
        (
            "pmsb(e)",
            MarkingConfig::PerPort { threshold_pkts: 12 },
            Some(85_200),
            MarkPoint::Enqueue,
        ),
        (
            "tcn",
            MarkingConfig::Tcn {
                threshold_nanos: 78_200,
            },
            None,
            MarkPoint::Dequeue,
        ),
    ];
    if include_mq_ecn {
        v.insert(
            2,
            (
                "mq-ecn",
                MarkingConfig::MqEcn { standard_pkts: 65 },
                None,
                MarkPoint::Enqueue,
            ),
        );
    }
    v
}

/// Runs one `(scheduler, scheme, load)` cell under `opts` (any thread
/// count gives the same records, see DESIGN.md §8).
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    scheduler: SchedulerConfig,
    scheme: &'static str,
    marking: MarkingConfig,
    pmsbe: Option<u64>,
    mark_point: MarkPoint,
    load: f64,
    num_flows: usize,
    seed: u64,
    opts: &SimOpts,
) -> LsRow {
    let spec = TrafficSpec::paper_large_scale(48, load);
    let mut rng = SimRng::seed_from(seed);
    let flows = spec.generate(num_flows, &mut rng);
    let mut e = opts.apply(
        Experiment::paper_leaf_spine()
            .scheduler(scheduler)
            .marking(marking)
            .mark_point(mark_point),
    );
    if let Some(thr) = pmsbe {
        e = e.pmsbe_rtt_threshold_nanos(thr);
    }
    for f in &flows {
        e.add_flow(
            FlowDesc::bulk(f.src_host, f.dst_host, f.service, f.size_bytes)
                .starting_at(f.start_nanos),
        );
    }
    let last = flows.last().map(|f| f.start_nanos).unwrap_or(0);
    let res = e.run_until_nanos(last + 1_000_000_000);
    let stat = |c: SizeClass, f: fn(&pmsb_metrics::Summary) -> f64| {
        res.fct.stats(c).map(|s| f(&s) / 1e3).unwrap_or(f64::NAN)
    };
    let rob = RobustnessSummary::collect(res.sender_stats.values().map(|s| FlowRobustness {
        retransmissions: s.retransmissions,
        timeouts: s.timeouts,
        loss_episodes: s.loss_episodes,
        recovery_nanos: s.recovery_nanos,
    }));
    LsRow {
        scheme,
        load,
        completed: res.fct.len(),
        injected: flows.len(),
        overall_avg_us: stat(SizeClass::Overall, |s| s.mean),
        large_avg_us: stat(SizeClass::Large, |s| s.mean),
        large_p99_us: stat(SizeClass::Large, |s| s.p99),
        small_avg_us: stat(SizeClass::Small, |s| s.mean),
        small_p95_us: stat(SizeClass::Small, |s| s.p95),
        small_p99_us: stat(SizeClass::Small, |s| s.p99),
        drops: res.drops,
        marks: res.marks,
        marks_seen: res.sender_stats.values().map(|s| s.marks_seen).sum(),
        marks_ignored: res.sender_stats.values().map(|s| s.marks_ignored).sum(),
        retransmissions: rob.retransmissions,
        timeouts: rob.timeouts,
        loss_episodes: rob.loss_episodes,
        mean_recovery_us: rob.mean_recovery_nanos() / 1e3,
    }
}

/// The load points and flow count of the paper sweep (or the `--quick`
/// smoke version).
pub fn loads_and_flows(quick: bool) -> (&'static [f64], usize) {
    if quick {
        (&[0.3, 0.6], 250)
    } else {
        (&[0.2, 0.4, 0.6, 0.8], 1200)
    }
}

/// The CSV header matching [`csv_line`].
pub const CSV_HEADER: &str = "scheme,load,completed,injected,overall_avg_us,large_avg_us,\
                              large_p99_us,small_avg_us,small_p95_us,small_p99_us,drops,marks,\
                              marks_seen,marks_ignored,retransmissions,timeouts,loss_episodes,\
                              mean_recovery_us";

/// One [`LsRow`] as a CSV line (no newline).
pub fn csv_line(row: &LsRow) -> String {
    format!(
        "{},{:.1},{},{},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{},{},{},{},{},{},{},{:.1}",
        row.scheme,
        row.load,
        row.completed,
        row.injected,
        row.overall_avg_us,
        row.large_avg_us,
        row.large_p99_us,
        row.small_avg_us,
        row.small_p95_us,
        row.small_p99_us,
        row.drops,
        row.marks,
        row.marks_seen,
        row.marks_ignored,
        row.retransmissions,
        row.timeouts,
        row.loss_episodes,
        row.mean_recovery_us
    )
}

/// The harness-record payload of one cell — every [`LsRow`] metric.
pub fn row_record(row: &LsRow) -> Record {
    Record::new()
        .field("completed", row.completed)
        .field("injected", row.injected)
        .field("overall_avg_us", row.overall_avg_us)
        .field("large_avg_us", row.large_avg_us)
        .field("large_p99_us", row.large_p99_us)
        .field("small_avg_us", row.small_avg_us)
        .field("small_p95_us", row.small_p95_us)
        .field("small_p99_us", row.small_p99_us)
        .field("drops", row.drops)
        .field("marks", row.marks)
        .field("marks_seen", row.marks_seen)
        .field("marks_ignored", row.marks_ignored)
        .field("retransmissions", row.retransmissions)
        .field("timeouts", row.timeouts)
        .field("loss_episodes", row.loss_episodes)
        .field("mean_recovery_us", row.mean_recovery_us)
}

/// Rebuilds an [`LsRow`] from a harness record written by
/// [`row_record`] (with `scheme` and `load` job parameters). Returns
/// `None` if a field is missing or the scheme name is unknown.
pub fn row_from_record(rec: &Record) -> Option<LsRow> {
    let scheme = ["pmsb", "pmsb(e)", "mq-ecn", "tcn"]
        .into_iter()
        .find(|s| rec.get_str("scheme") == Some(s))?;
    let f = |k: &str| rec.get_f64(k);
    Some(LsRow {
        scheme,
        load: rec.get_str("load")?.parse().ok()?,
        completed: f("completed")? as usize,
        injected: f("injected")? as usize,
        overall_avg_us: f("overall_avg_us")?,
        large_avg_us: f("large_avg_us")?,
        large_p99_us: f("large_p99_us")?,
        small_avg_us: f("small_avg_us")?,
        small_p95_us: f("small_p95_us")?,
        small_p99_us: f("small_p99_us")?,
        drops: f("drops")? as u64,
        marks: f("marks")? as u64,
        // Absent in records written before these columns existed:
        // surface as zero rather than dropping the row.
        marks_seen: f("marks_seen").unwrap_or(0.0) as u64,
        marks_ignored: f("marks_ignored").unwrap_or(0.0) as u64,
        retransmissions: f("retransmissions").unwrap_or(0.0) as u64,
        timeouts: f("timeouts").unwrap_or(0.0) as u64,
        loss_episodes: f("loss_episodes").unwrap_or(0.0) as u64,
        mean_recovery_us: f("mean_recovery_us").unwrap_or(0.0),
    })
}

/// Writes the sweep table (banner, CSV rows, headline reductions) for a
/// completed set of cells.
pub fn write_sweep_report(out: &mut String, title: &str, rows: &[LsRow]) {
    banner(out, title);
    outln!(out, "{CSV_HEADER}");
    for row in rows {
        outln!(out, "{}", csv_line(row));
    }
    write_reductions(out, rows);
}

/// The DWRR sweep title (Figs. 16–21).
pub const FIG16_21_TITLE: &str = "Figs 16-21: large-scale leaf-spine, DWRR scheduler";
/// The WFQ sweep title (Figs. 22–27).
pub const FIG22_27_TITLE: &str =
    "Figs 22-27: large-scale leaf-spine, WFQ scheduler (MQ-ECN excluded)";

/// Writes the paper's headline comparisons: PMSB / PMSB(e) small-flow FCT
/// reduction relative to each baseline, averaged across loads.
pub fn write_reductions(out: &mut String, rows: &[LsRow]) {
    let mean_of = |scheme: &str, f: fn(&LsRow) -> f64| -> Option<f64> {
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| r.scheme == scheme && f(r).is_finite())
            .map(f)
            .collect();
        (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
    };
    for baseline in ["tcn", "mq-ecn"] {
        for ours in ["pmsb", "pmsb(e)"] {
            for (metric, get) in [
                (
                    "small avg",
                    (|r: &LsRow| r.small_avg_us) as fn(&LsRow) -> f64,
                ),
                ("small p99", |r: &LsRow| r.small_p99_us),
                ("large avg", |r: &LsRow| r.large_avg_us),
            ] {
                if let (Some(b), Some(o)) = (mean_of(baseline, get), mean_of(ours, get)) {
                    outln!(
                        out,
                        "# {ours} vs {baseline}: {metric} FCT change {:+.1}%",
                        (o / b - 1.0) * 100.0
                    );
                }
            }
        }
    }
}
