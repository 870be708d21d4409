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
use pmsb_metrics::fct::SizeClass;
use pmsb_netsim::experiment::{Experiment, MarkingConfig, SchedulerConfig};

use crate::outln;
use crate::util::{add_paper_flows, fct_us, metric, robustness, SimOpts};

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
/// count gives the same records, see DESIGN.md §8) and returns its
/// record: every column of [`CSV_HEADER`] but the `scheme` and `load`
/// job parameters.
pub fn run_cell(
    scheduler: SchedulerConfig,
    scheme: &SchemeSpec,
    load: f64,
    num_flows: usize,
    seed: u64,
    opts: &SimOpts,
) -> Record {
    let (_, marking, pmsbe, mark_point) = scheme;
    let mut e = opts.apply(
        Experiment::paper_leaf_spine()
            .scheduler(scheduler)
            .marking(marking.clone())
            .mark_point(*mark_point),
    );
    if let Some(thr) = *pmsbe {
        e = e.pmsbe_rtt_threshold_nanos(thr);
    }
    let horizon =
        add_paper_flows(&mut e, load, num_flows, seed).expect("the sweep's loads fit the clock");
    let res = e.run_until_nanos(horizon);
    let rob = robustness(&res);
    let marks_seen: u64 = res.sender_stats.values().map(|s| s.marks_seen).sum();
    let marks_ignored: u64 = res.sender_stats.values().map(|s| s.marks_ignored).sum();
    Record::new()
        .field("completed", res.fct.len())
        .field("injected", num_flows)
        .field(
            "overall_avg_us",
            fct_us(&res, SizeClass::Overall, |s| s.mean),
        )
        .field("large_avg_us", fct_us(&res, SizeClass::Large, |s| s.mean))
        .field("large_p99_us", fct_us(&res, SizeClass::Large, |s| s.p99))
        .field("small_avg_us", fct_us(&res, SizeClass::Small, |s| s.mean))
        .field("small_p95_us", fct_us(&res, SizeClass::Small, |s| s.p95))
        .field("small_p99_us", fct_us(&res, SizeClass::Small, |s| s.p99))
        .field("drops", res.drops)
        .field("marks", res.marks)
        .field("marks_seen", marks_seen)
        .field("marks_ignored", marks_ignored)
        .field("retransmissions", rob.retransmissions)
        .field("timeouts", rob.timeouts)
        .field("loss_episodes", rob.loss_episodes)
        .field("mean_recovery_us", rob.mean_recovery_nanos() / 1e3)
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

/// The columns of the large-scale tables.
pub const CSV_HEADER: &str = "scheme,load,completed,injected,overall_avg_us,large_avg_us,\
                              large_p99_us,small_avg_us,small_p95_us,small_p99_us,drops,marks,\
                              marks_seen,marks_ignored,retransmissions,timeouts,loss_episodes,\
                              mean_recovery_us";

/// The DWRR sweep title (Figs. 16–21).
pub const FIG16_21_TITLE: &str = "Figs 16-21: large-scale leaf-spine, DWRR scheduler";
/// The WFQ sweep title (Figs. 22–27).
pub const FIG22_27_TITLE: &str =
    "Figs 22-27: large-scale leaf-spine, WFQ scheduler (MQ-ECN excluded)";

/// Writes the paper's headline comparisons: PMSB / PMSB(e) FCT change
/// relative to each baseline, each scheme's metric averaged across the
/// loads where it is finite.
pub fn write_headlines(out: &mut String, records: &[&Record]) {
    let mean_of = |scheme: &str, key: &str| -> Option<f64> {
        let vals: Vec<f64> = records
            .iter()
            .filter(|r| r.get_str("scheme") == Some(scheme))
            .map(|r| metric(r, key))
            .filter(|v| v.is_finite())
            .collect();
        (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
    };
    for baseline in ["tcn", "mq-ecn"] {
        for ours in ["pmsb", "pmsb(e)"] {
            for (what, key) in [
                ("small avg", "small_avg_us"),
                ("small p99", "small_p99_us"),
                ("large avg", "large_avg_us"),
            ] {
                if let (Some(b), Some(o)) = (mean_of(baseline, key), mean_of(ours, key)) {
                    outln!(
                        out,
                        "# {ours} vs {baseline}: {what} FCT change {:+.1}%",
                        (o / b - 1.0) * 100.0
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::tests::assert_fills_columns;

    #[test]
    fn quick_cell_fills_every_column() {
        let rec = run_cell(
            SchedulerConfig::Dwrr {
                weights: vec![1; 8],
            },
            &schemes(true)[0],
            0.5,
            30,
            42,
            &SimOpts::default(),
        );
        assert_fills_columns(&rec, CSV_HEADER);
        assert_eq!(metric(&rec, "injected"), 30.0);
        assert!(metric(&rec, "completed") > 0.0);
    }
}
