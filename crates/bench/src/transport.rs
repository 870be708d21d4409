//! Transport campaign: DCTCP vs classic-ECN NewReno under the marking
//! lineup.
//!
//! The paper holds the transport fixed (DCTCP) and varies the switch
//! marking; this campaign opens the second axis. The same small
//! leaf–spine and Poisson flow mix as the fault sweep runs under every
//! `{transport} x {marking}` cell, so the tables show how much of each
//! scheme's FCT profile survives a cruder congestion response (RFC 3168:
//! halve once per RTT, no DCTCP alpha estimator). PMSB(e) composes in
//! front of either transport, and the `marks_seen`/`marks_ignored`
//! columns make its blindness rate visible per cell.

use pmsb_harness::Record;
use pmsb_metrics::fct::SizeClass;
use pmsb_netsim::experiment::{Experiment, MarkingConfig, TransportKind};

use crate::outln;
use crate::util::{add_paper_flows, fct_us, metric, robustness, SimOpts};

/// Fabric shape, shared with the fault sweep: 2 leaves x 2 spines x
/// 4 hosts per leaf.
pub const LEAVES: usize = 2;
/// Spine count.
pub const SPINES: usize = 2;
/// Hosts under each leaf.
pub const HOSTS_PER_LEAF: usize = 4;

/// The transports of the sweep.
pub const TRANSPORTS: &[TransportKind] = &[TransportKind::Dctcp, TransportKind::NewReno];

/// The scheme lineup: `(name, marking, PMSB(e) RTT threshold)`. PMSB(e)
/// rides on the per-port marking, as in Algorithm 2.
pub fn schemes() -> Vec<(&'static str, MarkingConfig, Option<u64>)> {
    vec![
        (
            "pmsb",
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            None,
        ),
        (
            "per-queue",
            MarkingConfig::PerQueueStandard { threshold_pkts: 65 },
            None,
        ),
        (
            "per-port",
            MarkingConfig::PerPort { threshold_pkts: 12 },
            None,
        ),
        (
            "pmsb(e)",
            MarkingConfig::PerPort { threshold_pkts: 12 },
            Some(85_200),
        ),
    ]
}

/// Runs one `(transport, scheme)` cell under `opts`: the paper flow mix
/// at moderate load over the small leaf–spine. Returns its record: every
/// column of [`CSV_HEADER`] but the `transport` and `scheme` job
/// parameters.
pub fn run_cell(
    kind: TransportKind,
    marking: MarkingConfig,
    pmsbe: Option<u64>,
    num_flows: usize,
    seed: u64,
    opts: &SimOpts,
) -> Record {
    let mut e = opts.apply(
        Experiment::leaf_spine(LEAVES, SPINES, HOSTS_PER_LEAF)
            .marking(marking)
            .transport_kind(kind),
    );
    if let Some(thr) = pmsbe {
        e = e.pmsbe_rtt_threshold_nanos(thr);
    }
    let horizon = add_paper_flows(&mut e, 0.3, num_flows, seed).expect("load 0.3 fits the clock");
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
        .field("small_p99_us", fct_us(&res, SizeClass::Small, |s| s.p99))
        .field("marks", res.marks)
        .field("drops", res.drops)
        .field("marks_seen", marks_seen)
        .field("marks_ignored", marks_ignored)
        .field("retransmissions", rob.retransmissions)
        .field("timeouts", rob.timeouts)
}

/// The flow count of the sweep (or the `--quick` smoke version).
pub fn num_flows(quick: bool) -> usize {
    if quick {
        120
    } else {
        600
    }
}

/// The columns of the transport table.
pub const CSV_HEADER: &str = "transport,scheme,completed,injected,overall_avg_us,small_p99_us,\
                              marks,drops,marks_seen,marks_ignored,retransmissions,timeouts";

/// The report title.
pub const TRANSPORT_TITLE: &str =
    "Transport: DCTCP vs classic-ECN NewReno across marking schemes (2x2 leaf-spine)";

/// Writes the headline observations: each scheme's FCT under both
/// transports, and every cell's PMSB(e) blindness rate.
pub fn write_headlines(out: &mut String, records: &[&Record]) {
    let cell = |transport: &str, scheme: &str| {
        records.iter().find(|r| {
            r.get_str("transport") == Some(transport) && r.get_str("scheme") == Some(scheme)
        })
    };
    for (scheme, _, _) in schemes() {
        if let (Some(d), Some(n)) = (cell("dctcp", scheme), cell("newreno", scheme)) {
            outln!(
                out,
                "# {scheme}: avg FCT {:.1} us (dctcp) vs {:.1} us (newreno), \
                 small p99 {:.1} vs {:.1} us",
                metric(d, "overall_avg_us"),
                metric(n, "overall_avg_us"),
                metric(d, "small_p99_us"),
                metric(n, "small_p99_us")
            );
        }
    }
    for r in records {
        let (ignored, seen) = (metric(r, "marks_ignored"), metric(r, "marks_seen"));
        if ignored > 0.0 {
            outln!(
                out,
                "# {}/{}: PMSB(e) ignored {ignored} of {seen} marks seen ({:.1}%)",
                r.get_str("transport").unwrap_or_default(),
                r.get_str("scheme").unwrap_or_default(),
                100.0 * ignored / seen.max(1.0)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::tests::assert_fills_columns;

    #[test]
    fn quick_cells_run_for_both_transports() {
        for &kind in TRANSPORTS {
            let rec = run_cell(
                kind,
                MarkingConfig::PerPort { threshold_pkts: 12 },
                None,
                40,
                7,
                &SimOpts::default(),
            );
            assert_fills_columns(&rec, CSV_HEADER);
            assert!(metric(&rec, "completed") > 0.0, "{kind:?} completes flows");
            assert!(
                metric(&rec, "marks_seen") > 0.0,
                "{kind:?} senders see marks"
            );
            assert_eq!(
                metric(&rec, "marks_ignored"),
                0.0,
                "no PMSB(e) threshold, no blindness"
            );
        }
    }

    #[test]
    fn pmsbe_cell_reports_a_blindness_rate() {
        let rec = run_cell(
            TransportKind::NewReno,
            MarkingConfig::PerPort { threshold_pkts: 12 },
            Some(85_200),
            40,
            7,
            &SimOpts::default(),
        );
        assert_fills_columns(&rec, CSV_HEADER);
        assert!(metric(&rec, "marks_seen") > 0.0);
        assert!(
            metric(&rec, "marks_ignored") > 0.0,
            "short-RTT marks must be suppressed under PMSB(e)"
        );
    }
}
