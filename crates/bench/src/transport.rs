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
use pmsb_metrics::robustness::{FlowRobustness, RobustnessSummary};
use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig, TransportKind};
use pmsb_simcore::rng::SimRng;
use pmsb_workload::traffic::TrafficSpec;

use crate::outln;
use crate::util::{banner, SimOpts};

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

/// One `(transport, scheme)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct TransportRow {
    /// Transport name (`dctcp` / `newreno`).
    pub transport: &'static str,
    /// Scheme name.
    pub scheme: &'static str,
    /// Completed flows.
    pub completed: usize,
    /// Injected flows.
    pub injected: usize,
    /// Overall average FCT, µs.
    pub overall_avg_us: f64,
    /// Small-flow (<100 KB) 99th-percentile FCT, µs.
    pub small_p99_us: f64,
    /// CE marks applied by switches.
    pub marks: u64,
    /// Congestive buffer tail drops.
    pub drops: u64,
    /// ECE marks senders saw across all flows.
    pub marks_seen: u64,
    /// ECE marks PMSB(e) suppressed (0 without a threshold).
    pub marks_ignored: u64,
    /// Segments retransmitted across all senders.
    pub retransmissions: u64,
    /// Retransmission timeouts across all senders.
    pub timeouts: u64,
}

/// Runs one `(transport, scheme)` cell under `opts`: the paper flow mix
/// at moderate load over the small leaf–spine.
pub fn run_cell(
    kind: TransportKind,
    scheme: &'static str,
    marking: MarkingConfig,
    pmsbe: Option<u64>,
    num_flows: usize,
    seed: u64,
    opts: &SimOpts,
) -> TransportRow {
    let num_hosts = LEAVES * HOSTS_PER_LEAF;
    let spec = TrafficSpec::paper_large_scale(num_hosts, 0.3);
    let mut rng = SimRng::seed_from(seed);
    let flows = spec.generate(num_flows, &mut rng);
    let mut e = opts.apply(
        Experiment::leaf_spine(LEAVES, SPINES, HOSTS_PER_LEAF)
            .marking(marking)
            .transport_kind(kind),
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
    TransportRow {
        transport: kind.name(),
        scheme,
        completed: res.fct.len(),
        injected: flows.len(),
        overall_avg_us: stat(SizeClass::Overall, |s| s.mean),
        small_p99_us: stat(SizeClass::Small, |s| s.p99),
        marks: res.marks,
        drops: res.drops,
        marks_seen: res.sender_stats.values().map(|s| s.marks_seen).sum(),
        marks_ignored: res.sender_stats.values().map(|s| s.marks_ignored).sum(),
        retransmissions: rob.retransmissions,
        timeouts: rob.timeouts,
    }
}

/// The flow count of the sweep (or the `--quick` smoke version).
pub fn num_flows(quick: bool) -> usize {
    if quick {
        120
    } else {
        600
    }
}

/// The CSV header matching [`csv_line`].
pub const CSV_HEADER: &str = "transport,scheme,completed,injected,overall_avg_us,small_p99_us,\
                              marks,drops,marks_seen,marks_ignored,retransmissions,timeouts";

/// One [`TransportRow`] as a CSV line (no newline).
pub fn csv_line(row: &TransportRow) -> String {
    format!(
        "{},{},{},{},{:.1},{:.1},{},{},{},{},{},{}",
        row.transport,
        row.scheme,
        row.completed,
        row.injected,
        row.overall_avg_us,
        row.small_p99_us,
        row.marks,
        row.drops,
        row.marks_seen,
        row.marks_ignored,
        row.retransmissions,
        row.timeouts
    )
}

/// The harness-record payload of one cell.
pub fn row_record(row: &TransportRow) -> Record {
    Record::new()
        .field("completed", row.completed)
        .field("injected", row.injected)
        .field("overall_avg_us", row.overall_avg_us)
        .field("small_p99_us", row.small_p99_us)
        .field("marks", row.marks)
        .field("drops", row.drops)
        .field("marks_seen", row.marks_seen)
        .field("marks_ignored", row.marks_ignored)
        .field("retransmissions", row.retransmissions)
        .field("timeouts", row.timeouts)
}

/// Rebuilds a [`TransportRow`] from a record written by [`row_record`]
/// (with `transport` and `scheme` job parameters).
pub fn row_from_record(rec: &Record) -> Option<TransportRow> {
    let transport = TRANSPORTS
        .iter()
        .map(|k| k.name())
        .find(|t| rec.get_str("transport") == Some(t))?;
    let scheme = schemes()
        .into_iter()
        .map(|(name, _, _)| name)
        .find(|s| rec.get_str("scheme") == Some(s))?;
    let f = |k: &str| rec.get_f64(k);
    Some(TransportRow {
        transport,
        scheme,
        completed: f("completed")? as usize,
        injected: f("injected")? as usize,
        overall_avg_us: f("overall_avg_us")?,
        small_p99_us: f("small_p99_us")?,
        marks: f("marks")? as u64,
        drops: f("drops")? as u64,
        marks_seen: f("marks_seen")? as u64,
        marks_ignored: f("marks_ignored")? as u64,
        retransmissions: f("retransmissions")? as u64,
        timeouts: f("timeouts")? as u64,
    })
}

/// The report title.
pub const TRANSPORT_TITLE: &str =
    "Transport: DCTCP vs classic-ECN NewReno across marking schemes (2x2 leaf-spine)";

/// Writes the sweep table plus headline observations for a completed
/// set of cells.
pub fn write_report(out: &mut String, rows: &[TransportRow]) {
    banner(out, TRANSPORT_TITLE);
    outln!(out, "{CSV_HEADER}");
    for row in rows {
        outln!(out, "{}", csv_line(row));
    }
    let cell = |transport: &str, scheme: &str| {
        rows.iter()
            .find(|r| r.transport == transport && r.scheme == scheme)
    };
    for (scheme, _, _) in schemes() {
        if let (Some(d), Some(n)) = (cell("dctcp", scheme), cell("newreno", scheme)) {
            outln!(
                out,
                "# {scheme}: avg FCT {:.1} us (dctcp) vs {:.1} us (newreno), \
                 small p99 {:.1} vs {:.1} us",
                d.overall_avg_us,
                n.overall_avg_us,
                d.small_p99_us,
                n.small_p99_us
            );
        }
    }
    for r in rows {
        if r.marks_ignored > 0 {
            outln!(
                out,
                "# {}/{}: PMSB(e) ignored {} of {} marks seen ({:.1}%)",
                r.transport,
                r.scheme,
                r.marks_ignored,
                r.marks_seen,
                100.0 * r.marks_ignored as f64 / r.marks_seen.max(1) as f64
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_round_trips_through_record() {
        let row = TransportRow {
            transport: "newreno",
            scheme: "pmsb(e)",
            completed: 100,
            injected: 120,
            overall_avg_us: 1234.5,
            small_p99_us: 99.9,
            marks: 10,
            drops: 2,
            marks_seen: 500,
            marks_ignored: 123,
            retransmissions: 42,
            timeouts: 3,
        };
        let rec = row_record(&row)
            .field("transport", "newreno")
            .field("scheme", "pmsb(e)");
        let back = row_from_record(&rec).expect("round-trip");
        assert_eq!(back.transport, row.transport);
        assert_eq!(back.scheme, row.scheme);
        assert_eq!(back.marks_seen, row.marks_seen);
        assert_eq!(back.marks_ignored, row.marks_ignored);
        assert_eq!(back.timeouts, row.timeouts);
    }

    #[test]
    fn quick_cells_run_for_both_transports() {
        for &kind in TRANSPORTS {
            let row = run_cell(
                kind,
                "per-port",
                MarkingConfig::PerPort { threshold_pkts: 12 },
                None,
                40,
                7,
                &SimOpts::default(),
            );
            assert!(row.completed > 0, "{kind:?} completes flows");
            assert!(row.marks_seen > 0, "{kind:?} senders see marks");
            assert_eq!(row.marks_ignored, 0, "no PMSB(e) threshold, no blindness");
        }
    }

    #[test]
    fn pmsbe_cell_reports_a_blindness_rate() {
        let row = run_cell(
            TransportKind::NewReno,
            "pmsb(e)",
            MarkingConfig::PerPort { threshold_pkts: 12 },
            Some(85_200),
            40,
            7,
            &SimOpts::default(),
        );
        assert!(row.marks_seen > 0);
        assert!(
            row.marks_ignored > 0,
            "short-RTT marks must be suppressed under PMSB(e)"
        );
    }
}
