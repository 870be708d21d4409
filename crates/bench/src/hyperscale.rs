//! Hyperscale fat-tree campaign: the marking-scheme lineup under the
//! datacenter-day streaming patterns ([`pmsb_workload::PatternSpec`]) on
//! a `fat_tree(k)` fabric.
//!
//! Unlike the leaf–spine sweeps, these cells run the *streaming* path:
//! flows are pulled lazily from the pattern iterator, per-flow state
//! lives in the recycled slab, and FCT percentiles come from the
//! mergeable quantile sketch — so a cell's resident memory is bounded by
//! concurrent flows, not by the total flow count (DESIGN.md §10).

use pmsb_harness::Record;
use pmsb_netsim::experiment::{Experiment, MarkingConfig};
use pmsb_workload::PatternSpec;

use crate::outln;
use crate::util::{banner, SimOpts};

/// One `(scheme, pattern)` cell of the hyperscale table.
#[derive(Debug, Clone)]
pub struct HsRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Pattern name.
    pub pattern: &'static str,
    /// Flows pulled from the stream.
    pub injected: u64,
    /// Flows that completed before the horizon.
    pub completed: u64,
    /// Payload bytes of completed flows.
    pub bytes_completed: u64,
    /// Sketch median FCT, µs.
    pub fct_p50_us: f64,
    /// Sketch 90th-percentile FCT, µs.
    pub fct_p90_us: f64,
    /// Sketch 99th-percentile FCT, µs.
    pub fct_p99_us: f64,
    /// Tail drops across the fabric.
    pub drops: u64,
    /// CE marks applied.
    pub marks: u64,
    /// ECE marks senders saw.
    pub marks_seen: u64,
    /// ECE marks PMSB(e) suppressed (0 without a threshold).
    pub marks_ignored: u64,
    /// Live-slot high-water mark: the peak number of simultaneously
    /// allocated flow slots (the resident-memory proxy). With
    /// `--sim-threads > 1` the per-shard peaks (taken at different
    /// instants) sum to an upper bound, so this field is the one metric
    /// that may read higher on sharded runs. It is therefore kept out of
    /// the harness record and the CSV — campaign records must stay
    /// byte-identical across thread counts — and reported instead by
    /// the `pmsb-sim fabric` diagnostics.
    pub slab_high_water: u64,
}

/// One scheme of the hyperscale lineup: `(name, marking, PMSB(e) RTT
/// threshold)`.
pub type SchemeSpec = (&'static str, MarkingConfig, Option<u64>);

/// PMSB(e) RTT threshold for the 1 µs-link fat-tree: the unloaded
/// inter-pod RTT (~20 µs: six 1 µs hops each way plus store-and-forward
/// serialization) plus one port's worth of K=12 queueing (~14 µs),
/// rounded up — the same "base RTT + K" construction as the paper's
/// 85.2 µs leaf–spine setting.
pub const PMSBE_FAT_TREE_THRESHOLD_NANOS: u64 = 40_000;

/// The scheme lineup of the hyperscale campaign: PMSB (port K = 12),
/// plain per-port (K = 12), per-queue with the full standard threshold
/// on every queue (K = 65, the Fig. 1 overshooting baseline), and
/// PMSB(e) (per-port K = 12 plus the end-host RTT filter).
pub fn schemes() -> Vec<SchemeSpec> {
    vec![
        (
            "pmsb",
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            None,
        ),
        (
            "per-port",
            MarkingConfig::PerPort { threshold_pkts: 12 },
            None,
        ),
        (
            "per-queue",
            MarkingConfig::PerQueueStandard { threshold_pkts: 65 },
            None,
        ),
        (
            "pmsb(e)",
            MarkingConfig::PerPort { threshold_pkts: 12 },
            Some(PMSBE_FAT_TREE_THRESHOLD_NANOS),
        ),
    ]
}

/// The traffic patterns of the campaign. `quick` shrinks the incast
/// fan-in so it fits the k=4 smoke fabric (15 possible senders).
pub fn patterns(quick: bool) -> Vec<(&'static str, PatternSpec)> {
    vec![
        ("incast", PatternSpec::incast(if quick { 8 } else { 32 })),
        ("shuffle", PatternSpec::shuffle()),
        ("hotservice", PatternSpec::hotservice(1.2)),
    ]
}

/// Fabric size and per-cell flow count (`--quick` shrinks both).
pub fn fabric_and_flows(quick: bool) -> (usize, u64) {
    if quick {
        (4, 2_000)
    } else {
        (8, 20_000)
    }
}

/// Fat-tree parameter of the k=24 campaign cells (3456 hosts,
/// 720 switches — the largest fabric the suite drives).
pub const K24_FABRIC: usize = 24;

/// Per-cell flow count of the k=24 campaign (`--quick` shrinks it).
pub fn k24_flows(quick: bool) -> u64 {
    if quick {
        2_000
    } else {
        20_000
    }
}

/// The scheme lineup of the k=24 cells: the paper scheme against its
/// closest per-port baseline (the per-queue/PMSB(e) columns stay on the
/// k=8 grid; at 3456 hosts two schemes keep the cell count honest).
pub fn k24_schemes() -> Vec<SchemeSpec> {
    schemes()
        .into_iter()
        .filter(|(name, _, _)| *name == "pmsb" || *name == "per-port")
        .collect()
}

/// The traffic patterns of the k=24 cells: the plain shuffle plus an
/// incast+shuffle mix drawing flow sizes from the web-search
/// distribution.
pub fn k24_patterns() -> Vec<(&'static str, PatternSpec)> {
    use pmsb_workload::SizeDistSpec;
    vec![
        ("shuffle", PatternSpec::shuffle()),
        (
            "mix-websearch",
            PatternSpec::sized(
                PatternSpec::Mix(vec![PatternSpec::incast(32), PatternSpec::shuffle()]),
                SizeDistSpec::WebSearch,
            ),
        ),
    ]
}

/// The experiment of one `(scheme, pattern)` streaming cell on a
/// `fat_tree(k)` fabric under `opts`; [`run_cell`] runs it, and the
/// campaigns validate it before any job runs.
pub(crate) fn cell_experiment(
    scheme_spec: &SchemeSpec,
    pattern: &PatternSpec,
    k: usize,
    total_flows: u64,
    seed: u64,
    opts: &SimOpts,
) -> Experiment {
    let (_, marking, pmsbe) = scheme_spec;
    let mut e = opts.apply(Experiment::fat_tree(k).marking(marking.clone()).stream(
        pattern.clone(),
        seed,
        total_flows,
    ));
    if let Some(thr) = *pmsbe {
        e = e.pmsbe_rtt_threshold_nanos(thr);
    }
    e
}

/// Runs one `(scheme, pattern)` streaming cell on a `fat_tree(k)`
/// fabric under `opts` (the flow-level engines ignore
/// `opts.sim_threads`; they are single-threaded by design). The horizon
/// is the stream's last arrival plus a 50 ms drain window.
pub fn run_cell(
    scheme_spec: &SchemeSpec,
    pattern_spec: &(&'static str, PatternSpec),
    k: usize,
    total_flows: u64,
    seed: u64,
    opts: &SimOpts,
) -> HsRow {
    let (pattern_name, pattern) = pattern_spec;
    let num_hosts = k * k * k / 4;
    let last_start = pattern
        .flows(num_hosts, seed, total_flows)
        .last()
        .map(|f| f.start_nanos)
        .unwrap_or(0);
    let res = cell_experiment(scheme_spec, pattern, k, total_flows, seed, opts)
        .run_until_nanos(last_start + 50_000_000);
    let s = res.stream.as_ref().expect("streaming run");
    let q = |p: f64| {
        s.sketch
            .quantile(p)
            .map(|n| n as f64 / 1e3)
            .unwrap_or(f64::NAN)
    };
    HsRow {
        scheme: scheme_spec.0,
        pattern: pattern_name,
        injected: s.injected,
        completed: s.completed,
        bytes_completed: s.bytes_completed,
        fct_p50_us: q(0.5),
        fct_p90_us: q(0.9),
        fct_p99_us: q(0.99),
        drops: res.drops,
        marks: res.marks,
        marks_seen: s.agg_sender.marks_seen,
        marks_ignored: s.agg_sender.marks_ignored,
        slab_high_water: s.slab_high_water,
    }
}

/// The CSV header matching [`csv_line`].
pub const CSV_HEADER: &str = "scheme,pattern,injected,completed,bytes_completed,fct_p50_us,\
                              fct_p90_us,fct_p99_us,drops,marks,marks_seen,marks_ignored";

/// One [`HsRow`] as a CSV line (no newline).
pub fn csv_line(row: &HsRow) -> String {
    format!(
        "{},{},{},{},{},{:.1},{:.1},{:.1},{},{},{},{}",
        row.scheme,
        row.pattern,
        row.injected,
        row.completed,
        row.bytes_completed,
        row.fct_p50_us,
        row.fct_p90_us,
        row.fct_p99_us,
        row.drops,
        row.marks,
        row.marks_seen,
        row.marks_ignored
    )
}

/// The harness-record payload of one cell — every [`HsRow`] metric.
pub fn row_record(row: &HsRow) -> Record {
    Record::new()
        .field("injected", row.injected)
        .field("completed", row.completed)
        .field("bytes_completed", row.bytes_completed)
        .field("fct_p50_us", row.fct_p50_us)
        .field("fct_p90_us", row.fct_p90_us)
        .field("fct_p99_us", row.fct_p99_us)
        .field("drops", row.drops)
        .field("marks", row.marks)
        .field("marks_seen", row.marks_seen)
        .field("marks_ignored", row.marks_ignored)
}

/// Rebuilds an [`HsRow`] from a harness record written by
/// [`row_record`] (with `scheme` and `pattern` job parameters).
pub fn row_from_record(rec: &Record) -> Option<HsRow> {
    let scheme = ["pmsb", "per-port", "per-queue", "pmsb(e)"]
        .into_iter()
        .find(|s| rec.get_str("scheme") == Some(s))?;
    let pattern = ["incast", "shuffle", "hotservice", "mix-websearch"]
        .into_iter()
        .find(|p| rec.get_str("pattern") == Some(p))?;
    let f = |k: &str| rec.get_f64(k);
    Some(HsRow {
        scheme,
        pattern,
        injected: f("injected")? as u64,
        completed: f("completed")? as u64,
        bytes_completed: f("bytes_completed")? as u64,
        fct_p50_us: f("fct_p50_us")?,
        fct_p90_us: f("fct_p90_us")?,
        fct_p99_us: f("fct_p99_us")?,
        drops: f("drops")? as u64,
        marks: f("marks")? as u64,
        marks_seen: f("marks_seen")? as u64,
        marks_ignored: f("marks_ignored")? as u64,
        // Not persisted (thread-count-dependent upper bound, see the
        // field docs): absent from every record by construction.
        slab_high_water: 0,
    })
}

/// Writes the hyperscale table plus per-pattern p99 comparisons against
/// the per-queue baseline.
pub fn write_report(out: &mut String, rows: &[HsRow]) {
    banner(out, "Hyperscale: fat-tree streaming patterns");
    outln!(out, "{CSV_HEADER}");
    for row in rows {
        outln!(out, "{}", csv_line(row));
    }
    for (pattern, _) in patterns(true) {
        let cell = |scheme: &str| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.pattern == pattern)
                .map(|r| r.fct_p99_us)
                .filter(|v| v.is_finite())
        };
        let Some(base) = cell("per-queue") else {
            continue;
        };
        for ours in ["pmsb", "pmsb(e)"] {
            if let Some(o) = cell(ours) {
                outln!(
                    out,
                    "# {pattern}: {ours} vs per-queue p99 FCT change {:+.1}%",
                    (o / base - 1.0) * 100.0
                );
            }
        }
    }
}

/// Writes the k=24 table plus the per-pattern PMSB-vs-per-port p99
/// comparison (there is no per-queue column on this grid).
pub fn write_k24_report(out: &mut String, rows: &[HsRow]) {
    banner(
        out,
        "Hyperscale k=24: fat_tree(24) streaming cells (hybrid engine)",
    );
    outln!(out, "{CSV_HEADER}");
    for row in rows {
        outln!(out, "{}", csv_line(row));
    }
    for (pattern, _) in k24_patterns() {
        let cell = |scheme: &str| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.pattern == pattern)
                .map(|r| r.fct_p99_us)
                .filter(|v| v.is_finite())
        };
        if let (Some(ours), Some(base)) = (cell("pmsb"), cell("per-port")) {
            outln!(
                out,
                "# {pattern}: pmsb vs per-port p99 FCT change {:+.1}%",
                (ours / base - 1.0) * 100.0
            );
        }
    }
}

/// Writes the regional k=24 table plus the per-pattern PMSB-vs-per-port
/// comparisons of *both* marks and p99 FCT — the point of the regional
/// cells: at the measured hot ports the two schemes see different
/// per-queue mark eligibility, so the scheme columns separate where the
/// hybrid engine's shared closed form keeps them identical.
pub fn write_k24_regional_report(out: &mut String, rows: &[HsRow]) {
    banner(
        out,
        "Hyperscale k=24 regional: fat_tree(24) cells, hot ports at packet level",
    );
    outln!(out, "{CSV_HEADER}");
    for row in rows {
        outln!(out, "{}", csv_line(row));
    }
    for (pattern, _) in k24_patterns() {
        let cell = |scheme: &str| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.pattern == pattern)
        };
        let (Some(ours), Some(base)) = (cell("pmsb"), cell("per-port")) else {
            continue;
        };
        if ours.fct_p99_us.is_finite() && base.fct_p99_us.is_finite() {
            outln!(
                out,
                "# {pattern}: pmsb vs per-port p99 FCT change {:+.1}%",
                (ours.fct_p99_us / base.fct_p99_us - 1.0) * 100.0
            );
        }
        if base.marks > 0 {
            outln!(
                out,
                "# {pattern}: pmsb vs per-port marks change {:+.1}%",
                (ours.marks as f64 / base.marks as f64 - 1.0) * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_round_trips_through_a_record() {
        let row = HsRow {
            scheme: "pmsb(e)",
            pattern: "shuffle",
            injected: 2_000,
            completed: 1_990,
            bytes_completed: 199_000_000,
            fct_p50_us: 120.5,
            fct_p90_us: 300.0,
            fct_p99_us: 512.25,
            drops: 3,
            marks: 400,
            marks_seen: 390,
            marks_ignored: 25,
            slab_high_water: 64,
        };
        let rec = row_record(&row)
            .field("scheme", row.scheme)
            .field("pattern", row.pattern);
        let back = row_from_record(&rec).expect("row must round-trip");
        assert_eq!(back.scheme, row.scheme);
        assert_eq!(back.pattern, row.pattern);
        assert_eq!(back.completed, row.completed);
        assert_eq!(back.bytes_completed, row.bytes_completed);
        assert_eq!(back.fct_p99_us, row.fct_p99_us);
        assert_eq!(back.slab_high_water, 0, "high-water is never persisted");
    }

    #[test]
    fn report_compares_against_per_queue() {
        let mk = |scheme: &'static str, pattern: &'static str, p99: f64| HsRow {
            scheme,
            pattern,
            injected: 10,
            completed: 10,
            bytes_completed: 1_000,
            fct_p50_us: p99 / 2.0,
            fct_p90_us: p99,
            fct_p99_us: p99,
            drops: 0,
            marks: 0,
            marks_seen: 0,
            marks_ignored: 0,
            slab_high_water: 5,
        };
        let rows = vec![
            mk("per-queue", "incast", 200.0),
            mk("pmsb", "incast", 100.0),
        ];
        let mut out = String::new();
        write_report(&mut out, &rows);
        assert!(out.contains(CSV_HEADER));
        assert!(
            out.contains("incast: pmsb vs per-queue p99 FCT change -50.0%"),
            "report: {out}"
        );
    }

    #[test]
    fn quick_grid_covers_schemes_and_patterns() {
        assert_eq!(schemes().len(), 4);
        assert_eq!(patterns(true).len(), 3);
        let (k, flows) = fabric_and_flows(true);
        assert_eq!(k, 4);
        assert!(flows >= 1_000);
    }

    #[test]
    fn k24_grid_is_the_roadmap_cell() {
        let schemes: Vec<_> = k24_schemes().iter().map(|(n, _, _)| *n).collect();
        assert_eq!(schemes, ["pmsb", "per-port"]);
        let patterns: Vec<_> = k24_patterns().iter().map(|(n, _)| *n).collect();
        assert_eq!(patterns, ["shuffle", "mix-websearch"]);
        assert_eq!(K24_FABRIC, 24);
        // A k=24 record must survive the round trip (the pattern name is
        // new on this grid).
        let rec = Record::new()
            .field("scheme", "per-port")
            .field("pattern", "mix-websearch")
            .field("injected", 10u64)
            .field("completed", 10u64)
            .field("bytes_completed", 1_000u64)
            .field("fct_p50_us", 1.0)
            .field("fct_p90_us", 2.0)
            .field("fct_p99_us", 3.0)
            .field("drops", 0u64)
            .field("marks", 0u64)
            .field("marks_seen", 0u64)
            .field("marks_ignored", 0u64);
        let row = row_from_record(&rec).expect("k24 rows must round-trip");
        assert_eq!(row.pattern, "mix-websearch");
    }

    #[test]
    fn k24_report_compares_pmsb_to_per_port() {
        let mk = |scheme: &'static str, p99: f64| HsRow {
            scheme,
            pattern: "shuffle",
            injected: 10,
            completed: 10,
            bytes_completed: 1_000,
            fct_p50_us: p99 / 2.0,
            fct_p90_us: p99,
            fct_p99_us: p99,
            drops: 0,
            marks: 0,
            marks_seen: 0,
            marks_ignored: 0,
            slab_high_water: 5,
        };
        let rows = vec![mk("pmsb", 90.0), mk("per-port", 100.0)];
        let mut out = String::new();
        write_k24_report(&mut out, &rows);
        assert!(
            out.contains("shuffle: pmsb vs per-port p99 FCT change -10.0%"),
            "report: {out}"
        );
    }
}
