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
use crate::util::{metric, SimOpts};

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
/// fabric under `opts`. The horizon is the stream's last arrival plus a
/// 50 ms drain window. Returns its record: every column of
/// [`CSV_HEADER`] but the `scheme` and `pattern` job parameters. The
/// slab high-water mark stays out of it: it measures the simulator's
/// memory, not the network, and `pmsb-sim fabric` reports it on stderr
/// instead.
pub fn run_cell(
    scheme_spec: &SchemeSpec,
    pattern: &PatternSpec,
    k: usize,
    total_flows: u64,
    seed: u64,
    opts: &SimOpts,
) -> Record {
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
    Record::new()
        .field("injected", s.injected)
        .field("completed", s.completed)
        .field("bytes_completed", s.bytes_completed)
        .field("fct_p50_us", q(0.5))
        .field("fct_p90_us", q(0.9))
        .field("fct_p99_us", q(0.99))
        .field("drops", res.drops)
        .field("marks", res.marks)
        .field("marks_seen", s.agg_sender.marks_seen)
        .field("marks_ignored", s.agg_sender.marks_ignored)
}

/// The columns of the hyperscale tables.
pub const CSV_HEADER: &str = "scheme,pattern,injected,completed,bytes_completed,fct_p50_us,\
                              fct_p90_us,fct_p99_us,drops,marks,marks_seen,marks_ignored";

/// The k=8 table's title.
pub const HYPERSCALE_TITLE: &str = "Hyperscale: fat-tree streaming patterns";
/// The k=24 table's title.
pub const K24_TITLE: &str = "Hyperscale k=24: fat_tree(24) streaming cells (hybrid engine)";
/// The regional k=24 table's title.
pub const K24_REGIONAL_TITLE: &str =
    "Hyperscale k=24 regional: fat_tree(24) cells, hot ports at packet level";

/// The `(scheme, pattern)` cell's record, if any.
fn cell<'a>(records: &[&'a Record], scheme: &str, pattern: &str) -> Option<&'a Record> {
    records
        .iter()
        .copied()
        .find(|r| r.get_str("scheme") == Some(scheme) && r.get_str("pattern") == Some(pattern))
}

/// The `(scheme, pattern)` cell's p99 FCT, if the cell exists and its
/// p99 is finite.
fn p99(records: &[&Record], scheme: &str, pattern: &str) -> Option<f64> {
    cell(records, scheme, pattern)
        .map(|r| metric(r, "fct_p99_us"))
        .filter(|v| v.is_finite())
}

/// Writes the per-pattern p99 comparisons of the hyperscale table
/// against the per-queue baseline.
pub fn write_headlines(out: &mut String, records: &[&Record]) {
    for (pattern, _) in patterns(true) {
        let Some(base) = p99(records, "per-queue", pattern) else {
            continue;
        };
        for ours in ["pmsb", "pmsb(e)"] {
            if let Some(o) = p99(records, ours, pattern) {
                outln!(
                    out,
                    "# {pattern}: {ours} vs per-queue p99 FCT change {:+.1}%",
                    (o / base - 1.0) * 100.0
                );
            }
        }
    }
}

/// Writes the per-pattern PMSB-vs-per-port p99 FCT comparison of the
/// k=24 table (there is no per-queue column on this grid).
pub fn write_k24_headlines(out: &mut String, records: &[&Record]) {
    for (pattern, _) in k24_patterns() {
        write_p99_vs_per_port(out, records, pattern);
    }
}

/// Writes the regional k=24 table's per-pattern PMSB-vs-per-port
/// comparisons of *both* p99 FCT and marks — the point of the regional
/// cells: at the measured hot ports the two schemes see different
/// per-queue mark eligibility, so the scheme columns separate where the
/// hybrid engine's shared closed form keeps them identical.
pub fn write_k24_regional_headlines(out: &mut String, records: &[&Record]) {
    for (pattern, _) in k24_patterns() {
        write_p99_vs_per_port(out, records, pattern);
        let (Some(ours), Some(base)) = (
            cell(records, "pmsb", pattern),
            cell(records, "per-port", pattern),
        ) else {
            continue;
        };
        let base_marks = metric(base, "marks");
        if base_marks > 0.0 {
            outln!(
                out,
                "# {pattern}: pmsb vs per-port marks change {:+.1}%",
                (metric(ours, "marks") / base_marks - 1.0) * 100.0
            );
        }
    }
}

/// Writes `pattern`'s PMSB-vs-per-port p99 FCT change, when both cells
/// have a finite p99.
fn write_p99_vs_per_port(out: &mut String, records: &[&Record], pattern: &str) {
    if let (Some(ours), Some(base)) = (
        p99(records, "pmsb", pattern),
        p99(records, "per-port", pattern),
    ) {
        outln!(
            out,
            "# {pattern}: pmsb vs per-port p99 FCT change {:+.1}%",
            (ours / base - 1.0) * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::tests::assert_fills_columns;

    /// A stored cell record with the given p99 FCT and marks.
    fn cell_record(scheme: &str, pattern: &str, p99: f64, marks: u64) -> Record {
        Record::new()
            .field("scenario", "hyperscale")
            .field("scheme", scheme)
            .field("pattern", pattern)
            .field("fct_p99_us", p99)
            .field("marks", marks)
    }

    #[test]
    fn report_compares_against_per_queue() {
        let records = [
            cell_record("per-queue", "incast", 200.0, 0),
            cell_record("pmsb", "incast", 100.0, 0),
        ];
        let mut out = String::new();
        write_headlines(&mut out, &records.iter().collect::<Vec<_>>());
        assert_eq!(out, "# incast: pmsb vs per-queue p99 FCT change -50.0%\n");
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
    }

    #[test]
    fn k24_report_compares_pmsb_to_per_port() {
        let records = [
            cell_record("pmsb", "shuffle", 90.0, 30),
            cell_record("per-port", "shuffle", 100.0, 40),
        ];
        let records: Vec<&Record> = records.iter().collect();
        let mut out = String::new();
        write_k24_headlines(&mut out, &records);
        assert_eq!(out, "# shuffle: pmsb vs per-port p99 FCT change -10.0%\n");
        out.clear();
        write_k24_regional_headlines(&mut out, &records);
        assert_eq!(
            out,
            "# shuffle: pmsb vs per-port p99 FCT change -10.0%\n\
             # shuffle: pmsb vs per-port marks change -25.0%\n"
        );
    }

    #[test]
    fn quick_cell_fills_every_column() {
        let rec = run_cell(
            &schemes()[0],
            &PatternSpec::shuffle(),
            4,
            100,
            42,
            &SimOpts::default(),
        );
        assert_fills_columns(&rec, CSV_HEADER);
        assert_eq!(metric(&rec, "injected"), 100.0);
    }
}
