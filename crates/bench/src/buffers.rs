//! Buffer-contention campaign: the marking lineup under shared-memory
//! switch pools.
//!
//! PMSB's signal is *per-port occupancy*, but on a real shared-buffer
//! ASIC a port's admissible backlog shrinks as the rest of the switch
//! fills. This campaign re-runs the marking lineup under buffer
//! contention: synchronized incast epochs on the small leaf–spine, with
//! the switch memory managed by each [`pmsb_netsim::BufferPolicy`] —
//! `static` (private per-port buffers), `dt:1` (Dynamic-Threshold shared
//! pool), `delay:100` (BShare-style delay-driven caps) — in two memory
//! regimes: `normal` (the default 2 MiB per port) and `tiny` (a 4-MTU
//! per-port budget, the Tiny-Buffer-TCP regime where marking schemes
//! are most likely to collapse). The `shared_drops`/`admit_rejects`/
//! `pool_high_water` columns come from
//! [`pmsb_metrics::contention::ContentionSummary`].

use pmsb_harness::Record;
use pmsb_metrics::fct::SizeClass;
use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig};
use pmsb_netsim::packet::MTU_WIRE_BYTES;
use pmsb_netsim::BufferPolicy;

use crate::outln;
use crate::util::{banner, SimOpts};

/// Fabric shape, shared with the fault and transport sweeps: 2 leaves x
/// 2 spines x 4 hosts per leaf.
pub const LEAVES: usize = 2;
/// Spine count.
pub const SPINES: usize = 2;
/// Hosts under each leaf.
pub const HOSTS_PER_LEAF: usize = 4;

/// Response size each incast sender ships per epoch (a classic
/// partition-aggregate answer; small class, so `small_p99_us` is the
/// headline column).
pub const RESPONSE_BYTES: u64 = 64_000;

/// Epoch spacing: wide enough for a clean drain between bursts on the
/// normal regime, tight enough that tiny-regime RTO survivors overlap
/// the next burst.
pub const EPOCH_NANOS: u64 = 1_000_000;

/// The buffer policies of the sweep, with their canonical CLI names.
pub fn policies() -> Vec<BufferPolicy> {
    vec![
        BufferPolicy::Static,
        BufferPolicy::DynamicThreshold { alpha: 1.0 },
        BufferPolicy::DelayDriven {
            target_delay_nanos: 100_000,
        },
    ]
}

/// The memory regimes of the sweep: per-port buffer budget in bytes.
/// Shared pools total the sum of a switch's port budgets, so `static`
/// and the shared policies compare at equal switch memory.
pub fn regimes() -> Vec<(&'static str, u64)> {
    vec![
        ("normal", 2 * 1024 * 1024),
        // The Tiny-Buffer regime: a few MTUs per port. One 16-packet
        // slow-start burst overruns a whole leaf pool by itself.
        ("tiny", 4 * MTU_WIRE_BYTES),
    ]
}

/// One `(scheme, policy, regime)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct BufRow {
    /// Scheme name (the transport campaign's marking lineup).
    pub scheme: &'static str,
    /// Buffer policy CLI name (`static` / `dt:1` / `delay:100`).
    pub buffer: String,
    /// Memory regime (`normal` / `tiny`).
    pub regime: &'static str,
    /// Completed flows.
    pub completed: usize,
    /// Injected flows.
    pub injected: usize,
    /// Overall average FCT, µs.
    pub overall_avg_us: f64,
    /// Small-flow 99th-percentile FCT, µs.
    pub small_p99_us: f64,
    /// CE marks applied by switches.
    pub marks: u64,
    /// All packet drops (per-port tail drops + pool rejections).
    pub drops: u64,
    /// Packets the shared pools refused (0 under `static`).
    pub shared_drops: u64,
    /// Pool refusals from the policy cap while pool space remained.
    pub admit_rejects: u64,
    /// Peak occupancy of the fullest pool, bytes (0 under `static`).
    pub pool_high_water: u64,
    /// Retransmission timeouts across all senders.
    pub timeouts: u64,
}

/// The incast flow list: every host except the aggregator (host 0)
/// ships one response per epoch, all starting at the same instant —
/// service queues spread by sender so multi-queue marking has work to
/// do. Deterministic: no RNG, identical on every LP.
fn incast_flows(epochs: u64) -> Vec<FlowDesc> {
    let num_hosts = LEAVES * HOSTS_PER_LEAF;
    let mut flows = Vec::new();
    for e in 0..epochs {
        let at = 1_000_000 + e * EPOCH_NANOS;
        for src in 1..num_hosts {
            flows.push(FlowDesc::bulk(src, 0, src % 8, RESPONSE_BYTES).starting_at(at));
        }
    }
    flows
}

/// Runs one `(scheme, policy, regime)` cell under `opts`; the cell's
/// own `policy` replaces `opts.buffer`.
#[allow(clippy::too_many_arguments)]
pub fn run_cell(
    scheme: &'static str,
    marking: MarkingConfig,
    pmsbe: Option<u64>,
    policy: BufferPolicy,
    regime: &'static str,
    port_bytes: u64,
    epochs: u64,
    opts: &SimOpts,
) -> BufRow {
    let mut e = opts
        .apply(Experiment::leaf_spine(LEAVES, SPINES, HOSTS_PER_LEAF).marking(marking))
        .buffer(policy)
        .buffer_bytes(port_bytes);
    if let Some(thr) = pmsbe {
        e = e.pmsbe_rtt_threshold_nanos(thr);
    }
    let flows = incast_flows(epochs);
    let last = flows.last().map(|f| f.start_nanos).unwrap_or(0);
    let injected = flows.len();
    e.add_flows(flows);
    // Tiny-regime stragglers sit through multi-RTO backoff; give them
    // room to finish so the tail percentiles are about the survivors'
    // real cost, not the cutoff.
    let res = e.run_until_nanos(last + 2_000_000_000);
    let stat = |c: SizeClass, f: fn(&pmsb_metrics::Summary) -> f64| {
        res.fct.stats(c).map(|s| f(&s) / 1e3).unwrap_or(f64::NAN)
    };
    let sb = res.shared_buffer.unwrap_or_default();
    BufRow {
        scheme,
        buffer: policy.name(),
        regime,
        completed: res.fct.len(),
        injected,
        overall_avg_us: stat(SizeClass::Overall, |s| s.mean),
        small_p99_us: stat(SizeClass::Small, |s| s.p99),
        marks: res.marks,
        drops: res.drops,
        shared_drops: sb.shared_drops,
        admit_rejects: sb.admit_rejects,
        pool_high_water: sb.pool_high_water_bytes,
        timeouts: res.sender_stats.values().map(|s| s.timeouts).sum(),
    }
}

/// The epoch count of the sweep (or the `--quick` smoke version).
pub fn num_epochs(quick: bool) -> u64 {
    if quick {
        5
    } else {
        20
    }
}

/// The CSV header matching [`csv_line`].
pub const CSV_HEADER: &str = "scheme,buffer,regime,completed,injected,overall_avg_us,\
                              small_p99_us,marks,drops,shared_drops,admit_rejects,\
                              pool_high_water,timeouts";

/// One [`BufRow`] as a CSV line (no newline).
pub fn csv_line(row: &BufRow) -> String {
    format!(
        "{},{},{},{},{},{:.1},{:.1},{},{},{},{},{},{}",
        row.scheme,
        row.buffer,
        row.regime,
        row.completed,
        row.injected,
        row.overall_avg_us,
        row.small_p99_us,
        row.marks,
        row.drops,
        row.shared_drops,
        row.admit_rejects,
        row.pool_high_water,
        row.timeouts
    )
}

/// The harness-record payload of one cell.
pub fn row_record(row: &BufRow) -> Record {
    Record::new()
        .field("completed", row.completed)
        .field("injected", row.injected)
        .field("overall_avg_us", row.overall_avg_us)
        .field("small_p99_us", row.small_p99_us)
        .field("marks", row.marks)
        .field("drops", row.drops)
        .field("shared_drops", row.shared_drops)
        .field("admit_rejects", row.admit_rejects)
        .field("pool_high_water", row.pool_high_water)
        .field("timeouts", row.timeouts)
}

/// Rebuilds a [`BufRow`] from a record written by [`row_record`] (with
/// `scheme`, `buffer` and `regime` job parameters).
pub fn row_from_record(rec: &Record) -> Option<BufRow> {
    let scheme = crate::transport::schemes()
        .into_iter()
        .map(|(name, _, _)| name)
        .find(|s| rec.get_str("scheme") == Some(s))?;
    let buffer = policies()
        .into_iter()
        .map(|p| p.name())
        .find(|b| rec.get_str("buffer") == Some(b))?;
    let regime = regimes()
        .into_iter()
        .map(|(name, _)| name)
        .find(|r| rec.get_str("regime") == Some(r))?;
    let f = |k: &str| rec.get_f64(k);
    Some(BufRow {
        scheme,
        buffer,
        regime,
        completed: f("completed")? as usize,
        injected: f("injected")? as usize,
        overall_avg_us: f("overall_avg_us")?,
        small_p99_us: f("small_p99_us")?,
        marks: f("marks")? as u64,
        drops: f("drops")? as u64,
        shared_drops: f("shared_drops")? as u64,
        admit_rejects: f("admit_rejects")? as u64,
        pool_high_water: f("pool_high_water")? as u64,
        timeouts: f("timeouts")? as u64,
    })
}

/// The report title.
pub const BUFFERS_TITLE: &str =
    "Buffers: marking schemes under shared-pool contention (7-to-1 incast, 2x2 leaf-spine)";

/// Writes the sweep table plus headline observations for a completed
/// set of cells.
pub fn write_report(out: &mut String, rows: &[BufRow]) {
    banner(out, BUFFERS_TITLE);
    outln!(out, "{CSV_HEADER}");
    for row in rows {
        outln!(out, "{}", csv_line(row));
    }
    let cell = |scheme: &str, buffer: &str, regime: &str| {
        rows.iter()
            .find(|r| r.scheme == scheme && r.buffer == buffer && r.regime == regime)
    };
    for (scheme, _, _) in crate::transport::schemes() {
        if let (Some(st), Some(dt), Some(dl)) = (
            cell(scheme, "static", "tiny"),
            cell(scheme, "dt:1", "tiny"),
            cell(scheme, "delay:100", "tiny"),
        ) {
            outln!(
                out,
                "# {scheme} @ tiny: small p99 {:.1} us static vs {:.1} dt \
                 vs {:.1} delay (shared drops {} / {})",
                st.small_p99_us,
                dt.small_p99_us,
                dl.small_p99_us,
                dt.shared_drops,
                dl.shared_drops
            );
        }
    }
    for r in rows {
        if r.admit_rejects > 0 {
            outln!(
                out,
                "# {}/{}/{}: policy cap refused {} of {} pool rejections \
                 (pool peaked at {} bytes)",
                r.scheme,
                r.buffer,
                r.regime,
                r.admit_rejects,
                r.shared_drops,
                r.pool_high_water
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_round_trips_through_record() {
        let row = BufRow {
            scheme: "pmsb",
            buffer: "dt:1".into(),
            regime: "tiny",
            completed: 30,
            injected: 35,
            overall_avg_us: 812.5,
            small_p99_us: 4031.0,
            marks: 120,
            drops: 44,
            shared_drops: 40,
            admit_rejects: 11,
            pool_high_water: 36_000,
            timeouts: 5,
        };
        let rec = row_record(&row)
            .field("scheme", "pmsb")
            .field("buffer", "dt:1")
            .field("regime", "tiny");
        let back = row_from_record(&rec).expect("round-trip");
        assert_eq!(back.scheme, row.scheme);
        assert_eq!(back.buffer, row.buffer);
        assert_eq!(back.regime, row.regime);
        assert_eq!(back.shared_drops, row.shared_drops);
        assert_eq!(back.admit_rejects, row.admit_rejects);
        assert_eq!(back.pool_high_water, row.pool_high_water);
    }

    #[test]
    fn static_cells_report_no_pool_activity() {
        let row = run_cell(
            "per-port",
            MarkingConfig::PerPort { threshold_pkts: 12 },
            None,
            BufferPolicy::Static,
            "normal",
            2 * 1024 * 1024,
            2,
            &SimOpts::default(),
        );
        assert!(row.completed > 0);
        assert_eq!(row.shared_drops, 0, "no pool under static");
        assert_eq!(row.pool_high_water, 0);
    }

    #[test]
    fn tiny_shared_cells_hit_the_pool() {
        for policy in [
            BufferPolicy::DynamicThreshold { alpha: 1.0 },
            BufferPolicy::DelayDriven {
                target_delay_nanos: 100_000,
            },
        ] {
            let row = run_cell(
                "pmsb",
                MarkingConfig::Pmsb {
                    port_threshold_pkts: 12,
                },
                None,
                policy,
                "tiny",
                4 * MTU_WIRE_BYTES,
                2,
                &SimOpts::default(),
            );
            assert!(
                row.shared_drops > 0,
                "{policy:?}: a 7-to-1 incast must overrun a 4-MTU pool"
            );
            assert!(row.pool_high_water > 0);
            assert!(row.completed > 0, "{policy:?}: survivors still finish");
        }
    }
}
