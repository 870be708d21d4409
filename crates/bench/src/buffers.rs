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
use crate::util::{fct_us, metric, SimOpts};

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

/// The incast flow list: every host except the aggregator (host 0)
/// ships one response per epoch, all starting at the same instant —
/// service queues spread by sender so multi-queue marking has work to
/// do. Deterministic: no RNG.
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
/// own `policy` replaces `opts.buffer`. Returns its record: every column
/// of [`CSV_HEADER`] but the `scheme`, `buffer` and `regime` job
/// parameters.
pub fn run_cell(
    marking: MarkingConfig,
    pmsbe: Option<u64>,
    policy: BufferPolicy,
    port_bytes: u64,
    epochs: u64,
    opts: &SimOpts,
) -> Record {
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
    let sb = res.shared_buffer.unwrap_or_default();
    Record::new()
        .field("completed", res.fct.len())
        .field("injected", injected)
        .field(
            "overall_avg_us",
            fct_us(&res, SizeClass::Overall, |s| s.mean),
        )
        .field("small_p99_us", fct_us(&res, SizeClass::Small, |s| s.p99))
        .field("marks", res.marks)
        .field("drops", res.drops)
        .field("shared_drops", sb.shared_drops)
        .field("admit_rejects", sb.admit_rejects)
        .field("pool_high_water", sb.pool_high_water_bytes)
        .field(
            "timeouts",
            res.sender_stats.values().map(|s| s.timeouts).sum::<u64>(),
        )
}

/// The epoch count of the sweep (or the `--quick` smoke version).
pub fn num_epochs(quick: bool) -> u64 {
    if quick {
        5
    } else {
        20
    }
}

/// The columns of the buffer-contention table.
pub const CSV_HEADER: &str = "scheme,buffer,regime,completed,injected,overall_avg_us,\
                              small_p99_us,marks,drops,shared_drops,admit_rejects,\
                              pool_high_water,timeouts";

/// The report title.
pub const BUFFERS_TITLE: &str =
    "Buffers: marking schemes under shared-pool contention (7-to-1 incast, 2x2 leaf-spine)";

/// Writes the headline observations: each scheme's tiny-regime small-flow
/// tail under every policy, and every cell where the policy cap refused
/// packets while pool space remained.
pub fn write_headlines(out: &mut String, records: &[&Record]) {
    let cell = |scheme: &str, buffer: &str| {
        records.iter().find(|r| {
            r.get_str("scheme") == Some(scheme)
                && r.get_str("buffer") == Some(buffer)
                && r.get_str("regime") == Some("tiny")
        })
    };
    for (scheme, _, _) in crate::transport::schemes() {
        if let (Some(st), Some(dt), Some(dl)) = (
            cell(scheme, "static"),
            cell(scheme, "dt:1"),
            cell(scheme, "delay:100"),
        ) {
            outln!(
                out,
                "# {scheme} @ tiny: small p99 {:.1} us static vs {:.1} dt \
                 vs {:.1} delay (shared drops {} / {})",
                metric(st, "small_p99_us"),
                metric(dt, "small_p99_us"),
                metric(dl, "small_p99_us"),
                metric(dt, "shared_drops"),
                metric(dl, "shared_drops")
            );
        }
    }
    for r in records {
        let rejects = metric(r, "admit_rejects");
        if rejects > 0.0 {
            outln!(
                out,
                "# {}/{}/{}: policy cap refused {rejects} of {} pool rejections \
                 (pool peaked at {} bytes)",
                r.get_str("scheme").unwrap_or_default(),
                r.get_str("buffer").unwrap_or_default(),
                r.get_str("regime").unwrap_or_default(),
                metric(r, "shared_drops"),
                metric(r, "pool_high_water")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::tests::assert_fills_columns;

    #[test]
    fn static_cells_report_no_pool_activity() {
        let rec = run_cell(
            MarkingConfig::PerPort { threshold_pkts: 12 },
            None,
            BufferPolicy::Static,
            2 * 1024 * 1024,
            2,
            &SimOpts::default(),
        );
        assert_fills_columns(&rec, CSV_HEADER);
        assert!(metric(&rec, "completed") > 0.0);
        assert_eq!(metric(&rec, "shared_drops"), 0.0, "no pool under static");
        assert_eq!(metric(&rec, "pool_high_water"), 0.0);
    }

    #[test]
    fn tiny_shared_cells_hit_the_pool() {
        for policy in [
            BufferPolicy::DynamicThreshold { alpha: 1.0 },
            BufferPolicy::DelayDriven {
                target_delay_nanos: 100_000,
            },
        ] {
            let rec = run_cell(
                MarkingConfig::Pmsb {
                    port_threshold_pkts: 12,
                },
                None,
                policy,
                4 * MTU_WIRE_BYTES,
                2,
                &SimOpts::default(),
            );
            assert_fills_columns(&rec, CSV_HEADER);
            assert!(
                metric(&rec, "shared_drops") > 0.0,
                "{policy:?}: a 7-to-1 incast must overrun a 4-MTU pool"
            );
            assert!(metric(&rec, "pool_high_water") > 0.0);
            assert!(
                metric(&rec, "completed") > 0.0,
                "{policy:?}: survivors still finish"
            );
        }
    }
}
