//! World-level tests for the shared-buffer switch subsystem
//! (DESIGN.md §12): tiny-buffer contention sanity per marking scheme,
//! the default-vs-explicit `static` identity, and the fluid-engine
//! rejection of shared policies.

use pmsb_netsim::experiment::{EngineKind, Experiment, FlowDesc, MarkingConfig, RunResults};
use pmsb_netsim::packet::MTU_WIRE_BYTES;
use pmsb_netsim::BufferPolicy;

/// Canonical text form of everything a run observes, including the
/// shared-pool contention counters; byte equality is the gate.
fn fingerprint(res: &RunResults) -> String {
    let mut out = String::new();
    for r in res.fct.records() {
        out.push_str(&format!(
            "fct {} {} {} {}\n",
            r.flow_id, r.bytes, r.start_nanos, r.end_nanos
        ));
    }
    out.push_str(&format!(
        "marks {} drops {} deliveries {} events {} end {}\n",
        res.marks, res.drops, res.deliveries, res.events, res.end_nanos
    ));
    let mut stats: Vec<_> = res.sender_stats.iter().collect();
    stats.sort_by_key(|(id, _)| **id);
    for (id, s) in stats {
        out.push_str(&format!("sender {id} {s:?}\n"));
    }
    out.push_str(&format!("pool {:?}\n", res.shared_buffer));
    out
}

/// A 7-to-1 incast on the 2×2 leaf–spine: every host but the
/// aggregator ships 64 KB at t=1 ms, with a second wave 1 ms later.
fn incast(marking: MarkingConfig) -> Experiment {
    let mut e = Experiment::leaf_spine(2, 2, 4).marking(marking);
    for epoch in 0..2u64 {
        for src in 1..8usize {
            e.add_flow(
                FlowDesc::bulk(src, 0, src % 8, 64_000).starting_at(1_000_000 + epoch * 1_000_000),
            );
        }
    }
    e
}

fn marking_lineup() -> Vec<MarkingConfig> {
    vec![
        MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        },
        MarkingConfig::PerQueueStandard { threshold_pkts: 65 },
        MarkingConfig::PerPort { threshold_pkts: 12 },
        MarkingConfig::MqEcn { standard_pkts: 16 },
    ]
}

/// Under a 4-MTU-per-port pool every scheme must shed load through the
/// shared pool (nonzero `shared_drops`), and the incast must still
/// complete — pool pressure degrades, it does not deadlock.
#[test]
fn tiny_buffers_shed_load_under_every_scheme() {
    for marking in marking_lineup() {
        for policy in [
            BufferPolicy::DynamicThreshold { alpha: 1.0 },
            BufferPolicy::DelayDriven {
                target_delay_nanos: 100_000,
            },
        ] {
            let res = incast(marking.clone())
                .buffer(policy)
                .buffer_bytes(4 * MTU_WIRE_BYTES)
                .run_for_millis(500);
            let sb = res.shared_buffer.expect("shared policy reports a summary");
            assert!(
                sb.shared_drops > 0,
                "{marking:?}/{policy:?}: 7-to-1 incast must overrun a 4-MTU pool"
            );
            assert!(sb.pool_high_water_bytes > 0);
            assert!(
                sb.pool_high_water_bytes <= sb.pool_total_bytes,
                "{marking:?}/{policy:?}: high water {} above pool {}",
                sb.pool_high_water_bytes,
                sb.pool_total_bytes
            );
            assert_eq!(
                res.fct.len(),
                14,
                "{marking:?}/{policy:?}: all incast flows finish despite drops"
            );
            // No marking assertion: a tiny pool can sit below a deep
            // per-queue threshold forever (e.g. 65 pkts never fits in a
            // 4-MTU-per-port pool) — which marking survives this regime
            // is exactly what the `buffers` campaign measures. Pool
            // rejections must be visible in the run's total drops.
            assert!(
                sb.shared_drops <= res.drops,
                "{marking:?}/{policy:?}: pool drops {} missing from total {}",
                sb.shared_drops,
                res.drops
            );
        }
    }
}

/// A normally-provisioned pool under `static` is drop-free for this
/// incast and reports no pool summary at all — the golden-record shape.
#[test]
fn default_and_explicit_static_are_identical() {
    let marking = MarkingConfig::Pmsb {
        port_threshold_pkts: 12,
    };
    let default_run = incast(marking.clone()).run_for_millis(500);
    let explicit = incast(marking)
        .buffer(BufferPolicy::Static)
        .run_for_millis(500);
    assert!(default_run.shared_buffer.is_none(), "static has no pool");
    assert_eq!(fingerprint(&default_run), fingerprint(&explicit));
}

/// The fluid engine models neither packets nor pools; asking it for a
/// shared policy must fail fast with the accepted variants named.
#[test]
#[should_panic(expected = "static|dt:ALPHA|delay[:MICROS]")]
fn fluid_engine_rejects_shared_buffer_policies() {
    let mut e = Experiment::dumbbell(2, 2)
        .engine(EngineKind::Fluid)
        .buffer(BufferPolicy::DynamicThreshold { alpha: 1.0 });
    e.add_flow(FlowDesc::long_lived(0, 2, 0));
    e.run_for_millis(5);
}
