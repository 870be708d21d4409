//! Fault-injection campaign: marking schemes under link flaps and
//! random loss.
//!
//! The paper evaluates marking schemes on a healthy fabric; this
//! campaign asks how the same lineup behaves when the fabric misbehaves.
//! A small leaf–spine carries the paper's Poisson flow mix while a
//! [`FaultSchedule`] flaps one leaf uplink and applies 0.1% random loss
//! to another, and the robustness columns (retransmissions, RTOs,
//! loss-recovery time) join the FCT columns in the output.

use pmsb_harness::Record;
use pmsb_metrics::fct::SizeClass;
use pmsb_metrics::robustness::{FlowRobustness, RobustnessSummary};
use pmsb_netsim::experiment::{Experiment, FaultSchedule, FaultTarget, FlowDesc, MarkingConfig};
use pmsb_simcore::rng::SimRng;
use pmsb_workload::traffic::TrafficSpec;

use crate::outln;
use crate::util::{banner, SimOpts};

/// Fabric shape: `LEAVES` leaves x `SPINES` spines x `HOSTS_PER_LEAF`
/// hosts (leaf switches are topology indices `0..LEAVES`, uplink to
/// spine `s` is leaf port `HOSTS_PER_LEAF + s`).
pub const LEAVES: usize = 2;
/// Spine count.
pub const SPINES: usize = 2;
/// Hosts under each leaf.
pub const HOSTS_PER_LEAF: usize = 4;

/// The fault profiles of the sweep.
pub const PROFILES: &[&str] = &["none", "flap", "loss", "flap+loss"];

/// The scheme lineup: PMSB vs the per-queue and per-port baselines.
pub fn schemes() -> Vec<(&'static str, MarkingConfig)> {
    vec![
        (
            "pmsb",
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
        ),
        (
            "per-queue",
            MarkingConfig::PerQueueStandard { threshold_pkts: 65 },
        ),
        ("per-port", MarkingConfig::PerPort { threshold_pkts: 12 }),
    ]
}

/// The schedule a profile injects; `None` for the fault-free baseline
/// (which therefore exercises the injector-absent fast path).
///
/// * `flap` — the leaf-0 → spine-0 uplink goes dark from 5 ms to 15 ms.
/// * `loss` — 0.1% random loss on the leaf-1 → spine-1 uplink from t=0.
pub fn schedule_for(profile: &str, fault_seed: u64) -> Option<FaultSchedule> {
    let mut s = FaultSchedule::new(fault_seed);
    let flap_link = FaultTarget::SwitchLink {
        switch: 0,
        port: HOSTS_PER_LEAF,
    };
    let lossy_link = FaultTarget::SwitchLink {
        switch: 1,
        port: HOSTS_PER_LEAF + 1,
    };
    match profile {
        "none" => return None,
        "flap" => s.link_flap(flap_link, 5_000_000, 15_000_000),
        "loss" => s.loss(lossy_link, 0, 0.001),
        "flap+loss" => {
            s.link_flap(flap_link, 5_000_000, 15_000_000);
            s.loss(lossy_link, 0, 0.001);
        }
        other => panic!("unknown fault profile {other:?}"),
    }
    Some(s)
}

/// One `(scheme, profile)` cell of the fault sweep.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Fault profile name.
    pub profile: &'static str,
    /// Completed / injected flows.
    pub completed: usize,
    /// Injected flows.
    pub injected: usize,
    /// Overall average FCT, µs.
    pub overall_avg_us: f64,
    /// Small-flow (<100 KB) 99th-percentile FCT, µs.
    pub small_p99_us: f64,
    /// CE marks applied.
    pub marks: u64,
    /// Congestive buffer tail drops.
    pub drops: u64,
    /// Packets the injector destroyed (loss + corruption + unroutable).
    pub fault_drops: u64,
    /// Segments retransmitted across all senders.
    pub retransmissions: u64,
    /// Retransmission timeouts across all senders.
    pub timeouts: u64,
    /// Loss-recovery episodes across all senders.
    pub loss_episodes: u64,
    /// Mean per-flow loss-recovery time (lossy flows only), µs.
    pub mean_recovery_us: f64,
    /// Worst per-flow loss-recovery time, µs.
    pub max_recovery_us: f64,
}

/// Runs one `(scheme, profile)` cell under `opts`: the paper flow mix
/// at moderate load over the small leaf–spine, with the profile's
/// faults injected.
pub fn run_cell(
    scheme: &'static str,
    marking: MarkingConfig,
    profile: &'static str,
    num_flows: usize,
    seed: u64,
    opts: &SimOpts,
) -> FaultRow {
    let num_hosts = LEAVES * HOSTS_PER_LEAF;
    let spec = TrafficSpec::paper_large_scale(num_hosts, 0.3);
    let mut rng = SimRng::seed_from(seed);
    let flows = spec.generate(num_flows, &mut rng);
    let mut e = opts.apply(Experiment::leaf_spine(LEAVES, SPINES, HOSTS_PER_LEAF).marking(marking));
    // The fault stream is salted off the workload seed so different
    // seeds move both the traffic and the loss pattern, while equal
    // seeds reproduce the run exactly.
    if let Some(schedule) = schedule_for(profile, seed ^ 0xfa17) {
        e = e.faults(schedule);
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
    FaultRow {
        scheme,
        profile,
        completed: res.fct.len(),
        injected: flows.len(),
        overall_avg_us: stat(SizeClass::Overall, |s| s.mean),
        small_p99_us: stat(SizeClass::Small, |s| s.p99),
        marks: res.marks,
        drops: res.drops,
        fault_drops: res.faults.as_ref().map(|f| f.fault_drops()).unwrap_or(0),
        retransmissions: rob.retransmissions,
        timeouts: rob.timeouts,
        loss_episodes: rob.loss_episodes,
        mean_recovery_us: rob.mean_recovery_nanos() / 1e3,
        max_recovery_us: rob.max_recovery_nanos() / 1e3,
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
pub const CSV_HEADER: &str = "scheme,profile,completed,injected,overall_avg_us,small_p99_us,\
                              marks,drops,fault_drops,retransmissions,timeouts,loss_episodes,\
                              mean_recovery_us,max_recovery_us";

/// One [`FaultRow`] as a CSV line (no newline).
pub fn csv_line(row: &FaultRow) -> String {
    format!(
        "{},{},{},{},{:.1},{:.1},{},{},{},{},{},{},{:.1},{:.1}",
        row.scheme,
        row.profile,
        row.completed,
        row.injected,
        row.overall_avg_us,
        row.small_p99_us,
        row.marks,
        row.drops,
        row.fault_drops,
        row.retransmissions,
        row.timeouts,
        row.loss_episodes,
        row.mean_recovery_us,
        row.max_recovery_us
    )
}

/// The harness-record payload of one cell.
pub fn row_record(row: &FaultRow) -> Record {
    Record::new()
        .field("completed", row.completed)
        .field("injected", row.injected)
        .field("overall_avg_us", row.overall_avg_us)
        .field("small_p99_us", row.small_p99_us)
        .field("marks", row.marks)
        .field("drops", row.drops)
        .field("fault_drops", row.fault_drops)
        .field("retransmissions", row.retransmissions)
        .field("timeouts", row.timeouts)
        .field("loss_episodes", row.loss_episodes)
        .field("mean_recovery_us", row.mean_recovery_us)
        .field("max_recovery_us", row.max_recovery_us)
}

/// Rebuilds a [`FaultRow`] from a record written by [`row_record`]
/// (with `scheme` and `profile` job parameters).
pub fn row_from_record(rec: &Record) -> Option<FaultRow> {
    let scheme = schemes()
        .into_iter()
        .map(|(name, _)| name)
        .find(|s| rec.get_str("scheme") == Some(s))?;
    let profile = PROFILES
        .iter()
        .copied()
        .find(|p| rec.get_str("profile") == Some(p))?;
    let f = |k: &str| rec.get_f64(k);
    Some(FaultRow {
        scheme,
        profile,
        completed: f("completed")? as usize,
        injected: f("injected")? as usize,
        overall_avg_us: f("overall_avg_us")?,
        small_p99_us: f("small_p99_us")?,
        marks: f("marks")? as u64,
        drops: f("drops")? as u64,
        fault_drops: f("fault_drops")? as u64,
        retransmissions: f("retransmissions")? as u64,
        timeouts: f("timeouts")? as u64,
        loss_episodes: f("loss_episodes")? as u64,
        mean_recovery_us: f("mean_recovery_us")?,
        max_recovery_us: f("max_recovery_us")?,
    })
}

/// The report title.
pub const FAULTS_TITLE: &str =
    "Faults: marking schemes under link flap + 0.1% loss (2x2 leaf-spine)";

/// Writes the sweep table plus headline observations for a completed
/// set of cells.
pub fn write_report(out: &mut String, rows: &[FaultRow]) {
    banner(out, FAULTS_TITLE);
    outln!(out, "{CSV_HEADER}");
    for row in rows {
        outln!(out, "{}", csv_line(row));
    }
    let cell = |scheme: &str, profile: &str| {
        rows.iter()
            .find(|r| r.scheme == scheme && r.profile == profile)
    };
    for (scheme, _) in schemes() {
        if let (Some(clean), Some(faulted)) = (cell(scheme, "none"), cell(scheme, "flap+loss")) {
            outln!(
                out,
                "# {scheme}: avg FCT {:.1} -> {:.1} us under flap+loss \
                 ({} retx, {} RTOs, mean recovery {:.1} us)",
                clean.overall_avg_us,
                faulted.overall_avg_us,
                faulted.retransmissions,
                faulted.timeouts,
                faulted.mean_recovery_us
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_resolve_to_schedules() {
        assert!(schedule_for("none", 1).is_none());
        for p in &PROFILES[1..] {
            let s = schedule_for(p, 1).expect("faulted profile has a schedule");
            assert!(!s.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown fault profile")]
    fn unknown_profile_panics() {
        schedule_for("meteor-strike", 1);
    }

    #[test]
    fn row_round_trips_through_record() {
        let row = FaultRow {
            scheme: "pmsb",
            profile: "flap+loss",
            completed: 100,
            injected: 120,
            overall_avg_us: 1234.5,
            small_p99_us: 99.9,
            marks: 10,
            drops: 2,
            fault_drops: 7,
            retransmissions: 42,
            timeouts: 3,
            loss_episodes: 5,
            mean_recovery_us: 2500.0,
            max_recovery_us: 9000.0,
        };
        let rec = row_record(&row)
            .field("scheme", "pmsb")
            .field("profile", "flap+loss");
        let back = row_from_record(&rec).expect("round-trip");
        assert_eq!(back.completed, row.completed);
        assert_eq!(back.retransmissions, row.retransmissions);
        assert_eq!(back.loss_episodes, row.loss_episodes);
        assert_eq!(back.max_recovery_us, row.max_recovery_us);
    }

    #[test]
    fn quick_cell_runs_and_populates_robustness_columns() {
        let row = run_cell(
            "pmsb",
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            "flap+loss",
            60,
            42,
            &SimOpts::default(),
        );
        assert!(row.completed > 0);
        assert!(row.fault_drops > 0, "0.1% loss must destroy packets");
        assert!(row.retransmissions > 0, "loss must force retransmissions");
    }
}
