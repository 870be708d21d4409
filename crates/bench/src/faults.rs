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
use pmsb_netsim::experiment::{Experiment, FaultSchedule, FaultTarget, MarkingConfig};

use crate::outln;
use crate::util::{add_paper_flows, fct_us, metric, robustness, SimOpts};

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

/// Runs one `(scheme, profile)` cell under `opts`: the paper flow mix
/// at moderate load over the small leaf–spine, with the profile's
/// faults injected. Returns its record: every column of [`CSV_HEADER`]
/// but the `scheme` and `profile` job parameters.
pub fn run_cell(
    marking: MarkingConfig,
    profile: &str,
    num_flows: usize,
    seed: u64,
    opts: &SimOpts,
) -> Record {
    let mut e = opts.apply(Experiment::leaf_spine(LEAVES, SPINES, HOSTS_PER_LEAF).marking(marking));
    // The fault stream is salted off the workload seed so different
    // seeds move both the traffic and the loss pattern, while equal
    // seeds reproduce the run exactly.
    if let Some(schedule) = schedule_for(profile, seed ^ 0xfa17) {
        e = e.faults(schedule);
    }
    let horizon = add_paper_flows(&mut e, 0.3, num_flows, seed).expect("load 0.3 fits the clock");
    let res = e.run_until_nanos(horizon);
    let rob = robustness(&res);
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
        .field(
            "fault_drops",
            res.faults.as_ref().map(|f| f.fault_drops()).unwrap_or(0),
        )
        .field("retransmissions", rob.retransmissions)
        .field("timeouts", rob.timeouts)
        .field("loss_episodes", rob.loss_episodes)
        .field("mean_recovery_us", rob.mean_recovery_nanos() / 1e3)
        .field("max_recovery_us", rob.max_recovery_nanos() / 1e3)
}

/// The flow count of the sweep (or the `--quick` smoke version).
pub fn num_flows(quick: bool) -> usize {
    if quick {
        120
    } else {
        600
    }
}

/// The columns of the fault table.
pub const CSV_HEADER: &str = "scheme,profile,completed,injected,overall_avg_us,small_p99_us,\
                              marks,drops,fault_drops,retransmissions,timeouts,loss_episodes,\
                              mean_recovery_us,max_recovery_us";

/// The report title.
pub const FAULTS_TITLE: &str =
    "Faults: marking schemes under link flap + 0.1% loss (2x2 leaf-spine)";

/// Writes the headline observations: each scheme's FCT without faults
/// and under flap+loss, with the faulted cell's recovery cost.
pub fn write_headlines(out: &mut String, records: &[&Record]) {
    let cell = |scheme: &str, profile: &str| {
        records
            .iter()
            .find(|r| r.get_str("scheme") == Some(scheme) && r.get_str("profile") == Some(profile))
    };
    for (scheme, _) in schemes() {
        if let (Some(clean), Some(faulted)) = (cell(scheme, "none"), cell(scheme, "flap+loss")) {
            outln!(
                out,
                "# {scheme}: avg FCT {:.1} -> {:.1} us under flap+loss \
                 ({} retx, {} RTOs, mean recovery {:.1} us)",
                metric(clean, "overall_avg_us"),
                metric(faulted, "overall_avg_us"),
                metric(faulted, "retransmissions"),
                metric(faulted, "timeouts"),
                metric(faulted, "mean_recovery_us")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::tests::assert_fills_columns;

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
    fn quick_cell_runs_and_populates_robustness_columns() {
        let rec = run_cell(
            MarkingConfig::Pmsb {
                port_threshold_pkts: 12,
            },
            "flap+loss",
            60,
            42,
            &SimOpts::default(),
        );
        assert_fills_columns(&rec, CSV_HEADER);
        assert!(metric(&rec, "completed") > 0.0);
        assert!(
            metric(&rec, "fault_drops") > 0.0,
            "0.1% loss must destroy packets"
        );
        assert!(
            metric(&rec, "retransmissions") > 0.0,
            "loss must force retransmissions"
        );
    }
}
