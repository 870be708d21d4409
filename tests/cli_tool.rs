//! End-to-end tests of the `pmsb-sim` binary (spawned as a subprocess).

use std::process::Command;

fn pmsb_sim(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pmsb-sim"))
        .args(args)
        .output()
        .expect("spawn pmsb-sim");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = pmsb_sim(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("dumbbell"));
}

#[test]
fn help_flags_print_usage_and_succeed() {
    for flag in ["--help", "-h"] {
        let (ok, stdout, stderr) = pmsb_sim(&[flag]);
        assert!(ok, "{flag}: {stderr}");
        assert!(stdout.contains("USAGE"), "{flag}: {stdout}");
    }
}

/// A configuration the engine cannot run exits non-zero with a single
/// `error:` line naming the accepted values, never a panic.
fn assert_clean_config_error(args: &[&str], accepted: &str) {
    let (ok, _, stderr) = pmsb_sim(args);
    assert!(!ok, "{args:?} must fail");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
    assert!(errors[0].contains(accepted), "{args:?}: {}", errors[0]);
}

#[test]
fn engine_capability_errors_exit_cleanly() {
    assert_clean_config_error(
        &["fabric", "--engine", "fluid", "--buffer", "dt:1"],
        "accepted: static|dt:ALPHA|delay[:MICROS]",
    );
    assert_clean_config_error(
        &["fabric", "--engine", "regional:ports=999:0"],
        "accepted: SWITCH:PORT with SWITCH in 0..20",
    );
}

#[test]
fn out_of_range_pmsbe_thresholds_are_rejected() {
    for us in ["nan", "-5", "inf", "1e30"] {
        assert_clean_config_error(
            &["dumbbell", "--pmsbe-us", us, "--flow", "0>2:0:10K"],
            "accepted: microseconds",
        );
    }
}

#[test]
fn dumbbell_without_senders_exits_cleanly() {
    assert_clean_config_error(
        &["dumbbell", "--senders", "0", "--flow", "0>1:0:1M"],
        "accepted: at least 1 sender",
    );
}

#[test]
fn dumbbell_without_queues_exits_cleanly() {
    assert_clean_config_error(
        &["dumbbell", "--queues", "0", "--flow", "0>2:0:1M"],
        "accepted: at least one queue, every weight above 0",
    );
}

#[test]
fn zero_link_rate_exits_cleanly() {
    assert_clean_config_error(
        &["dumbbell", "--rate-gbps", "0", "--flow", "0>2:0:1M"],
        "accepted: a link rate above 0",
    );
}

#[test]
fn flow_to_a_missing_host_exits_cleanly() {
    assert_clean_config_error(&["dumbbell", "--flow", "0>99:0:1M"], "accepted: hosts 0..3");
}

#[test]
fn campaign_engine_applies_to_hyperscale_only() {
    assert_clean_config_error(
        &["campaign", "transport", "--quick", "--engine", "fluid"],
        "accepted: packet",
    );
    assert_clean_config_error(
        &[
            "campaign",
            "hyperscale-k24-regional",
            "--quick",
            "--engine",
            "regional:ports=0:0",
        ],
        "accepted: packet",
    );
}

/// A fresh campaign results directory, unique to this test process.
fn results_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pmsb-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn campaign_rerun_reuses_its_records() {
    let dir = results_dir("resume");
    let args = [
        "campaign",
        "fig02",
        "--quick",
        "--results",
        dir.to_str().unwrap(),
    ];
    let (ok, first, stderr) = pmsb_sim(&args);
    assert!(ok, "{stderr}");
    let (ok, second, stderr) = pmsb_sim(&args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("0 run, 1 reused"), "{stderr}");
    assert_eq!(first, second);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explicit_region_does_not_reuse_auto_region_records() {
    let dir = results_dir("region");
    let run = |engine: &str| {
        pmsb_sim(&[
            "campaign",
            "hyperscale",
            "--quick",
            "--jobs",
            "2",
            "--engine",
            engine,
            "--results",
            dir.to_str().unwrap(),
        ])
    };
    let (ok, _, stderr) = run("regional");
    assert!(ok, "{stderr}");
    let (ok, _, stderr) = run("regional:ports=0:0,0:1,4:0");
    assert!(ok, "{stderr}");
    assert!(stderr.contains("12 run, 0 reused"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runs_report_their_engine_path_on_stderr() {
    let (ok, stdout, stderr) = pmsb_sim(&[
        "fabric",
        "--topology",
        "fat-tree:4",
        "--flows",
        "40",
        "--sim-threads",
        "2",
    ]);
    assert!(ok, "{stderr}");
    assert!(!stdout.contains("engine_path"), "{stdout}");
    let path = stderr
        .lines()
        .find_map(|l| l.strip_prefix("engine_path,"))
        .unwrap_or_else(|| panic!("no engine_path line: {stderr}"));
    assert!(
        path.starts_with("packet-sharded,lps=2") || path.starts_with("sharded-fallback,lps=2,"),
        "{path}"
    );
}

#[test]
fn profile_derives_paper_thresholds() {
    let (ok, stdout, _) = pmsb_sim(&[
        "profile",
        "--rtt-us",
        "85.2",
        "--weights",
        "1,1,1,1,1,1,1,1",
    ]);
    assert!(ok, "{stdout}");
    // The sum-of-bounds recipe lands on ~12 packets — the paper's choice.
    assert!(stdout.contains("port_threshold"), "{stdout}");
    assert!(stdout.contains("12.2 pkts"), "{stdout}");
    assert!(stdout.contains("pmsbe_rtt_threshold,102240 ns"), "{stdout}");
}

#[test]
fn dumbbell_runs_a_flow() {
    let (ok, stdout, stderr) = pmsb_sim(&[
        "dumbbell",
        "--senders",
        "2",
        "--marking",
        "pmsb:12",
        "--millis",
        "20",
        "--flow",
        "0>2:0:50K",
        "--flow",
        "1>2:1:50K",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("completed_flows,2"), "{stdout}");
    assert!(stdout.contains("fct_small"), "{stdout}");
}

#[test]
fn bad_arguments_fail_with_guidance() {
    let (ok, _, stderr) = pmsb_sim(&["dumbbell", "--marking", "pmsb"]);
    assert!(!ok);
    assert!(
        stderr.contains("pmsb:12"),
        "error should show an example: {stderr}"
    );

    let (ok, _, stderr) = pmsb_sim(&["dumbbell", "--millis", "10"]);
    assert!(!ok);
    assert!(stderr.contains("--flow"), "{stderr}");

    let (ok, _, stderr) = pmsb_sim(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn profile_rejects_thresholds_below_the_bound() {
    let (ok, _, stderr) = pmsb_sim(&[
        "profile",
        "--rtt-us",
        "85.2",
        "--weights",
        "1,1,1,1,1,1,1,1",
        "--lambda",
        "0.05",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("Theorem IV.1"),
        "must explain the violation: {stderr}"
    );
}
