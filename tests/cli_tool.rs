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

/// A configuration the engine cannot run exits 1 with a single `error:`
/// line naming the accepted values, never a panic.
fn assert_clean_config_error(args: &[&str], accepted: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_pmsb-sim"))
        .args(args)
        .output()
        .expect("spawn pmsb-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must fail: {stderr}");
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
    // `--rate-gbps` is parsed as `profile` parses it, which takes rates
    // of at least 1 bps.
    assert_clean_config_error(
        &["dumbbell", "--rate-gbps", "0", "--flow", "0>2:0:1M"],
        "bad --rate-gbps '0' (accepted: Gbps from 1e-9",
    );
}

#[test]
fn overflowing_link_rates_exit_cleanly() {
    // 18446744073 Gbps still fits u64 bits per second, and the run
    // rejects it; 18446744074 does not, and the parser rejects it. Both
    // used to run to a nonsense result.
    for (gbps, accepted) in [
        ("18446744073", "accepted: 1 bps up to 1000000000 Gbps"),
        (
            "18446744074",
            "bad --rate-gbps '18446744074' (accepted: Gbps",
        ),
    ] {
        assert_clean_config_error(
            &["dumbbell", "--rate-gbps", gbps, "--flow", "0>2:0:100K"],
            accepted,
        );
    }
}

/// `dumbbell --rate-gbps` takes the grammar `profile` takes: fractional
/// Gbps run at that rate, and a rate past `u64` bits per second gets
/// `profile`'s message.
#[test]
fn dumbbell_link_rates_take_fractional_gbps() {
    let at = |gbps: &str| {
        let (ok, stdout, stderr) = pmsb_sim(&[
            "dumbbell",
            "--rate-gbps",
            gbps,
            "--millis",
            "20",
            "--flow",
            "0>2:0:200K",
        ]);
        assert!(ok, "--rate-gbps {gbps}: {stderr}");
        stdout
    };
    let slow = at("2.5");
    assert!(slow.contains("completed_flows,1"), "{slow}");
    assert_ne!(slow, at("10"), "a 2.5 Gbps link must run slower than 10");
    assert_clean_config_error(
        &["dumbbell", "--rate-gbps", "1e30", "--flow", "0>2:0:10K"],
        "bad --rate-gbps '1e30' (accepted: Gbps from 1e-9 up to 1.8e10)",
    );
}

/// An option given twice is an error naming it, not a silent choice of
/// one value; `--flow` is the one option that repeats.
#[test]
fn repeated_options_are_errors() {
    let twice = |opt: &str| format!("option '--{opt}' given twice");
    assert_clean_config_error(
        &["leaf-spine", "--flows", "20", "--flows", "30"],
        &twice("flows"),
    );
    assert_clean_config_error(
        &["fabric", "--seed", "1", "--flows", "200", "--seed", "2"],
        &twice("seed"),
    );
    assert_campaign_rejected(
        "repeated-engine",
        &[
            "campaign",
            "hyperscale",
            "--quick",
            "--engine",
            "fluid",
            "--engine",
            "hybrid",
        ],
        &twice("engine"),
    );
    assert_campaign_rejected(
        "repeated-jobs",
        &["campaign", "fig02", "--quick", "--jobs", "1", "--jobs", "2"],
        "option --jobs given twice",
    );
}

#[test]
fn overflowing_link_delay_exits_cleanly() {
    assert_clean_config_error(
        &[
            "dumbbell",
            "--delay-ns",
            "18446744073709551615",
            "--flow",
            "0>2:0:100K",
        ],
        "accepted: 0..=1000000000 ns",
    );
}

#[test]
fn flow_start_past_the_clock_exits_cleanly() {
    // Multiplied unchecked, this start wraps to 384 ns.
    assert_clean_config_error(
        &[
            "dumbbell",
            "--flow",
            "0>2:0:100K@18446744073709552",
            "--millis",
            "5",
        ],
        "accepted: 0..=18446744073709551 us",
    );
}

#[test]
fn flow_rate_below_one_bps_exits_cleanly() {
    // Rounded down, this rate is 0 bps, a divisor in the packet engine.
    assert_clean_config_error(
        &[
            "dumbbell",
            "--flow",
            "0>2:0:100K/0.0000000001",
            "--millis",
            "5",
        ],
        "accepted: at least 1 bps",
    );
}

#[test]
fn dumbbell_horizon_past_the_clock_exits_cleanly() {
    // Multiplied unchecked, this horizon wraps to 384 us.
    assert_clean_config_error(
        &[
            "dumbbell",
            "--flow",
            "0>2:0:1M",
            "--millis",
            "18446744073709552",
        ],
        "accepted: 0..=18446744073709",
    );
}

#[test]
fn fabric_drain_past_the_clock_exits_cleanly() {
    // Added unchecked, this horizon wraps below the last arrival.
    assert_clean_config_error(
        &[
            "fabric",
            "--topology",
            "fat-tree:4",
            "--pattern",
            "incast",
            "--flows",
            "50",
            "--drain-ms",
            "18446744073709551",
        ],
        "--drain-ms 18446744073709551 after the last arrival",
    );
}

#[test]
fn leaf_spine_load_too_small_for_the_clock_exits_cleanly() {
    // The arrivals saturate the clock, so the drain after them overflows it.
    assert_clean_config_error(
        &["leaf-spine", "--load", "1e-300", "--flows", "3"],
        "accepted: a load whose arrivals end within it",
    );
}

#[test]
fn flow_level_engines_reject_more_than_16_queues() {
    assert_clean_config_error(
        &[
            "dumbbell",
            "--queues",
            "20",
            "--engine",
            "hybrid",
            "--flow",
            "0>2:16:2M",
        ],
        "accepted: 1..=16 queues",
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

/// A campaign whose cells cannot run under its options exits with one
/// `error:` line before any job runs or any result file is written.
fn assert_campaign_rejected(tag: &str, args: &[&str], accepted: &str) {
    let dir = results_dir(tag);
    let mut args = args.to_vec();
    args.extend(["--results", dir.to_str().unwrap()]);
    assert_clean_config_error(&args, accepted);
    assert!(!dir.exists(), "{args:?} wrote {}", dir.display());
}

#[test]
fn campaign_buffer_its_engine_cannot_model_fails_before_any_job() {
    let accepted = "accepted: static|dt:ALPHA|delay[:MICROS]";
    assert_campaign_rejected(
        "fluid-dt",
        &[
            "campaign",
            "hyperscale",
            "--quick",
            "--engine",
            "fluid",
            "--buffer",
            "dt:1",
        ],
        accepted,
    );
    // The k=24 campaign pins the hybrid engine, which is static-only too.
    assert_campaign_rejected(
        "k24-dt",
        &["campaign", "hyperscale-k24", "--quick", "--buffer", "dt:1"],
        accepted,
    );
}

#[test]
fn campaign_region_port_outside_the_fabric_fails_before_any_job() {
    assert_campaign_rejected(
        "region-999",
        &[
            "campaign",
            "hyperscale",
            "--quick",
            "--engine",
            "regional:ports=999:0",
        ],
        "accepted: SWITCH:PORT with SWITCH in 0..20",
    );
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
    let (ok, stdout, stderr) = pmsb_sim(&["fabric", "--topology", "fat-tree:4", "--flows", "40"]);
    assert!(ok, "{stderr}");
    assert!(!stdout.contains("engine_path"), "{stdout}");
    assert!(
        stderr.lines().any(|l| l == "engine_path,packet"),
        "{stderr}"
    );
}

#[test]
fn regional_runs_name_their_hot_port_count() {
    let (ok, _, stderr) = pmsb_sim(&[
        "fabric",
        "--topology",
        "fat-tree:4",
        "--flows",
        "40",
        "--engine",
        "regional:ports=0:0,0:1,0:0",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l == "engine_path,regional,hot_ports=2"),
        "{stderr}"
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

/// Every command rejects an option its help line does not name, with
/// one `error:` line that names it, instead of ignoring it: a misspelt
/// option, or `--sim-threads`, which no command takes.
#[test]
fn unknown_options_are_errors() {
    let unexpected = |opt: &str| format!("unexpected argument '--{opt}'");
    assert_clean_config_error(
        &["dumbbell", "--flow", "0>2:0:10K", "--queus", "2"],
        &unexpected("queus"),
    );
    assert_clean_config_error(
        &["leaf-spine", "--flows", "20", "--lod", "0.9"],
        &unexpected("lod"),
    );
    let fabric = [
        "fabric",
        "--topology",
        "fat-tree:4",
        "--pattern",
        "incast",
        "--flows",
        "200",
    ];
    for (opt, value) in [("marknig", "per-queue:65"), ("sim-threads", "4")] {
        let flag = format!("--{opt}");
        let args = [&fabric[..], &[flag.as_str(), value]].concat();
        assert_clean_config_error(&args, &unexpected(opt));
    }
    assert_clean_config_error(
        &[
            "profile",
            "--rtt-us",
            "85.2",
            "--weights",
            "1,1",
            "--lamda",
            "3",
        ],
        &unexpected("lamda"),
    );
    assert_campaign_rejected(
        "sim-threads-option",
        &["campaign", "fig02", "--quick", "--sim-threads", "4"],
        &unexpected("sim-threads"),
    );
}

/// `pmsb-sim profile` rejects an RTT or link rate that does not convert
/// to a whole number of nanoseconds or bits per second in a `u64`,
/// naming the flag, instead of printing saturated thresholds.
#[test]
fn profile_rejects_rtts_and_rates_past_the_integer_range() {
    fn profile<'a>(extra: &[&'a str]) -> Vec<&'a str> {
        [&["profile", "--weights", "1,1"][..], extra].concat()
    }
    assert_clean_config_error(
        &profile(&["--rtt-us", "1e30"]),
        "bad --rtt-us '1e30' (accepted: microseconds",
    );
    assert_clean_config_error(
        &profile(&["--rate-gbps", "1e30", "--rtt-us", "85.2"]),
        "bad --rate-gbps '1e30' (accepted: Gbps",
    );
    assert_clean_config_error(
        &profile(&["--rtt-us", "0.0001"]),
        "bad --rtt-us '0.0001' (accepted: microseconds",
    );
    assert_clean_config_error(
        &profile(&["--rtt-us", "1.8e16"]),
        "rtt_nanos × rtt_headroom does not fit in 64 bits",
    );
}

/// A reader that stops early (`pmsb-sim ... | head -1`) ends the run
/// quietly with exit 0, even when stdout outgrows the 64 KiB pipe buffer.
#[test]
fn closing_stdout_early_exits_cleanly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_pmsb-sim"))
        .args([
            "fabric",
            "--topology",
            "fat-tree:4",
            "--pattern",
            "incast",
            "--flows",
            "5000",
            "--exact",
            "true",
            "--engine",
            "fluid",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pmsb-sim");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("read one line");
    // The reader, and with it the read end of the pipe, is gone now.
    let out = child.wait_with_output().expect("wait for pmsb-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(first, "hosts,16\n");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
