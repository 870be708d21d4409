//! Harness campaigns: every experiment in the suite expressed as
//! [`pmsb_harness`] jobs.
//!
//! Each figure/extension is one job whose record carries its headline
//! metrics plus the full human-readable report; the large-scale sweeps
//! and the seed-sensitivity study fan out one job per
//! `(scheduler, scheme, load, seed)` cell, so `--jobs N` parallelizes
//! the expensive part of the `all` campaign and interrupted runs resume
//! from `results/<campaign>/records.jsonl`. The sweep builders take the
//! campaign's [`SimOpts`] and every job closure captures its own copy.

use pmsb_harness::{Campaign, CampaignResult, Job, Record};
use pmsb_netsim::experiment::SchedulerConfig;
use pmsb_netsim::{EngineKind, RegionSpec};

use crate::util::{banner, write_table, SimOpts};
use crate::{buffers, extensions, faults, figures, hyperscale, large_scale, outln, transport};

/// The seed used by single-seed sweeps, matching the paper runs.
pub const DEFAULT_SEED: u64 = 42;

/// The seeds of the seed-sensitivity study.
pub const SENSITIVITY_SEEDS: [u64; 3] = [42, 1337, 98765];

/// Wraps an experiment function into a job: the function writes its
/// report into a buffer and returns its headline metrics; the record
/// stores both. Figure/extension experiments derive all randomness
/// from fixed internal configuration, so the job seed is 0.
fn report_job(
    scenario: &'static str,
    quick: bool,
    f: impl FnOnce(&mut String) -> Record + Send + 'static,
) -> Job {
    Job::new(scenario, 0, move || {
        let mut out = String::new();
        let mut rec = f(&mut out);
        rec.push("report", out);
        rec
    })
    .param("quick", quick)
}

/// One job per static-flow experiment: Figs. 1–15, Table I, Thm. IV.1.
pub fn figure_jobs(quick: bool) -> Vec<Job> {
    let mut jobs = vec![
        report_job("fig01", quick, move |out| {
            let mut rec = Record::new();
            for (nq, s) in figures::fig01(out, quick) {
                rec.push(&format!("q{nq}_rtt_avg_us"), s.mean / 1e3);
                rec.push(&format!("q{nq}_rtt_p99_us"), s.p99 / 1e3);
            }
            rec
        }),
        report_job("fig02", quick, move |out| {
            let (full, frac) = figures::fig02(out, quick);
            Record::new().field("gbps_k16", full).field("gbps_k2", frac)
        }),
        report_job("fig03", quick, move |out| {
            share_record(&figures::fig03(out, quick))
        }),
        report_job("fig04", quick, move |out| {
            let (enq, deq) = figures::fig04(out, quick);
            Record::new()
                .field("enqueue_peak_pkts", enq)
                .field("dequeue_peak_pkts", deq)
        }),
        report_job("fig05", quick, move |out| {
            Record::new().field("tcn_peak_pkts", figures::fig05(out, quick))
        }),
        report_job("fig06", quick, move |out| {
            share_record(&figures::fig06(out, quick))
        }),
        report_job("fig07", quick, move |out| {
            share_record(&figures::fig07(out, quick))
        }),
        report_job("fig08", quick, move |out| {
            share_record(&figures::fig08(out, quick))
        }),
        report_job("fig09", quick, move |out| {
            let mut rec = Record::new();
            for (scheme, s) in figures::fig09(out, quick) {
                rec.push(&format!("{scheme}_rtt_avg_us"), s.mean / 1e3);
                rec.push(&format!("{scheme}_rtt_p99_us"), s.p99 / 1e3);
            }
            rec
        }),
        report_job("fig10", quick, move |out| {
            share_record(&figures::fig10(out, quick))
        }),
        report_job("fig11_12", quick, move |out| {
            let mut rec = Record::new();
            for (scheme, enq, deq) in figures::fig11_12(out, quick) {
                rec.push(&format!("{scheme}_enqueue_peak_pkts"), enq);
                rec.push(&format!("{scheme}_dequeue_peak_pkts"), deq);
            }
            rec
        }),
        report_job("fig13", quick, move |out| {
            queues_record(&figures::fig13(out, quick))
        }),
        report_job("fig14", quick, move |out| {
            queues_record(&figures::fig14(out, quick))
        }),
        report_job("fig15", quick, move |out| {
            let (solo, q1, q2) = figures::fig15(out, quick);
            Record::new()
                .field("solo_gbps", solo)
                .field("final_q1_gbps", q1)
                .field("final_q2_gbps", q2)
        }),
        report_job("thm_iv1", quick, move |out| {
            let mut rec = Record::new();
            for (ratio, k, util) in figures::thm_iv1(out, quick) {
                rec.push(&format!("k{k}_ratio"), ratio);
                rec.push(&format!("k{k}_utilization"), util);
            }
            rec
        }),
    ];
    // Table I is configuration-independent, so no `quick` parameter: a
    // quick run's record satisfies a full run too.
    jobs.push(Job::new("table1", 0, || {
        let mut out = String::new();
        let mut rec = Record::new();
        for (scheme, caps) in figures::table1(&mut out) {
            let yn: String = caps.iter().map(|c| if *c { 'y' } else { 'n' }).collect();
            rec.push(&scheme, yn);
        }
        rec.push("report", out);
        rec
    }));
    jobs
}

fn share_record(r: &crate::util::ShareResult) -> Record {
    let mut rec = Record::new();
    for (q, g) in r.queue_gbps.iter().enumerate() {
        rec.push(&format!("q{}_gbps", q + 1), *g);
    }
    rec.field("total_gbps", r.total_gbps)
        .field("marks", r.marks)
        .field("drops", r.drops)
}

fn queues_record(shares: &[f64]) -> Record {
    let mut rec = Record::new();
    for (q, g) in shares.iter().enumerate() {
        rec.push(&format!("q{}_final_gbps", q + 1), *g);
    }
    rec
}

/// One job per extension / ablation experiment.
pub fn extension_jobs(quick: bool) -> Vec<Job> {
    vec![
        report_job("ext_per_pool_violation", quick, move |out| {
            let (pool, port) = extensions::ext_per_pool_violation(out, quick);
            Record::new()
                .field("per_pool_gbps", pool)
                .field("per_port_gbps", port)
        }),
        report_job("ablation_port_threshold", quick, move |out| {
            let mut rec = Record::new();
            for (k, q1, p99) in extensions::ablation_port_threshold(out, quick) {
                rec.push(&format!("k{k}_queue1_gbps"), q1);
                rec.push(&format!("k{k}_rtt_p99_us"), p99);
            }
            rec
        }),
        report_job("ablation_pmsbe_threshold", quick, move |out| {
            let mut rec = Record::new();
            for (thr, victim, frac) in extensions::ablation_pmsbe_threshold(out, quick) {
                rec.push(&format!("thr{thr:.0}us_victim_gbps"), victim);
                rec.push(&format!("thr{thr:.0}us_ignored_frac"), frac);
            }
            rec
        }),
        report_job("ablation_red_vs_step", quick, move |out| {
            let (red, step) = extensions::ablation_red_vs_step(out, quick);
            Record::new()
                .field("red_mice_p99_us", red)
                .field("step_mice_p99_us", step)
        }),
        report_job("ablation_classic_ecn", quick, move |out| {
            let (dctcp, classic) = extensions::ablation_classic_ecn(out, quick);
            Record::new()
                .field("dctcp_gbps", dctcp)
                .field("classic_gbps", classic)
        }),
        report_job("ablation_delayed_acks", quick, move |out| {
            let mut rec = Record::new();
            for (m, p99, share) in extensions::ablation_delayed_acks(out, quick) {
                rec.push(&format!("m{m}_small_p99_us"), p99);
                rec.push(&format!("m{m}_victim_gbps"), share);
            }
            rec
        }),
        report_job("ext_dynamic_threshold", quick, move |out| {
            let (stat, dt) = extensions::ext_dynamic_threshold(out, quick);
            Record::new()
                .field("static_mice_p99_us", stat)
                .field("dt_mice_p99_us", dt)
        }),
        report_job("ext_websearch_workload", quick, move |out| {
            let mut rec = Record::new();
            for (scheme, p99) in extensions::ext_websearch_workload(out, quick) {
                rec.push(&format!("{scheme}_small_p99_us"), p99);
            }
            rec
        }),
        report_job("ext_datamining_workload", quick, move |out| {
            let mut rec = Record::new();
            for (scheme, p99) in extensions::ext_datamining_workload(out, quick) {
                rec.push(&format!("{scheme}_small_p99_us"), p99);
            }
            rec
        }),
        report_job("ext_incast", quick, move |out| {
            let mut rec = Record::new();
            for (scheme, last) in extensions::ext_incast(out, quick) {
                rec.push(&format!("{scheme}_last_completion_us"), last);
            }
            rec
        }),
    ]
}

/// Tags a sweep job with a `buffer` parameter when `opts` selects a
/// shared buffer policy, so its records never collide with the
/// static-buffer golden records (same convention as the `engine`
/// parameter: default-policy jobs keep their historical keys).
fn tag_buffer(job: Job, opts: &SimOpts) -> Job {
    if opts.buffer.is_shared() {
        job.param("buffer", opts.buffer.name())
    } else {
        job
    }
}

/// One job per `(scheme, load, seed)` cell of a large-scale sweep.
/// `scheduler` is `"dwrr"` (Figs. 16–21, MQ-ECN included) or `"wfq"`
/// (Figs. 22–27).
pub fn large_scale_jobs(
    scheduler: &'static str,
    quick: bool,
    seeds: &[u64],
    opts: &SimOpts,
) -> Vec<Job> {
    let include_mq_ecn = scheduler == "dwrr";
    let scenario = if include_mq_ecn {
        "fig16_21"
    } else {
        "fig22_27"
    };
    let (loads, num_flows) = large_scale::loads_and_flows(quick);
    let mut jobs = Vec::new();
    for &seed in seeds {
        for &load in loads {
            for scheme in large_scale::schemes(include_mq_ecn) {
                let name = scheme.0;
                let cell_opts = opts.clone();
                jobs.push(tag_buffer(
                    Job::new(scenario, seed, move || {
                        let sched = if include_mq_ecn {
                            SchedulerConfig::Dwrr {
                                weights: vec![1; 8],
                            }
                        } else {
                            SchedulerConfig::Wfq {
                                weights: vec![1; 8],
                            }
                        };
                        large_scale::run_cell(sched, &scheme, load, num_flows, seed, &cell_opts)
                    })
                    .param("scheduler", scheduler)
                    .param("scheme", name)
                    .param("load", load)
                    .param("quick", quick),
                    opts,
                ));
            }
        }
    }
    jobs
}

/// One job per `(scheme, fault profile)` cell of the fault-injection
/// sweep (see [`crate::faults`]).
pub fn fault_jobs(quick: bool, seed: u64, opts: &SimOpts) -> Vec<Job> {
    let num_flows = faults::num_flows(quick);
    let mut jobs = Vec::new();
    for (name, marking) in faults::schemes() {
        for profile in faults::PROFILES {
            let marking = marking.clone();
            let cell_opts = opts.clone();
            jobs.push(tag_buffer(
                Job::new("faults", seed, move || {
                    faults::run_cell(marking, profile, num_flows, seed, &cell_opts)
                })
                .param("scheme", name)
                .param("profile", *profile)
                .param("quick", quick),
                opts,
            ));
        }
    }
    jobs
}

/// One job per `(scheme, pattern)` cell of the hyperscale fat-tree
/// sweep (see [`crate::hyperscale`]), the one campaign that runs on
/// `opts.engine`. Streaming cells: the record holds sketch percentiles,
/// never a per-flow sample store.
///
/// # Errors
///
/// The validation error of the first cell `opts` cannot run.
pub fn hyperscale_jobs(quick: bool, seed: u64, opts: &SimOpts) -> Result<Vec<Job>, String> {
    let (k, total_flows) = hyperscale::fabric_and_flows(quick);
    let mut jobs = Vec::new();
    for scheme in hyperscale::schemes() {
        for pattern in hyperscale::patterns(quick) {
            // Validated here, so options the engine cannot run fail the
            // campaign with one message instead of panicking in every job.
            hyperscale::cell_experiment(&scheme, &pattern.1, k, total_flows, seed, opts)
                .validate()
                .map_err(|e| e.to_string())?;
            let name = scheme.0;
            let pattern_name = pattern.0;
            let scheme = scheme.clone();
            let cell_opts = opts.clone();
            let mut job = Job::new("hyperscale", seed, move || {
                hyperscale::run_cell(&scheme, &pattern.1, k, total_flows, seed, &cell_opts)
            })
            .param("scheme", name)
            .param("pattern", pattern_name)
            .param("quick", quick);
            // Non-default engines and regions are tagged so their records
            // never collide with the packet-engine golden records (or with
            // another region's); packet jobs keep their historical keys.
            if opts.engine != EngineKind::Packet {
                job = job.param("engine", opts.engine.name());
            }
            if opts.region != RegionSpec::Auto {
                job = job.param("region", opts.region.name());
            }
            jobs.push(tag_buffer(job, opts));
        }
    }
    Ok(jobs)
}

/// One job per `(scheme, pattern)` cell of the k=24 grid — the ROADMAP's
/// largest-fabric remnant. The engine is pinned to hybrid per cell (the
/// flow-level fast path is what makes 3456 hosts affordable as a
/// campaign cell), so `opts.engine` and `opts.region` do not apply;
/// records carry an explicit `engine=hybrid` parameter.
///
/// # Errors
///
/// The validation error of the first cell `opts` cannot run (a shared
/// buffer policy: hybrid supports only `static`).
pub fn hyperscale_k24_jobs(quick: bool, seed: u64, opts: &SimOpts) -> Result<Vec<Job>, String> {
    k24_jobs("hyperscale_k24", EngineKind::Hybrid, quick, seed, opts)
}

/// The k=24 grid on the pinned `engine`, shared by
/// [`hyperscale_k24_jobs`] and [`hyperscale_k24_regional_jobs`].
fn k24_jobs(
    scenario: &'static str,
    engine: EngineKind,
    quick: bool,
    seed: u64,
    opts: &SimOpts,
) -> Result<Vec<Job>, String> {
    let total_flows = hyperscale::k24_flows(quick);
    let pinned = SimOpts {
        engine,
        region: RegionSpec::Auto,
        ..opts.clone()
    };
    let mut jobs = Vec::new();
    for scheme in hyperscale::k24_schemes() {
        for pattern in hyperscale::k24_patterns() {
            hyperscale::cell_experiment(
                &scheme,
                &pattern.1,
                hyperscale::K24_FABRIC,
                total_flows,
                seed,
                &pinned,
            )
            .validate()
            .map_err(|e| e.to_string())?;
            let name = scheme.0;
            let pattern_name = pattern.0;
            let scheme = scheme.clone();
            let cell_opts = pinned.clone();
            jobs.push(tag_buffer(
                Job::new(scenario, seed, move || {
                    hyperscale::run_cell(
                        &scheme,
                        &pattern.1,
                        hyperscale::K24_FABRIC,
                        total_flows,
                        seed,
                        &cell_opts,
                    )
                })
                .param("scheme", name)
                .param("pattern", pattern_name)
                .param("engine", engine.name())
                .param("quick", quick),
                opts,
            ));
        }
    }
    Ok(jobs)
}

/// One job per `(scheme, pattern)` cell of the *regional* k=24 grid: the
/// same fabric and patterns as `hyperscale_k24`, but under the regional
/// engine (`auto` hot set), so the scheme columns differ through
/// *measured* per-queue marking at the hot ports — the per-port-vs-PMSB
/// contrast the pure flow-level engines cannot resolve (DESIGN.md §13).
/// The engine and its auto region are pinned per cell, so `opts.engine`
/// and `opts.region` do not apply; records carry an explicit
/// `engine=regional` parameter.
///
/// # Errors
///
/// The validation error of the first cell `opts` cannot run.
pub fn hyperscale_k24_regional_jobs(
    quick: bool,
    seed: u64,
    opts: &SimOpts,
) -> Result<Vec<Job>, String> {
    k24_jobs(
        "hyperscale_k24_regional",
        EngineKind::Regional,
        quick,
        seed,
        opts,
    )
}

/// One job per `(transport, scheme)` cell of the transport sweep (see
/// [`crate::transport`]).
pub fn transport_jobs(quick: bool, seed: u64, opts: &SimOpts) -> Vec<Job> {
    let num_flows = transport::num_flows(quick);
    let mut jobs = Vec::new();
    for &kind in transport::TRANSPORTS {
        for (name, marking, pmsbe) in transport::schemes() {
            let cell_opts = opts.clone();
            jobs.push(tag_buffer(
                Job::new("transport", seed, move || {
                    transport::run_cell(kind, marking, pmsbe, num_flows, seed, &cell_opts)
                })
                .param("transport", kind.name())
                .param("scheme", name)
                .param("quick", quick),
                opts,
            ));
        }
    }
    jobs
}

/// One job per `(scheme, buffer policy, memory regime)` cell of the
/// buffer-contention sweep (see [`crate::buffers`]). Unlike the other
/// sweeps this campaign pins its own buffer policy per cell, so
/// `opts.buffer` does not apply to it; the flow pattern is a
/// deterministic incast schedule, so the job seed is 0.
pub fn buffer_jobs(quick: bool, opts: &SimOpts) -> Vec<Job> {
    let epochs = buffers::num_epochs(quick);
    let mut jobs = Vec::new();
    for (scheme, marking, pmsbe) in transport::schemes() {
        for policy in buffers::policies() {
            for (regime, port_bytes) in buffers::regimes() {
                let marking = marking.clone();
                let cell_opts = opts.clone();
                jobs.push(
                    Job::new("buffers", 0, move || {
                        buffers::run_cell(marking, pmsbe, policy, port_bytes, epochs, &cell_opts)
                    })
                    .param("scheme", scheme)
                    .param("buffer", policy.name())
                    .param("regime", regime)
                    .param("quick", quick),
                );
            }
        }
    }
    jobs
}

/// One job per `(scheme, seed)` of the seed-sensitivity study: the
/// headline PMSB-vs-TCN comparison (DWRR, load 0.5) across seeds.
pub fn seed_sensitivity_jobs(quick: bool, opts: &SimOpts) -> Vec<Job> {
    let num_flows = if quick { 250 } else { 800 };
    let mut jobs = Vec::new();
    for &seed in &SENSITIVITY_SEEDS {
        for scheme in large_scale::schemes(false) {
            let name = scheme.0;
            if name != "pmsb" && name != "tcn" {
                continue;
            }
            let cell_opts = opts.clone();
            jobs.push(tag_buffer(
                Job::new("seed_sensitivity", seed, move || {
                    large_scale::run_cell(
                        SchedulerConfig::Dwrr {
                            weights: vec![1; 8],
                        },
                        &scheme,
                        0.5,
                        num_flows,
                        seed,
                        &cell_opts,
                    )
                })
                .param("scheduler", "dwrr")
                .param("scheme", name)
                .param("load", 0.5)
                .param("quick", quick),
                opts,
            ));
        }
    }
    jobs
}

fn campaign_from(name: &str, jobs: Vec<Job>) -> Campaign {
    let mut c = Campaign::new(name);
    for j in jobs {
        c.push(j);
    }
    c
}

/// The full suite — every figure, extension, large-scale cell, and
/// seed-sensitivity cell — as one campaign.
pub fn all_experiments_campaign(quick: bool, opts: &SimOpts) -> Campaign {
    let mut jobs = figure_jobs(quick);
    jobs.extend(extension_jobs(quick));
    jobs.extend(large_scale_jobs("dwrr", quick, &[DEFAULT_SEED], opts));
    jobs.extend(large_scale_jobs("wfq", quick, &[DEFAULT_SEED], opts));
    jobs.extend(seed_sensitivity_jobs(quick, opts));
    campaign_from("all_experiments", jobs)
}

/// Campaign names accepted by [`campaign_by_name`], beyond individual
/// scenario names.
pub const CAMPAIGN_NAMES: &[&str] = &[
    "all",
    "figures",
    "extensions",
    "large-scale-dwrr",
    "large-scale-wfq",
    "seed-sensitivity",
    "faults",
    "transport",
    "hyperscale",
    "hyperscale-k24",
    "hyperscale-k24-regional",
    "buffers",
];

/// Resolves a campaign by name: one of [`CAMPAIGN_NAMES`] or any
/// individual figure/extension scenario (e.g. `fig08`,
/// `ablation_port_threshold`), its cells run under `opts`.
///
/// # Errors
///
/// An unknown name, a non-packet `opts.engine` for any campaign but
/// `hyperscale` (the others are packet-engine cells, and the k=24
/// campaigns pin their own engine), or a hyperscale cell whose engine
/// cannot run `opts` gives a one-line message before any job runs.
pub fn campaign_by_name(name: &str, quick: bool, opts: &SimOpts) -> Result<Campaign, String> {
    let canonical = name.replace('-', "_");
    let campaign = match canonical.as_str() {
        "all" | "all_experiments" => all_experiments_campaign(quick, opts),
        "figures" => campaign_from("figures", figure_jobs(quick)),
        "extensions" => campaign_from("extensions", extension_jobs(quick)),
        "large_scale_dwrr" | "fig16_21" => campaign_from(
            "large_scale_dwrr",
            large_scale_jobs("dwrr", quick, &[DEFAULT_SEED], opts),
        ),
        "large_scale_wfq" | "fig22_27" => campaign_from(
            "large_scale_wfq",
            large_scale_jobs("wfq", quick, &[DEFAULT_SEED], opts),
        ),
        "seed_sensitivity" | "ext_seed_sensitivity" => {
            campaign_from("seed_sensitivity", seed_sensitivity_jobs(quick, opts))
        }
        "faults" => campaign_from("faults", fault_jobs(quick, DEFAULT_SEED, opts)),
        "transport" => campaign_from("transport", transport_jobs(quick, DEFAULT_SEED, opts)),
        "hyperscale" => campaign_from("hyperscale", hyperscale_jobs(quick, DEFAULT_SEED, opts)?),
        "hyperscale_k24" => campaign_from(
            "hyperscale_k24",
            hyperscale_k24_jobs(quick, DEFAULT_SEED, opts)?,
        ),
        "hyperscale_k24_regional" => campaign_from(
            "hyperscale_k24_regional",
            hyperscale_k24_regional_jobs(quick, DEFAULT_SEED, opts)?,
        ),
        "buffers" => campaign_from("buffers", buffer_jobs(quick, opts)),
        _ => {
            let jobs: Vec<Job> = figure_jobs(quick)
                .into_iter()
                .chain(extension_jobs(quick))
                .filter(|j| j.scenario() == canonical)
                .collect();
            if jobs.is_empty() {
                return Err(format!(
                    "unknown campaign '{name}' (try {} or a scenario like fig08)",
                    CAMPAIGN_NAMES.join(" | ")
                ));
            }
            campaign_from(&canonical, jobs)
        }
    };
    if opts.engine != EngineKind::Packet && campaign.name() != "hyperscale" {
        return Err(format!(
            "engine '{}' applies to campaign hyperscale only; '{name}' runs on a fixed \
             engine (accepted: packet)",
            opts.engine.name()
        ));
    }
    Ok(campaign)
}

/// Writes a sweep's `#` headline lines from its records.
type Headlines = fn(&mut String, &[&Record]);

/// Every record-backed table a campaign prints after its per-job
/// reports, in print order: `(scenario, title, columns, headlines)`.
/// A table prints one CSV row per record of its scenario, then its
/// headlines. Seed sensitivity pivots its cells into one row per seed,
/// so it has no per-record columns and its headline writer prints the
/// pivot.
const SWEEP_TABLES: [(&str, &str, Option<&str>, Headlines); 9] = [
    (
        "fig16_21",
        large_scale::FIG16_21_TITLE,
        Some(large_scale::CSV_HEADER),
        large_scale::write_headlines,
    ),
    (
        "fig22_27",
        large_scale::FIG22_27_TITLE,
        Some(large_scale::CSV_HEADER),
        large_scale::write_headlines,
    ),
    (
        "seed_sensitivity",
        "Extension: seed sensitivity of the PMSB vs TCN small-flow p99 reduction",
        None,
        write_seed_sensitivity_pivot,
    ),
    (
        "faults",
        faults::FAULTS_TITLE,
        Some(faults::CSV_HEADER),
        faults::write_headlines,
    ),
    (
        "transport",
        transport::TRANSPORT_TITLE,
        Some(transport::CSV_HEADER),
        transport::write_headlines,
    ),
    (
        "hyperscale",
        hyperscale::HYPERSCALE_TITLE,
        Some(hyperscale::CSV_HEADER),
        hyperscale::write_headlines,
    ),
    (
        "hyperscale_k24",
        hyperscale::K24_TITLE,
        Some(hyperscale::CSV_HEADER),
        hyperscale::write_k24_headlines,
    ),
    (
        "hyperscale_k24_regional",
        hyperscale::K24_REGIONAL_TITLE,
        Some(hyperscale::CSV_HEADER),
        hyperscale::write_k24_regional_headlines,
    ),
    (
        "buffers",
        buffers::BUFFERS_TITLE,
        Some(buffers::CSV_HEADER),
        buffers::write_headlines,
    ),
];

/// Writes the seed-sensitivity pivot from its records: one row per seed
/// of the PMSB and TCN small-flow p99 and the reduction between them.
fn write_seed_sensitivity_pivot(out: &mut String, records: &[&Record]) {
    let cell = |seed: u64, scheme: &str| -> Option<f64> {
        records
            .iter()
            .find(|r| r.get_f64("seed") == Some(seed as f64) && r.get_str("scheme") == Some(scheme))
            .and_then(|r| r.get_f64("small_p99_us"))
    };
    outln!(out, "seed,pmsb_small_p99_us,tcn_small_p99_us,reduction");
    for &seed in &SENSITIVITY_SEEDS {
        if let (Some(p), Some(t)) = (cell(seed, "pmsb"), cell(seed, "tcn")) {
            outln!(out, "{seed},{p:.1},{t:.1},{:.3}", 1.0 - p / t);
        }
    }
    outln!(out, "# the reduction is stable across seeds");
}

/// Assembles and prints everything a finished campaign has to show:
/// per-experiment reports in job order, then every [`SWEEP_TABLES`]
/// table that has records.
pub fn print_campaign_output(result: &CampaignResult) {
    for report in result.reports() {
        print!("{report}");
    }
    let mut out = String::new();
    for (scenario, title, columns, headlines) in SWEEP_TABLES {
        let records: Vec<&Record> = result
            .records
            .iter()
            .filter(|r| r.get_str("scenario") == Some(scenario))
            .collect();
        if records.is_empty() {
            continue;
        }
        match columns {
            Some(columns) => write_table(&mut out, title, columns, &records),
            None => banner(&mut out, title),
        }
        headlines(&mut out, &records);
    }
    print!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_job_counts_line_up() {
        let c = all_experiments_campaign(true, &SimOpts::default());
        // 16 figures + 10 extensions + dwrr cells (2 loads x 4 schemes)
        // + wfq cells (2 loads x 3 schemes) + sensitivity (3 seeds x 2).
        assert_eq!(c.len(), 16 + 10 + 8 + 6 + 6);
    }

    #[test]
    fn campaign_names_resolve() {
        let opts = SimOpts::default();
        for name in CAMPAIGN_NAMES {
            assert!(
                campaign_by_name(name, true, &opts).is_ok(),
                "{name} must resolve"
            );
        }
        assert!(campaign_by_name("fig08", true, &opts).is_ok());
        assert!(campaign_by_name("ablation_port_threshold", true, &opts).is_ok());
        let Err(err) = campaign_by_name("no_such_campaign", true, &opts) else {
            panic!("an unknown name must not resolve");
        };
        assert!(err.contains("unknown campaign"), "{err}");
    }

    #[test]
    fn only_hyperscale_takes_a_non_packet_engine() {
        let fluid = SimOpts {
            engine: EngineKind::Fluid,
            ..SimOpts::default()
        };
        assert!(campaign_by_name("hyperscale", true, &fluid).is_ok());
        for name in CAMPAIGN_NAMES.iter().filter(|n| **n != "hyperscale") {
            let Err(err) = campaign_by_name(name, true, &fluid) else {
                panic!("{name} must reject the fluid engine");
            };
            assert!(err.contains("accepted: packet"), "{name}: {err}");
        }
        assert!(campaign_by_name("fig08", true, &fluid).is_err());
    }

    #[test]
    fn transport_jobs_cover_the_grid() {
        let jobs = transport_jobs(true, DEFAULT_SEED, &SimOpts::default());
        // 2 transports x 4 schemes.
        assert_eq!(jobs.len(), 8);
        let keys: std::collections::HashSet<String> = jobs.iter().map(|j| j.key()).collect();
        assert_eq!(keys.len(), 8, "keys must be unique");
        assert!(keys
            .iter()
            .any(|k| k.contains("transport=newreno") && k.contains("scheme=pmsb(e)")));
    }

    #[test]
    fn hyperscale_jobs_cover_the_grid() {
        let jobs = hyperscale_jobs(true, DEFAULT_SEED, &SimOpts::default()).unwrap();
        // 4 schemes x 3 patterns.
        assert_eq!(jobs.len(), 12);
        let keys: std::collections::HashSet<String> = jobs.iter().map(|j| j.key()).collect();
        assert_eq!(keys.len(), 12, "keys must be unique");
        assert!(keys
            .iter()
            .any(|k| k.contains("scheme=pmsb(e)") && k.contains("pattern=hotservice")));
    }

    #[test]
    fn hyperscale_keys_name_the_engine_and_an_explicit_region() {
        let key = |opts: &SimOpts| hyperscale_jobs(true, DEFAULT_SEED, opts).unwrap()[0].key();
        let auto = SimOpts {
            engine: EngineKind::Regional,
            ..SimOpts::default()
        };
        let ports = SimOpts {
            region: RegionSpec::Ports(vec![(0, 0), (4, 0)]),
            ..auto.clone()
        };
        assert!(key(&auto).contains(" engine=regional"), "{}", key(&auto));
        assert!(!key(&auto).contains("region="), "{}", key(&auto));
        assert!(
            key(&ports).contains(" region=ports=0:0,4:0"),
            "{}",
            key(&ports)
        );
        // A region never leaks into the pinned k=24 grids.
        for job in hyperscale_k24_regional_jobs(true, DEFAULT_SEED, &ports).unwrap() {
            assert!(!job.key().contains("region="), "{}", job.key());
        }
    }

    #[test]
    fn hyperscale_k24_jobs_cover_the_grid() {
        let jobs = hyperscale_k24_jobs(true, DEFAULT_SEED, &SimOpts::default()).unwrap();
        // 2 schemes x 2 patterns.
        assert_eq!(jobs.len(), 4);
        let keys: std::collections::HashSet<String> = jobs.iter().map(|j| j.key()).collect();
        assert_eq!(keys.len(), 4, "keys must be unique");
        assert!(keys.iter().any(|k| k.contains("scheme=per-port")
            && k.contains("pattern=mix-websearch")
            && k.contains("engine=hybrid")));
    }

    #[test]
    fn hyperscale_k24_regional_jobs_cover_the_grid() {
        let jobs = hyperscale_k24_regional_jobs(true, DEFAULT_SEED, &SimOpts::default()).unwrap();
        // 2 schemes x 2 patterns, all pinned to the regional engine.
        assert_eq!(jobs.len(), 4);
        let keys: std::collections::HashSet<String> = jobs.iter().map(|j| j.key()).collect();
        assert_eq!(keys.len(), 4, "keys must be unique");
        assert!(keys.iter().all(|k| k.contains("engine=regional")));
        assert!(keys.iter().any(|k| k.contains("scheme=per-port")
            && k.contains("pattern=mix-websearch")
            && k.contains("engine=regional")));
    }

    #[test]
    fn buffer_jobs_cover_the_grid() {
        let jobs = buffer_jobs(true, &SimOpts::default());
        // 4 schemes x 3 policies x 2 regimes.
        assert_eq!(jobs.len(), 24);
        let keys: std::collections::HashSet<String> = jobs.iter().map(|j| j.key()).collect();
        assert_eq!(keys.len(), 24, "keys must be unique");
        assert!(keys.iter().any(|k| k.contains("scheme=pmsb(e)")
            && k.contains("buffer=delay:100")
            && k.contains("regime=tiny")));
    }

    #[test]
    fn large_scale_jobs_cover_the_grid() {
        let jobs = large_scale_jobs("dwrr", true, &[1, 2], &SimOpts::default());
        // 2 seeds x 2 loads x 4 schemes.
        assert_eq!(jobs.len(), 16);
        let keys: std::collections::HashSet<String> = jobs.iter().map(|j| j.key()).collect();
        assert_eq!(keys.len(), 16, "keys must be unique");
        assert!(keys
            .iter()
            .any(|k| k.contains("scheme=mq-ecn") && k.contains("seed=2")));
    }

    #[test]
    fn seed_sensitivity_pivot_reconstructs_from_records() {
        let mut records = Vec::new();
        for &seed in &SENSITIVITY_SEEDS {
            for (scheme, p99) in [("pmsb", 100.0), ("tcn", 200.0)] {
                records.push(
                    Record::new()
                        .field("scenario", "seed_sensitivity")
                        .field("seed", seed)
                        .field("scheme", scheme)
                        .field("small_p99_us", p99),
                );
            }
        }
        let mut out = String::new();
        write_seed_sensitivity_pivot(&mut out, &records.iter().collect::<Vec<_>>());
        assert!(out.contains("42,100.0,200.0,0.500"), "report: {out}");
        assert!(out.contains("98765,100.0,200.0,0.500"));
    }
}
