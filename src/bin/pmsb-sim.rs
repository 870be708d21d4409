//! `pmsb-sim` — run custom PMSB experiments from the command line.
//!
//! ```text
//! pmsb-sim dumbbell --senders 8 --queues 2 --marking pmsb:12 \
//!     --flow "0>8:0:u" --flow "1>8:1:u" --millis 50 --watch true
//!
//! pmsb-sim leaf-spine --load 0.5 --flows 400 --marking tcn:78200 \
//!     --scheduler dwrr:1,1,1,1,1,1,1,1 --seed 42
//!
//! pmsb-sim leaf-spine --load 0.3 --flows 400 \
//!     --fault-schedule examples/uplink_flap.faults
//!
//! pmsb-sim profile --rate-gbps 10 --rtt-us 85.2 --weights 1,1,1,1,1,1,1,1
//!
//! pmsb-sim campaign all --quick --jobs 4
//! ```
//!
//! Sub-grammars (sizes, flows, schemes, schedulers) are documented in
//! [`pmsb_repro::cli`]; campaigns come from [`pmsb_bench::campaigns`].

use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;

use pmsb::profile::PmsbProfile;
use pmsb::MarkPoint;
use pmsb_bench::outln;
use pmsb_bench::util::{add_paper_flows, SimOpts};
use pmsb_metrics::fct::SizeClass;
use pmsb_netsim::experiment::{Experiment, ExperimentResult, FaultSchedule, FlowDesc};
use pmsb_repro::cli::{
    parse_buffer, parse_engine, parse_flow, parse_marking, parse_pattern, parse_pmsbe_us,
    parse_rate_gbps, parse_rtt_us, parse_scheduler, parse_topology, parse_transport, parse_weights,
    split_options, ParseError, TopologySpec,
};

const HELP: &str = "\
pmsb-sim — PMSB datacenter ECN experiments

USAGE:
  pmsb-sim dumbbell  [--senders N] [--queues N] [--marking SPEC]
                     [--scheduler SPEC] [--mark-point enq|deq]
                     [--pmsbe-us X] [--transport dctcp|newreno]
                     [--engine ENGINE] [--buffer SPEC]
                     [--rate-gbps X] [--delay-ns N]
                     [--millis N] [--watch true] [--fault-schedule FILE]
                     --flow SPEC [--flow SPEC ...]
  pmsb-sim leaf-spine [--load X] [--flows N] [--seed N] [--marking SPEC]
                     [--scheduler SPEC] [--mark-point enq|deq] [--pmsbe-us X]
                     [--transport dctcp|newreno] [--engine ENGINE]
                     [--buffer SPEC] [--fault-schedule FILE]
  pmsb-sim fabric    [--topology leaf-spine|fat-tree:K] [--pattern SPEC]
                     [--flows N] [--seed N] [--exact true] [--drain-ms N]
                     [--marking SPEC] [--scheduler SPEC] [--mark-point enq|deq]
                     [--pmsbe-us X] [--transport dctcp|newreno]
                     [--engine ENGINE] [--buffer SPEC] [--fault-schedule FILE]
  pmsb-sim profile   --rtt-us X --weights W1,W2,... [--rate-gbps X]
                     [--lambda X] [--margin X]
  pmsb-sim campaign  NAME [--quick] [--jobs N] [--results DIR] [--quiet]
                     [--engine ENGINE] [--buffer SPEC]
                     NAME: all | figures | extensions | large-scale-dwrr
                     | large-scale-wfq | seed-sensitivity | faults
                     | transport | hyperscale | hyperscale-k24
                     | hyperscale-k24-regional | buffers
                     | any scenario (e.g. fig08, ablation_port_threshold)
  pmsb-sim help | --help | -h

  Each command takes only the options its line above names, each once
  but --flow; any other option, or one given twice, is an error. One
  run uses one thread: campaign --jobs N runs cells on N cores. Every
  run prints the engine that ran on stderr as one 'engine_path,...'
  line (packet, fluid, hybrid or regional,hot_ports=N with N the switch
  ports simulated at packet level).

  --engine picks the simulation engine (ENGINE below): 'packet'
  (default, event per packet), 'fluid' (flow-level max-min rates with
  steady-state marking curves), 'hybrid' (fluid rates plus per-port
  packet micro-sims calibrating the marking — the 10-100x hyperscale
  fast path, DESIGN.md section 11), or 'regional[:auto|:ports=S:P,..]'
  (one run with a hot set of switch ports at full packet level — real
  scheduler, marking, shared pool, PMSB(e) filter — and fluid rates
  everywhere else, DESIGN.md section 13; 'auto' scouts the hot set with
  a deterministic first fluid pass). The fluid/hybrid/regional engines
  do not support fault schedules. Of the campaigns only 'hyperscale'
  takes an engine other than packet; the hyperscale-k24 campaigns pin
  their own.

  --buffer picks the switch buffer allocation (DESIGN.md section 12):
  'static' (default, private per-port buffers), 'dt:ALPHA' (per-switch
  shared pool, Dynamic-Threshold admission), or 'delay[:MICROS]'
  (shared pool, BShare-style delay-driven caps, default 100 us). The
  shared policies need the packet or regional engine.

  fabric streams a traffic pattern (lazy flow injection, slab flow
  state, sketch FCT percentiles) over the chosen topology; --exact true
  additionally records every flow and prints one 'flow,...' line each
  (the byte-comparable determinism witness used by CI).

SPECS:
  marking    none | pmsb:K | per-port:K | per-queue:K | per-queue-frac:K
             | pool:K | mq-ecn:K | tcn:NANOS | red:MIN,MAX,P     (K in packets)
  scheduler  fifo | sp:N | wrr:W,.. | dwrr:W,.. | wfq:W,.. | spwfq:G,..;W,..
  buffer     static | dt:ALPHA | delay[:MICROS]
  engine     packet | fluid | hybrid | regional[:auto|:ports=S:P[,S:P...]]
  topology   leaf-spine | fat-tree:K            (K even >= 4; k=16 is 1024 hosts)
  pattern    incast[:FAN] | shuffle | hotservice[:EXP] | mix    each may take
             an @DIST size suffix: @web-search | @data-mining | @paper-mix
             (flow sizes drawn from the paper's CDFs, e.g. shuffle@web-search)
  flow       SRC>DST:SERVICE:SIZE[@START_US][/RATE_GBPS]
             SIZE takes K/M/G suffixes or 'u' for long-lived
  fault file line-oriented: 'seed N' then 'at TIME VERB TARGET [ARG]' lines,
             e.g. 'at 10ms link-down switch:0:4' — see examples/*.faults
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let result = run(&args, &mut out);
    // Stdout goes out in one write, so a reader that stops early
    // (`| head`) ends the process quietly instead of mid-print.
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() == ErrorKind::BrokenPipe {
            return ExitCode::SUCCESS;
        }
        eprintln!("error: cannot write to stdout: {e}");
        return ExitCode::FAILURE;
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            ExitCode::FAILURE
        }
    }
}

/// The value of option `key`; [`check_options`] has made sure it is
/// given at most once.
fn opt<'a>(options: &'a [(String, String)], key: &str) -> Option<&'a str> {
    options
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn opt_parse<T: std::str::FromStr>(
    options: &[(String, String)],
    key: &str,
    default: T,
) -> Result<T, ParseError> {
    match opt(options, key) {
        None => Ok(default),
        Some(v) => v
            .parse::<T>()
            .map_err(|_| ParseError(format!("bad value for --{key}: '{v}'"))),
    }
}

/// Runs the command `args` names, appending what it prints to `out`.
fn run(args: &[String], out: &mut String) -> Result<(), ParseError> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        outln!(out, "{HELP}");
        return Ok(());
    }
    // `campaign` uses the harness flag grammar (valueless `--quick` /
    // `--quiet`), so it is dispatched before `split_options`.
    if args.first().map(String::as_str) == Some("campaign") {
        return campaign(&args[1..], out);
    }
    let (positional, options) = split_options(args)?;
    match positional.first().map(String::as_str) {
        Some("dumbbell") => dumbbell(&options, out),
        Some("leaf-spine") => leaf_spine(&options, out),
        Some("fabric") => fabric(&options, out),
        Some("profile") => profile(&options, out),
        Some("help") | None => {
            outln!(out, "{HELP}");
            Ok(())
        }
        Some(other) => Err(ParseError(format!("unknown command '{other}'"))),
    }
}

/// The options [`apply_common`] reads; every command that runs an
/// experiment takes them.
const COMMON_OPTIONS: [&str; 8] = [
    "marking",
    "scheduler",
    "mark-point",
    "pmsbe-us",
    "transport",
    "fault-schedule",
    "engine",
    "buffer",
];

/// Rejects the first option `command` does not take (`accepted`, the
/// options its help line names), so a misspelt option is an error
/// rather than silently ignored, and the first option other than
/// `--flow` (the one that repeats) given twice, so no value is silently
/// dropped.
fn check_options(
    command: &str,
    options: &[(String, String)],
    accepted: &[&str],
) -> Result<(), ParseError> {
    for (i, (key, _)) in options.iter().enumerate() {
        if !accepted.contains(&key.as_str()) {
            return Err(ParseError(format!(
                "{command}: unexpected argument '--{key}'"
            )));
        }
        if key != "flow" && options[..i].iter().any(|(k, _)| k == key) {
            return Err(ParseError(format!(
                "{command}: option '--{key}' given twice (accepted: once)"
            )));
        }
    }
    Ok(())
}

/// `pmsb-sim campaign NAME [--quick] [--jobs N] [--results DIR] [--quiet]`:
/// runs a harness campaign (resumable, parallel) and prints its report.
fn campaign(args: &[String], out: &mut String) -> Result<(), ParseError> {
    let (run_opts, mut rest) =
        pmsb_harness::RunOptions::take_flags(args.to_vec()).map_err(ParseError)?;
    let quick = rest.iter().any(|a| a == "--quick");
    rest.retain(|a| a != "--quick");
    let (positional, options) = split_options(&rest)?;
    check_options("campaign", &options, &["engine", "buffer"])?;
    let name = match positional.as_slice() {
        [name] => name,
        [] => {
            return Err(ParseError(format!(
                "campaign needs a name: {} or an individual scenario",
                pmsb_bench::campaigns::CAMPAIGN_NAMES.join(" | ")
            )))
        }
        [_, extra, ..] => {
            return Err(ParseError(format!(
                "campaign: unexpected argument '{extra}'"
            )))
        }
    };
    let c = pmsb_bench::campaigns::campaign_by_name(name, quick, &sim_opts(&options)?)
        .map_err(ParseError)?;
    let total = c.len();
    let result = c.run(&run_opts).map_err(|e| ParseError(e.to_string()))?;
    out.push_str(&pmsb_bench::campaigns::campaign_output(&result));
    if !result.is_success() {
        for f in &result.failures {
            eprintln!("campaign: job {} failed: {}", f.key, f.error);
        }
        return Err(ParseError(format!(
            "{} of {total} jobs failed",
            result.failures.len()
        )));
    }
    Ok(())
}

/// Parses `--engine` and `--buffer`; an absent option keeps its
/// [`SimOpts::default`] value.
fn sim_opts(options: &[(String, String)]) -> Result<SimOpts, ParseError> {
    let mut opts = SimOpts::default();
    if let Some(en) = opt(options, "engine") {
        (opts.engine, opts.region) = parse_engine(en)?;
    }
    if let Some(b) = opt(options, "buffer") {
        opts.buffer = parse_buffer(b)?;
    }
    Ok(opts)
}

fn apply_common(mut e: Experiment, options: &[(String, String)]) -> Result<Experiment, ParseError> {
    if let Some(m) = opt(options, "marking") {
        e = e.marking(parse_marking(m)?);
    }
    if let Some(s) = opt(options, "scheduler") {
        e = e.scheduler(parse_scheduler(s)?);
    }
    match opt(options, "mark-point") {
        Some("enq") | None => {}
        Some("deq") => e = e.mark_point(MarkPoint::Dequeue),
        Some(other) => return Err(ParseError(format!("bad --mark-point '{other}'"))),
    }
    if let Some(us) = opt(options, "pmsbe-us") {
        e = e.pmsbe_rtt_threshold_nanos(parse_pmsbe_us(us)?);
    }
    if let Some(t) = opt(options, "transport") {
        e = e.transport_kind(parse_transport(t)?);
    }
    if let Some(path) = opt(options, "fault-schedule") {
        let text = std::fs::read_to_string(path)
            .map_err(|io| ParseError(format!("cannot read fault schedule '{path}': {io}")))?;
        let schedule = FaultSchedule::parse(&text)
            .map_err(|e| ParseError(format!("fault schedule '{path}': {e}")))?;
        e = e.faults(schedule);
    }
    Ok(sim_opts(options)?.apply(e))
}

/// Validates `e` and runs it until `end_nanos`, so a configuration the
/// engine cannot run exits with an error line instead of a panic.
fn run_checked(e: Experiment, end_nanos: u64) -> Result<ExperimentResult, ParseError> {
    e.validate().map_err(|err| ParseError(err.to_string()))?;
    Ok(e.run_until_nanos(end_nanos))
}

/// Stderr, not stdout: stdout holds only what the simulated network
/// did, and the engine path says how the simulator ran it.
fn report_engine_path(res: &ExperimentResult) {
    eprintln!("engine_path,{}", res.engine_path);
}

fn report(res: &ExperimentResult, out: &mut String) {
    outln!(out, "completed_flows,{}", res.fct.len());
    outln!(out, "marks,{}", res.marks);
    outln!(out, "drops,{}", res.drops);
    if let Some(sb) = &res.shared_buffer {
        outln!(out, "shared_drops,{}", sb.shared_drops);
        outln!(out, "admit_rejects,{}", sb.admit_rejects);
        outln!(
            out,
            "pool_high_water,{}/{}",
            sb.pool_high_water_bytes,
            sb.pool_total_bytes
        );
    }
    if let Some(fr) = &res.faults {
        outln!(out, "fault_injected_drops,{}", fr.injected_drops);
        outln!(out, "fault_corrupt_drops,{}", fr.corrupt_drops);
        outln!(out, "fault_unroutable_drops,{}", fr.unroutable_drops);
        outln!(
            out,
            "fault_link_events,down={},up={}",
            fr.link_down_events,
            fr.link_up_events
        );
        for (nanos, desc) in &fr.log {
            outln!(out, "fault_log,{:.3}ms,{desc}", *nanos as f64 / 1e6);
        }
    }
    for class in [
        SizeClass::Small,
        SizeClass::Medium,
        SizeClass::Large,
        SizeClass::Overall,
    ] {
        if let Some(s) = res.fct.stats(class) {
            outln!(
                out,
                "fct_{class},n={},avg_us={:.1},p95_us={:.1},p99_us={:.1}",
                s.count,
                s.mean / 1e3,
                s.p95 / 1e3,
                s.p99 / 1e3
            );
        }
    }
}

fn dumbbell(options: &[(String, String)], out: &mut String) -> Result<(), ParseError> {
    let own = [
        "senders",
        "queues",
        "rate-gbps",
        "delay-ns",
        "millis",
        "watch",
        "flow",
    ];
    check_options("dumbbell", options, &[&COMMON_OPTIONS[..], &own].concat())?;
    let senders: usize = opt_parse(options, "senders", 2)?;
    let queues: usize = opt_parse(options, "queues", 2)?;
    let millis: u64 = opt_parse(options, "millis", 50)?;
    let watch: bool = opt_parse(options, "watch", false)?;
    let mut e = Experiment::dumbbell(senders, queues);
    if let Some(g) = opt(options, "rate-gbps") {
        e = e.link_rate_bps(parse_rate_gbps(g)?);
    }
    if let Some(d) = opt(options, "delay-ns") {
        let v: u64 = d
            .parse()
            .map_err(|_| ParseError(format!("bad --delay-ns '{d}'")))?;
        e = e.link_delay_nanos(v);
    }
    e = apply_common(e, options)?;
    if watch {
        e = e.watch_bottleneck(100_000);
    }
    let flows: Vec<FlowDesc> = options
        .iter()
        .filter(|(k, _)| k == "flow")
        .map(|(_, v)| parse_flow(v))
        .collect::<Result<_, _>>()?;
    if flows.is_empty() {
        return Err(ParseError("dumbbell needs at least one --flow".into()));
    }
    e.add_flows(flows);
    let end_nanos = millis.checked_mul(1_000_000).ok_or_else(|| {
        ParseError(format!(
            "--millis {millis} overflows the nanosecond clock (accepted: 0..={})",
            u64::MAX / 1_000_000
        ))
    })?;
    let res = run_checked(e, end_nanos)?;
    report(&res, out);
    report_engine_path(&res);
    if watch {
        let trace = &res.port_traces[&(0, senders)];
        for q in 0..queues {
            let bins = trace.queue_throughput[q].num_bins();
            let gbps = if bins >= 2 {
                trace.mean_queue_gbps(q, bins / 4, bins)
            } else {
                0.0
            };
            outln!(out, "queue_{q}_gbps,{gbps:.3}");
        }
        outln!(
            out,
            "port_occupancy_peak_pkts,{:.1}",
            trace.port_occupancy_pkts.peak().unwrap_or(0.0)
        );
    }
    Ok(())
}

fn leaf_spine(options: &[(String, String)], out: &mut String) -> Result<(), ParseError> {
    let own = ["load", "flows", "seed"];
    check_options("leaf-spine", options, &[&COMMON_OPTIONS[..], &own].concat())?;
    let load: f64 = opt_parse(options, "load", 0.5)?;
    let flows: usize = opt_parse(options, "flows", 400)?;
    let seed: u64 = opt_parse(options, "seed", 42)?;
    if !(0.0..=1.0).contains(&load) || load == 0.0 {
        return Err(ParseError(format!("--load must be in (0,1], got {load}")));
    }
    let mut e = apply_common(Experiment::paper_leaf_spine(), options)?;
    let horizon = add_paper_flows(&mut e, load, flows, seed).ok_or_else(|| {
        ParseError(format!(
            "--load {load:?} spreads {flows} flows past the end of the nanosecond clock \
             (accepted: a load whose arrivals end within it)"
        ))
    })?;
    let res = run_checked(e, horizon)?;
    report(&res, out);
    report_engine_path(&res);
    Ok(())
}

/// `pmsb-sim fabric`: stream a traffic pattern over a topology. Per-flow
/// state lives in the recycled slab and FCTs go into the quantile
/// sketch, so memory is bounded by *concurrent* flows — `--flows` can be
/// millions. `--exact true` additionally records every completed flow
/// exhaustively and prints one `flow,...` line each; CI byte-compares
/// that output across fresh runs.
fn fabric(options: &[(String, String)], out: &mut String) -> Result<(), ParseError> {
    let own = ["topology", "pattern", "flows", "seed", "exact", "drain-ms"];
    check_options("fabric", options, &[&COMMON_OPTIONS[..], &own].concat())?;
    let topo = match opt(options, "topology") {
        Some(t) => parse_topology(t)?,
        None => TopologySpec::FatTree { k: 4 },
    };
    let pattern = match opt(options, "pattern") {
        Some(p) => parse_pattern(p)?,
        None => parse_pattern("incast")?,
    };
    let flows: u64 = opt_parse(options, "flows", 2_000)?;
    let seed: u64 = opt_parse(options, "seed", 42)?;
    let exact: bool = opt_parse(options, "exact", false)?;
    let drain_ms: u64 = opt_parse(options, "drain-ms", 50)?;
    if flows == 0 {
        return Err(ParseError("--flows must be >= 1".into()));
    }
    let e = match topo {
        TopologySpec::LeafSpine => Experiment::paper_leaf_spine(),
        TopologySpec::FatTree { k } => Experiment::fat_tree(k),
    };
    let mut e = apply_common(e, options)?;
    let num_hosts = e.num_hosts();
    let last = pattern
        .flows(num_hosts, seed, flows)
        .last()
        .map(|f| f.start_nanos)
        .unwrap_or(0);
    e = e.stream(pattern, seed, flows);
    if exact {
        e = e.stream_record_exact();
    }
    let horizon = drain_ms
        .checked_mul(1_000_000)
        .and_then(|drain| last.checked_add(drain))
        .ok_or_else(|| {
            ParseError(format!(
                "--drain-ms {drain_ms} after the last arrival at {last} ns overflows the \
                 nanosecond clock (accepted: 0..={} ms)",
                (u64::MAX - last) / 1_000_000
            ))
        })?;
    let res = run_checked(e, horizon)?;
    let s = res.stream.as_ref().expect("fabric runs in streaming mode");
    outln!(out, "hosts,{num_hosts}");
    outln!(out, "injected,{}", s.injected);
    outln!(out, "completed,{}", s.completed);
    outln!(out, "bytes_completed,{}", s.bytes_completed);
    for (name, p) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        match s.sketch.quantile(p) {
            Some(n) => outln!(out, "fct_{name}_us,{:.1}", n as f64 / 1e3),
            None => outln!(out, "fct_{name}_us,nan"),
        }
    }
    outln!(out, "marks,{}", res.marks);
    outln!(out, "drops,{}", res.drops);
    outln!(out, "marks_seen,{}", s.agg_sender.marks_seen);
    outln!(out, "marks_ignored,{}", s.agg_sender.marks_ignored);
    if let Some(sb) = &res.shared_buffer {
        outln!(out, "shared_drops,{}", sb.shared_drops);
        outln!(out, "admit_rejects,{}", sb.admit_rejects);
        outln!(
            out,
            "pool_high_water,{}/{}",
            sb.pool_high_water_bytes,
            sb.pool_total_bytes
        );
    }
    if exact {
        for r in res.fct.records() {
            outln!(
                out,
                "flow,{},{},{},{}",
                r.flow_id,
                r.bytes,
                r.start_nanos,
                r.end_nanos
            );
        }
    }
    // Stderr, not stdout: the slab high-water mark measures the
    // simulator's memory, not the network.
    eprintln!("slab_high_water,{}", s.slab_high_water);
    report_engine_path(&res);
    Ok(())
}

fn profile(options: &[(String, String)], out: &mut String) -> Result<(), ParseError> {
    let accepted = ["rtt-us", "weights", "rate-gbps", "lambda", "margin"];
    check_options("profile", options, &accepted)?;
    let rate_bps = match opt(options, "rate-gbps") {
        Some(g) => parse_rate_gbps(g)?,
        None => 10_000_000_000,
    };
    let Some(rtt_us) = opt(options, "rtt-us") else {
        return Err(ParseError("profile needs --rtt-us".into()));
    };
    let rtt_nanos = parse_rtt_us(rtt_us)?;
    let Some(weights) = opt(options, "weights") else {
        return Err(ParseError("profile needs --weights".into()));
    };
    let weights = parse_weights(weights)?;
    let mut b = PmsbProfile::builder()
        .link_rate_bps(rate_bps)
        .rtt_nanos(rtt_nanos)
        .weights(weights.clone());
    if let Some(l) = opt(options, "lambda") {
        let v: f64 = l.parse().map_err(|_| ParseError("bad --lambda".into()))?;
        b = b.lambda(v);
    }
    if let Some(m) = opt(options, "margin") {
        let v: f64 = m.parse().map_err(|_| ParseError("bad --margin".into()))?;
        b = b.bound_margin(v);
    }
    let p = b.build().map_err(|e| ParseError(e.to_string()))?;
    outln!(
        out,
        "port_threshold,{} bytes ({:.1} pkts)",
        p.port_threshold_bytes(),
        p.port_threshold_bytes() as f64 / 1500.0
    );
    for q in 0..weights.len() {
        outln!(
            out,
            "queue_{q}_filter_threshold,{} bytes (bound margin {:.2}x)",
            p.queue_threshold_bytes(q),
            p.bound_margin(q)
        );
    }
    outln!(out, "pmsbe_rtt_threshold,{} ns", p.rtt_threshold_nanos());
    Ok(())
}
