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

use std::process::ExitCode;

use pmsb::profile::PmsbProfile;
use pmsb::MarkPoint;
use pmsb_bench::util::SimOpts;
use pmsb_metrics::fct::SizeClass;
use pmsb_netsim::experiment::{Experiment, ExperimentResult, FaultSchedule, FlowDesc};
use pmsb_repro::cli::{
    parse_buffer, parse_engine, parse_flow, parse_marking, parse_partition, parse_pattern,
    parse_pmsbe_us, parse_scheduler, parse_sim_threads, parse_topology, parse_transport,
    parse_weights, split_options, ParseError, TopologySpec,
};
use pmsb_simcore::rng::SimRng;
use pmsb_workload::traffic::TrafficSpec;

const HELP: &str = "\
pmsb-sim — PMSB datacenter ECN experiments

USAGE:
  pmsb-sim dumbbell  [--senders N] [--queues N] [--marking SPEC]
                     [--scheduler SPEC] [--mark-point enq|deq]
                     [--pmsbe-us X] [--transport dctcp|newreno]
                     [--engine ENGINE] [--buffer SPEC]
                     [--rate-gbps N] [--delay-ns N]
                     [--millis N] [--watch true] [--fault-schedule FILE]
                     [--sim-threads N|auto] [--partition traffic|contiguous]
                     --flow SPEC [--flow SPEC ...]
  pmsb-sim leaf-spine [--load X] [--flows N] [--seed N] [--marking SPEC]
                     [--scheduler SPEC] [--mark-point enq|deq] [--pmsbe-us X]
                     [--transport dctcp|newreno] [--engine ENGINE]
                     [--buffer SPEC] [--fault-schedule FILE]
                     [--sim-threads N|auto] [--partition traffic|contiguous]
  pmsb-sim fabric    [--topology leaf-spine|fat-tree:K] [--pattern SPEC]
                     [--flows N] [--seed N] [--exact true] [--drain-ms N]
                     [--marking SPEC] [--scheduler SPEC] [--pmsbe-us X]
                     [--transport dctcp|newreno] [--engine ENGINE]
                     [--buffer SPEC] [--sim-threads N|auto]
                     [--partition traffic|contiguous]
  pmsb-sim profile   --rtt-us X --weights W1,W2,... [--rate-gbps N]
                     [--lambda X] [--margin X]
  pmsb-sim campaign  NAME [--quick] [--jobs N] [--results DIR] [--quiet]
                     [--sim-threads N|auto] [--partition traffic|contiguous]
                     [--engine ENGINE] [--buffer SPEC]
                     NAME: all | figures | extensions | large-scale-dwrr
                     | large-scale-wfq | seed-sensitivity | faults
                     | transport | hyperscale | hyperscale-k24
                     | hyperscale-k24-regional | buffers
                     | any scenario (e.g. fig08, ablation_port_threshold)
  pmsb-sim help | --help | -h

  --sim-threads shards one simulation across N worker threads ('auto'
  = every hardware thread, capped at the switch count). The protocol is
  conservative with per-LP lookahead horizons; results are byte-identical
  to --sim-threads 1, see DESIGN.md section 8. A sharded attempt that
  meets a same-instant tie its shards cannot order stops within one
  window and reruns sequentially; on the fabrics measured so far most
  runs do. Every run prints the path it took on stderr as one
  'engine_path,...' line (packet-sequential, packet-sharded,lps=N,
  sharded-fallback,lps=N,window=W,ambiguous_ties=T, fluid, hybrid or
  regional). For many cells on many cores, campaign --jobs N is the
  dependable speedup. --partition picks how switches map to threads:
  'traffic' (default) grows balanced partitions weighted by the
  workload's expected traffic, 'contiguous' uses plain switch-index
  ranges. The partition never changes results either.

  --engine picks the simulation engine (ENGINE below): 'packet'
  (default, event per packet), 'fluid' (flow-level max-min rates with
  steady-state marking curves), 'hybrid' (fluid rates plus per-port
  packet micro-sims calibrating the marking — the 10-100x hyperscale
  fast path, DESIGN.md section 11), or 'regional[:auto|:ports=S:P,..]'
  (one run with a hot set of switch ports at full packet level — real
  scheduler, marking, shared pool, PMSB(e) filter — and fluid rates
  everywhere else, DESIGN.md section 13; 'auto' scouts the hot set with
  a deterministic first fluid pass). The fluid/hybrid/regional engines
  do not support fault schedules and ignore --sim-threads (they are
  single-threaded and deterministic; a one-line note says so). Of the
  campaigns only 'hyperscale' takes an engine other than packet; the
  hyperscale-k24 campaigns pin their own.

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
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            ExitCode::FAILURE
        }
    }
}

fn opt<'a>(options: &'a [(String, String)], key: &str) -> Option<&'a str> {
    options
        .iter()
        .rev()
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

fn run(args: &[String]) -> Result<(), ParseError> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    // `campaign` uses the harness flag grammar (valueless `--quick` /
    // `--quiet`), so it is dispatched before `split_options`.
    if args.first().map(String::as_str) == Some("campaign") {
        return campaign(&args[1..]);
    }
    let (positional, options) = split_options(args)?;
    match positional.first().map(String::as_str) {
        Some("dumbbell") => dumbbell(&options),
        Some("leaf-spine") => leaf_spine(&options),
        Some("fabric") => fabric(&options),
        Some("profile") => profile(&options),
        Some("help") | None => {
            println!("{HELP}");
            Ok(())
        }
        Some(other) => Err(ParseError(format!("unknown command '{other}'"))),
    }
}

/// `pmsb-sim campaign NAME [--quick] [--jobs N] [--results DIR] [--quiet]`:
/// runs a harness campaign (resumable, parallel) and prints its report.
fn campaign(args: &[String]) -> Result<(), ParseError> {
    let (run_opts, mut rest) =
        pmsb_harness::RunOptions::take_flags(args.to_vec()).map_err(ParseError)?;
    let quick = rest.iter().any(|a| a == "--quick");
    rest.retain(|a| a != "--quick");
    let (positional, options) = split_options(&rest)?;
    let sim_keys = ["sim-threads", "partition", "engine", "buffer"];
    if let Some((key, _)) = options
        .iter()
        .find(|(k, _)| !sim_keys.contains(&k.as_str()))
    {
        return Err(ParseError(format!(
            "campaign: unexpected argument '--{key}'"
        )));
    }
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
    pmsb_bench::campaigns::print_campaign_output(&result);
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

/// Parses `--sim-threads`, `--partition`, `--engine` and `--buffer`;
/// an absent option keeps its [`SimOpts::default`] value.
fn sim_opts(options: &[(String, String)]) -> Result<SimOpts, ParseError> {
    let mut opts = SimOpts::default();
    if let Some(t) = opt(options, "sim-threads") {
        opts.sim_threads = parse_sim_threads(t)?;
    }
    if let Some(p) = opt(options, "partition") {
        opts.partition = parse_partition(p)?;
    }
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

/// Stderr, not stdout: the engine path is the one line that differs
/// across --sim-threads values, and stdout is byte-compared across them.
fn report_engine_path(res: &ExperimentResult) {
    eprintln!("engine_path,{}", res.engine_path);
}

fn report(res: &ExperimentResult) {
    println!("completed_flows,{}", res.fct.len());
    println!("marks,{}", res.marks);
    println!("drops,{}", res.drops);
    if let Some(sb) = &res.shared_buffer {
        println!("shared_drops,{}", sb.shared_drops);
        println!("admit_rejects,{}", sb.admit_rejects);
        println!(
            "pool_high_water,{}/{}",
            sb.pool_high_water_bytes, sb.pool_total_bytes
        );
    }
    if let Some(fr) = &res.faults {
        println!("fault_injected_drops,{}", fr.injected_drops);
        println!("fault_corrupt_drops,{}", fr.corrupt_drops);
        println!("fault_unroutable_drops,{}", fr.unroutable_drops);
        println!(
            "fault_link_events,down={},up={}",
            fr.link_down_events, fr.link_up_events
        );
        for (nanos, desc) in &fr.log {
            println!("fault_log,{:.3}ms,{desc}", *nanos as f64 / 1e6);
        }
    }
    for class in [
        SizeClass::Small,
        SizeClass::Medium,
        SizeClass::Large,
        SizeClass::Overall,
    ] {
        if let Some(s) = res.fct.stats(class) {
            println!(
                "fct_{class},n={},avg_us={:.1},p95_us={:.1},p99_us={:.1}",
                s.count,
                s.mean / 1e3,
                s.p95 / 1e3,
                s.p99 / 1e3
            );
        }
    }
}

fn dumbbell(options: &[(String, String)]) -> Result<(), ParseError> {
    let senders: usize = opt_parse(options, "senders", 2)?;
    let queues: usize = opt_parse(options, "queues", 2)?;
    let millis: u64 = opt_parse(options, "millis", 50)?;
    let watch: bool = opt_parse(options, "watch", false)?;
    let mut e = Experiment::dumbbell(senders, queues);
    if let Some(g) = opt(options, "rate-gbps") {
        let v: u64 = g
            .parse()
            .map_err(|_| ParseError(format!("bad --rate-gbps '{g}'")))?;
        e = e.link_rate_gbps(v);
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
    let res = run_checked(e, millis * 1_000_000)?;
    report(&res);
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
            println!("queue_{q}_gbps,{gbps:.3}");
        }
        println!(
            "port_occupancy_peak_pkts,{:.1}",
            trace.port_occupancy_pkts.peak().unwrap_or(0.0)
        );
    }
    Ok(())
}

fn leaf_spine(options: &[(String, String)]) -> Result<(), ParseError> {
    let load: f64 = opt_parse(options, "load", 0.5)?;
    let flows: usize = opt_parse(options, "flows", 400)?;
    let seed: u64 = opt_parse(options, "seed", 42)?;
    if !(0.0..=1.0).contains(&load) || load == 0.0 {
        return Err(ParseError(format!("--load must be in (0,1], got {load}")));
    }
    let mut e = Experiment::paper_leaf_spine();
    e = apply_common(e, options)?;
    let spec = TrafficSpec::paper_large_scale(48, load);
    let mut rng = SimRng::seed_from(seed);
    let generated = spec.generate(flows, &mut rng);
    let last = generated.last().map(|f| f.start_nanos).unwrap_or(0);
    for f in &generated {
        e.add_flow(
            FlowDesc::bulk(f.src_host, f.dst_host, f.service, f.size_bytes)
                .starting_at(f.start_nanos),
        );
    }
    let res = run_checked(e, last + 1_000_000_000)?;
    report(&res);
    report_engine_path(&res);
    Ok(())
}

/// `pmsb-sim fabric`: stream a traffic pattern over a topology. Per-flow
/// state lives in the recycled slab and FCTs go into the quantile
/// sketch, so memory is bounded by *concurrent* flows — `--flows` can be
/// millions. `--exact true` additionally records every completed flow
/// exhaustively and prints one `flow,...` line each; CI byte-compares
/// that output across `--sim-threads` values.
fn fabric(options: &[(String, String)]) -> Result<(), ParseError> {
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
    let res = run_checked(e, last + drain_ms * 1_000_000)?;
    let s = res.stream.as_ref().expect("fabric runs in streaming mode");
    println!("hosts,{num_hosts}");
    println!("injected,{}", s.injected);
    println!("completed,{}", s.completed);
    println!("bytes_completed,{}", s.bytes_completed);
    for (name, p) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        match s.sketch.quantile(p) {
            Some(n) => println!("fct_{name}_us,{:.1}", n as f64 / 1e3),
            None => println!("fct_{name}_us,nan"),
        }
    }
    println!("marks,{}", res.marks);
    println!("drops,{}", res.drops);
    println!("marks_seen,{}", s.agg_sender.marks_seen);
    println!("marks_ignored,{}", s.agg_sender.marks_ignored);
    if let Some(sb) = &res.shared_buffer {
        println!("shared_drops,{}", sb.shared_drops);
        println!("admit_rejects,{}", sb.admit_rejects);
        println!(
            "pool_high_water,{}/{}",
            sb.pool_high_water_bytes, sb.pool_total_bytes
        );
    }
    if exact {
        for r in res.fct.records() {
            println!(
                "flow,{},{},{},{}",
                r.flow_id, r.bytes, r.start_nanos, r.end_nanos
            );
        }
    }
    // Stderr, not stdout: on sharded runs this is the sum of per-shard
    // peaks (an upper bound taken at different instants), the one number
    // that may differ across --sim-threads values.
    eprintln!("slab_high_water,{}", s.slab_high_water);
    report_engine_path(&res);
    Ok(())
}

fn profile(options: &[(String, String)]) -> Result<(), ParseError> {
    let rate_gbps: f64 = opt_parse(options, "rate-gbps", 10.0)?;
    let Some(rtt_us) = opt(options, "rtt-us") else {
        return Err(ParseError("profile needs --rtt-us".into()));
    };
    let rtt_us: f64 = rtt_us
        .parse()
        .map_err(|_| ParseError("bad --rtt-us".into()))?;
    let Some(weights) = opt(options, "weights") else {
        return Err(ParseError("profile needs --weights".into()));
    };
    let weights = parse_weights(weights)?;
    let mut b = PmsbProfile::builder()
        .link_rate_bps((rate_gbps * 1e9) as u64)
        .rtt_nanos((rtt_us * 1e3) as u64)
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
    println!(
        "port_threshold,{} bytes ({:.1} pkts)",
        p.port_threshold_bytes(),
        p.port_threshold_bytes() as f64 / 1500.0
    );
    for q in 0..weights.len() {
        println!(
            "queue_{q}_filter_threshold,{} bytes (bound margin {:.2}x)",
            p.queue_threshold_bytes(q),
            p.bound_margin(q)
        );
    }
    println!("pmsbe_rtt_threshold,{} ns", p.rtt_threshold_nanos());
    Ok(())
}
