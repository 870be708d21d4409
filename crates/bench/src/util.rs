//! Shared experiment plumbing: simulation options, the paper's flow mix,
//! weighted-share runs, report formatting.
//!
//! Experiment functions write their human-readable report into a
//! `&mut String` (via [`outln!`](crate::outln)) instead of stdout, so
//! the harness can run them on worker threads without interleaving
//! output and persist the report as part of each job's record.

use pmsb_harness::{Record, Value};
use pmsb_metrics::fct::SizeClass;
use pmsb_metrics::robustness::{FlowRobustness, RobustnessSummary};
use pmsb_metrics::Summary;
use pmsb_netsim::experiment::{
    Experiment, ExperimentResult, FlowDesc, MarkingConfig, SchedulerConfig,
};
use pmsb_netsim::{BufferPolicy, EngineKind, RegionSpec};
use pmsb_simcore::rng::SimRng;
use pmsb_workload::traffic::TrafficSpec;

/// Appends one formatted line to an experiment's report buffer —
/// `println!`, but into a `String`.
#[macro_export]
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use ::std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}

/// How a campaign's simulation cells run: the options `pmsb-sim
/// campaign` parses once (`--sim-threads`, `--engine`, `--buffer`) and
/// every job closure captures by value. `Default` is one thread, the
/// packet engine, the auto region and static buffers — the
/// golden-record configuration.
///
/// The thread count never enters a job key: records are byte-identical
/// across thread counts, so result stores are shared between them.
/// Engine, region and buffer policy *do* change results, so the
/// campaigns tag non-default values with `engine`, `region` and
/// `buffer` job parameters and default jobs keep their historical keys.
#[derive(Debug, Clone)]
pub struct SimOpts {
    /// Worker threads per simulation run (1 = sequential).
    pub sim_threads: usize,
    /// Simulation engine.
    pub engine: EngineKind,
    /// Hot-region spec; read by the regional engine only.
    pub region: RegionSpec,
    /// Switch buffer allocation policy.
    pub buffer: BufferPolicy,
}

impl Default for SimOpts {
    fn default() -> Self {
        SimOpts {
            sim_threads: 1,
            engine: EngineKind::Packet,
            region: RegionSpec::Auto,
            buffer: BufferPolicy::Static,
        }
    }
}

impl SimOpts {
    /// Sets every option on `e`.
    pub fn apply(&self, e: Experiment) -> Experiment {
        e.buffer(self.buffer)
            .sim_threads(self.sim_threads)
            .engine(self.engine)
            .region(self.region.clone())
    }
}

/// Deals `num_flows` flows of the paper's §VI-B traffic onto `e` as bulk
/// flows: Poisson arrivals at `load` of the hosts' link capacity, the
/// 60/30/10 size mix over 8 services, random host pairs, drawn from
/// `seed`. Returns the run horizon, the last arrival plus one second of
/// drain, or `None` when that overflows the nanosecond clock (a load so
/// small that the arrivals saturate it).
pub fn add_paper_flows(e: &mut Experiment, load: f64, num_flows: usize, seed: u64) -> Option<u64> {
    let spec = TrafficSpec::paper_large_scale(e.num_hosts(), load);
    let flows = spec.generate(num_flows, &mut SimRng::seed_from(seed));
    let last = flows.last().map(|f| f.start_nanos).unwrap_or(0);
    e.add_flows(flows.iter().map(|f| {
        FlowDesc::bulk(f.src_host, f.dst_host, f.service, f.size_bytes).starting_at(f.start_nanos)
    }));
    last.checked_add(1_000_000_000)
}

/// A size class's FCT statistic `f` in microseconds; NaN when no flow of
/// the class completed.
pub fn fct_us(res: &ExperimentResult, class: SizeClass, f: fn(&Summary) -> f64) -> f64 {
    res.fct
        .stats(class)
        .map(|s| f(&s) / 1e3)
        .unwrap_or(f64::NAN)
}

/// The loss-recovery summary over every sender of a run.
pub fn robustness(res: &ExperimentResult) -> RobustnessSummary {
    RobustnessSummary::collect(res.sender_stats.values().map(|s| FlowRobustness {
        retransmissions: s.retransmissions,
        timeouts: s.timeouts,
        loss_episodes: s.loss_episodes,
        recovery_nanos: s.recovery_nanos,
    }))
}

/// A two-queue weighted-share outcome at a dumbbell bottleneck.
#[derive(Debug, Clone)]
pub struct ShareResult {
    /// Steady-state throughput per queue, Gbps.
    pub queue_gbps: Vec<f64>,
    /// Sum across queues, Gbps.
    pub total_gbps: f64,
    /// CE marks applied during the run.
    pub marks: u64,
    /// Tail drops during the run.
    pub drops: u64,
}

/// Runs the canonical weighted-share microbenchmark: one dumbbell with
/// `flows_per_queue[i]` long-lived flows in queue `i` (each from its own
/// sender), DWRR unless `scheduler` overrides, and the given marking.
/// Reports steady-state per-queue throughput at the bottleneck (skipping
/// the first quarter of the run as warm-up).
pub fn weighted_share(
    marking: MarkingConfig,
    scheduler: Option<SchedulerConfig>,
    flows_per_queue: &[usize],
    millis: u64,
) -> ShareResult {
    let num_queues = flows_per_queue.len();
    let num_senders: usize = flows_per_queue.iter().sum();
    let mut e = Experiment::dumbbell(num_senders, num_queues)
        .marking(marking)
        .watch_bottleneck(100_000);
    if let Some(s) = scheduler {
        e = e.scheduler(s);
    }
    let receiver = num_senders;
    let mut sender = 0;
    for (q, n) in flows_per_queue.iter().enumerate() {
        for _ in 0..*n {
            e.add_flow(FlowDesc::long_lived(sender, receiver, q));
            sender += 1;
        }
    }
    let res = e.run_for_millis(millis);
    let trace = &res.port_traces[&(0, receiver)];
    let bins = trace.queue_throughput[0].num_bins();
    let skip = bins / 4;
    let queue_gbps: Vec<f64> = (0..num_queues)
        .map(|q| {
            let b = trace.queue_throughput[q].num_bins();
            if b <= skip {
                0.0
            } else {
                trace.mean_queue_gbps(q, skip, b)
            }
        })
        .collect();
    ShareResult {
        total_gbps: queue_gbps.iter().sum(),
        queue_gbps,
        marks: res.marks,
        drops: res.drops,
    }
}

/// Formats a [`Summary`] of nanosecond samples as microseconds.
pub fn fmt_us(s: &Summary) -> String {
    format!(
        "n={} avg={:.1}us p50={:.1}us p95={:.1}us p99={:.1}us max={:.1}us",
        s.count,
        s.mean / 1e3,
        s.p50 / 1e3,
        s.p95 / 1e3,
        s.p99 / 1e3,
        s.max / 1e3
    )
}

/// A separator + title block so `all_experiments` output stays readable.
pub fn banner(out: &mut String, title: &str) {
    crate::outln!(out, "\n=== {title} ===");
}

/// Writes a sweep table: a [`banner`], the comma-separated `columns`
/// header, then one CSV row per record. Each cell prints its column's
/// field: text verbatim, integers in decimal, floats to one decimal, a
/// stored `null` (a NaN metric) as `NaN`, and an absent field as an
/// empty cell.
pub fn write_table(out: &mut String, title: &str, columns: &str, records: &[&Record]) {
    banner(out, title);
    crate::outln!(out, "{columns}");
    for rec in records {
        let cells: Vec<String> = columns
            .split(',')
            .map(|c| match rec.get(c) {
                Some(Value::Str(s)) => s.clone(),
                Some(Value::Int(i)) => i.to_string(),
                Some(Value::Float(f)) => format!("{f:.1}"),
                Some(Value::Bool(b)) => b.to_string(),
                Some(Value::Null) => "NaN".to_string(),
                None => String::new(),
            })
            .collect();
        crate::outln!(out, "{}", cells.join(","));
    }
}

/// A record's numeric field for a headline line: NaN when the field is
/// absent or a stored `null`.
pub fn metric(rec: &Record, key: &str) -> f64 {
    rec.get_f64(key).unwrap_or(f64::NAN)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Asserts that `rec`, a cell's record, has a field for every column
    /// of `columns` but the grid parameters its campaign job adds.
    pub(crate) fn assert_fills_columns(rec: &Record, columns: &str) {
        const GRID: [&str; 7] = [
            "scheme",
            "load",
            "transport",
            "profile",
            "buffer",
            "regime",
            "pattern",
        ];
        for column in columns.split(',').filter(|c| !GRID.contains(c)) {
            assert!(
                rec.get(column).is_some(),
                "no field for column {column}: {}",
                rec.to_json_line()
            );
        }
    }

    /// The table's rows, without its banner and header.
    fn rows(columns: &str, records: &[Record]) -> Vec<String> {
        let mut out = String::new();
        write_table(&mut out, "T", columns, &records.iter().collect::<Vec<_>>());
        let mut lines = out.lines().map(str::to_string);
        assert_eq!(lines.next().as_deref(), Some(""));
        assert_eq!(lines.next().as_deref(), Some("=== T ==="));
        assert_eq!(lines.next().as_deref(), Some(columns));
        lines.collect()
    }

    #[test]
    fn cells_print_by_value_type() {
        let rec = Record::new()
            .field("scheme", "pmsb(e)")
            .field("load", "0.3")
            .field("completed", 118usize)
            .field("overall_avg_us", 1234.56)
            .field("small_p99_us", 99.94)
            .field("drops", 0u64)
            .field("mean_recovery_us", 0.0);
        let printed = format!(
            "{},{:.1},{},{:.1},{:.1},{},{:.1}",
            "pmsb(e)", 0.3, 118, 1234.56, 99.94, 0, 0.0
        );
        let columns = "scheme,load,completed,overall_avg_us,small_p99_us,drops,mean_recovery_us";
        assert_eq!(rows(columns, &[rec]), [printed]);
        // A NaN metric persists as `null` and prints as `NaN`, as
        // `{:.1}` prints the NaN itself.
        let stored = Record::parse(r#"{"scheme":"pmsb","fct_p99_us":null}"#).unwrap();
        let fresh = Record::new()
            .field("scheme", "pmsb")
            .field("fct_p99_us", f64::NAN);
        assert_eq!(
            rows("scheme,fct_p99_us", &[stored, fresh]),
            ["pmsb,NaN", "pmsb,NaN"]
        );
    }

    #[test]
    fn columns_print_in_header_order_and_absent_fields_as_empty_cells() {
        let rec = Record::new()
            .field("marks", 7u64)
            .field("scheme", "tcn")
            .field("drops", 2u64);
        assert_eq!(
            rows("scheme,drops,marks", std::slice::from_ref(&rec)),
            ["tcn,2,7"]
        );
        assert_eq!(rows("scheme,timeouts,marks", &[rec]), ["tcn,,7"]);
    }

    #[test]
    fn a_record_with_a_null_metric_keeps_its_row() {
        let records: Vec<Record> = [
            r#"{"scheme":"pmsb","small_p99_us":812.34,"completed":10}"#,
            r#"{"scheme":"tcn","small_p99_us":null,"completed":0}"#,
        ]
        .iter()
        .map(|line| Record::parse(line).unwrap())
        .collect();
        assert_eq!(
            rows("scheme,completed,small_p99_us", &records),
            ["pmsb,10,812.3", "tcn,0,NaN"]
        );
    }
}
