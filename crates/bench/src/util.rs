//! Shared experiment plumbing: simulation options, weighted-share runs,
//! report formatting.
//!
//! Experiment functions write their human-readable report into a
//! `&mut String` (via [`outln!`](crate::outln)) instead of stdout, so
//! the harness can run them on worker threads without interleaving
//! output and persist the report as part of each job's record.

use pmsb_metrics::Summary;
use pmsb_netsim::experiment::{Experiment, FlowDesc, MarkingConfig, SchedulerConfig};
use pmsb_netsim::{BufferPolicy, EngineKind, PartitionStrategy, RegionSpec};

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
/// campaign` parses once (`--sim-threads`, `--partition`, `--engine`,
/// `--buffer`) and every job closure captures by value. `Default` is
/// one thread, traffic partition, the packet engine, the auto region
/// and static buffers — the golden-record configuration.
///
/// Thread count and partition never enter a job key: records are
/// byte-identical across both, so result stores are shared between
/// them. Engine, region and buffer policy *do* change results, so the
/// campaigns tag non-default values with `engine`, `region` and
/// `buffer` job parameters and default jobs keep their historical keys.
#[derive(Debug, Clone)]
pub struct SimOpts {
    /// Worker threads per simulation run (1 = sequential).
    pub sim_threads: usize,
    /// How switches map to threads when `sim_threads > 1`.
    pub partition: PartitionStrategy,
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
            partition: PartitionStrategy::default(),
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
            .partition(self.partition)
            .engine(self.engine)
            .region(self.region.clone())
    }
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
