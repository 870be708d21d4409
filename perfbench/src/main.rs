//! `pmsb-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload's cell repeatedly for about `S` seconds, checks
//! every repetition's simulated outputs, and prints one JSON result line
//! last: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! and the attribution row with `--trace 1`. See `perfbench/README.md`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pmsb_perfbench::layers;
use pmsb_perfbench::stats::{median, peak_rss_mib, result_json, Metric};
use pmsb_perfbench::{check, Cell, Digest, Inputs, Workload};

const USAGE: &str = "usage: pmsb-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
workloads: leafspine-paper fattree8-mix-t2 fattree16-mix-fluid fattree8-mix-regional";

/// Repetitions a run makes however short `--seconds` is, so that every
/// run checks the digest against a second repetition and has a median.
const MIN_REPS: usize = 3;
/// Set-up is timed in one slice before every repetition: at least this
/// many times before the first ...
const MIN_SETUPS: usize = 9;
/// ... and for at least this long each time, so sub-millisecond builds
/// get many samples per slice.
const SETUP_SLICE: Duration = Duration::from_millis(20);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("option {flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Times set-up — the topology builder with the cell's configuration,
/// plus the flow list on a static workload — at least `min` times and
/// for at least [`SETUP_SLICE`], and returns the median host seconds.
fn time_setup(cell: &Cell, min: usize) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || start.elapsed() < SETUP_SLICE {
        let t0 = Instant::now();
        let world = cell.build_topology();
        let flows = (!cell.is_streamed()).then(|| cell.static_flows());
        samples.push(t0.elapsed().as_secs_f64());
        drop((world, flows));
    }
    median(&samples)
}

/// What the timed repetitions of one run measured.
struct Timed {
    /// Host seconds of each repetition that passed its check.
    walls: Vec<f64>,
    /// Repetitions made.
    reps: u64,
    /// Repetitions that panicked or failed their check.
    failed_reps: u64,
    /// The first passing repetition's digest.
    digest: Option<Digest>,
    /// Median host seconds of set-up in each slice.
    setup_slices: Vec<f64>,
}

/// Runs the cell until `seconds` are used (at least [`MIN_REPS`]
/// times), checking each repetition against the inputs and the first
/// repetition's digest, and timing set-up before each repetition.
fn timed_reps(cell: &Cell, inputs: &Inputs, seconds: f64) -> Timed {
    let start = Instant::now();
    let mut t = Timed {
        walls: Vec::new(),
        reps: 0,
        failed_reps: 0,
        digest: None,
        setup_slices: vec![time_setup(cell, MIN_SETUPS)],
    };
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let next = median(&t.walls);
        let enough = t.reps as usize >= MIN_REPS && elapsed + next > seconds;
        if enough || elapsed > 3.0 * seconds.max(10.0) {
            break;
        }
        t.setup_slices.push(time_setup(cell, 1));
        t.reps += 1;
        match catch_unwind(AssertUnwindSafe(|| cell.run(inputs))) {
            Ok((res, wall)) => {
                let d = Digest::of(&res);
                drop(res);
                match check(inputs, &d, t.digest.as_ref()) {
                    Ok(()) => {
                        println!("rep {} wall_s={:.4} digest {d}", t.reps, wall.as_secs_f64());
                        t.digest.get_or_insert(d);
                        t.walls.push(wall.as_secs_f64());
                    }
                    Err(e) => {
                        println!("rep {} FAILED {e}; digest {d}", t.reps);
                        t.failed_reps += 1;
                    }
                }
            }
            Err(_) => {
                println!("rep {} FAILED: the run panicked", t.reps);
                t.failed_reps += 1;
            }
        }
    }
    t
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pmsb-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cell = args.workload.cell(args.seed);
    println!(
        "workload {} seed {} flows {} threads {} nproc {}",
        args.workload.name(),
        cell.seed,
        cell.flows,
        cell.threads,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let inputs = cell.inputs();
    let timed = timed_reps(&cell, &inputs, args.seconds);
    // The fastest repetition and set-up slice: on a shared VM the host
    // runs the same work up to 40% slower for many seconds at a time, and
    // the fastest of many repetitions is the figure such a phase does not
    // move (README.md).
    let fastest = timed.walls.iter().copied().fold(f64::INFINITY, f64::min);
    let setup_s = timed
        .setup_slices
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    println!(
        "reps {} passed {} fastest_s {fastest:.4} median_s {:.4}",
        timed.reps,
        timed.walls.len(),
        median(&timed.walls)
    );
    let mut attempted = timed.reps * inputs.offered;
    let mut failed = timed.failed_reps * inputs.offered;
    let metrics = if args.trace {
        let traced = layers::traced(&cell, &inputs, median(&timed.walls), timed.digest.as_ref());
        attempted += inputs.offered;
        if !traced.passed {
            failed += inputs.offered;
        }
        traced.metrics
    } else {
        vec![
            Metric::new("flows_per_s", inputs.offered as f64 / fastest, "flows/s"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
            Metric::new(
                "completed_share",
                1.0 - failed as f64 / attempted as f64,
                "ratio",
            ),
        ]
    };
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
