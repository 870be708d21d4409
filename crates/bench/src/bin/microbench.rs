//! Self-timed micro-benchmarks: marking decisions, scheduler ops, the
//! event queue, DCTCP transfers, and a small end-to-end simulation.
//!
//! Flags:
//! * `--quick` — fast smoke run (fewer iterations);
//! * `--json PATH` — additionally write a machine-readable report
//!   (see `pmsb_bench::report`) with derived hot-path metrics and the
//!   FEL determinism cross-check;
//! * `--baseline PATH` — a previous run to compare against: either a
//!   committed `BENCH_*.json` report (schema `pmsb-bench/v1`) or the
//!   legacy `case,mean_ns,best_ns` CSV (captured stdout); folds
//!   before/after numbers and per-case speedups into the JSON report.
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = flag_value("--json");
    let baseline_path = flag_value("--baseline");

    let mut out = String::new();
    let (results, parallel) = pmsb_bench::micro::run_all(&mut out, quick);
    print!("{out}");

    if let Some(path) = json_path {
        let baseline = baseline_path.map(|p| {
            std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read baseline {p}: {e}"))
        });
        let report =
            match pmsb_bench::report::build(&results, &parallel, baseline.as_deref(), quick) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("microbench: {e}");
                    std::process::exit(2);
                }
            };
        std::fs::write(&path, report)
            .unwrap_or_else(|e| panic!("cannot write JSON report {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
