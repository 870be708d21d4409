//! # pmsb-harness
//!
//! Deterministic parallel experiment campaigns with a resumable result
//! store. This crate is std-only; it orchestrates, it does not
//! simulate.
//!
//! A **campaign** is a named list of **jobs**. Each job is a scenario
//! name, a parameter point, a seed, and a deterministic closure that
//! returns a [`Record`] of scalar results. Running a campaign:
//!
//! 1. opens `results/<campaign>/` and loads any existing
//!    `records.jsonl` — jobs whose key already has a record are
//!    **reused**, not re-executed (resume semantics);
//! 2. fans the remaining jobs across a fixed-size worker pool
//!    (`--jobs`, default [`std::thread::available_parallelism`]), each
//!    under `catch_unwind` so one diverging run reports a failure
//!    instead of killing the suite;
//! 3. appends each finished record to `records.jsonl` as it completes
//!    (crash-safe), then rewrites the file in job-index order and
//!    emits `aggregate.csv` with cross-seed mean/stddev per metric;
//! 4. prints progress and per-job wall time on **stderr** only —
//!    records never contain timing, so the same job yields the same
//!    bytes whether run by 1 worker or 16.
//!
//! ```
//! use pmsb_harness::{Campaign, Job, Record, RunOptions};
//!
//! let mut campaign = Campaign::new("doc-demo");
//! for seed in [1u64, 2] {
//!     campaign.push(
//!         Job::new("square", seed, move || {
//!             Record::new().field("value", (seed * seed) as i64)
//!         })
//!         .param("exponent", 2),
//!     );
//! }
//! let dir = std::env::temp_dir().join("pmsb-harness-doc");
//! let opts = RunOptions { results_root: dir.clone(), quiet: true, ..RunOptions::default() };
//! let out = campaign.run(&opts).unwrap();
//! assert_eq!(out.records.len(), 2);
//! assert_eq!(out.records[0].get_f64("value"), Some(1.0));
//! std::fs::remove_dir_all(dir).ok();
//! ```

pub mod pool;
pub mod record;
pub mod store;

use std::io;
use std::path::PathBuf;
use std::time::Instant;

pub use record::{Record, Value};
pub use store::{aggregate_csv, ResultStore, AGGREGATE_FILE, JOB_KEY_FIELD, RECORDS_FILE};

/// One experiment run: identity (scenario, parameter point, seed) plus
/// the deterministic closure that computes its record.
pub struct Job {
    scenario: String,
    params: Vec<(String, String)>,
    seed: u64,
    run: Box<dyn FnOnce() -> Record + Send + 'static>,
}

impl Job {
    /// A job for `scenario` with the given seed. The closure must be
    /// deterministic: records are cached by key and reused on resume,
    /// so a rerun must have nothing new to say.
    pub fn new(
        scenario: impl Into<String>,
        seed: u64,
        run: impl FnOnce() -> Record + Send + 'static,
    ) -> Job {
        Job {
            scenario: scenario.into(),
            params: Vec::new(),
            seed,
            run: Box::new(run),
        }
    }

    /// Adds one grid-parameter coordinate, builder style. Parameter
    /// order is part of the job key, so keep it consistent across runs.
    pub fn param(mut self, key: impl Into<String>, value: impl ToString) -> Job {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// The scenario name this job belongs to.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The job's identity within its campaign: scenario, parameters,
    /// and seed. This keys the result store.
    pub fn key(&self) -> String {
        let mut k = self.group();
        k.push_str(&format!(" seed={}", self.seed));
        k
    }

    /// The key minus the seed — the aggregation group, so the same
    /// parameter point with different seeds lands in one CSV row.
    pub fn group(&self) -> String {
        let mut g = self.scenario.clone();
        for (k, v) in &self.params {
            g.push_str(&format!(" {k}={v}"));
        }
        g
    }

    /// Wraps identity fields and the payload into the persisted record.
    fn full_record(
        key: &str,
        scenario: &str,
        params: &[(String, String)],
        seed: u64,
        payload: Record,
    ) -> Record {
        let mut rec = Record::new()
            .field(JOB_KEY_FIELD, key)
            .field("scenario", scenario)
            .field("seed", seed);
        for (k, v) in params {
            rec.push(k, v.as_str());
        }
        for (k, v) in payload.iter() {
            rec.push(k, v.clone());
        }
        rec
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("key", &self.key())
            .finish_non_exhaustive()
    }
}

/// How to run a campaign.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker count; `None` uses available parallelism.
    pub jobs: Option<usize>,
    /// Directory under which `results/<campaign>/` lives.
    pub results_root: PathBuf,
    /// Suppress stderr progress output (tests).
    pub quiet: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            jobs: None,
            results_root: PathBuf::from("results"),
            quiet: false,
        }
    }
}

impl RunOptions {
    /// Consumes the harness flags (`--jobs N`, `--results DIR`,
    /// `--quiet`) from a raw argument list and returns the options
    /// plus the arguments it did not recognize, for the caller to
    /// parse. Flag values must not start with `--`, and a flag that
    /// takes a value must not be given twice.
    pub fn take_flags(args: Vec<String>) -> Result<(RunOptions, Vec<String>), String> {
        let mut opts = RunOptions::default();
        let mut results = None;
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        let twice = |flag: &str| format!("option {flag} given twice (accepted: once)");
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--jobs" => {
                    let v = flag_value(&arg, it.next())?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--jobs expects a number, got {v:?}"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".to_string());
                    }
                    if opts.jobs.replace(n).is_some() {
                        return Err(twice(&arg));
                    }
                }
                "--results" => {
                    let dir = PathBuf::from(flag_value(&arg, it.next())?);
                    if results.replace(dir).is_some() {
                        return Err(twice(&arg));
                    }
                }
                "--quiet" => opts.quiet = true,
                _ => rest.push(arg),
            }
        }
        if let Some(dir) = results {
            opts.results_root = dir;
        }
        Ok((opts, rest))
    }
}

fn flag_value(flag: &str, next: Option<String>) -> Result<String, String> {
    match next {
        Some(v) if !v.starts_with("--") => Ok(v),
        Some(v) => Err(format!(
            "option {flag} expects a value, got flag-like {v:?}"
        )),
        None => Err(format!("option {flag} expects a value")),
    }
}

/// A job that could not produce a record.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The job's key.
    pub key: String,
    /// The rendered panic payload.
    pub error: String,
}

/// Everything a finished campaign produced.
#[derive(Debug)]
pub struct CampaignResult {
    /// Full records (identity fields + payload) in job-index order.
    /// Failed jobs are absent here and present in `failures`.
    pub records: Vec<Record>,
    /// Jobs that panicked this run.
    pub failures: Vec<JobFailure>,
    /// Jobs freshly executed this run.
    pub executed: usize,
    /// Jobs satisfied from the store without running.
    pub reused: usize,
    /// The campaign directory (`results/<name>/`).
    pub dir: PathBuf,
}

impl CampaignResult {
    /// True when every job has a record.
    pub fn is_success(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human-readable reports (records' `report` field) in
    /// job-index order, for printing to stdout.
    pub fn reports(&self) -> impl Iterator<Item = &str> {
        self.records.iter().filter_map(|r| r.get_str("report"))
    }
}

/// A named batch of jobs sharing one result directory.
pub struct Campaign {
    name: String,
    jobs: Vec<Job>,
}

impl Campaign {
    /// An empty campaign. The name becomes the results subdirectory.
    pub fn new(name: impl Into<String>) -> Campaign {
        Campaign {
            name: name.into(),
            jobs: Vec::new(),
        }
    }

    /// The campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a job. Submission order defines job-index order in the
    /// final record file.
    pub fn push(&mut self, job: Job) {
        self.jobs.push(job);
    }

    /// Number of jobs submitted.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs were submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs the campaign to completion: resume, fan out, persist,
    /// aggregate. See the crate docs for the full contract.
    ///
    /// # Panics
    ///
    /// Panics if two jobs share a key — resume semantics would be
    /// ambiguous.
    pub fn run(self, opts: &RunOptions) -> io::Result<CampaignResult> {
        let started = Instant::now();
        let mut store = ResultStore::open(&opts.results_root, &self.name)?;

        struct Slot {
            key: String,
            group: String,
            /// Final serialized line (filled from cache or fresh run).
            line: Option<String>,
        }

        let mut slots: Vec<Slot> = Vec::with_capacity(self.jobs.len());
        // (job index, closure producing the full serialized record)
        let mut pending: Vec<(usize, pool::BoxedJob<Record>)> = Vec::new();
        for (index, job) in self.jobs.into_iter().enumerate() {
            let key = job.key();
            assert!(
                !slots.iter().any(|s| s.key == key),
                "duplicate job key {key:?} in campaign"
            );
            let cached = store.cached_line(&key).map(str::to_string);
            let reused = cached.is_some();
            slots.push(Slot {
                key: key.clone(),
                group: job.group(),
                line: cached,
            });
            if !reused {
                let Job {
                    scenario,
                    params,
                    seed,
                    run,
                } = job;
                pending.push((
                    index,
                    Box::new(move || Job::full_record(&key, &scenario, &params, seed, run())),
                ));
            }
        }

        let reused = slots.len() - pending.len();
        let total_fresh = pending.len();
        let workers = pool::resolve_workers(opts.jobs);
        if !opts.quiet {
            eprintln!(
                "harness: campaign {:?} — {} jobs ({} cached), {} workers",
                self.name,
                slots.len(),
                reused,
                workers
            );
        }

        // The pool indexes jobs by position in the submitted list; map
        // back to campaign job indices.
        let index_map: Vec<usize> = pending.iter().map(|(i, _)| *i).collect();
        let boxed: Vec<pool::BoxedJob<Record>> = pending.into_iter().map(|(_, j)| j).collect();

        let mut failures = Vec::new();
        let mut done = 0usize;
        let results = pool::run_all(boxed, workers, |res| {
            done += 1;
            let job_index = index_map[res.index];
            let key = &slots[job_index].key;
            match &res.result {
                Ok(record) => {
                    // Persist immediately so an interrupted campaign
                    // resumes past this job.
                    let line = record.to_json_line();
                    if let Err(e) = store.append(key, &line) {
                        eprintln!("harness: failed to persist {key:?}: {e}");
                    }
                    if !opts.quiet {
                        eprintln!(
                            "harness: [{done}/{total_fresh}] {key} — ok ({:.2?})",
                            res.elapsed
                        );
                    }
                }
                Err(err) => {
                    if !opts.quiet {
                        eprintln!(
                            "harness: [{done}/{total_fresh}] {key} — FAILED ({:.2?}): {err}",
                            res.elapsed
                        );
                    }
                }
            }
        });

        for res in results {
            let job_index = index_map[res.index];
            match res.result {
                Ok(record) => slots[job_index].line = Some(record.to_json_line()),
                Err(error) => failures.push(JobFailure {
                    key: slots[job_index].key.clone(),
                    error,
                }),
            }
        }

        // Rewrite the record file in job-index order and aggregate.
        let ordered_keys: Vec<String> = slots
            .iter()
            .filter(|s| s.line.is_some())
            .map(|s| s.key.clone())
            .collect();
        store.finalize(&ordered_keys)?;

        let mut records = Vec::new();
        let mut entries = Vec::new();
        for slot in &slots {
            let Some(line) = &slot.line else { continue };
            let record = Record::parse(line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("stored record for {:?} is invalid: {e}", slot.key),
                )
            })?;
            entries.push((slot.group.clone(), record.clone()));
            records.push(record);
        }
        store.write_aggregates(&entries)?;

        if !opts.quiet {
            eprintln!(
                "harness: campaign {:?} done in {:.2?} — {} run, {} reused, {} failed",
                self.name,
                started.elapsed(),
                total_fresh - failures.len(),
                reused,
                failures.len()
            );
        }

        Ok(CampaignResult {
            records,
            failures,
            executed: total_fresh,
            reused,
            dir: store.dir().to_path_buf(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_root(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pmsb-harness-lib-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quiet(root: &std::path::Path, workers: usize) -> RunOptions {
        RunOptions {
            jobs: Some(workers),
            results_root: root.to_path_buf(),
            quiet: true,
        }
    }

    fn grid_campaign(name: &str) -> Campaign {
        let mut c = Campaign::new(name);
        for load in [3u64, 7] {
            for seed in [1u64, 2, 3] {
                c.push(
                    Job::new("toy", seed, move || {
                        Record::new().field("score", (load * 100 + seed) as i64)
                    })
                    .param("load", load),
                );
            }
        }
        c
    }

    #[test]
    fn job_key_includes_scenario_params_and_seed() {
        let j = Job::new("fig16", 42, Record::new)
            .param("scheduler", "dwrr")
            .param("load", 0.5);
        assert_eq!(j.group(), "fig16 scheduler=dwrr load=0.5");
        assert_eq!(j.key(), "fig16 scheduler=dwrr load=0.5 seed=42");
    }

    #[test]
    fn records_carry_identity_then_payload() {
        let root = temp_root("identity");
        let out = grid_campaign("c").run(&quiet(&root, 2)).unwrap();
        assert_eq!(out.records.len(), 6);
        let first = &out.records[0];
        assert_eq!(first.get_str("scenario"), Some("toy"));
        assert_eq!(first.get_str("load"), Some("3"));
        assert_eq!(first.get_f64("seed"), Some(1.0));
        assert_eq!(first.get_f64("score"), Some(301.0));
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn aggregate_csv_written_per_group() {
        let root = temp_root("agg");
        let out = grid_campaign("c").run(&quiet(&root, 4)).unwrap();
        let csv = fs::read_to_string(out.dir.join(AGGREGATE_FILE)).unwrap();
        // Mean over seeds 1..3 of load*100+seed = load*100 + 2.
        assert!(csv.contains("toy load=3,score,3,302.0"), "csv: {csv}");
        assert!(csv.contains("toy load=7,score,3,702.0"), "csv: {csv}");
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn rerun_reuses_everything() {
        let root = temp_root("rerun");
        let first = grid_campaign("c").run(&quiet(&root, 4)).unwrap();
        assert_eq!(first.executed, 6);
        assert_eq!(first.reused, 0);
        let second = grid_campaign("c").run(&quiet(&root, 4)).unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.reused, 6);
        assert_eq!(
            first
                .records
                .iter()
                .map(Record::to_json_line)
                .collect::<Vec<_>>(),
            second
                .records
                .iter()
                .map(Record::to_json_line)
                .collect::<Vec<_>>(),
        );
        fs::remove_dir_all(root).ok();
    }

    #[test]
    fn failed_job_reports_and_spares_the_rest() {
        let root = temp_root("fail");
        let mut c = Campaign::new("c");
        c.push(Job::new("ok", 1, || Record::new().field("x", 1i64)));
        c.push(Job::new("bad", 1, || panic!("diverged")));
        c.push(Job::new("ok", 2, || Record::new().field("x", 2i64)));
        let out = c.run(&quiet(&root, 2)).unwrap();
        assert!(!out.is_success());
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].key, "bad seed=1");
        assert!(out.failures[0].error.contains("diverged"));
        // The failed job left no record, so a rerun retries exactly it.
        let mut c2 = Campaign::new("c");
        c2.push(Job::new("ok", 1, || Record::new().field("x", 1i64)));
        c2.push(Job::new("bad", 1, || Record::new().field("x", 9i64)));
        c2.push(Job::new("ok", 2, || Record::new().field("x", 2i64)));
        let out2 = c2.run(&quiet(&root, 2)).unwrap();
        assert!(out2.is_success());
        assert_eq!(out2.executed, 1);
        assert_eq!(out2.reused, 2);
        fs::remove_dir_all(root).ok();
    }

    #[test]
    #[should_panic(expected = "duplicate job key")]
    fn duplicate_keys_rejected() {
        let root = temp_root("dup");
        let mut c = Campaign::new("c");
        c.push(Job::new("a", 1, Record::new));
        c.push(Job::new("a", 1, Record::new));
        let _ = c.run(&quiet(&root, 1));
    }

    #[test]
    fn take_flags_parses_and_passes_through() {
        let (opts, rest) = RunOptions::take_flags(
            [
                "--quick",
                "--jobs",
                "4",
                "--results",
                "/tmp/r",
                "--quiet",
                "extra",
            ]
            .map(String::from)
            .to_vec(),
        )
        .unwrap();
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(opts.results_root, PathBuf::from("/tmp/r"));
        assert!(opts.quiet);
        assert_eq!(rest, vec!["--quick".to_string(), "extra".to_string()]);
    }

    #[test]
    fn take_flags_rejects_flag_like_values_and_zero() {
        for bad in [
            vec!["--jobs", "--quick"],
            vec!["--jobs"],
            vec!["--jobs", "zero"],
            vec!["--jobs", "0"],
            vec!["--results", "--jobs"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(RunOptions::take_flags(args).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn take_flags_rejects_a_repeated_value_flag() {
        for bad in [
            ["--jobs", "1", "--jobs", "2"],
            ["--results", "a", "--results", "b"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let err = RunOptions::take_flags(args).unwrap_err();
            assert!(err.contains("given twice"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn reports_surface_in_job_order() {
        let root = temp_root("reports");
        let mut c = Campaign::new("c");
        c.push(Job::new("a", 1, || Record::new().field("report", "first")));
        c.push(Job::new("b", 1, || Record::new().field("report", "second")));
        let out = c.run(&quiet(&root, 2)).unwrap();
        assert_eq!(out.reports().collect::<Vec<_>>(), vec!["first", "second"]);
        fs::remove_dir_all(root).ok();
    }
}
