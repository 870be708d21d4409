#![warn(missing_docs)]

//! The PMSB experiment suite.
//!
//! Every table and figure of the paper's evaluation maps to one function
//! here and one scenario of `pmsb-sim campaign`:
//!
//! | Paper artefact | Function | Scenario |
//! |---|---|---|
//! | Fig. 1 | [`figures::fig01`] | `fig01` |
//! | Fig. 2 | [`figures::fig02`] | `fig02` |
//! | Fig. 3 | [`figures::fig03`] | `fig03` |
//! | Fig. 4 | [`figures::fig04`] | `fig04` |
//! | Fig. 5 | [`figures::fig05`] | `fig05` |
//! | Fig. 6 | [`figures::fig06`] | `fig06` |
//! | Fig. 7 | [`figures::fig07`] | `fig07` |
//! | Fig. 8 | [`figures::fig08`] | `fig08` |
//! | Fig. 9 | [`figures::fig09`] | `fig09` |
//! | Fig. 10 | [`figures::fig10`] | `fig10` |
//! | Figs. 11/12 | [`figures::fig11_12`] | `fig11_12` |
//! | Fig. 13 | [`figures::fig13`] | `fig13` |
//! | Fig. 14 | [`figures::fig14`] | `fig14` |
//! | Fig. 15 | [`figures::fig15`] | `fig15` |
//! | Figs. 16–21 | [`campaigns::large_scale_jobs`] | `large-scale-dwrr` |
//! | Figs. 22–27 | [`campaigns::large_scale_jobs`] | `large-scale-wfq` |
//! | Table I | [`figures::table1`] | `table1` |
//! | Theorem IV.1 | [`figures::thm_iv1`] | `thm_iv1` |
//!
//! Beyond the paper, [`extensions`] adds the per-service-pool violation
//! experiment (§II-A's untested claim), threshold-sensitivity ablations
//! for PMSB and PMSB(e), a RED-ramp comparison, and the web-search
//! workload (scenarios `ext_*` / `ablation_*`).
//!
//! Experiment functions write their human-readable report into a
//! `&mut String` and return structured results. The [`campaigns`]
//! module wraps everything as [`pmsb_harness`] jobs: `pmsb-sim campaign
//! NAME` fans cells across `--jobs N` workers, persists one JSONL record
//! per job under `results/<campaign>/`, and resumes completed jobs for
//! free on rerun; `--quick` shortens every run for smoke-testing.
//! Timing the simulator is not this crate's job: `perfbench/` at the
//! repository root is the benchmark (see `BENCHMARK.json`).

pub mod buffers;
pub mod campaigns;
pub mod extensions;
pub mod faults;
pub mod figures;
pub mod hyperscale;
pub mod large_scale;
pub mod transport;
pub mod util;
