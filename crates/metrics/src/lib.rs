#![warn(missing_docs)]

//! Metrics for the PMSB experiments.
//!
//! * [`Summary`] / [`percentile`] — order statistics over raw samples,
//! * [`Cdf`] — empirical CDFs (the paper's RTT distribution figures),
//! * [`fct`] — flow-completion-time records bucketed into the paper's size
//!   classes (small < 100 KB, medium 100 KB–10 MB, large > 10 MB),
//! * [`robustness`] — retransmit/RTO/recovery-time aggregation for fault
//!   campaigns ([`robustness::RobustnessSummary`]),
//! * [`contention`] — shared-buffer pool counters for buffer-contention
//!   campaigns ([`contention::ContentionSummary`]),
//! * [`QuantileSketch`] — fixed-size log-bucketed FCT sketch for
//!   million-flow streaming runs (hyperscale campaigns),
//! * [`ThroughputSeries`] / [`GaugeSeries`] — binned throughput and sampled
//!   queue-occupancy time series (the paper's throughput/buffer figures).
//!
//! # Example
//!
//! ```
//! use pmsb_metrics::fct::{FctRecorder, FlowRecord, SizeClass};
//!
//! let mut rec = FctRecorder::new();
//! rec.record(FlowRecord { flow_id: 1, bytes: 20_000, start_nanos: 0, end_nanos: 80_000 });
//! rec.record(FlowRecord { flow_id: 2, bytes: 30_000_000, start_nanos: 0, end_nanos: 25_000_000 });
//! let stats = rec.stats(SizeClass::Small).unwrap();
//! assert_eq!(stats.count, 1);
//! assert_eq!(stats.mean, 80_000.0);
//! ```

pub mod cdf;
pub mod contention;
pub mod fct;
pub mod robustness;
pub mod series;
pub mod sketch;
mod summary;

pub use cdf::Cdf;
pub use series::{GaugeSeries, ThroughputSeries};
pub use sketch::QuantileSketch;
pub use summary::{percentile, Summary};
