//! The removed sharded engine's run profile, always empty: kept only
//! while the benchmark still reads it.

/// The run profile of the removed sharded engine; every field is 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LpRunProfile {
    /// Conservative windows executed.
    pub windows: u64,
    /// Cross-shard messages delivered.
    pub messages: u64,
    /// Wall-clock nanoseconds of the sharded part of the run.
    pub total_wall_nanos: u64,
}

impl LpRunProfile {
    /// Messages per window: 0.0.
    pub fn msgs_per_window(&self) -> f64 {
        0.0
    }
    /// Share of worker time spent at window barriers: 0.0.
    pub fn barrier_wait_share(&self) -> f64 {
        0.0
    }
    /// Max-over-mean busy time per shard: 1.0.
    pub fn lp_imbalance(&self) -> f64 {
        1.0
    }
}

/// The empty profile of a sequential run.
#[deprecated(note = "runs no longer shard; the profile is always empty")]
pub fn last_run_profile() -> LpRunProfile {
    LpRunProfile::default()
}
