//! A fixed-size quantile sketch for flow-completion times.
//!
//! Million-flow runs cannot afford the exhaustive per-flow sample storage
//! of [`FctRecorder`](crate::fct::FctRecorder) (32 bytes per completed
//! flow, plus a sort per percentile query). [`QuantileSketch`] replaces it
//! with a log-bucketed histogram in the style of HdrHistogram: a value
//! `v` is binned by its highest set bit plus [`QuantileSketch::BITS`]
//! mantissa bits, so every bucket's width is at most a `1/128` fraction
//! of its lower bound. The structure is:
//!
//! * **fixed-size** — 7 424 `u64` counters (~58 KB) regardless of how
//!   many samples are inserted,
//! * **rank-exact, value-approximate** — a quantile query walks the
//!   cumulative counts to the exact target rank and returns the midpoint
//!   of the bucket holding that order statistic, so the reported value is
//!   within relative error [`QuantileSketch::RELATIVE_ERROR`] of the true
//!   order statistic (and the *rank* is never approximated),
//! * **order-independent** — inserting adds to fixed counters, so any
//!   insertion order yields a bit-identical sketch. (This is why the
//!   sketch is a deterministic histogram rather than a KLL/GK rank-error
//!   sketch: those compress adaptively and their state depends on
//!   insertion order.)
//!
//! Integer bucketing (`leading_zeros` + shifts, no `f64::ln`) keeps the
//! sketch bit-reproducible across platforms.

/// Log-bucketed quantile sketch over `u64` samples (nanoseconds
/// in the FCT use, but the sketch is unit-agnostic).
///
/// # Example
///
/// ```
/// use pmsb_metrics::QuantileSketch;
///
/// let mut sk = QuantileSketch::new();
/// for v in 1..=1000u64 {
///     sk.insert(v);
/// }
/// let p50 = sk.quantile(0.5).unwrap();
/// // True median order statistic is 500 or 501; the sketch's answer is
/// // within 1/128 relative error of it.
/// assert!((p50 as f64 - 500.0).abs() / 500.0 < QuantileSketch::RELATIVE_ERROR + 0.002);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
    /// Exact integer sum — `u128` so the mean is order-independent
    /// (floating-point accumulation would depend on insertion order).
    sum: u128,
}

impl QuantileSketch {
    /// Mantissa precision: buckets subdivide each power of two into
    /// `2^BITS` steps.
    pub const BITS: u32 = 7;

    /// Documented bound on the relative error of a reported quantile
    /// versus the true order statistic at the same rank: bucket width /
    /// bucket lower bound = `2^-BITS`.
    pub const RELATIVE_ERROR: f64 = 1.0 / (1u64 << Self::BITS) as f64;

    /// Mantissa range per octave.
    const B: u64 = 1 << Self::BITS;

    /// Bucket count covering all of `u64`: octaves `BITS..=63` each
    /// contribute `B` buckets on top of the `2B` exact low buckets.
    const NUM_BUCKETS: usize = ((64 - Self::BITS as usize) + 1) * Self::B as usize;

    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            counts: vec![0; Self::NUM_BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// The bucket index of `v`. Values below `2^(BITS+1)` map to
    /// themselves (exact); above that, to `floor(v / 2^shift)` within the
    /// octave selected by the highest set bit.
    fn index_of(v: u64) -> usize {
        let v = v.max(1);
        let h = 63 - v.leading_zeros();
        let shift = h.saturating_sub(Self::BITS);
        shift as usize * Self::B as usize + (v >> shift) as usize
    }

    /// The inclusive value range `[lo, hi]` a bucket covers.
    fn range_of(index: usize) -> (u64, u64) {
        if index < 2 * Self::B as usize {
            return (index as u64, index as u64);
        }
        let shift = (index as u64 / Self::B) - 1;
        let mantissa = index as u64 - shift * Self::B;
        let lo = mantissa << shift;
        let hi = lo + ((1u64 << shift) - 1);
        (lo, hi)
    }

    /// Inserts one sample.
    pub fn insert(&mut self, v: u64) {
        self.counts[Self::index_of(v)] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Number of samples inserted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples were inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean (integer sum over count), or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum as f64 / self.count as f64)
    }

    /// The approximate value of the order statistic at quantile `q` in
    /// `[0, 1]`: the rank is `round(q · (n-1))` — the nearest-rank
    /// convention, matching [`crate::summary::percentile`]'s ranks — and
    /// the returned value is the midpoint of the bucket containing that
    /// rank, within [`Self::RELATIVE_ERROR`] of the true sample.
    ///
    /// Returns `None` when the sketch is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                let (lo, hi) = Self::range_of(i);
                // Clamp to the exact extremes: the true order statistic
                // can never sit outside [min, max].
                return Some((lo + (hi - lo) / 2).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Convenience wrapper: `percentile(99.0)` = `quantile(0.99)`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        self.quantile(p / 100.0)
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact nearest-rank order statistic the sketch approximates.
    fn exact_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    #[test]
    fn empty_sketch_answers_none() {
        let sk = QuantileSketch::new();
        assert!(sk.is_empty());
        assert_eq!(sk.quantile(0.5), None);
        assert_eq!(sk.min(), None);
        assert_eq!(sk.max(), None);
        assert_eq!(sk.mean(), None);
    }

    #[test]
    fn small_values_are_exact() {
        // Values below 2^(BITS+1) = 256 land in unit-width buckets.
        let mut sk = QuantileSketch::new();
        for v in [3u64, 7, 42, 99, 200, 250, 255] {
            sk.insert(v);
        }
        assert_eq!(sk.quantile(0.0), Some(3));
        assert_eq!(sk.quantile(1.0), Some(255));
        assert_eq!(sk.quantile(0.5), Some(99));
    }

    #[test]
    fn buckets_tile_u64_without_gaps() {
        // Every bucket's upper bound + 1 starts the next bucket, and
        // index_of is the inverse of range_of over the whole bucket.
        for i in 0..QuantileSketch::NUM_BUCKETS - 1 {
            let (lo, hi) = QuantileSketch::range_of(i);
            assert!(lo <= hi, "bucket {i}");
            if lo > 0 {
                assert_eq!(QuantileSketch::index_of(lo), i, "lo of bucket {i}");
                assert_eq!(QuantileSketch::index_of(hi), i, "hi of bucket {i}");
            }
            let (next_lo, _) = QuantileSketch::range_of(i + 1);
            assert_eq!(hi + 1, next_lo, "gap after bucket {i}");
        }
        assert_eq!(
            QuantileSketch::index_of(u64::MAX),
            QuantileSketch::NUM_BUCKETS - 1
        );
    }

    #[test]
    fn relative_error_bound_holds_on_log_spread_data() {
        // Samples spanning six decades: every quantile must sit within
        // the documented relative error of the true order statistic.
        let mut sk = QuantileSketch::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 7u64;
        for _ in 0..50_000 {
            // Deterministic LCG spread over [1, ~1e9].
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 1 + (x >> 34);
            samples.push(v);
            sk.insert(v);
        }
        samples.sort_unstable();
        for q in [0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let truth = exact_rank(&samples, q) as f64;
            let approx = sk.quantile(q).unwrap() as f64;
            let rel = (approx - truth).abs() / truth;
            assert!(
                rel <= QuantileSketch::RELATIVE_ERROR,
                "q={q}: sketch {approx} vs exact {truth} (rel {rel})"
            );
        }
        assert_eq!(sk.count(), 50_000);
        assert_eq!(sk.min().unwrap(), samples[0]);
        assert_eq!(sk.max().unwrap(), *samples.last().unwrap());
    }

    #[test]
    fn mean_is_exact() {
        let mut sk = QuantileSketch::new();
        for v in [10u64, 20, 30, 40] {
            sk.insert(v);
        }
        assert_eq!(sk.mean(), Some(25.0));
    }
}
