//! Flow-size distributions.

use pmsb_simcore::rng::SimRng;

/// A distribution over flow sizes in bytes.
///
/// `Send` so boxed distributions can ride inside streaming flow
/// sources, which a world may carry to another thread.
pub trait FlowSizeDist: std::fmt::Debug + Send {
    /// Draws one flow size.
    fn sample(&self, rng: &mut SimRng) -> u64;

    /// The distribution's mean in bytes (used for load calibration).
    fn mean_bytes(&self) -> f64;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Mean of a log-uniform distribution on `[lo, hi]`: `(hi-lo)/ln(hi/lo)`.
fn log_uniform_mean(lo: f64, hi: f64) -> f64 {
    (hi - lo) / (hi / lo).ln()
}

/// Draws log-uniformly from `[lo, hi]` — a heavy-tail-ish spread across
/// the class's byte range.
fn sample_log_uniform(rng: &mut SimRng, lo: f64, hi: f64) -> u64 {
    let u = rng.uniform();
    (lo * (hi / lo).powf(u)).round() as u64
}

/// The paper's workload mix: 60% small flows (< 100 KB), 30% medium
/// (100 KB – 10 MB), 10% large (> 10 MB), each class spread log-uniformly
/// over its range.
///
/// # Example
///
/// ```
/// use pmsb_simcore::rng::SimRng;
/// use pmsb_workload::{FlowSizeDist, PaperMix};
///
/// let mix = PaperMix::new();
/// let mut rng = SimRng::seed_from(5);
/// let s = mix.sample(&mut rng);
/// assert!(s >= 1_000 && s <= 100_000_000);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaperMix;

impl PaperMix {
    /// Byte range of small flows.
    pub const SMALL: (f64, f64) = (1_000.0, 100_000.0);
    /// Byte range of medium flows.
    pub const MEDIUM: (f64, f64) = (100_000.0, 10_000_000.0);
    /// Byte range of large flows.
    pub const LARGE: (f64, f64) = (10_000_000.0, 100_000_000.0);
    /// Class probabilities (small, medium, large).
    pub const PROBS: (f64, f64, f64) = (0.6, 0.3, 0.1);

    /// Creates the mix.
    pub fn new() -> Self {
        PaperMix
    }
}

impl FlowSizeDist for PaperMix {
    fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.uniform();
        let (lo, hi) = if u < Self::PROBS.0 {
            Self::SMALL
        } else if u < Self::PROBS.0 + Self::PROBS.1 {
            Self::MEDIUM
        } else {
            Self::LARGE
        };
        sample_log_uniform(rng, lo, hi).clamp(lo as u64, hi as u64)
    }

    fn mean_bytes(&self) -> f64 {
        Self::PROBS.0 * log_uniform_mean(Self::SMALL.0, Self::SMALL.1)
            + Self::PROBS.1 * log_uniform_mean(Self::MEDIUM.0, Self::MEDIUM.1)
            + Self::PROBS.2 * log_uniform_mean(Self::LARGE.0, Self::LARGE.1)
    }

    fn name(&self) -> &'static str {
        "paper-mix"
    }
}

/// An empirical CDF over flow sizes, sampled by inverse transform with
/// linear interpolation between knots.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    /// `(bytes, cumulative probability)` knots; strictly increasing in
    /// both coordinates, ending at probability 1.
    knots: Vec<(f64, f64)>,
    name: &'static str,
}

impl EmpiricalCdf {
    /// Builds from knots.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two knots, probabilities are not increasing
    /// from 0 to 1, or sizes are not increasing.
    pub fn new(knots: Vec<(f64, f64)>, name: &'static str) -> Self {
        assert!(knots.len() >= 2, "need at least two CDF knots");
        assert_eq!(knots[0].1, 0.0, "first knot must have probability 0");
        assert_eq!(
            knots.last().unwrap().1,
            1.0,
            "last knot must have probability 1"
        );
        for w in knots.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must increase");
            assert!(w[0].1 < w[1].1, "probabilities must increase");
        }
        EmpiricalCdf { knots, name }
    }

    fn inverse(&self, u: f64) -> f64 {
        let idx = self.knots.partition_point(|(_, p)| *p < u).max(1);
        let (x0, p0) = self.knots[idx - 1];
        let (x1, p1) = self.knots[idx.min(self.knots.len() - 1)];
        if p1 == p0 {
            return x0;
        }
        x0 + (x1 - x0) * (u - p0) / (p1 - p0)
    }
}

impl FlowSizeDist for EmpiricalCdf {
    fn sample(&self, rng: &mut SimRng) -> u64 {
        self.inverse(rng.uniform()).round().max(1.0) as u64
    }

    fn mean_bytes(&self) -> f64 {
        // Piecewise-linear CDF => uniform within each segment: the mean is
        // the probability-weighted sum of segment midpoints.
        self.knots
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) * (w[0].0 + w[1].0) / 2.0)
            .sum()
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// The web-search workload CDF (DCTCP paper, Alizadeh et al.) commonly
/// used in datacenter transport evaluations: ~30% of flows under 10 KB but
/// most *bytes* from multi-megabyte flows.
#[derive(Debug, Clone, PartialEq)]
pub struct WebSearch(EmpiricalCdf);

impl WebSearch {
    /// Creates the distribution.
    pub fn new() -> Self {
        WebSearch(EmpiricalCdf::new(
            vec![
                (1_000.0, 0.0),
                (10_000.0, 0.15),
                (20_000.0, 0.20),
                (30_000.0, 0.30),
                (50_000.0, 0.40),
                (80_000.0, 0.53),
                (200_000.0, 0.60),
                (1_000_000.0, 0.70),
                (2_000_000.0, 0.80),
                (5_000_000.0, 0.90),
                (10_000_000.0, 0.97),
                (30_000_000.0, 1.0),
            ],
            "web-search",
        ))
    }
}

impl Default for WebSearch {
    fn default() -> Self {
        WebSearch::new()
    }
}

impl FlowSizeDist for WebSearch {
    fn sample(&self, rng: &mut SimRng) -> u64 {
        self.0.sample(rng)
    }
    fn mean_bytes(&self) -> f64 {
        self.0.mean_bytes()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// The data-mining workload CDF (VL2 paper, Greenberg et al.): extremely
/// heavy-tailed — most flows are tiny, most bytes come from >100 MB flows.
#[derive(Debug, Clone, PartialEq)]
pub struct DataMining(EmpiricalCdf);

impl DataMining {
    /// Creates the distribution.
    pub fn new() -> Self {
        DataMining(EmpiricalCdf::new(
            vec![
                (100.0, 0.0),
                (180.0, 0.10),
                (250.0, 0.20),
                (560.0, 0.30),
                (900.0, 0.40),
                (1_100.0, 0.50),
                (60_000.0, 0.60),
                (900_000.0, 0.70),
                (5_000_000.0, 0.80),
                (100_000_000.0, 0.90),
                (1_000_000_000.0, 1.0),
            ],
            "data-mining",
        ))
    }
}

impl Default for DataMining {
    fn default() -> Self {
        DataMining::new()
    }
}

impl FlowSizeDist for DataMining {
    fn sample(&self, rng: &mut SimRng) -> u64 {
        self.0.sample(rng)
    }
    fn mean_bytes(&self) -> f64 {
        self.0.mean_bytes()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A cloneable, comparable handle naming one of the built-in flow-size
/// distributions — the configuration-side counterpart of
/// [`FlowSizeDist`], usable inside `PartialEq` specs such as
/// [`crate::PatternSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeDistSpec {
    /// The web-search CDF ([`WebSearch`]).
    WebSearch,
    /// The data-mining CDF ([`DataMining`]).
    DataMining,
    /// The paper's three-class mix ([`PaperMix`]).
    PaperMix,
}

impl SizeDistSpec {
    /// Short name for reports and CLI errors.
    pub fn name(&self) -> &'static str {
        match self {
            SizeDistSpec::WebSearch => "web-search",
            SizeDistSpec::DataMining => "data-mining",
            SizeDistSpec::PaperMix => "paper-mix",
        }
    }

    /// Instantiates the named distribution.
    pub fn build(&self) -> Box<dyn FlowSizeDist> {
        match self {
            SizeDistSpec::WebSearch => Box::new(WebSearch::new()),
            SizeDistSpec::DataMining => Box::new(DataMining::new()),
            SizeDistSpec::PaperMix => Box::new(PaperMix::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_dist_spec_builds_the_named_distribution() {
        for spec in [
            SizeDistSpec::WebSearch,
            SizeDistSpec::DataMining,
            SizeDistSpec::PaperMix,
        ] {
            let dist = spec.build();
            assert_eq!(dist.name(), spec.name());
            let mut rng = SimRng::seed_from(3);
            assert!(dist.sample(&mut rng) >= 1);
        }
    }

    #[test]
    fn paper_mix_class_proportions() {
        let mix = PaperMix::new();
        let mut rng = SimRng::seed_from(7);
        let n = 50_000;
        let mut small = 0;
        let mut large = 0;
        for _ in 0..n {
            let s = mix.sample(&mut rng);
            if s < 100_000 {
                small += 1;
            } else if s > 10_000_000 {
                large += 1;
            }
        }
        let fs = small as f64 / n as f64;
        let fl = large as f64 / n as f64;
        assert!((fs - 0.6).abs() < 0.02, "small fraction {fs}");
        assert!((fl - 0.1).abs() < 0.01, "large fraction {fl}");
    }

    #[test]
    fn paper_mix_mean_matches_samples() {
        let mix = PaperMix::new();
        let mut rng = SimRng::seed_from(11);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| mix.sample(&mut rng) as f64).sum();
        let emp = sum / n as f64;
        let ana = mix.mean_bytes();
        assert!(
            (emp - ana).abs() / ana < 0.05,
            "empirical {emp} vs analytic {ana}"
        );
    }

    #[test]
    fn web_search_mean_matches_samples() {
        let ws = WebSearch::new();
        let mut rng = SimRng::seed_from(13);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| ws.sample(&mut rng) as f64).sum();
        let emp = sum / n as f64;
        let ana = ws.mean_bytes();
        assert!(
            (emp - ana).abs() / ana < 0.05,
            "empirical {emp} vs analytic {ana}"
        );
    }

    #[test]
    fn data_mining_is_heavy_tailed() {
        let dm = DataMining::new();
        let mut rng = SimRng::seed_from(17);
        let samples: Vec<u64> = (0..50_000).map(|_| dm.sample(&mut rng)).collect();
        let median = {
            let mut s = samples.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        // Heavy tail: mean orders of magnitude above the median.
        assert!(median < 10_000, "median {median}");
        assert!(mean > 1_000_000.0, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "probability 0")]
    fn cdf_must_start_at_zero() {
        EmpiricalCdf::new(vec![(1.0, 0.5), (2.0, 1.0)], "bad");
    }

    #[test]
    #[should_panic(expected = "sizes must increase")]
    fn cdf_sizes_must_increase() {
        EmpiricalCdf::new(vec![(2.0, 0.0), (1.0, 1.0)], "bad");
    }

    /// Samples always fall within the distribution's support.
    #[test]
    fn samples_in_support() {
        for seed in 0..40u64 {
            let mut rng = SimRng::seed_from(seed);
            let ws = WebSearch::new();
            for _ in 0..50 {
                let s = ws.sample(&mut rng);
                assert!((1_000..=30_000_000).contains(&s));
            }
            let mix = PaperMix::new();
            for _ in 0..50 {
                let s = mix.sample(&mut rng);
                assert!((1_000..=100_000_000).contains(&s));
            }
        }
    }
}
