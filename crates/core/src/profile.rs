//! Deployment profiles: derive and validate a PMSB configuration from
//! fabric parameters.
//!
//! The paper's deployment story (§VI, "Is it hard to determine the
//! parameters for PMSB?"): measure the fabric's `C` and `RTT`, pick queue
//! weights, and the thresholds follow — the per-queue filter thresholds
//! from Eq. 6, their Theorem IV.1 lower bounds from Eq. 12, and the port
//! threshold either as `C·RTT·λ` (Eq. 5) or as the sum of bound-respecting
//! per-queue thresholds. [`PmsbProfile`] encodes that recipe with
//! validation, so a misconfigured deployment is a compile-time/startup
//! error instead of a silent throughput loss.

use crate::analysis;
use crate::endpoint::SelectiveBlindness;
use crate::marking::Pmsb;

/// Errors from [`PmsbProfileBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildProfileError {
    /// No queue weights were given, or they sum to zero.
    EmptyWeights,
    /// A fabric parameter was zero or non-finite.
    BadFabricParameter(&'static str),
    /// A derived threshold does not fit in a `u64`: the fabric is too
    /// fast or its RTT too long for 64-bit bytes and nanoseconds.
    Overflow(&'static str),
    /// The chosen port threshold makes some queue's filter threshold fall
    /// at or below its Theorem IV.1 bound (throughput would be lost).
    /// Carries the offending queue and the minimum safe port threshold.
    ViolatesTheoremIv1 {
        /// Queue whose filter threshold is too small.
        queue: usize,
        /// Smallest port threshold (bytes) that satisfies the bound for
        /// every queue.
        min_port_threshold_bytes: u64,
    },
}

impl std::fmt::Display for BuildProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildProfileError::EmptyWeights => {
                f.write_str("queue weights are empty or sum to zero")
            }
            BuildProfileError::BadFabricParameter(p) => {
                write!(f, "fabric parameter {p} must be positive and finite")
            }
            BuildProfileError::Overflow(what) => {
                write!(f, "{what} does not fit in 64 bits")
            }
            BuildProfileError::ViolatesTheoremIv1 {
                queue,
                min_port_threshold_bytes,
            } => write!(
                f,
                "queue {queue}'s filter threshold violates Theorem IV.1; \
                 raise the port threshold to at least {min_port_threshold_bytes} bytes"
            ),
        }
    }
}

impl std::error::Error for BuildProfileError {}

/// A validated PMSB deployment configuration for one port class.
///
/// # Example
///
/// ```
/// use pmsb::profile::PmsbProfile;
///
/// // The paper's large-scale fabric: 10 Gbps, 85.2 us RTT, 8 equal queues.
/// let profile = PmsbProfile::builder()
///     .link_rate_bps(10_000_000_000)
///     .rtt_nanos(85_200)
///     .weights(vec![1; 8])
///     .build()?;
/// // Thresholds respect Theorem IV.1 by construction.
/// assert!(profile.port_threshold_bytes() > 0);
/// let _scheme = profile.marking_scheme();
/// let _rule = profile.endpoint_rule();
/// # Ok::<(), pmsb::profile::BuildProfileError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PmsbProfile {
    link_rate_bps: u64,
    rtt_nanos: u64,
    weights: Vec<u64>,
    port_threshold_bytes: u64,
    rtt_threshold_nanos: u64,
}

impl PmsbProfile {
    /// Starts building a profile.
    pub fn builder() -> PmsbProfileBuilder {
        PmsbProfileBuilder {
            link_rate_bps: 10_000_000_000,
            rtt_nanos: 0,
            weights: Vec::new(),
            lambda: None,
            margin: 1.2,
            rtt_headroom: 1.2,
        }
    }

    /// The derived per-port threshold in bytes.
    pub fn port_threshold_bytes(&self) -> u64 {
        self.port_threshold_bytes
    }

    /// The per-queue filter threshold for `queue` in bytes (Eq. 6).
    pub fn queue_threshold_bytes(&self, queue: usize) -> u64 {
        let sum: u64 = self.weights.iter().sum();
        ((self.weights[queue] as u128 * self.port_threshold_bytes as u128) / sum as u128) as u64
    }

    /// The queue weights.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// The PMSB(e) RTT threshold in nanoseconds (base RTT × headroom).
    pub fn rtt_threshold_nanos(&self) -> u64 {
        self.rtt_threshold_nanos
    }

    /// Instantiates the switch-side marking scheme (Algorithm 1).
    pub fn marking_scheme(&self) -> Pmsb {
        Pmsb::new(self.port_threshold_bytes, self.weights.clone())
    }

    /// Instantiates the end-host rule (Algorithm 2, PMSB(e)).
    pub fn endpoint_rule(&self) -> SelectiveBlindness {
        SelectiveBlindness::new(self.rtt_threshold_nanos)
    }

    /// The Theorem IV.1 safety margin of `queue`: its filter threshold
    /// divided by the `γ·C·RTT/7` bound (must exceed 1).
    pub fn bound_margin(&self, queue: usize) -> f64 {
        let sum: u64 = self.weights.iter().sum();
        let bound = analysis::theorem_iv1_min_threshold_bytes(
            self.weights[queue],
            sum,
            self.link_rate_bps,
            self.rtt_nanos,
        );
        self.queue_threshold_bytes(queue) as f64 / bound
    }
}

/// Builder for [`PmsbProfile`]; see [`PmsbProfile::builder`].
#[derive(Debug, Clone)]
pub struct PmsbProfileBuilder {
    link_rate_bps: u64,
    rtt_nanos: u64,
    weights: Vec<u64>,
    lambda: Option<f64>,
    margin: f64,
    rtt_headroom: f64,
}

impl PmsbProfileBuilder {
    /// Sets the bottleneck link rate in bits per second (default 10 Gbps).
    pub fn link_rate_bps(mut self, bps: u64) -> Self {
        self.link_rate_bps = bps;
        self
    }

    /// Sets the fabric's measured base RTT in nanoseconds (required).
    pub fn rtt_nanos(mut self, nanos: u64) -> Self {
        self.rtt_nanos = nanos;
        self
    }

    /// Sets the per-queue scheduling weights (required).
    pub fn weights(mut self, weights: Vec<u64>) -> Self {
        self.weights = weights;
        self
    }

    /// Derives the port threshold as `C·RTT·λ` (Eq. 5) instead of the
    /// default sum-of-bounds recipe.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Margin applied over each queue's Theorem IV.1 bound in the default
    /// (sum-of-bounds) recipe; must be > 1 (default 1.2).
    pub fn bound_margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// PMSB(e) RTT threshold as a multiple of the base RTT (default 1.2).
    pub fn rtt_headroom(mut self, factor: f64) -> Self {
        self.rtt_headroom = factor;
        self
    }

    /// Validates and builds the profile.
    ///
    /// # Errors
    ///
    /// Returns [`BuildProfileError`] when parameters are missing/invalid,
    /// a derived threshold does not fit in a `u64`, or the thresholds
    /// violate Theorem IV.1.
    pub fn build(self) -> Result<PmsbProfile, BuildProfileError> {
        let weight_sum: u64 = self.weights.iter().sum();
        if self.weights.is_empty() || weight_sum == 0 {
            return Err(BuildProfileError::EmptyWeights);
        }
        if self.link_rate_bps == 0 {
            return Err(BuildProfileError::BadFabricParameter("link_rate_bps"));
        }
        if self.rtt_nanos == 0 {
            return Err(BuildProfileError::BadFabricParameter("rtt_nanos"));
        }
        if !(self.margin.is_finite() && self.margin > 1.0) {
            return Err(BuildProfileError::BadFabricParameter("bound_margin"));
        }
        if !(self.rtt_headroom.is_finite() && self.rtt_headroom > 1.0) {
            return Err(BuildProfileError::BadFabricParameter("rtt_headroom"));
        }
        if let Some(l) = self.lambda {
            if !(l.is_finite() && l > 0.0) {
                return Err(BuildProfileError::BadFabricParameter("lambda"));
            }
        }

        // `u64::MAX as f64` is 2^64: every value below it converts to a
        // `u64` without saturating.
        let rtt_threshold_nanos = (self.rtt_nanos as f64 * self.rtt_headroom).round();
        if rtt_threshold_nanos >= u64::MAX as f64 {
            return Err(BuildProfileError::Overflow(
                "the PMSB(e) RTT threshold rtt_nanos × rtt_headroom",
            ));
        }
        let port_threshold_bytes = match self.lambda {
            Some(l) => analysis::standard_threshold_bytes(self.link_rate_bps, self.rtt_nanos, l),
            None => analysis::pmsb_port_threshold_bytes(
                &self.weights,
                self.link_rate_bps,
                self.rtt_nanos,
                self.margin,
            ),
        };
        // Both recipes saturate at `u64::MAX` when the threshold does not
        // fit.
        if port_threshold_bytes == u64::MAX {
            return Err(BuildProfileError::Overflow("the port threshold"));
        }

        // Validate every queue's filter threshold against its bound, and
        // compute the smallest admissible port threshold for diagnostics.
        let mut min_port = 0u64;
        for (q, w) in self.weights.iter().enumerate() {
            let bound = analysis::theorem_iv1_min_threshold_bytes(
                *w,
                weight_sum,
                self.link_rate_bps,
                self.rtt_nanos,
            );
            let filter = (*w as u128 * port_threshold_bytes as u128 / weight_sum as u128) as f64;
            // filter = (w/sum)·port, bound = (w/sum)·CRTT/7: the implied
            // minimum port threshold is the same for every queue, but we
            // check each to report the first offender.
            let implied = (bound * weight_sum as f64 / *w as f64).ceil();
            if implied >= u64::MAX as f64 {
                // Only a port threshold past 2^64 bytes would clear it.
                return Err(BuildProfileError::Overflow(
                    "the smallest port threshold Theorem IV.1 admits",
                ));
            }
            min_port = min_port.max(implied as u64 + 1);
            if filter <= bound {
                return Err(BuildProfileError::ViolatesTheoremIv1 {
                    queue: q,
                    min_port_threshold_bytes: min_port,
                });
            }
        }

        Ok(PmsbProfile {
            link_rate_bps: self.link_rate_bps,
            rtt_nanos: self.rtt_nanos,
            weights: self.weights,
            port_threshold_bytes,
            rtt_threshold_nanos: rtt_threshold_nanos as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmsb_simcore::rng::SimRng;

    fn paper_builder() -> PmsbProfileBuilder {
        PmsbProfile::builder()
            .link_rate_bps(10_000_000_000)
            .rtt_nanos(85_200)
            .weights(vec![1; 8])
    }

    #[test]
    fn paper_fabric_profile_builds() {
        let p = paper_builder().build().unwrap();
        // Sum-of-bounds recipe with margin 1.2: 8 × ceil(1902·1.2) bytes.
        assert!(p.port_threshold_bytes() >= 8 * 1902);
        for q in 0..8 {
            assert!(p.bound_margin(q) > 1.0, "queue {q} must clear the bound");
        }
        assert_eq!(p.rtt_threshold_nanos(), 102_240); // 85.2 us × 1.2
        assert_eq!(p.marking_scheme().weights(), &[1; 8]);
        assert_eq!(p.endpoint_rule().rtt_threshold_nanos(), 102_240);
    }

    #[test]
    fn lambda_recipe_gives_standard_threshold() {
        let p = paper_builder().lambda(1.0).build().unwrap();
        // C·RTT·λ = 10G × 85.2 us = 106,500 bytes (~71 pkts).
        assert_eq!(p.port_threshold_bytes(), 106_500);
    }

    #[test]
    fn too_small_lambda_is_rejected_with_fix() {
        // λ tiny => port threshold below the sum of bounds.
        let err = paper_builder().lambda(0.05).build().unwrap_err();
        match err {
            BuildProfileError::ViolatesTheoremIv1 {
                min_port_threshold_bytes,
                ..
            } => {
                // Retrying with the suggested threshold (as λ) succeeds.
                let lam = min_port_threshold_bytes as f64 / 106_500.0 + 0.01;
                assert!(paper_builder().lambda(lam).build().is_ok());
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_parameters() {
        assert_eq!(
            PmsbProfile::builder().weights(vec![1]).build().unwrap_err(),
            BuildProfileError::BadFabricParameter("rtt_nanos")
        );
        assert_eq!(
            PmsbProfile::builder().rtt_nanos(1000).build().unwrap_err(),
            BuildProfileError::EmptyWeights
        );
    }

    #[test]
    fn thresholds_past_u64_are_errors_not_saturated_values() {
        let near_max = paper_builder().rtt_nanos(u64::MAX - 1);
        assert_eq!(
            near_max.build().unwrap_err(),
            BuildProfileError::Overflow("the PMSB(e) RTT threshold rtt_nanos × rtt_headroom")
        );
        // Half the clock leaves room for the RTT threshold at 1.5×, but
        // C·RTT·λ at λ = 4 is ~4.6e19 bytes.
        let half = paper_builder().rtt_nanos(u64::MAX / 2).rtt_headroom(1.5);
        assert!(half.clone().build().is_ok());
        let err = half.clone().lambda(4.0).build().unwrap_err();
        assert_eq!(err, BuildProfileError::Overflow("the port threshold"));
        assert!(err.to_string().contains("does not fit in 64 bits"), "{err}");
        // At λ = 1e-10 the port threshold fits, but no 64-bit port
        // threshold clears the bound.
        assert_eq!(
            half.link_rate_bps(u64::MAX)
                .lambda(1e-10)
                .build()
                .unwrap_err(),
            BuildProfileError::Overflow("the smallest port threshold Theorem IV.1 admits")
        );
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = BuildProfileError::ViolatesTheoremIv1 {
            queue: 3,
            min_port_threshold_bytes: 9000,
        };
        let msg = e.to_string();
        assert!(msg.contains("queue 3") && msg.contains("9000"), "{msg}");
    }

    /// Every successfully built profile clears the Theorem IV.1 bound
    /// on every queue.
    #[test]
    fn built_profiles_always_respect_the_bound() {
        let mut rng = SimRng::seed_from(0x6f);
        for _ in 0..32 {
            let n = 1 + rng.below(7);
            let weights: Vec<u64> = (0..n).map(|_| 1 + rng.below(15) as u64).collect();
            let rtt_us = 10 + rng.below(490) as u64;
            let margin = 1.01 + rng.uniform() * 2.99;
            let p = PmsbProfile::builder()
                .link_rate_bps(10_000_000_000)
                .rtt_nanos(rtt_us * 1000)
                .weights(weights.clone())
                .bound_margin(margin)
                .build()
                .unwrap();
            for q in 0..weights.len() {
                assert!(p.bound_margin(q) > 1.0);
            }
        }
    }
}
