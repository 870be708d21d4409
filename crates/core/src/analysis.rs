//! Steady-state analysis of PMSB (§IV-D of the paper).
//!
//! The model: `Σ n_i` long-lived, synchronized flows with identical RTT
//! share a bottleneck of capacity `C` through a port with `q` queues;
//! `n_i` flows sit in queue `i`, which has weight share
//! `γ_i = w_i / Σ_j w_j`. All quantities here are expressed in *segments*
//! (packets), matching the paper's derivation; [`bdp_segments`] converts a
//! physical `C·RTT` into segments.
//!
//! The derivation chain (equation numbers from the paper):
//!
//! * Eq. 8 — the queue peaks at `Q_max = k_i + n_i` with per-flow window
//!   `W* = (γ_i·C·RTT + k_i) / n_i` at the marking instant;
//! * Eq. 9 — sawtooth amplitude `A_i = ½·√(2·n_i·(γ_i·C·RTT + k_i))`;
//! * Eq. 10/11 — minimizing `Q_min = Q_max − A_i` over `n_i` gives the
//!   worst case at `n_i = (γ_i·C·RTT + k_i)/8`, where
//!   `Q_min = (7/8)·k_i − γ_i·C·RTT/8`;
//! * **Theorem IV.1** (Eq. 12) — `Q_min > 0` (no underflow, i.e. no
//!   throughput loss) iff `k_i > γ_i·C·RTT / 7`.

/// The bandwidth-delay product `C·RTT` in segments of `seg_bytes` bytes.
///
/// # Example
///
/// ```
/// use pmsb::analysis::bdp_segments;
///
/// // 10 Gbps x 85.2 us / 1500 B ≈ 71 segments.
/// let bdp = bdp_segments(10_000_000_000, 85_200, 1500);
/// assert!((bdp - 71.0).abs() < 0.1);
/// ```
///
/// # Panics
///
/// Panics if `seg_bytes` is zero.
pub fn bdp_segments(link_rate_bps: u64, rtt_nanos: u64, seg_bytes: u32) -> f64 {
    assert!(seg_bytes > 0, "segment size must be positive");
    (link_rate_bps as f64 / 8.0) * (rtt_nanos as f64 / 1e9) / seg_bytes as f64
}

/// The standard ECN threshold `K = C·RTT·λ` (Eq. 1), in bytes,
/// saturating at `u64::MAX`.
///
/// # Example
///
/// ```
/// use pmsb::analysis::standard_threshold_bytes;
///
/// // 10 Gbps, 19.2 us RTT, lambda = 1 => 16 packets of 1500 B.
/// assert_eq!(standard_threshold_bytes(10_000_000_000, 19_200, 1.0), 24_000);
/// ```
///
/// # Panics
///
/// Panics if `lambda` is not finite and positive.
pub fn standard_threshold_bytes(link_rate_bps: u64, rtt_nanos: u64, lambda: f64) -> u64 {
    assert!(
        lambda.is_finite() && lambda > 0.0,
        "lambda must be positive, got {lambda}"
    );
    ((link_rate_bps as f64 / 8.0) * (rtt_nanos as f64 / 1e9) * lambda).round() as u64
}

/// The fractional per-queue threshold `K_i = (w_i/Σw)·C·RTT·λ` (Eq. 2), in
/// bytes.
///
/// # Panics
///
/// Panics if `weight_sum` is zero or `lambda` is not positive.
pub fn fractional_threshold_bytes(
    weight: u64,
    weight_sum: u64,
    link_rate_bps: u64,
    rtt_nanos: u64,
    lambda: f64,
) -> u64 {
    assert!(weight_sum > 0, "weight sum must be positive");
    let k = standard_threshold_bytes(link_rate_bps, rtt_nanos, lambda);
    ((weight as u128 * k as u128) / weight_sum as u128) as u64
}

/// The weight share `γ_i = w_i / Σ_j w_j`.
///
/// # Panics
///
/// Panics if `weight_sum` is zero.
pub fn gamma(weight: u64, weight_sum: u64) -> f64 {
    assert!(weight_sum > 0, "weight sum must be positive");
    weight as f64 / weight_sum as f64
}

/// The per-flow window `W*` at the instant queue `i` reaches its threshold
/// (Eq. 8's auxiliary definition): `W* = (γ_i·C·RTT + k_i) / n_i`, in
/// segments.
pub fn w_star(n_flows: f64, gamma_bdp_segments: f64, k_segments: f64) -> f64 {
    (gamma_bdp_segments + k_segments) / n_flows
}

/// The queue's maximum length `Q_max = k_i + n_i` (Eq. 8), in segments.
pub fn q_max(n_flows: f64, k_segments: f64) -> f64 {
    k_segments + n_flows
}

/// The sawtooth amplitude `A_i = ½·√(2·n_i·(γ_i·C·RTT + k_i))` (Eq. 9), in
/// segments.
pub fn amplitude(n_flows: f64, gamma_bdp_segments: f64, k_segments: f64) -> f64 {
    0.5 * (2.0 * n_flows * (gamma_bdp_segments + k_segments)).sqrt()
}

/// The queue's minimum length `Q_min = Q_max − A_i`, in segments. Negative
/// values mean the queue underflows (throughput loss).
pub fn q_min(n_flows: f64, gamma_bdp_segments: f64, k_segments: f64) -> f64 {
    q_max(n_flows, k_segments) - amplitude(n_flows, gamma_bdp_segments, k_segments)
}

/// The flow count that minimizes `Q_min` (Eq. 11):
/// `n_i = (γ_i·C·RTT + k_i) / 8`.
pub fn worst_case_flow_count(gamma_bdp_segments: f64, k_segments: f64) -> f64 {
    (gamma_bdp_segments + k_segments) / 8.0
}

/// The lower bound of `Q_min` over all flow counts (Eq. 10):
/// `Q_i⁻ = (7/8)·k_i − γ_i·C·RTT/8`.
pub fn q_min_lower_bound(gamma_bdp_segments: f64, k_segments: f64) -> f64 {
    (7.0 / 8.0) * k_segments - gamma_bdp_segments / 8.0
}

/// **Theorem IV.1**: the smallest per-queue filter threshold (exclusive)
/// that avoids throughput loss, `k_i > γ_i·C·RTT / 7`, in segments.
///
/// # Example
///
/// ```
/// use pmsb::analysis::{bdp_segments, theorem_iv1_min_threshold_segments};
///
/// let bdp = bdp_segments(10_000_000_000, 85_200, 1500);
/// // Two equal-weight queues: gamma = 1/2.
/// let k_min = theorem_iv1_min_threshold_segments(0.5 * bdp);
/// assert!(k_min > 5.0 && k_min < 5.2); // ~5.07 packets
/// ```
pub fn theorem_iv1_min_threshold_segments(gamma_bdp_segments: f64) -> f64 {
    gamma_bdp_segments / 7.0
}

/// Theorem IV.1 expressed in bytes for direct use in switch configuration:
/// the exclusive lower bound on queue `i`'s filter threshold.
///
/// # Panics
///
/// Panics if `weight_sum` is zero.
pub fn theorem_iv1_min_threshold_bytes(
    weight: u64,
    weight_sum: u64,
    link_rate_bps: u64,
    rtt_nanos: u64,
) -> f64 {
    gamma(weight, weight_sum) * (link_rate_bps as f64 / 8.0) * (rtt_nanos as f64 / 1e9) / 7.0
}

/// The PMSB port threshold obtained by summing per-queue thresholds that
/// each satisfy Theorem IV.1 with margin `margin ≥ 1` (the paper: "we can
/// obtain the port's threshold by summing up the thresholds of all queues
/// belonging to this port"). Returns bytes, saturating at `u64::MAX`.
///
/// # Panics
///
/// Panics if `margin < 1.0` (the bound is exclusive) or `weights` sum to 0.
pub fn pmsb_port_threshold_bytes(
    weights: &[u64],
    link_rate_bps: u64,
    rtt_nanos: u64,
    margin: f64,
) -> u64 {
    assert!(margin >= 1.0, "margin must be >= 1 to respect Theorem IV.1");
    let weight_sum: u64 = weights.iter().sum();
    assert!(weight_sum > 0, "weights must sum to a positive value");
    weights
        .iter()
        .map(|w| {
            (theorem_iv1_min_threshold_bytes(*w, weight_sum, link_rate_bps, rtt_nanos) * margin)
                .ceil() as u64
        })
        .fold(0, u64::saturating_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmsb_simcore::rng::SimRng;

    #[test]
    fn eq1_matches_paper_setups() {
        // Paper §II-C: 16 packets at 1 Gbps drain in 19.2 us; so with
        // RTT*lambda = 19.2us at 1 Gbps the standard threshold is 16 pkts
        // of 1500 B (paper uses 1502 B frames; we use 1500 B MTU).
        assert_eq!(
            standard_threshold_bytes(1_000_000_000, 192_000, 1.0),
            24_000
        );
    }

    #[test]
    fn eq2_fractional_shares() {
        let k = standard_threshold_bytes(10_000_000_000, 19_200, 1.0);
        assert_eq!(
            fractional_threshold_bytes(1, 8, 10_000_000_000, 19_200, 1.0),
            k / 8
        );
        assert_eq!(
            fractional_threshold_bytes(8, 8, 10_000_000_000, 19_200, 1.0),
            k
        );
    }

    #[test]
    fn theorem_iv1_paper_setting() {
        // Large-scale setup: port threshold 12 pkts over 8 equal queues at
        // 10 Gbps with RTT 85.2us => per-queue bound gamma*BDP/7 =
        // (1/8)*71/7 ~= 1.27 pkts; the PMSB filter threshold 12/8 = 1.5
        // pkts satisfies it.
        let bdp = bdp_segments(10_000_000_000, 85_200, 1500);
        let bound = theorem_iv1_min_threshold_segments(bdp / 8.0);
        assert!(bound < 1.5, "bound {bound} should be below 1.5 pkts");
        assert!(bound > 1.2);
    }

    #[test]
    fn worst_case_is_the_minimizer() {
        // Q_min evaluated at the Eq.-11 flow count equals the Eq.-10 bound.
        let gamma_bdp = 35.0;
        let k = 10.0;
        let n_star = worst_case_flow_count(gamma_bdp, k);
        let at_star = q_min(n_star, gamma_bdp, k);
        let bound = q_min_lower_bound(gamma_bdp, k);
        assert!((at_star - bound).abs() < 1e-9, "{at_star} vs {bound}");
    }

    #[test]
    fn q_max_is_threshold_plus_flows() {
        assert_eq!(q_max(8.0, 16.0), 24.0);
    }

    #[test]
    fn pmsb_port_threshold_sums_queue_bounds() {
        let t = pmsb_port_threshold_bytes(&[1; 8], 10_000_000_000, 85_200, 1.0);
        // 8 queues x ceil(gamma*BDP/7 bytes) = 8 x ceil(1901.8) = 8x1902.
        assert_eq!(t, 8 * 1902);
        // With margin the threshold grows.
        let t2 = pmsb_port_threshold_bytes(&[1; 8], 10_000_000_000, 85_200, 2.0);
        assert!(t2 > t);
    }

    /// Eq.-10 bound really is a lower bound on Q_min for every n.
    #[test]
    fn bound_holds_for_all_n() {
        let mut rng = SimRng::seed_from(0xa0);
        for _ in 0..64 {
            let gamma_bdp = 0.1 + rng.uniform() * 999.9;
            let k = 0.1 + rng.uniform() * 999.9;
            let n = 0.5 + rng.uniform() * 9_999.5;
            let qm = q_min(n, gamma_bdp, k);
            let bound = q_min_lower_bound(gamma_bdp, k);
            assert!(qm >= bound - 1e-6, "q_min {qm} below bound {bound}");
        }
    }

    /// Theorem IV.1: thresholds above the bound keep Q_min positive for
    /// every flow count.
    #[test]
    fn above_bound_never_underflows() {
        let mut rng = SimRng::seed_from(0xa1);
        for _ in 0..64 {
            let gamma_bdp = 0.5 + rng.uniform() * 499.5;
            let slack = 0.01 + rng.uniform() * 9.99;
            let n = 0.5 + rng.uniform() * 9_999.5;
            let k = theorem_iv1_min_threshold_segments(gamma_bdp) + slack;
            assert!(q_min(n, gamma_bdp, k) > 0.0);
        }
    }

    /// Converse: at the worst-case flow count, thresholds strictly
    /// below the bound underflow.
    #[test]
    fn below_bound_underflows_at_worst_case() {
        let mut rng = SimRng::seed_from(0xa2);
        for _ in 0..64 {
            let gamma_bdp = 1.0 + rng.uniform() * 499.0;
            let frac = 0.05 + rng.uniform() * 0.9;
            let k = theorem_iv1_min_threshold_segments(gamma_bdp) * frac;
            let n = worst_case_flow_count(gamma_bdp, k);
            assert!(q_min(n, gamma_bdp, k) < 0.0);
        }
    }

    /// BDP is linear in both rate and RTT.
    #[test]
    fn bdp_linearity() {
        let mut rng = SimRng::seed_from(0xa3);
        for _ in 0..64 {
            let rate = 1 + rng.next_u64() % 100_000_000_000;
            let rtt = 1 + rng.next_u64() % 10_000_000;
            let one = bdp_segments(rate, rtt, 1500);
            let double_rate = bdp_segments(rate * 2, rtt, 1500);
            let double_rtt = bdp_segments(rate, rtt * 2, 1500);
            assert!((double_rate - 2.0 * one).abs() < 1e-6 * one.max(1.0));
            assert!((double_rtt - 2.0 * one).abs() < 1e-6 * one.max(1.0));
        }
    }

    /// The amplitude grows with the flow count (more synchronized flows
    /// oscillate harder), and q_min eventually recovers for large n
    /// (window floor).
    #[test]
    fn amplitude_monotone_in_n() {
        let mut rng = SimRng::seed_from(0xa4);
        for _ in 0..64 {
            let gamma_bdp = 0.1 + rng.uniform() * 99.9;
            let k = 0.1 + rng.uniform() * 99.9;
            let n = 1.0 + rng.uniform() * 999.0;
            assert!(amplitude(n + 1.0, gamma_bdp, k) > amplitude(n, gamma_bdp, k));
        }
    }
}
