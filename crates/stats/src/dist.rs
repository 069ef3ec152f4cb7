//! Hash-driven random variates.
//!
//! The simulator is designed as a *pure function* of `(seed, entity ids,
//! date)`: every stochastic choice is made by hashing the choice's identity
//! and mapping the 64-bit hash to a variate by inverse-CDF. This has two
//! payoffs over threading an RNG:
//!
//! 1. **Reproducibility by construction** — reordering the simulation loop,
//!    parallelizing it, or querying one user in isolation all yield
//!    identical draws, because a draw's value depends only on its identity.
//! 2. **Deterministic sampling for free** — the paper's hash-based attribute
//!    samplers (§3.1) are the same primitive.
//!
//! All functions take a pre-mixed `u64` hash (from [`crate::hash`]) and are
//! total: any input produces a valid variate.

/// Maps a hash to a uniform float in `[0, 1)` with 53 bits of precision.
#[inline]
pub fn uniform01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Bernoulli trial: true with probability `p`.
#[inline]
pub fn bernoulli(h: u64, p: f64) -> bool {
    uniform01(h) < p
}

/// Uniform integer in `[0, n)`. Returns 0 when `n == 0`.
///
/// Uses the 128-bit multiply reduction (Lemire), which is unbiased enough
/// for simulation purposes (bias < 2⁻⁶⁴).
#[inline]
pub fn uniform_range(h: u64, n: u64) -> u64 {
    ((u128::from(h) * u128::from(n)) >> 64) as u64
}

/// Geometric variate: number of failures before the first success, with
/// success probability `p` per trial. Returns 0 when `p >= 1`; capped at
/// `u32::MAX as u64` to stay finite for tiny `p`.
pub fn geometric(h: u64, p: f64) -> u64 {
    if p >= 1.0 {
        return 0;
    }
    let p = p.max(1e-12);
    let u = uniform01(h).max(f64::MIN_POSITIVE);
    let g = (u.ln() / (1.0 - p).ln()).floor();
    (g as u64).min(u64::from(u32::MAX))
}

/// Poisson variate by sequential inversion — exact for the small rates used
/// here (λ ≤ ~50: requests per session, attaches per day). For larger λ it
/// falls back to a normal approximation, which is fine at that scale.
pub fn poisson(h: u64, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 50.0 {
        // Normal approximation with continuity correction.
        let z = normal01(h);
        let x = lambda + z * lambda.sqrt() + 0.5;
        return x.max(0.0) as u64;
    }
    let u = uniform01(h);
    let mut cdf = (-lambda).exp();
    let mut pmf = cdf;
    let mut k = 0u64;
    while u > cdf && k < 500 {
        k += 1;
        pmf *= lambda / k as f64;
        cdf += pmf;
    }
    k
}

/// Standard normal variate via the inverse-CDF (Acklam's rational
/// approximation, |ε| < 1.15e-9 — far below simulation noise).
#[allow(clippy::excessive_precision)] // coefficients kept exactly as published
pub fn normal01(h: u64) -> f64 {
    let p = uniform01(h).clamp(1e-15, 1.0 - 1e-15);
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Log-normal variate with the given parameters of the underlying normal.
pub fn lognormal(h: u64, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * normal01(h)).exp()
}

/// A precomputed discrete distribution for weighted choices (ISP market
/// shares, country populations, campaign sizes). Sampling is O(log n) by
/// binary search on the cumulative weights.
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
}

impl WeightedIndex {
    /// Builds from non-negative weights. Zero-weight entries are never
    /// selected.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(
                w >= 0.0 && w.is_finite(),
                "weights must be finite and non-negative"
            );
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        Self { cumulative }
    }

    /// Samples an index using the hash.
    pub fn sample(&self, h: u64) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let target = uniform01(h) * total;
        self.cumulative
            .partition_point(|&c| c <= target)
            .min(self.cumulative.len() - 1)
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false: construction rejects empty weight sets.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A Zipf-like (discrete power-law) distribution over ranks `0..n`, with
/// P(rank k) ∝ 1/(k+1)^s. Heavy-tailed choices — which CGN a user attaches
/// through, which hosting range a campaign rents — follow this shape.
#[derive(Debug, Clone)]
pub struct Zipf {
    index: WeightedIndex,
}

impl Zipf {
    /// Builds a Zipf table over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        Self {
            index: WeightedIndex::new(&weights),
        }
    }

    /// Samples a rank in `[0, n)`.
    pub fn sample(&self, h: u64) -> usize {
        self.index.sample(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::stable_hash64;

    fn hashes(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(|i| stable_hash64(999, &i.to_le_bytes()))
    }

    #[test]
    fn uniform01_is_in_unit_interval_and_uniform() {
        let n = 100_000;
        let mean: f64 = hashes(n).map(uniform01).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        for h in hashes(1000) {
            let u = uniform01(h);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn bernoulli_rate() {
        let n = 100_000;
        let hits = hashes(n).filter(|&h| bernoulli(h, 0.25)).count();
        assert!((hits as f64 / n as f64 - 0.25).abs() < 0.01);
    }

    #[test]
    fn uniform_range_bounds_and_uniformity() {
        let mut counts = [0u32; 10];
        for h in hashes(100_000) {
            counts[uniform_range(h, 10) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count {c}");
        }
        assert_eq!(uniform_range(12345, 0), 0);
        assert_eq!(uniform_range(u64::MAX, 1), 0);
    }

    #[test]
    fn geometric_mean() {
        // Mean of Geometric(p) (failures before success) is (1-p)/p = 4 at p=0.2.
        let n = 100_000;
        let mean: f64 = hashes(n).map(|h| geometric(h, 0.2) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        assert_eq!(geometric(42, 1.0), 0);
    }

    #[test]
    fn poisson_small_lambda() {
        let n = 100_000;
        let lambda = 3.5;
        let samples: Vec<u64> = hashes(n).map(|h| poisson(h, lambda)).collect();
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 0.05, "mean {mean}");
        assert!((var - lambda).abs() < 0.15, "var {var}");
        assert_eq!(poisson(7, 0.0), 0);
    }

    #[test]
    fn poisson_large_lambda_normal_path() {
        let n = 50_000;
        let lambda = 200.0;
        let mean: f64 = hashes(n).map(|h| poisson(h, lambda) as f64).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn normal01_moments() {
        let n = 100_000;
        let samples: Vec<f64> = hashes(n).map(normal01).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| x * x).sum::<f64>() / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let w = WeightedIndex::new(&[1.0, 0.0, 3.0]);
        let mut counts = [0u32; 3];
        for h in hashes(40_000) {
            counts[w.sample(h)] += 1;
        }
        assert_eq!(counts[1], 0, "zero weight never sampled");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn weighted_index_rejects_empty() {
        WeightedIndex::new(&[]);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn weighted_index_rejects_all_zero() {
        WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    fn zipf_is_head_heavy() {
        let z = Zipf::new(100, 1.2);
        let mut counts = [0u32; 100];
        for h in hashes(50_000) {
            counts[z.sample(h)] += 1;
        }
        assert!(counts[0] > counts[9], "rank 0 should dominate rank 9");
        assert!(counts[0] > 5 * counts[50].max(1), "heavy head expected");
    }

    #[test]
    fn lognormal_is_positive() {
        for h in hashes(1000) {
            assert!(lognormal(h, 0.0, 1.0) > 0.0);
        }
    }
}
