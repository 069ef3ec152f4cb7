//! Empirical cumulative distribution functions over integer counts.
//!
//! Nearly every figure in the paper is a CDF of a small non-negative integer
//! quantity: addresses per user (Fig 2/3), users per address (Fig 7/8), users
//! per prefix (Fig 9/10), life-span days (Fig 5). These distributions are
//! heavily skewed — most mass at 1–10, with tails reaching millions — so the
//! representation here stores exact counts for every observed value in a
//! sorted table rather than binning.

/// An exact empirical CDF over `u64`-valued observations.
///
/// Construction is `O(n log n)`; queries are `O(log k)` for `k` distinct
/// values. Observations are weighted equally; use [`Ecdf::from_counts`] when
/// you already hold a value → multiplicity map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ecdf {
    /// Sorted distinct values.
    values: Vec<u64>,
    /// `cum[i]` = number of observations with value ≤ `values[i]`.
    cum: Vec<u64>,
}

impl Ecdf {
    /// Builds an ECDF from an iterator of raw observations.
    pub fn from_values<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut v: Vec<u64> = iter.into_iter().collect();
        v.sort_unstable();
        let mut values = Vec::new();
        let mut cum = Vec::new();
        let mut total = 0u64;
        let mut i = 0;
        while i < v.len() {
            let val = v[i];
            let mut j = i;
            while j < v.len() && v[j] == val {
                j += 1;
            }
            total += (j - i) as u64;
            values.push(val);
            cum.push(total);
            i = j;
        }
        Self { values, cum }
    }

    /// Builds an ECDF from `(value, count)` pairs. Pairs may repeat and come
    /// in any order; counts for equal values are summed.
    pub fn from_counts<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut v: Vec<(u64, u64)> = iter.into_iter().filter(|&(_, c)| c > 0).collect();
        v.sort_unstable_by_key(|&(val, _)| val);
        let mut values = Vec::new();
        let mut cum = Vec::new();
        let mut total = 0u64;
        for (val, count) in v {
            total = total
                .checked_add(count)
                .expect("Ecdf::from_counts: total observation count overflows u64");
            if values.last() == Some(&val) {
                *cum.last_mut().expect("non-empty when last matches") = total;
            } else {
                values.push(val);
                cum.push(total);
            }
        }
        Self { values, cum }
    }

    /// Total number of observations.
    pub fn len(&self) -> u64 {
        self.cum.last().copied().unwrap_or(0)
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Number of observations with value ≤ `x`.
    pub fn count_le(&self, x: u64) -> u64 {
        match self.values.partition_point(|&v| v <= x) {
            0 => 0,
            i => self.cum[i - 1],
        }
    }

    /// Fraction of observations with value ≤ `x`, in `[0, 1]`.
    ///
    /// Returns 0 for an empty distribution (a deliberate convention: figures
    /// over empty slices render as all-zero series rather than NaN).
    pub fn fraction_le(&self, x: u64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.count_le(x) as f64 / self.len() as f64
    }

    /// Fraction of observations with value strictly greater than `x`.
    pub fn fraction_gt(&self, x: u64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        1.0 - self.fraction_le(x)
    }

    /// Smallest value `v` such that at least `q` (0 ≤ q ≤ 1) of the mass is
    /// ≤ `v` — i.e. the lower empirical quantile. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.len() as f64).ceil().max(1.0) as u64;
        let idx = self.cum.partition_point(|&c| c < target);
        Some(self.values[idx.min(self.values.len() - 1)])
    }

    /// The median observation.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Largest observed value.
    pub fn max(&self) -> Option<u64> {
        self.values.last().copied()
    }

    /// Smallest observed value.
    pub fn min(&self) -> Option<u64> {
        self.values.first().copied()
    }

    /// Mean of the observations.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let mut sum = 0.0;
        let mut prev = 0u64;
        for (i, &v) in self.values.iter().enumerate() {
            let count = self.cum[i] - prev;
            prev = self.cum[i];
            sum += v as f64 * count as f64;
        }
        Some(sum / self.len() as f64)
    }

    /// Evaluates the CDF at each point of `xs`, producing a plottable series
    /// of `(x, fraction ≤ x)` pairs — the exact form of the paper's figures.
    pub fn series(&self, xs: impl IntoIterator<Item = u64>) -> Vec<(u64, f64)> {
        xs.into_iter().map(|x| (x, self.fraction_le(x))).collect()
    }

    /// The Kolmogorov–Smirnov statistic `sup_x |F_a(x) − F_b(x)|` between two
    /// ECDFs. Used to quantify "most similar" claims, e.g. the paper's
    /// finding that IPv4 addresses behave most like IPv6 /48s in Fig 9 and
    /// like /56s in Fig 10.
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 1.0;
        }
        let mut d: f64 = 0.0;
        for &x in self.values.iter().chain(other.values.iter()) {
            d = d.max((self.fraction_le(x) - other.fraction_le(x)).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::TestGen;

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn from_counts_panics_on_total_overflow() {
        let _ = Ecdf::from_counts([(1, u64::MAX), (2, 1)]);
    }

    #[test]
    fn basic_queries() {
        let e = Ecdf::from_values([1, 1, 2, 3, 9]);
        assert_eq!(e.len(), 5);
        assert_eq!(e.count_le(0), 0);
        assert_eq!(e.count_le(1), 2);
        assert_eq!(e.count_le(2), 3);
        assert_eq!(e.count_le(100), 5);
        assert_eq!(e.median(), Some(2));
        assert_eq!(e.max(), Some(9));
        assert_eq!(e.min(), Some(1));
        assert!((e.mean().unwrap() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn from_counts_matches_from_values() {
        let a = Ecdf::from_values([5, 5, 5, 7, 9, 9]);
        let b = Ecdf::from_counts([(9, 2), (5, 3), (7, 1)]);
        assert_eq!(a, b);
        // Duplicate value keys are merged.
        let c = Ecdf::from_counts([(5, 1), (9, 2), (5, 2), (7, 1)]);
        assert_eq!(a, c);
    }

    #[test]
    fn empty_distribution_is_safe() {
        let e = Ecdf::from_values(std::iter::empty());
        assert!(e.is_empty());
        assert_eq!(e.fraction_le(10), 0.0);
        assert_eq!(e.median(), None);
        assert_eq!(e.mean(), None);
        assert_eq!(e.series(0..3), vec![(0, 0.0), (1, 0.0), (2, 0.0)]);
    }

    #[test]
    fn quantile_edges() {
        let e = Ecdf::from_values([10, 20, 30, 40]);
        assert_eq!(e.quantile(0.0), Some(10));
        assert_eq!(e.quantile(0.25), Some(10));
        assert_eq!(e.quantile(0.26), Some(20));
        assert_eq!(e.quantile(1.0), Some(40));
        // Out-of-range inputs clamp.
        assert_eq!(e.quantile(2.0), Some(40));
        assert_eq!(e.quantile(-1.0), Some(10));
    }

    #[test]
    fn ks_distance_identity_and_symmetry() {
        let a = Ecdf::from_values([1, 2, 3, 4, 5]);
        let b = Ecdf::from_values([3, 4, 5, 6, 7]);
        assert_eq!(a.ks_distance(&a), 0.0);
        assert!((a.ks_distance(&b) - b.ks_distance(&a)).abs() < 1e-12);
        assert!(a.ks_distance(&b) > 0.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut g = TestGen::new(0x4543_4401);
        for _ in 0..64 {
            let len = g.range_u64(1, 199) as usize;
            let vals = g.vec_of(len, |g| g.below(1000));
            let e = Ecdf::from_values(vals);
            let mut prev = 0.0;
            for x in 0..1000 {
                let f = e.fraction_le(x);
                assert!(f >= prev);
                assert!((0.0..=1.0).contains(&f));
                prev = f;
            }
            assert!((e.fraction_le(1000) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn median_is_between_min_and_max() {
        let mut g = TestGen::new(0x4543_4403);
        for _ in 0..256 {
            let len = g.range_u64(1, 99) as usize;
            let vals = g.vec_of(len, |g| g.below(10_000));
            let e = Ecdf::from_values(vals);
            let m = e.median().unwrap();
            assert!(e.min().unwrap() <= m && m <= e.max().unwrap());
            // At least half the mass is ≤ the median.
            assert!(e.fraction_le(m) >= 0.5);
        }
    }
}
