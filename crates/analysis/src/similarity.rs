//! "Most similar prefix length" comparisons.
//!
//! Several of the paper's recommendations hinge on nearest-behavior claims:
//! IPv4 addresses look most like IPv6 **/48s** in overall user population
//! (Figure 9, feeding the rate-limiting advice of §7.2), like **/64s** in
//! user life span (Figure 6a), and like **/56s** in abusive-account
//! population (Figure 10, feeding the blocklist-translation advice). This
//! module makes those claims computable: given a reference distribution and
//! a family of per-length distributions, find the length minimizing the
//! Kolmogorov–Smirnov distance.

use ipv6_study_stats::Ecdf;

/// The per-length KS distances to a reference distribution, with the
/// arg-min.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityResult {
    /// `(prefix length, KS distance)` for every candidate.
    pub distances: Vec<(u8, f64)>,
    /// The most similar length.
    pub best_len: u8,
    /// Its distance.
    pub best_distance: f64,
}

/// Finds the candidate ECDF most similar to `reference`.
///
/// # Panics
/// Panics when `candidates` is empty.
pub fn most_similar(reference: &Ecdf, candidates: &[(u8, Ecdf)]) -> SimilarityResult {
    assert!(!candidates.is_empty(), "need at least one candidate");
    let distances: Vec<(u8, f64)> = candidates
        .iter()
        .map(|(len, e)| (*len, reference.ks_distance(e)))
        .collect();
    let (best_len, best_distance) = distances
        .iter()
        .copied()
        .min_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite distances")
                .then(a.0.cmp(&b.0))
        })
        .expect("non-empty");
    SimilarityResult {
        distances,
        best_len,
        best_distance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_closest_distribution() {
        let reference = Ecdf::from_values([1u64, 1, 2, 2, 3, 5, 8]);
        let near = Ecdf::from_values([1u64, 1, 2, 3, 3, 5, 9]);
        let far = Ecdf::from_values([50u64, 60, 70, 80, 90, 100, 110]);
        let r = most_similar(&reference, &[(48, near), (64, far)]);
        assert_eq!(r.best_len, 48);
        assert!(r.best_distance < 0.3);
        assert_eq!(r.distances.len(), 2);
        assert!(r.distances.iter().any(|&(l, d)| l == 64 && d > 0.9));
    }

    #[test]
    fn identical_distribution_wins_with_zero() {
        let reference = Ecdf::from_values([1u64, 2, 3]);
        let same = Ecdf::from_values([1u64, 2, 3]);
        let r = most_similar(&reference, &[(56, same)]);
        assert_eq!(r.best_len, 56);
        assert_eq!(r.best_distance, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panic() {
        most_similar(&Ecdf::from_values([1u64]), &[]);
    }
}
