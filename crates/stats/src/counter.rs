//! Counting utilities: counts-of-counts and heavy-hitter tracking.
//!
//! The study's tables repeatedly ask two kinds of question:
//!
//! 1. *"How many users had exactly / more than k addresses?"* — a
//!    **count-of-counts** over some per-entity tally ([`CountOfCounts`]).
//! 2. *"Which ASNs host the most heavily-populated addresses?"* — a
//!    **top-k** ranking over a keyed tally ([`TopK`]).

use std::collections::HashMap;
use std::hash::Hash;

use crate::ecdf::Ecdf;

/// Accumulates a per-key tally and answers distributional questions about it.
///
/// Typical use: key = user id, increment once per distinct address observed;
/// then ask for the ECDF of addresses-per-user (Figure 2) or the number of
/// outlier users above a threshold (§5.1.3).
#[derive(Debug, Clone, Default)]
pub struct CountOfCounts<K: Eq + Hash> {
    counts: HashMap<K, u64>,
}

impl<K: Eq + Hash> CountOfCounts<K> {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self {
            counts: HashMap::new(),
        }
    }

    /// Adds `n` to the tally for `key`.
    pub fn add(&mut self, key: K, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    /// Increments the tally for `key` by one.
    pub fn incr(&mut self, key: K) {
        self.add(key, 1);
    }

    /// Sets the tally for `key` to the maximum of its current value and `n`.
    pub fn max_with(&mut self, key: K, n: u64) {
        let e = self.counts.entry(key).or_insert(0);
        *e = (*e).max(n);
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.counts.len()
    }

    /// The tally for `key`, or 0 when absent.
    pub fn get(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Total across all keys.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of keys whose tally exceeds `threshold`.
    pub fn keys_above(&self, threshold: u64) -> usize {
        self.counts.values().filter(|&&c| c > threshold).count()
    }

    /// The largest tally, or 0 when empty.
    pub fn max_count(&self) -> u64 {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Builds the ECDF of the per-key tallies (the distribution plotted in
    /// the paper's figures).
    pub fn ecdf(&self) -> Ecdf {
        Ecdf::from_values(self.counts.values().copied())
    }

    /// The `n` keys with the largest tallies, descending. Ties break on the
    /// key order when `K: Ord`, making output deterministic.
    pub fn top_n(&self, n: usize) -> Vec<(&K, u64)>
    where
        K: Ord,
    {
        let mut v: Vec<(&K, u64)> = self.counts.iter().map(|(k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(n);
        v
    }

    /// Iterates over `(key, tally)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &c)| (k, c))
    }
}

impl<K: Eq + Hash> FromIterator<K> for CountOfCounts<K> {
    fn from_iter<T: IntoIterator<Item = K>>(iter: T) -> Self {
        let mut c = Self::new();
        for k in iter {
            c.incr(k);
        }
        c
    }
}

/// Exact top-k tracking over a keyed tally, with deterministic ordering.
///
/// `TopK` keeps *all* keys (our simulations are bounded, so exactness is
/// affordable) and answers ranked queries; it exists as a named type so call
/// sites read as what they are — "the top ASNs by IPv6 ratio" — and so the
/// ranking policy (count desc, then key asc) lives in one place.
#[derive(Debug, Clone, Default)]
pub struct TopK<K: Eq + Hash + Ord + Clone> {
    counts: CountOfCounts<K>,
}

impl<K: Eq + Hash + Ord + Clone> TopK<K> {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self {
            counts: CountOfCounts::new(),
        }
    }

    /// Adds `n` to `key`'s tally.
    pub fn add(&mut self, key: K, n: u64) {
        self.counts.add(key, n);
    }

    /// Returns the top `n` `(key, count)` pairs, count-descending.
    pub fn ranked(&self, n: usize) -> Vec<(K, u64)> {
        self.counts
            .top_n(n)
            .into_iter()
            .map(|(k, c)| (k.clone(), c))
            .collect()
    }

    /// Fraction of the total tally captured by the top `n` keys — used for
    /// concentration statements like "the top 4 ASNs account for 61% of
    /// heavily-populated prefixes" (§6.2.3).
    pub fn concentration(&self, n: usize) -> f64 {
        let total = self.counts.total();
        if total == 0 {
            return 0.0;
        }
        let top: u64 = self.counts.top_n(n).iter().map(|&(_, c)| c).sum();
        top as f64 / total as f64
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.counts.num_keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_of_counts_basics() {
        let mut c = CountOfCounts::new();
        c.incr("a");
        c.incr("a");
        c.add("b", 5);
        assert_eq!(c.get(&"a"), 2);
        assert_eq!(c.get(&"b"), 5);
        assert_eq!(c.get(&"missing"), 0);
        assert_eq!(c.num_keys(), 2);
        assert_eq!(c.total(), 7);
        assert_eq!(c.keys_above(2), 1);
        assert_eq!(c.keys_above(0), 2);
        assert_eq!(c.max_count(), 5);
    }

    #[test]
    fn max_with_keeps_maximum() {
        let mut c = CountOfCounts::new();
        c.max_with("x", 3);
        c.max_with("x", 1);
        c.max_with("x", 7);
        assert_eq!(c.get(&"x"), 7);
    }

    #[test]
    fn top_n_is_deterministic_under_ties() {
        let mut c = CountOfCounts::new();
        c.add("b", 2);
        c.add("a", 2);
        c.add("z", 9);
        assert_eq!(c.top_n(3), vec![(&"z", 9), (&"a", 2), (&"b", 2)]);
        assert_eq!(c.top_n(1), vec![(&"z", 9)]);
    }

    #[test]
    fn ecdf_of_tallies() {
        let c: CountOfCounts<u32> = [1, 1, 1, 2, 3].into_iter().collect();
        // tallies: key1=3, key2=1, key3=1
        let e = c.ecdf();
        assert_eq!(e.len(), 3);
        assert_eq!(e.max(), Some(3));
        assert_eq!(e.count_le(1), 2);
    }

    #[test]
    fn topk_concentration() {
        let mut t = TopK::new();
        t.add(20057u32, 96);
        t.add(13335, 2);
        t.add(16276, 1);
        t.add(14061, 1);
        assert_eq!(t.ranked(1), vec![(20057, 96)]);
        assert!((t.concentration(1) - 0.96).abs() < 1e-12);
        assert!((t.concentration(4) - 1.0).abs() < 1e-12);
        assert_eq!(t.num_keys(), 4);
    }

    #[test]
    fn empty_trackers() {
        let c: CountOfCounts<u8> = CountOfCounts::new();
        assert_eq!(c.total(), 0);
        assert_eq!(c.max_count(), 0);
        assert!(c.ecdf().is_empty());
        let t: TopK<u8> = TopK::new();
        assert_eq!(t.concentration(5), 0.0);
        assert!(t.ranked(3).is_empty());
    }
}
