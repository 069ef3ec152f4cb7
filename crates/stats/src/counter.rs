//! Heavy-hitter tracking: *"which ASNs host the most heavily-populated
//! addresses?"* — a **top-k** ranking over a keyed tally ([`TopK`]).

use std::collections::HashMap;
use std::hash::Hash;

/// Exact top-k tracking over a keyed tally, with deterministic ordering.
///
/// `TopK` keeps *all* keys (our simulations are bounded, so exactness is
/// affordable) and answers ranked queries; it exists as a named type so call
/// sites read as what they are — "the top ASNs by IPv6 ratio" — and so the
/// ranking policy (count desc, then key asc) lives in one place.
#[derive(Debug, Clone, Default)]
pub struct TopK<K: Eq + Hash + Ord + Clone> {
    counts: HashMap<K, u64>,
}

impl<K: Eq + Hash + Ord + Clone> TopK<K> {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self {
            counts: HashMap::new(),
        }
    }

    /// Adds `n` to `key`'s tally.
    pub fn add(&mut self, key: K, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    /// Returns the top `n` `(key, count)` pairs, count-descending; ties
    /// break on the key, ascending, so the output is deterministic.
    pub fn ranked(&self, n: usize) -> Vec<(K, u64)> {
        let mut v: Vec<(&K, u64)> = self.counts.iter().map(|(k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(n);
        v.into_iter().map(|(k, c)| (k.clone(), c)).collect()
    }

    /// Fraction of the total tally captured by the top `n` keys — used for
    /// concentration statements like "the top 4 ASNs account for 61% of
    /// heavily-populated prefixes" (§6.2.3).
    pub fn concentration(&self, n: usize) -> f64 {
        let total: u64 = self.counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        let top: u64 = self.ranked(n).iter().map(|&(_, c)| c).sum();
        top as f64 / total as f64
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn topk_is_deterministic_under_ties() {
        let mut t = TopK::new();
        t.add("b", 2);
        t.add("a", 2);
        t.add("z", 9);
        assert_eq!(t.ranked(3), vec![("z", 9), ("a", 2), ("b", 2)]);
        assert_eq!(t.ranked(1), vec![("z", 9)]);
    }

    #[test]
    fn empty_trackers() {
        let t: TopK<u8> = TopK::new();
        assert_eq!(t.concentration(5), 0.0);
        assert!(t.ranked(3).is_empty());
    }
}
