//! A binary radix (Patricia-style) trie keyed by CIDR prefixes.
//!
//! The trie is the lookup engine behind the blocklists of §7.2: given an
//! address, find whether an actioned prefix covering it is still live.
//!
//! The implementation is a plain binary trie with one bit per level and
//! path-free nodes (no edge compression). At the study's scales — at most a
//! few million inserted prefixes, ≤128 levels — this is simple, robust and
//! fast enough, in keeping with the smoltcp design ethos of simplicity over
//! cleverness. Nodes live in a flat `Vec` arena; no unsafe, no pointers.

use crate::prefix::{Ipv4Prefix, Ipv6Prefix};

/// Abstraction over the two prefix families so one trie serves both.
pub trait TrieKey: Copy {
    /// Maximum prefix length for the family (32 or 128).
    const MAX_LEN: u8;
    /// The prefix's bits, left-aligned in a `u128`.
    fn key_bits(&self) -> u128;
    /// The prefix length.
    fn key_len(&self) -> u8;
    /// Rebuilds a prefix from left-aligned bits and a length.
    fn from_key(bits: u128, len: u8) -> Self;
}

impl TrieKey for Ipv6Prefix {
    const MAX_LEN: u8 = 128;
    fn key_bits(&self) -> u128 {
        self.bits()
    }
    fn key_len(&self) -> u8 {
        self.len()
    }
    fn from_key(bits: u128, len: u8) -> Self {
        Ipv6Prefix::from_bits(bits, len)
    }
}

impl TrieKey for Ipv4Prefix {
    const MAX_LEN: u8 = 32;
    fn key_bits(&self) -> u128 {
        // Left-align the 32-bit key in the u128 working width.
        u128::from(self.bits()) << 96
    }
    fn key_len(&self) -> u8 {
        self.len()
    }
    fn from_key(bits: u128, len: u8) -> Self {
        Ipv4Prefix::from_bits((bits >> 96) as u32, len)
    }
}

const NO_NODE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<V> {
    children: [u32; 2],
    value: Option<V>,
}

impl<V> Node<V> {
    fn new() -> Self {
        Self {
            children: [NO_NODE; 2],
            value: None,
        }
    }
}

/// A map from CIDR prefixes to values, queried for the prefixes covering
/// an address.
#[derive(Debug, Clone)]
pub struct PrefixTrie<K: TrieKey, V> {
    nodes: Vec<Node<V>>,
    len: usize,
    _marker: std::marker::PhantomData<K>,
}

impl<K: TrieKey, V> Default for PrefixTrie<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: TrieKey, V> PrefixTrie<K, V> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::new()],
            len: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bit_at(bits: u128, depth: u8) -> usize {
        ((bits >> (127 - depth)) & 1) as usize
    }

    /// Inserts `key` with `value`, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let bits = key.key_bits();
        let len = key.key_len();
        let mut node = 0usize;
        for depth in 0..len {
            let b = Self::bit_at(bits, depth);
            let child = self.nodes[node].children[b];
            node = if child == NO_NODE {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::new());
                self.nodes[node].children[b] = idx;
                idx as usize
            } else {
                child as usize
            };
        }
        let prev = self.nodes[node].value.replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Exact lookup of a stored prefix.
    pub fn get(&self, key: &K) -> Option<&V> {
        let bits = key.key_bits();
        let len = key.key_len();
        let mut node = 0usize;
        for depth in 0..len {
            let b = Self::bit_at(bits, depth);
            let child = self.nodes[node].children[b];
            if child == NO_NODE {
                return None;
            }
            node = child as usize;
        }
        self.nodes[node].value.as_ref()
    }

    /// Mutable exact lookup.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let bits = key.key_bits();
        let len = key.key_len();
        let mut node = 0usize;
        for depth in 0..len {
            let b = Self::bit_at(bits, depth);
            let child = self.nodes[node].children[b];
            if child == NO_NODE {
                return None;
            }
            node = child as usize;
        }
        self.nodes[node].value.as_mut()
    }

    /// Every stored `(prefix, value)` covering `addr_key`, shortest first.
    /// Needed whenever per-entry state (e.g. an expiry) decides whether a
    /// cover *counts*: the most specific entry may be stale while a
    /// broader one is still live.
    pub fn covering(&self, addr_key: &K) -> Vec<(K, &V)> {
        let bits = addr_key.key_bits();
        let len = addr_key.key_len();
        let mut out = Vec::new();
        let mut node = 0usize;
        if let Some(v) = self.nodes[0].value.as_ref() {
            out.push((K::from_key(0, 0), v));
        }
        for depth in 0..len {
            let b = Self::bit_at(bits, depth);
            let child = self.nodes[node].children[b];
            if child == NO_NODE {
                break;
            }
            node = child as usize;
            if let Some(v) = self.nodes[node].value.as_ref() {
                let l = depth + 1;
                let mask = u128::MAX << (128 - l);
                out.push((K::from_key(bits & mask, l), v));
            }
        }
        out
    }

    /// Whether a stored prefix covering `addr_key` holds a value `pred`
    /// accepts: [`Self::covering`]'s question, answered on the walk down
    /// without collecting the covers.
    pub fn any_covering(&self, addr_key: &K, pred: impl Fn(&V) -> bool) -> bool {
        let bits = addr_key.key_bits();
        let mut node = 0usize;
        if self.nodes[0].value.as_ref().is_some_and(&pred) {
            return true;
        }
        for depth in 0..addr_key.key_len() {
            let child = self.nodes[node].children[Self::bit_at(bits, depth)];
            if child == NO_NODE {
                return false;
            }
            node = child as usize;
            if self.nodes[node].value.as_ref().is_some_and(&pred) {
                return true;
            }
        }
        false
    }

    /// Iterates all stored `(prefix, value)` pairs in lexicographic
    /// (bitwise) order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        // Depth-first, left child first => lexicographic order.
        let mut out = Vec::new();
        let mut stack: Vec<(usize, u128, u8)> = vec![(0, 0, 0)];
        while let Some((node, bits, depth)) = stack.pop() {
            if let Some(v) = self.nodes[node].value.as_ref() {
                out.push((K::from_key(bits, depth), v));
            }
            // Push right first so left pops first.
            let right = self.nodes[node].children[1];
            if right != NO_NODE {
                stack.push((right as usize, bits | (1u128 << (127 - depth)), depth + 1));
            }
            let left = self.nodes[node].children[0];
            if left != NO_NODE {
                stack.push((left as usize, bits, depth + 1));
            }
        }
        out.sort_by(|a, b| {
            a.0.key_bits()
                .cmp(&b.0.key_bits())
                .then(a.0.key_len().cmp(&b.0.key_len()))
        });
        out.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::testgen::TestGen;
    use std::net::Ipv6Addr;

    fn p6(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn host(s: &str) -> Ipv6Prefix {
        Ipv6Prefix::host(s.parse::<Ipv6Addr>().unwrap())
    }

    #[test]
    fn insert_and_get() {
        let mut t: PrefixTrie<Ipv6Prefix, u32> = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p6("2001:db8::/32"), 1), None);
        assert_eq!(t.insert(p6("2001:db8::/32"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p6("2001:db8::/32")), Some(&2));
        assert_eq!(t.get(&p6("2001:db8::/48")), None);
    }

    #[test]
    fn covering_lists_every_cover_shortest_first() {
        let mut t: PrefixTrie<Ipv6Prefix, u8> = PrefixTrie::new();
        t.insert(p6("::/0"), 0);
        t.insert(p6("2001:db8::/32"), 1);
        t.insert(p6("2001:db8:1:2::/64"), 2);
        t.insert(p6("2001:db9::/32"), 3); // off-path
        let covers = t.covering(&host("2001:db8:1:2::9"));
        let got: Vec<(String, u8)> = covers.iter().map(|(k, &v)| (k.to_string(), v)).collect();
        assert_eq!(
            got,
            vec![
                ("::/0".to_string(), 0),
                ("2001:db8::/32".to_string(), 1),
                ("2001:db8:1:2::/64".to_string(), 2)
            ]
        );
        assert!(
            t.covering(&host("3000::1")).len() == 1,
            "only the root covers"
        );
    }

    #[test]
    fn v4_trie_works() {
        let mut t: PrefixTrie<Ipv4Prefix, i32> = PrefixTrie::new();
        t.insert("10.0.0.0/8".parse().unwrap(), 8);
        t.insert("10.1.0.0/16".parse().unwrap(), 16);
        let addr: Ipv4Prefix = "10.1.2.3/32".parse().unwrap();
        let covers: Vec<(String, i32)> = t
            .covering(&addr)
            .iter()
            .map(|(k, &v)| (k.to_string(), v))
            .collect();
        assert_eq!(
            covers,
            [
                ("10.0.0.0/8".to_string(), 8),
                ("10.1.0.0/16".to_string(), 16)
            ]
        );
        assert!(t.any_covering(&addr, |&v| v == 16));
        assert!(!t.any_covering(&"11.0.0.1/32".parse().unwrap(), |_| true));
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let mut t: PrefixTrie<Ipv6Prefix, u8> = PrefixTrie::new();
        let keys = [
            "2001:db8::/32",
            "2001:db8::/48",
            "::/0",
            "ff00::/8",
            "2001:db8:0:1::/64",
        ];
        for (i, k) in keys.iter().enumerate() {
            t.insert(p6(k), i as u8);
        }
        let collected: Vec<Ipv6Prefix> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(collected.len(), keys.len());
        let mut sorted = collected.clone();
        sorted.sort_by(|a, b| a.bits().cmp(&b.bits()).then(a.len().cmp(&b.len())));
        assert_eq!(collected, sorted);
    }

    /// `any_covering` answers what filtering `covering` answers, on
    /// nested prefixes (the root included) under value predicates.
    #[test]
    fn any_covering_matches_covering_filter() {
        let mut g = TestGen::new(0x5452_4904);
        for _ in 0..128 {
            let mut t: PrefixTrie<Ipv6Prefix, u8> = PrefixTrie::new();
            let base = g.next_u128();
            for _ in 0..g.range_u64(0, 40) {
                // One shared base nests the prefixes along few paths.
                let bits = base ^ (g.next_u128() >> g.range_u8(0, 127));
                t.insert(
                    Ipv6Prefix::from_bits(bits, g.range_u8(0, 128)),
                    g.range_u8(0, 9),
                );
            }
            for _ in 0..40 {
                let addr = Ipv6Addr::from(base ^ (g.next_u128() >> g.range_u8(0, 127)));
                let key = Ipv6Prefix::host(addr);
                let floor = g.range_u8(0, 10);
                let naive = t.covering(&key).iter().any(|(_, &v)| v >= floor);
                assert_eq!(t.any_covering(&key, |&v| v >= floor), naive);
            }
        }
    }

    /// Everything inserted is found exactly, and iteration yields each
    /// distinct prefix once.
    #[test]
    fn insert_then_get_all() {
        let mut g = TestGen::new(0x5452_4902);
        for _ in 0..128 {
            let n = g.range_u64(1, 59) as usize;
            let mut t: PrefixTrie<Ipv6Prefix, u8> = PrefixTrie::new();
            let mut distinct = std::collections::HashSet::new();
            for _ in 0..n {
                let p = Ipv6Prefix::from_bits(g.next_u128(), g.range_u8(0, 128));
                t.insert(p, 0);
                distinct.insert(p);
            }
            assert_eq!(t.len(), distinct.len());
            for p in &distinct {
                assert!(t.get(p).is_some());
            }
            assert_eq!(t.iter().count(), distinct.len());
        }
    }
}
