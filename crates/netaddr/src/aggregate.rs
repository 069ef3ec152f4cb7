//! Prefix aggregation: [`AggregationTrie`], a path-compressed binary trie
//! over a day's distinct `(user, address)` pairs that carries exact
//! distinct-user abusive/benign counts on *every* node, so that the
//! per-granularity tallies of the Figure-11 ROC sweep — and arbitrary
//! variable-length cuts — read off one shared structure instead of
//! re-sorting the record set per prefix length. See DESIGN.md §11.

use crate::entropy::EntropyProfile;

const NO_PARENT: u32 = u32::MAX;

/// Prefix mask for a left-aligned key of `len` network bits.
#[inline]
fn key_mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len)
    }
}

/// One node of an [`AggregationTrie`].
///
/// Path compression means a node stands for the whole run of single-child
/// trie levels between its parent's branching depth and its own: the node's
/// distinct-user counts are the counts of *every* cut length `l` with
/// `parent_depth < l <= depth` (the compression invariant — no user set
/// changes along an unbranched path).
#[derive(Debug, Clone)]
pub struct AggNode {
    /// Left-aligned key bits, masked to `depth` bits.
    pub bits: u128,
    /// Prefix length of this node (`MAX_LEN` for leaves).
    pub depth: u8,
    /// Prefix length of the parent node (0 for the root).
    pub parent_depth: u8,
    /// Distinct abusive users with at least one address in this subtree.
    pub abusive: u64,
    /// Distinct benign users with at least one address in this subtree.
    pub benign: u64,
    parent: u32,
    subtree_end: u32,
}

/// A variable-length cut unit produced by
/// [`AggregationTrie::entropy_cuts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggCut {
    /// Left-aligned key bits, masked to `len` bits.
    pub bits: u128,
    /// The entropy-chosen cut length of this unit.
    pub len: u8,
    /// Distinct abusive users under the cut prefix.
    pub abusive: u64,
    /// Distinct benign users under the cut prefix.
    pub benign: u64,
}

/// A path-compressed binary trie over one day's distinct `(user, address)`
/// pairs, with exact distinct-user abusive/benign counts on every node.
///
/// Built once in `O(pairs log pairs)` (one sort), the trie answers the
/// per-prefix-length tallies of every granularity in `O(nodes)` each —
/// replacing the per-granularity sort-and-dedup of the naive tally. The
/// counts are *distinct users*, not requests: a user appearing under a
/// prefix through ten addresses counts once.
///
/// The construction is deterministic: node order, counts and cut choices
/// depend only on the input pair set, never on thread count or hash-map
/// iteration order.
#[derive(Debug, Clone, Default)]
pub struct AggregationTrie {
    max_len: u8,
    nodes: Vec<AggNode>,
}

impl AggregationTrie {
    /// Builds the trie from `(bits, user, is_abusive)` pairs that are
    /// strictly sorted by `(user, bits)` with duplicates removed. Address
    /// bits must be left-aligned (IPv4 callers shift by 96) and carry no
    /// payload beyond `max_len` bits.
    ///
    /// Counting works by inclusion–exclusion on the sorted pair stream:
    /// each pair deposits `+1` at its leaf, and each *consecutive* pair of
    /// the same user deposits `-1` at the two addresses' lowest common
    /// ancestor (the branching node at their common-prefix depth, which
    /// the construction always materializes). A bottom-up subtree sum then
    /// leaves every node with exactly its distinct-user count: inside any
    /// subtree, a user with `k` addresses contributes `k` leaves and
    /// `k - 1` ancestors-of-consecutive-pairs, netting one.
    pub fn from_sorted_pairs(max_len: u8, pairs: &[(u128, u32, bool)]) -> Self {
        assert!(
            (1..=128).contains(&max_len),
            "max_len {max_len} out of range"
        );
        debug_assert!(
            pairs
                .windows(2)
                .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
            "pairs must be strictly sorted by (user, bits)"
        );
        debug_assert!(
            pairs.iter().all(|p| p.0 & !key_mask(max_len) == 0),
            "address bits beyond max_len"
        );

        // Distinct leaves, in address order.
        let mut leaves: Vec<u128> = pairs.iter().map(|p| p.0).collect();
        leaves.sort_unstable();
        leaves.dedup();
        if leaves.is_empty() {
            return Self {
                max_len,
                nodes: Vec::new(),
            };
        }

        // Single left-to-right pass over the sorted leaves with a stack of
        // the open rightmost path (strictly increasing depths). Each new
        // leaf closes every open node deeper than its common-prefix depth
        // with its predecessor, linking the closed chain to the branching
        // node at that depth (created on demand).
        let lcp = |a: u128, b: u128| -> u8 { (a ^ b).leading_zeros() as u8 };
        let mut nodes: Vec<AggNode> = Vec::with_capacity(2 * leaves.len());
        let push_node = |nodes: &mut Vec<AggNode>, bits: u128, depth: u8| -> u32 {
            nodes.push(AggNode {
                bits,
                depth,
                parent_depth: 0,
                abusive: 0,
                benign: 0,
                parent: NO_PARENT,
                subtree_end: 0,
            });
            (nodes.len() - 1) as u32
        };
        let mut stack: Vec<u32> = Vec::new();
        stack.push(push_node(&mut nodes, leaves[0], max_len));
        for i in 1..leaves.len() {
            let d = lcp(leaves[i - 1], leaves[i]);
            debug_assert!(d < max_len, "duplicate leaves survived dedup");
            let mut child = NO_PARENT;
            while let Some(&top) = stack.last() {
                if nodes[top as usize].depth <= d {
                    break;
                }
                stack.pop();
                if child != NO_PARENT {
                    nodes[child as usize].parent = top;
                }
                child = top;
            }
            debug_assert_ne!(child, NO_PARENT, "previous leaf is always deeper");
            let attach = match stack.last() {
                Some(&top) if nodes[top as usize].depth == d => top,
                _ => {
                    let n = push_node(&mut nodes, leaves[i] & key_mask(d), d);
                    stack.push(n);
                    n
                }
            };
            nodes[child as usize].parent = attach;
            stack.push(push_node(&mut nodes, leaves[i], max_len));
        }
        let mut child = NO_PARENT;
        while let Some(top) = stack.pop() {
            if child != NO_PARENT {
                nodes[child as usize].parent = top;
            }
            child = top;
        }

        // Preorder layout: sorting by (bits, depth) puts every parent
        // before its children and keeps each subtree contiguous, which is
        // what makes the per-length read-off emit units in key order.
        let mut order: Vec<u32> = (0..nodes.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let n = &nodes[i as usize];
            (n.bits, n.depth)
        });
        let mut rank = vec![0u32; nodes.len()];
        for (new_i, &old_i) in order.iter().enumerate() {
            rank[old_i as usize] = new_i as u32;
        }
        let mut sorted: Vec<AggNode> = order
            .iter()
            .map(|&old_i| {
                let mut n = nodes[old_i as usize].clone();
                if n.parent != NO_PARENT {
                    n.parent = rank[n.parent as usize];
                }
                n
            })
            .collect();
        for i in 0..sorted.len() {
            sorted[i].parent_depth = if sorted[i].parent == NO_PARENT {
                0
            } else {
                debug_assert!((sorted[i].parent as usize) < i, "preorder parent link");
                sorted[sorted[i].parent as usize].depth
            };
        }

        // Deposit the inclusion–exclusion deltas, then sum bottom-up.
        // Intermediate values can go negative at branching nodes (they
        // hold only `-1`s before their subtrees are added), so accumulate
        // in i64.
        let find = |sorted: &[AggNode], bits: u128, depth: u8| -> usize {
            sorted
                .binary_search_by(|n| (n.bits, n.depth).cmp(&(bits, depth)))
                .expect("delta target node exists by construction")
        };
        let mut abusive = vec![0i64; sorted.len()];
        let mut benign = vec![0i64; sorted.len()];
        let mut prev: Option<(u32, u128)> = None;
        for &(bits, user, is_abusive) in pairs {
            let counts = if is_abusive {
                &mut abusive
            } else {
                &mut benign
            };
            counts[find(&sorted, bits, max_len)] += 1;
            if let Some((prev_user, prev_bits)) = prev {
                if prev_user == user {
                    let d = lcp(prev_bits, bits);
                    counts[find(&sorted, bits & key_mask(d), d)] -= 1;
                }
            }
            prev = Some((user, bits));
        }
        for (i, node) in sorted.iter_mut().enumerate() {
            node.subtree_end = i as u32;
        }
        for i in (1..sorted.len()).rev() {
            let p = sorted[i].parent as usize;
            abusive[p] += abusive[i];
            benign[p] += benign[i];
            sorted[p].subtree_end = sorted[p].subtree_end.max(sorted[i].subtree_end);
        }
        for (i, node) in sorted.iter_mut().enumerate() {
            debug_assert!(abusive[i] >= 0 && benign[i] >= 0, "negative subtree sum");
            node.abusive = abusive[i] as u64;
            node.benign = benign[i] as u64;
        }
        Self {
            max_len,
            nodes: sorted,
        }
    }

    /// Builds from unsorted `(bits, user)` pairs and a per-user label
    /// function (convenience for tests and one-off callers; hot paths
    /// pre-sort dense ids and use [`Self::from_sorted_pairs`]).
    pub fn from_pairs(
        max_len: u8,
        pairs: &[(u128, u32)],
        is_abusive: impl Fn(u32) -> bool,
    ) -> Self {
        let mut sorted: Vec<(u32, u128)> = pairs.iter().map(|&(b, u)| (u, b)).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let labeled: Vec<(u128, u32, bool)> = sorted
            .into_iter()
            .map(|(u, b)| (b, u, is_abusive(u)))
            .collect();
        Self::from_sorted_pairs(max_len, &labeled)
    }

    /// The family's maximum prefix length (32 or 128).
    pub fn max_len(&self) -> u8 {
        self.max_len
    }

    /// Number of trie nodes (leaves plus branching nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// True when the trie holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The preorder node array (sorted by `(bits, depth)`).
    pub fn nodes(&self) -> &[AggNode] {
        &self.nodes
    }

    /// Whether `node` represents the cut at `len`: by the compression
    /// invariant a node owns every length in `(parent_depth, depth]`.
    #[inline]
    fn owns_cut(node: &AggNode, len: u8) -> bool {
        node.parent_depth < len && len <= node.depth
    }

    /// The distinct-user units at cut length `len`, as
    /// `(masked_bits, abusive, benign)` in ascending key order. `len`
    /// clamps to the family's maximum; `len == 0` yields the single
    /// whole-space unit. Each call is one `O(nodes)` scan.
    pub fn units_at(&self, len: u8) -> impl Iterator<Item = (u128, u64, u64)> + '_ {
        let len = len.min(self.max_len);
        let root = if len == 0 && !self.nodes.is_empty() {
            Some((0u128, self.nodes[0].abusive, self.nodes[0].benign))
        } else {
            None
        };
        let mask = key_mask(len);
        // `owns_cut(_, 0)` is never true, so the root special case above
        // is the only len == 0 emitter.
        let rest = self
            .nodes
            .iter()
            .filter(move |n| Self::owns_cut(n, len))
            .map(move |n| (n.bits & mask, n.abusive, n.benign));
        root.into_iter().chain(rest)
    }

    /// Number of units at cut length `len` (the count [`Self::units_at`]
    /// would yield).
    pub fn unit_count(&self, len: u8) -> usize {
        let len = len.min(self.max_len);
        if len == 0 {
            return usize::from(!self.nodes.is_empty());
        }
        self.nodes.iter().filter(|n| Self::owns_cut(n, len)).count()
    }

    /// Distinct-user `(abusive, benign)` counts under the prefix
    /// `(bits, len)`, or `None` when no address of the day falls inside
    /// it. Logarithmic: a binary search for the first node at or after
    /// `bits`, then a short walk up the open path.
    pub fn counts_under(&self, bits: u128, len: u8) -> Option<(u64, u64)> {
        let len = len.min(self.max_len);
        if self.nodes.is_empty() {
            return None;
        }
        if len == 0 {
            return Some((self.nodes[0].abusive, self.nodes[0].benign));
        }
        let bits = bits & key_mask(len);
        // The owning node, if present, is the first node in preorder whose
        // (bits, depth) >= (bits, len) and which still covers `bits`.
        let idx = self
            .nodes
            .partition_point(|n| (n.bits, n.depth) < (bits, len));
        let n = self.nodes.get(idx)?;
        (n.bits & key_mask(len) == bits && Self::owns_cut(n, len)).then_some((n.abusive, n.benign))
    }

    /// Entropy-guided variable-length cuts, in the spirit of entropy
    /// clustering of announced IPv6 space: within every base unit at
    /// `base_len`, the cut deepens by one nybble (4 bits) for each leading
    /// nybble of the per-subtree [`EntropyProfile`] whose entropy is at or
    /// below `threshold` bits, up to `base_len + 64` (and the family
    /// maximum). Structured subnets (low nybble entropy) thus aggregate
    /// deep; randomized space stays at the base cut. Units come back in
    /// ascending key order.
    pub fn entropy_cuts(&self, base_len: u8, threshold: f64) -> Vec<AggCut> {
        assert!(
            base_len >= 1 && base_len <= self.max_len,
            "base_len {base_len} out of range"
        );
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < self.nodes.len() {
            if !Self::owns_cut(&self.nodes[i], base_len) {
                i += 1;
                continue;
            }
            // One base unit: its subtree is the contiguous preorder run.
            let end = self.nodes[i].subtree_end as usize;
            let profile = EntropyProfile::compute(
                self.nodes[i..=end]
                    .iter()
                    .filter(|n| n.depth == self.max_len)
                    .map(|n| ((n.bits << base_len) >> 64) as u64),
            );
            let mut cut = base_len;
            if let Some(p) = &profile {
                for &nybble_bits in p.bits.iter() {
                    if cut >= self.max_len || cut >= base_len.saturating_add(64) {
                        break;
                    }
                    if nybble_bits > threshold {
                        break;
                    }
                    cut += 4;
                }
            }
            let cut = cut.min(self.max_len);
            let mask = key_mask(cut);
            out.extend(
                self.nodes[i..=end]
                    .iter()
                    .filter(|n| Self::owns_cut(n, cut))
                    .map(|n| AggCut {
                        bits: n.bits & mask,
                        len: cut,
                        abusive: n.abusive,
                        benign: n.benign,
                    }),
            );
            i = end + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::testgen::TestGen;

    /// Naive reference tally: mask, dedup `(user, unit)`, count per unit
    /// by label — the sort-and-dedup the trie replaces.
    fn naive_units(
        pairs: &[(u128, u32)],
        is_abusive: impl Fn(u32) -> bool,
        len: u8,
    ) -> Vec<(u128, u64, u64)> {
        let mask = if len == 0 {
            0
        } else {
            u128::MAX << (128 - len)
        };
        let mut units: Vec<(u128, u32)> = pairs.iter().map(|&(b, u)| (b & mask, u)).collect();
        units.sort_unstable();
        units.dedup();
        let mut out: Vec<(u128, u64, u64)> = Vec::new();
        for (key, user) in units {
            match out.last_mut() {
                Some(last) if last.0 == key => {
                    if is_abusive(user) {
                        last.1 += 1;
                    } else {
                        last.2 += 1;
                    }
                }
                _ => {
                    let ab = u64::from(is_abusive(user));
                    out.push((key, ab, 1 - ab));
                }
            }
        }
        out
    }

    /// Random population of users with clustered addresses, exercising
    /// shared prefixes, multi-address users and duplicate pairs.
    fn random_population(g: &mut TestGen) -> Vec<(u128, u32)> {
        let users = g.range_u64(1, 30) as u32;
        let n = g.range_u64(1, 200) as usize;
        g.vec_of(n, |g| {
            let user = g.range_u64(0, u64::from(users)) as u32;
            // Cluster addresses: a shared /48, a per-user /64, random IID.
            let site = u128::from(g.range_u64(0, 4)) << 80;
            let subnet = u128::from(user) << 64;
            let iid = u128::from(g.next_u64() >> g.range_u8(0, 63));
            (site | subnet | iid, user)
        })
    }

    #[test]
    fn trie_counts_a_tiny_population_exactly() {
        let abusive = |u: u32| u == 1;
        // User 0 (benign): two addresses in one /64. User 1 (abusive):
        // one of those plus a distant /64.
        let a = 0x2001_0db8_0000_0001u128 << 64 | 0x1;
        let b = 0x2001_0db8_0000_0001u128 << 64 | 0x2;
        let c = 0x2001_0db8_0000_0002u128 << 64 | 0x1;
        let t = AggregationTrie::from_pairs(128, &[(a, 0), (b, 0), (b, 1), (c, 1)], abusive);
        let at = |len| t.units_at(len).collect::<Vec<_>>();
        assert_eq!(at(128), vec![(a, 0, 1), (b, 1, 1), (c, 1, 0)]);
        // At /64 user 0 dedups to one unit; user 1 spans both units.
        assert_eq!(
            at(64),
            vec![(a & (u128::MAX << 64), 1, 1), (c & (u128::MAX << 64), 1, 0)]
        );
        assert_eq!(at(48), vec![(a & (u128::MAX << 80), 1, 1)]);
        assert_eq!(at(0), vec![(0, 1, 1)]);
        assert_eq!(t.counts_under(a, 64), Some((1, 1)));
        assert_eq!(t.counts_under(1u128 << 127, 1), None);
    }

    /// The tentpole property: per-length trie read-off equals the naive
    /// sort-and-dedup tally, for every studied length plus the clamps.
    #[test]
    fn trie_units_match_naive_tally_on_random_populations() {
        let mut g = TestGen::new(0x4147_5401);
        for _ in 0..48 {
            let pairs = random_population(&mut g);
            let abusive = |u: u32| u.is_multiple_of(3);
            let t = AggregationTrie::from_pairs(128, &pairs, abusive);
            let distinct: std::collections::HashSet<u128> = pairs.iter().map(|p| p.0).collect();
            assert!(
                t.node_count() < 2 * distinct.len().max(1),
                "compression bound violated"
            );
            for len in [0u8, 1, 32, 47, 48, 56, 63, 64, 65, 127, 128, 200] {
                let got: Vec<_> = t.units_at(len).collect();
                assert_eq!(got.len(), t.unit_count(len));
                assert_eq!(got, naive_units(&pairs, abusive, len.min(128)), "len {len}");
                for &(key, ab, be) in &got {
                    assert_eq!(t.counts_under(key, len), Some((ab, be)), "len {len}");
                }
            }
        }
    }

    /// Entropy cuts partition each base unit: disjoint prefixes covering
    /// every leaf, each with exact distinct-user counts.
    #[test]
    fn entropy_cuts_partition_the_space_with_exact_counts() {
        let mut g = TestGen::new(0x4147_5402);
        for _ in 0..32 {
            let pairs = random_population(&mut g);
            let abusive = |u: u32| u.is_multiple_of(2);
            let t = AggregationTrie::from_pairs(128, &pairs, abusive);
            let cuts = t.entropy_cuts(32, 2.0);
            // Sorted, disjoint, counts agree with direct lookups.
            for w in cuts.windows(2) {
                assert!(w[0].bits < w[1].bits || w[0].len != w[1].len);
            }
            for c in &cuts {
                assert!(c.len >= 32 && c.len <= 128);
                assert_eq!(t.counts_under(c.bits, c.len), Some((c.abusive, c.benign)));
            }
            // Every leaf is covered by exactly one cut.
            for &(addr, _) in &pairs {
                let covering = cuts
                    .iter()
                    .filter(|c| {
                        let mask = u128::MAX << (128 - c.len);
                        addr & mask == c.bits
                    })
                    .count();
                assert_eq!(covering, 1, "leaf covered by {covering} cuts");
            }
        }
    }

    /// Structured space (low nybble entropy past the base) aggregates
    /// deeper than randomized space.
    #[test]
    fn entropy_cuts_deepen_on_structured_space() {
        // One /32 with everything in a single /64 (fully structured
        // beyond the base): cut deepens past the base.
        let structured: Vec<(u128, u32)> = (0..64u128)
            .map(|i| ((0x2001_0db8u128 << 96) | i, i as u32))
            .collect();
        let t = AggregationTrie::from_pairs(128, &structured, |_| false);
        let cuts = t.entropy_cuts(32, 2.0);
        assert!(cuts.iter().all(|c| c.len > 32), "structured stays shallow");

        // Randomized high nybbles right after the base keep the base cut.
        let mut g = TestGen::new(0x4147_5403);
        let randomized: Vec<(u128, u32)> = (0..256u32)
            .map(|i| {
                (
                    (0x2001_0db8u128 << 96) | (u128::from(g.next_u64()) << 32),
                    i,
                )
            })
            .collect();
        let t = AggregationTrie::from_pairs(128, &randomized, |_| false);
        let cuts = t.entropy_cuts(32, 2.0);
        assert_eq!(cuts.len(), 1, "randomized space collapses to the base");
        assert_eq!(cuts[0].len, 32);
    }

    #[test]
    fn empty_and_v4_tries() {
        let t = AggregationTrie::from_pairs(128, &[], |_| false);
        assert!(t.is_empty());
        assert_eq!(t.units_at(64).count(), 0);
        assert_eq!(t.counts_under(0, 0), None);

        // IPv4 uses left-aligned 32-bit keys.
        let pairs: Vec<(u128, u32)> = vec![
            (u128::from(0x0a00_0001u32) << 96, 0),
            (u128::from(0x0a00_0002u32) << 96, 1),
        ];
        let t = AggregationTrie::from_pairs(32, &pairs, |u| u == 1);
        assert_eq!(
            t.units_at(32).collect::<Vec<_>>(),
            vec![
                (u128::from(0x0a00_0001u32) << 96, 0, 1),
                (u128::from(0x0a00_0002u32) << 96, 1, 0)
            ]
        );
        // Lengths beyond the family maximum clamp.
        assert_eq!(t.units_at(64).count(), 2);
        assert_eq!(t.units_at(24).count(), 1);
    }
}
