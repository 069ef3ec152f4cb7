//! The day-over-day actioning simulation (Figure 11).
//!
//! §7.1's scenario, implemented literally: *"we count the proportion of
//! abusive accounts per IP prefix on day n, and consider what would happen
//! on day n+1 if we actioned on all prefixes with a ratio over some
//! threshold t."* The decision unit is an address or prefix at a chosen
//! granularity; the score is day-*n*'s abusive-account share on the unit;
//! the outcome weights are day-*n+1*'s abusive and benign populations.
//!
//! Units that appear only on day *n+1* are never actioned but still count
//! in both denominators — exactly why the paper's /128 TPR tops out at
//! 14.3%: attackers mostly arrive on fresh addresses.
//!
//! Since the one-pass sweep rewrite, each day's records are folded once
//! into a [`DayCounts`] — a pair of per-family
//! [`AggregationTrie`]s over the day's distinct `(user, address)` pairs —
//! and every granularity's per-unit tallies are read off that shared trie
//! in `O(nodes)`, instead of re-sorting the record set per prefix length.
//! `tally` remains as the naive sort-and-dedup reference (still used by
//! blocklisting, and by the property tests that pin the equivalence).

use std::collections::HashMap;
use std::net::IpAddr;

use ipv6_study_netaddr::{AggregationTrie, Ipv6Prefix};
use ipv6_study_stats::roc::RocCurve;
use ipv6_study_telemetry::{AbuseLabels, ColumnSlice, IpId};

/// The decision-unit granularity for actioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Full IPv6 addresses (the paper's "/128").
    V6Full,
    /// IPv6 prefixes of the given length (e.g. 64, 56).
    V6Prefix(u8),
    /// Full IPv4 addresses.
    V4Full,
}

impl Granularity {
    /// The effective IPv6 prefix length for a requested one: lengths
    /// beyond 128 **clamp** to 128 (a longer-than-address "prefix" can
    /// only mean the full address). Clamping rather than erroring keeps
    /// every granularity API infallible; the clamp is applied uniformly —
    /// unit keys, labels, tallies, blocklists and rate-limiter keying all
    /// agree — so `V6Prefix(129)` behaves exactly like `V6Full`.
    /// (Pre-fix, `Ipv6Prefix::mask(len)` underflowed `MAX_LEN - len` and
    /// panicked.)
    pub fn v6_len(len: u8) -> u8 {
        len.min(Ipv6Prefix::MAX_LEN)
    }

    /// The unit key for an address, or `None` when the protocol doesn't
    /// match the granularity. Unit keys are portable across days and
    /// table instances — they are address/prefix bits, not intern ids.
    pub(crate) fn unit_bits(self, ip: IpAddr) -> Option<u128> {
        match (self, ip) {
            (Granularity::V6Full, IpAddr::V6(a)) => Some(u128::from(a)),
            (Granularity::V6Prefix(len), IpAddr::V6(a)) => {
                Some(u128::from(a) & Ipv6Prefix::mask(Self::v6_len(len)))
            }
            (Granularity::V4Full, IpAddr::V4(a)) => Some(u128::from(u32::from(a))),
            _ => None,
        }
    }

    /// Human-readable label matching the paper's legend. Oversized IPv6
    /// lengths print their effective (clamped) length.
    pub fn label(self) -> String {
        match self {
            Granularity::V6Full => "/128".to_string(),
            Granularity::V6Prefix(l) => format!("/{}", Self::v6_len(l)),
            Granularity::V4Full => "IPv4".to_string(),
        }
    }
}

/// Sorts the `(unit, user)` pairs, dedups them (distinct users per unit),
/// and walks the unit runs, materializing each unit's portable `u128` key
/// exactly once. `Counts` are `(abusive, benign)` distinct-user tallies.
fn run_counts<K: Ord + Copy>(
    mut pairs: Vec<(K, u32)>,
    to_key: impl Fn(K) -> u128,
    is_abusive: impl Fn(u32) -> bool,
) -> HashMap<u128, (u64, u64)> {
    pairs.sort_unstable();
    pairs.dedup();
    let mut m = HashMap::with_capacity(64);
    let mut i = 0;
    while i < pairs.len() {
        let unit = pairs[i].0;
        let (mut abusive, mut benign) = (0u64, 0u64);
        while i < pairs.len() && pairs[i].0 == unit {
            if is_abusive(pairs[i].1) {
                abusive += 1;
            } else {
                benign += 1;
            }
            i += 1;
        }
        m.insert(to_key(unit), (abusive, benign));
    }
    m
}

/// Per-unit `(abusive, benign)` distinct-user counts for one day's slice —
/// the **naive reference** path, one sort per granularity.
///
/// The ROC sweep itself reads counts off a shared [`DayCounts`] trie;
/// this tally remains for single-granularity consumers (blocklist
/// construction) and as the independent oracle the trie is property-
/// tested against.
///
/// This is a radix-style pass over the interned id columns: at the
/// precomputed granularities the unit id is the record's [`IpId`] raw
/// value or a precomputed /64 /56 /48 prefix id — a `(u32, u32)` sort —
/// and only per distinct unit do we touch the intern table to build the
/// portable `u128` key. No per-record hashing or address materialization.
pub(crate) fn tally(
    records: ColumnSlice<'_>,
    labels: &AbuseLabels,
    granularity: Granularity,
) -> HashMap<u128, (u64, u64)> {
    let tables = records.tables();
    let ips = &tables.ips;
    let is_abusive = |dense: u32| labels.is_abusive(tables.users.user(dense));
    let ids = records.ip_ids();
    let dense = records.users_dense();
    match granularity {
        Granularity::V6Full => {
            let pairs: Vec<_> = ids
                .iter()
                .zip(dense)
                .filter(|(id, _)| id.is_v6())
                .map(|(&id, &u)| (id, u))
                .collect();
            run_counts(pairs, |id| ips.v6_bits(id), is_abusive)
        }
        Granularity::V4Full => {
            let pairs: Vec<_> = ids
                .iter()
                .zip(dense)
                .filter(|(id, _)| !id.is_v6())
                .map(|(&id, &u)| (id, u))
                .collect();
            run_counts(pairs, |id| u128::from(ips.v4_bits(id)), is_abusive)
        }
        Granularity::V6Prefix(len @ (64 | 56 | 48)) => {
            let pid = |id| match len {
                64 => ips.p64_id(id),
                56 => ips.p56_id(id),
                _ => ips.p48_id(id),
            };
            let pairs: Vec<_> = ids
                .iter()
                .zip(dense)
                .filter(|(id, _)| id.is_v6())
                .map(|(&id, &u)| (pid(id), u))
                .collect();
            run_counts(
                pairs,
                |p| match len {
                    64 => ips.p64_bits(p),
                    56 => ips.p56_bits(p),
                    _ => ips.p48_bits(p),
                },
                is_abusive,
            )
        }
        Granularity::V6Prefix(len) => {
            // Lengths without a precomputed id column mask the stored bits.
            let mask = Ipv6Prefix::mask(Granularity::v6_len(len));
            let pairs: Vec<_> = ids
                .iter()
                .zip(dense)
                .filter(|(id, _)| id.is_v6())
                .map(|(&id, &u)| (ips.v6_bits(id) & mask, u))
                .collect();
            run_counts(pairs, |bits| bits, is_abusive)
        }
    }
}

/// One day's distinct `(user, address)` pairs folded into per-family
/// counting tries — the shared structure every granularity of the
/// Figure-11 sweep reads from.
///
/// Building is one `(u32 user, u32 ip-index)` pack-sort-dedup per family
/// over the interned id columns (dense ip indices are address-ascending,
/// so the packed order *is* `(user, bits)` order) followed by the
/// `O(pairs)` trie construction; no per-granularity work. The intern
/// table is touched once per distinct pair to materialize portable key
/// bits.
pub struct DayCounts {
    v6: AggregationTrie,
    v4: AggregationTrie,
}

impl DayCounts {
    /// Folds one day's record slice into the per-family counting tries.
    pub fn build(records: ColumnSlice<'_>, labels: &AbuseLabels) -> Self {
        let tables = records.tables();
        let ips = &tables.ips;
        let users = &tables.users;
        let mut v6_packed: Vec<u64> = Vec::new();
        let mut v4_packed: Vec<u64> = Vec::new();
        for (&id, &u) in records.ip_ids().iter().zip(records.users_dense()) {
            let packed = (u64::from(u) << 32) | id.index() as u64;
            if id.is_v6() {
                v6_packed.push(packed);
            } else {
                v4_packed.push(packed);
            }
        }
        let build_family = |packed: &mut Vec<u64>, v6: bool| -> AggregationTrie {
            packed.sort_unstable();
            packed.dedup();
            // One label lookup per user run (the pack keeps users grouped).
            let mut last: Option<(u32, bool)> = None;
            let pairs: Vec<(u128, u32, bool)> = packed
                .iter()
                .map(|&p| {
                    let user = (p >> 32) as u32;
                    let index = (p & 0xffff_ffff) as usize;
                    let abusive = match last {
                        Some((u, a)) if u == user => a,
                        _ => {
                            let a = labels.is_abusive(users.user(user));
                            last = Some((user, a));
                            a
                        }
                    };
                    let bits = if v6 {
                        ips.v6_bits(IpId::new(true, index))
                    } else {
                        // v4 keys are left-aligned in the trie's u128 space.
                        u128::from(ips.v4_bits(IpId::new(false, index))) << 96
                    };
                    (bits, user, abusive)
                })
                .collect();
            AggregationTrie::from_sorted_pairs(if v6 { 128 } else { 32 }, &pairs)
        };
        Self {
            v6: build_family(&mut v6_packed, true),
            v4: build_family(&mut v4_packed, false),
        }
    }

    /// The family trie and effective cut length for a granularity.
    fn trie_and_len(&self, granularity: Granularity) -> (&AggregationTrie, u8) {
        match granularity {
            Granularity::V6Full => (&self.v6, 128),
            Granularity::V6Prefix(len) => (&self.v6, Granularity::v6_len(len)),
            Granularity::V4Full => (&self.v4, 32),
        }
    }

    /// The day's IPv6 counting trie (variable-length cuts read from it
    /// directly, e.g. the entropy-clustered blocklisting experiment).
    pub fn v6_trie(&self) -> &AggregationTrie {
        &self.v6
    }

    /// Total trie nodes across both families.
    pub fn node_count(&self) -> usize {
        self.v6.node_count() + self.v4.node_count()
    }
}

/// Builds the Figure 11 ROC curve for one granularity.
///
/// `day_n` and `day_n1` are the request records of the two consecutive
/// days (full-population or sampled — rates cancel). The returned curve's
/// FPR denominator is the *entire* day-*n+1* benign population at this
/// granularity, including users on units never seen on day *n*.
pub fn actioning_roc(
    day_n: ColumnSlice<'_>,
    day_n1: ColumnSlice<'_>,
    labels: &AbuseLabels,
    granularity: Granularity,
) -> RocCurve {
    let scores = DayCounts::build(day_n, labels);
    let outcomes = DayCounts::build(day_n1, labels);
    actioning_roc_between(&scores, &outcomes, granularity)
}

/// The read-only half of the sweep: scores day-*n+1*'s units against
/// day-*n*'s abusive ratios at one granularity, off prebuilt
/// [`DayCounts`]. One `O(nodes)` merge-join of the two tries' sorted
/// per-unit count streams — the key property that makes the whole
/// Figure-11 sweep one trie build plus per-cut reads.
///
/// The curve holds one unit per day-*n+1* unit, so its `len()` is the
/// units evaluated. It is bit-identical to the naive tally path: per-unit
/// counts are equal integers, and `RocCurve`'s integer weights sum exactly
/// in any order.
pub fn actioning_roc_between(
    day_n: &DayCounts,
    day_n1: &DayCounts,
    granularity: Granularity,
) -> RocCurve {
    let (score_trie, len) = day_n.trie_and_len(granularity);
    let (outcome_trie, _) = day_n1.trie_and_len(granularity);
    let mut curve = RocCurve::new();
    let mut scores = score_trie.units_at(len).peekable();
    for (key, out_abusive, out_benign) in outcome_trie.units_at(len) {
        while matches!(scores.peek(), Some(&(k, _, _)) if k < key) {
            scores.next();
        }
        let score = match scores.peek() {
            Some(&(k, abusive, benign)) if k == key => {
                let total = abusive + benign;
                if total == 0 {
                    -1.0
                } else {
                    abusive as f64 / total as f64
                }
            }
            // Unseen yesterday: can never be actioned.
            _ => -1.0,
        };
        curve.push(score, out_abusive, out_benign);
    }
    curve
}

/// The paper's three reported operating points (thresholds 0%, 10%, 100%)
/// plus the maximum attainable TPR, for a granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoints {
    /// TPR/FPR at threshold 0 (action any unit with ≥1 abusive account).
    pub t0: (f64, f64),
    /// TPR/FPR at threshold 10%.
    pub t10: (f64, f64),
    /// TPR/FPR at threshold 100% (purely abusive units only).
    pub t100: (f64, f64),
    /// The maximum TPR over the sweep (attained at threshold → 0⁺).
    pub max_tpr: f64,
}

/// Extracts the paper's operating points from a curve.
pub fn operating_points(curve: &RocCurve) -> OperatingPoints {
    // Threshold 0 means "any unit with a positive score": abusive ratio
    // > 0. Use an epsilon above zero so score-0 units (benign-only
    // yesterday) are not actioned, matching the paper's reading.
    let at = |t: f64| {
        let p = curve.point_at(t, None);
        (p.tpr, p.fpr)
    };
    let t0 = at(1e-9);
    OperatingPoints {
        t0,
        t10: at(0.10),
        t100: at(1.0),
        max_tpr: t0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::testgen::TestGen;
    use ipv6_study_telemetry::{
        AbuseInfo, Asn, Country, OwnedColumns, RequestRecord, SimDate, UserId,
    };

    fn cols(recs: &[RequestRecord]) -> OwnedColumns {
        OwnedColumns::from_records(recs)
    }

    fn rec(user: u64, day: SimDate, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: day.at(11, 0, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    fn labels_for(ids: &[u64]) -> AbuseLabels {
        ids.iter()
            .map(|&u| {
                (
                    UserId(u),
                    AbuseInfo {
                        created: SimDate::ymd(4, 17),
                        detected: SimDate::ymd(4, 19),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn granularity_keys() {
        let v6: IpAddr = "2001:db8:1:2::abcd".parse().unwrap();
        let v4: IpAddr = "192.0.2.7".parse().unwrap();
        assert!(Granularity::V6Full.unit_bits(v6).is_some());
        assert!(Granularity::V6Full.unit_bits(v4).is_none());
        assert!(Granularity::V4Full.unit_bits(v4).is_some());
        assert_eq!(
            Granularity::V6Prefix(64).unit_bits(v6),
            Granularity::V6Prefix(64).unit_bits("2001:db8:1:2::ffff".parse().unwrap())
        );
        assert_eq!(Granularity::V6Prefix(56).label(), "/56");
        assert_eq!(Granularity::V4Full.label(), "IPv4");
    }

    #[test]
    fn persistent_attacker_is_caught_fresh_attacker_is_not() {
        let d1 = SimDate::ymd(4, 18);
        let d2 = SimDate::ymd(4, 19);
        let labels = labels_for(&[100, 101]);
        // Day n: AA 100 on ::a (alone). Day n+1: 100 returns to ::a, but
        // AA 101 shows up on a fresh address ::b.
        let day_n = vec![rec(100, d1, "2001:db8::a"), rec(1, d1, "2001:db8::c")];
        let day_n1 = vec![
            rec(100, d2, "2001:db8::a"),
            rec(101, d2, "2001:db8::b"),
            rec(1, d2, "2001:db8::c"),
        ];
        let (n, n1) = (cols(&day_n), cols(&day_n1));
        let curve = actioning_roc(n.as_slice(), n1.as_slice(), &labels, Granularity::V6Full);
        let pts = operating_points(&curve);
        // Only AA 100 (1 of 2) is caught even at the loosest threshold.
        assert!((pts.max_tpr - 0.5).abs() < 1e-12);
        assert_eq!(pts.t0.1, 0.0, "no benign user on the actioned unit");
        // At threshold 1.0 the purely-abusive ::a still qualifies.
        assert!((pts.t100.0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefix_granularity_catches_movers_within_the_prefix() {
        let d1 = SimDate::ymd(4, 18);
        let d2 = SimDate::ymd(4, 19);
        let labels = labels_for(&[100]);
        // The AA moves to a new address inside the same /64.
        let day_n = vec![rec(100, d1, "2001:db8:1:2::a")];
        let day_n1 = vec![rec(100, d2, "2001:db8:1:2::b")];
        let (n, n1) = (cols(&day_n), cols(&day_n1));
        let full = operating_points(&actioning_roc(
            n.as_slice(),
            n1.as_slice(),
            &labels,
            Granularity::V6Full,
        ));
        let p64 = operating_points(&actioning_roc(
            n.as_slice(),
            n1.as_slice(),
            &labels,
            Granularity::V6Prefix(64),
        ));
        assert_eq!(full.max_tpr, 0.0, "address-level action misses the move");
        assert!((p64.max_tpr - 1.0).abs() < 1e-12, "/64 action catches it");
    }

    #[test]
    fn collateral_damage_shows_up_as_fpr() {
        let d1 = SimDate::ymd(4, 18);
        let d2 = SimDate::ymd(4, 19);
        let labels = labels_for(&[100]);
        // CGN-like: the abusive account shares the v4 address with many
        // benign users on both days.
        let mut day_n = vec![rec(100, d1, "192.0.2.1")];
        let mut day_n1 = vec![rec(100, d2, "192.0.2.1")];
        for u in 0..20 {
            day_n.push(rec(u, d1, "192.0.2.1"));
            day_n1.push(rec(u, d2, "192.0.2.1"));
            day_n1.push(rec(50 + u, d2, "192.0.2.9")); // clean address
        }
        let (n, n1) = (cols(&day_n), cols(&day_n1));
        let curve = actioning_roc(n.as_slice(), n1.as_slice(), &labels, Granularity::V4Full);
        let pts = operating_points(&curve);
        assert!((pts.t0.0 - 1.0).abs() < 1e-12);
        // 20 of 40 benign users are collateral.
        assert!((pts.t0.1 - 0.5).abs() < 1e-12);
        // The 10% threshold drops the mixed unit (ratio 1/21 < 10%).
        assert_eq!(pts.t10.0, 0.0);
        assert_eq!(pts.t10.1, 0.0);
    }

    /// Decision units at `granularity` in one day's counts.
    fn units(counts: &DayCounts, granularity: Granularity) -> usize {
        let (trie, len) = counts.trie_and_len(granularity);
        trie.unit_count(len)
    }

    #[test]
    fn record_roc_matches_prebuilt_counts_and_counts_units() {
        let d1 = SimDate::ymd(4, 18);
        let d2 = SimDate::ymd(4, 19);
        let labels = labels_for(&[100]);
        let day_n = vec![rec(100, d1, "2001:db8::a"), rec(1, d1, "2001:db8::c")];
        let day_n1 = vec![
            rec(100, d2, "2001:db8::a"),
            rec(2, d2, "2001:db8::d"),
            rec(1, d2, "2001:db8::c"),
        ];
        let (n, n1) = (cols(&day_n), cols(&day_n1));
        let plain = actioning_roc(n.as_slice(), n1.as_slice(), &labels, Granularity::V6Full);
        let (counts_n, counts_n1) = (
            DayCounts::build(n.as_slice(), &labels),
            DayCounts::build(n1.as_slice(), &labels),
        );
        let prebuilt = actioning_roc_between(&counts_n, &counts_n1, Granularity::V6Full);
        for i in 0..=10 {
            let t = i as f64 / 10.0;
            let (a, b) = (plain.point_at(t, None), prebuilt.point_at(t, None));
            assert_eq!((a.tpr, a.fpr), (b.tpr, b.fpr), "t={t}");
        }
        assert_eq!(units(&counts_n, Granularity::V6Full), 2);
        assert_eq!(units(&counts_n1, Granularity::V6Full), 3);
        assert_eq!(prebuilt.len(), 3, "one curve unit per day-n+1 unit");
    }

    /// Boundary prefix lengths: 0 (whole space), 128 (full address) and
    /// 129 (oversized — clamps to 128 instead of panicking on mask
    /// underflow).
    #[test]
    fn prefix_length_boundaries_0_128_129() {
        let v6: IpAddr = "2001:db8:1:2::abcd".parse().unwrap();
        assert_eq!(Granularity::V6Prefix(0).unit_bits(v6), Some(0));
        assert_eq!(
            Granularity::V6Prefix(128).unit_bits(v6),
            Granularity::V6Full.unit_bits(v6)
        );
        assert_eq!(
            Granularity::V6Prefix(129).unit_bits(v6),
            Granularity::V6Full.unit_bits(v6)
        );
        assert_eq!(Granularity::V6Prefix(0).label(), "/0");
        assert_eq!(Granularity::V6Prefix(129).label(), "/128");

        // End to end: /129 produces the same curve and stats as /128.
        let d1 = SimDate::ymd(4, 18);
        let d2 = SimDate::ymd(4, 19);
        let labels = labels_for(&[100]);
        let day_n = vec![rec(100, d1, "2001:db8::a"), rec(1, d1, "2001:db8::c")];
        let day_n1 = vec![rec(100, d2, "2001:db8::a"), rec(2, d2, "2001:db8::d")];
        let (n, n1) = (cols(&day_n), cols(&day_n1));
        let full = actioning_roc(n.as_slice(), n1.as_slice(), &labels, Granularity::V6Full);
        let over = actioning_roc(
            n.as_slice(),
            n1.as_slice(),
            &labels,
            Granularity::V6Prefix(129),
        );
        for i in 0..=10 {
            let t = i as f64 / 10.0;
            let (a, b) = (full.point_at(t, None), over.point_at(t, None));
            assert_eq!((a.tpr, a.fpr), (b.tpr, b.fpr), "t={t}");
        }
        let (counts_n, counts_n1) = (
            DayCounts::build(n.as_slice(), &labels),
            DayCounts::build(n1.as_slice(), &labels),
        );
        for counts in [&counts_n, &counts_n1] {
            assert_eq!(
                units(counts, Granularity::V6Prefix(129)),
                units(counts, Granularity::V6Full)
            );
        }

        // /0 folds each family into one unit and still works.
        let zero = actioning_roc(
            n.as_slice(),
            n1.as_slice(),
            &labels,
            Granularity::V6Prefix(0),
        );
        let p = zero.point_at(0.4, None);
        assert!(
            (p.tpr - 1.0).abs() < 1e-12,
            "half-abusive whole space actions"
        );
    }

    /// The naive reference: the pre-trie curve loop over `tally` maps.
    fn naive_roc(
        day_n: ColumnSlice<'_>,
        day_n1: ColumnSlice<'_>,
        labels: &AbuseLabels,
        granularity: Granularity,
    ) -> (RocCurve, usize, usize) {
        let scores = tally(day_n, labels, granularity);
        let outcomes = tally(day_n1, labels, granularity);
        let mut curve = RocCurve::new();
        for (key, &(out_abusive, out_benign)) in &outcomes {
            let score = match scores.get(key) {
                Some(&(abusive, benign)) => abusive as f64 / (abusive + benign) as f64,
                None => -1.0,
            };
            curve.push(score, out_abusive, out_benign);
        }
        (curve, scores.len(), outcomes.len())
    }

    /// Randomized day of records: users hop between clustered v6
    /// addresses (shared /48s and /64s) and a small v4 pool.
    fn random_day(g: &mut TestGen, day: SimDate, users: u64) -> Vec<RequestRecord> {
        let n = g.range_u64(20, 300) as usize;
        g.vec_of(n, |g| {
            let user = g.range_u64(0, users);
            let ip = if g.range_u64(0, 4) == 0 {
                IpAddr::V4(std::net::Ipv4Addr::from(
                    0xc000_0200 | (g.range_u64(0, 12) as u32),
                ))
            } else {
                let site = (0x2001_0db8u128 << 96) | (g.range_u64(0, 3) as u128) << 80;
                let subnet = (g.range_u64(0, 40) as u128) << 64;
                let iid = u128::from(g.next_u64() >> g.range_u8(0, 60));
                IpAddr::V6(std::net::Ipv6Addr::from(site | subnet | iid))
            };
            RequestRecord {
                ts: day.at(11, 0, 0),
                user: UserId(user),
                ip,
                asn: Asn(64496),
                country: Country::new("US"),
            }
        })
    }

    /// The tentpole equivalence: the shared-trie sweep reproduces the
    /// naive per-granularity sort-and-dedup ROC — curves, unit counts
    /// and operating points — on randomized populations, across fixed
    /// and odd prefix lengths.
    #[test]
    fn trie_sweep_matches_naive_tally_roc() {
        let mut g = TestGen::new(0x4143_5401);
        let grans = [
            Granularity::V6Full,
            Granularity::V6Prefix(64),
            Granularity::V6Prefix(56),
            Granularity::V6Prefix(48),
            Granularity::V6Prefix(61),
            Granularity::V6Prefix(33),
            Granularity::V6Prefix(0),
            Granularity::V4Full,
        ];
        for _ in 0..24 {
            let users = g.range_u64(2, 40);
            let abusive: Vec<u64> = (0..users).filter(|u| u % 3 == 0).collect();
            let labels = labels_for(&abusive);
            let day_n = random_day(&mut g, SimDate::ymd(4, 18), users);
            let day_n1 = random_day(&mut g, SimDate::ymd(4, 19), users);
            let (n, n1) = (cols(&day_n), cols(&day_n1));
            let counts_n = DayCounts::build(n.as_slice(), &labels);
            let counts_n1 = DayCounts::build(n1.as_slice(), &labels);
            for gran in grans {
                let trie_curve = actioning_roc_between(&counts_n, &counts_n1, gran);
                let (naive_curve, scored, evaluated) =
                    naive_roc(n.as_slice(), n1.as_slice(), &labels, gran);
                assert_eq!(units(&counts_n, gran), scored, "{gran:?}");
                assert_eq!(units(&counts_n1, gran), evaluated, "{gran:?}");
                assert_eq!(trie_curve.len(), evaluated, "{gran:?}");
                for i in -2..=20 {
                    let t = i as f64 / 20.0;
                    let (a, b) = (trie_curve.point_at(t, None), naive_curve.point_at(t, None));
                    assert_eq!((a.tpr, a.fpr), (b.tpr, b.fpr), "{gran:?} t={t}");
                }
                assert_eq!(
                    operating_points(&trie_curve),
                    operating_points(&naive_curve),
                    "{gran:?}"
                );
            }
        }
    }

    #[test]
    fn roc_monotone_over_thresholds() {
        let d1 = SimDate::ymd(4, 18);
        let d2 = SimDate::ymd(4, 19);
        let labels = labels_for(&[100, 101, 102]);
        let day_n = vec![
            rec(100, d1, "2001:db8::1"),
            rec(101, d1, "2001:db8::2"),
            rec(1, d1, "2001:db8::2"),
            rec(2, d1, "2001:db8::3"),
        ];
        let day_n1 = vec![
            rec(100, d2, "2001:db8::1"),
            rec(101, d2, "2001:db8::2"),
            rec(102, d2, "2001:db8::9"),
            rec(1, d2, "2001:db8::2"),
            rec(3, d2, "2001:db8::3"),
        ];
        let (n, n1) = (cols(&day_n), cols(&day_n1));
        let curve = actioning_roc(n.as_slice(), n1.as_slice(), &labels, Granularity::V6Full);
        let mut prev_tpr = f64::INFINITY;
        let mut prev_fpr = f64::INFINITY;
        for i in 0..=10 {
            let p = curve.point_at(i as f64 / 10.0, None);
            assert!(p.tpr <= prev_tpr + 1e-12 && p.fpr <= prev_fpr + 1e-12);
            prev_tpr = p.tpr;
            prev_fpr = p.fpr;
        }
    }
}
