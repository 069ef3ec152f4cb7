//! §5 — user-centric behavior: the spatial and temporal properties of the
//! addresses a user holds.
//!
//! All functions take a pre-windowed [`DatasetIndex`] grouped by user (see
//! [`DatasetIndex::by_user`]; typically built over the user random sample
//! for one day or one week) and an account filter so
//! the same code computes the benign-user figures (2, 4a, 5, 6a) and the
//! abusive-account figures (3, 4b, 6b). Groupings are walks over the
//! index's per-user runs, and the inner loops read interned id columns —
//! dedup and prefix masking happen on `u32`/`u128` ids and bits, never on
//! rematerialized records. Because id order is isomorphic to address
//! order, the results are value-identical to the row-oriented versions.

use ipv6_study_netaddr::{Ipv4Prefix, Ipv6Prefix};
use ipv6_study_stats::{Ecdf, StableHashMap};
use ipv6_study_telemetry::{IpId, SimDate, UserId};

use crate::index::DatasetIndex;

/// Distinct-address counts per user, per protocol (Figures 2 and 3).
#[derive(Debug, Clone)]
pub struct AddrsPerUser {
    /// Distribution over users observed with ≥1 IPv4 address.
    pub v4: Ecdf,
    /// Distribution over users observed with ≥1 IPv6 address.
    pub v6: Ecdf,
    /// Per-user v4 counts (for outlier drill-downs).
    pub v4_counts: StableHashMap<UserId, u64>,
    /// Per-user v6 counts.
    pub v6_counts: StableHashMap<UserId, u64>,
}

/// Computes addresses-per-user over the window, considering only users
/// accepted by `filter`.
pub fn addrs_per_user(index: &DatasetIndex, filter: impl Fn(UserId) -> bool) -> AddrsPerUser {
    let mut v4_counts: StableHashMap<UserId, u64> = StableHashMap::default();
    let mut v6_counts: StableHashMap<UserId, u64> = StableHashMap::default();
    // A user's address ids per family: reused across users.
    let (mut v4, mut v6): (Vec<IpId>, Vec<IpId>) = Default::default();
    for (user, group) in index.user_groups() {
        if !filter(user) {
            continue;
        }
        for &id in group.ip_ids() {
            if id.is_v6() { &mut v6 } else { &mut v4 }.push(id);
        }
        for (addrs, counts) in [(&mut v4, &mut v4_counts), (&mut v6, &mut v6_counts)] {
            addrs.sort_unstable();
            addrs.dedup();
            if !addrs.is_empty() {
                counts.insert(user, addrs.len() as u64);
            }
            addrs.clear();
        }
    }
    AddrsPerUser {
        v4: Ecdf::from_values(v4_counts.values().copied()),
        v6: Ecdf::from_values(v6_counts.values().copied()),
        v4_counts,
        v6_counts,
    }
}

/// One row of Figure 4: at prefix length `len`, the share of users whose
/// IPv6 addresses span at most 1, 2, 3 distinct prefixes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixSpanRow {
    /// Prefix length.
    pub len: u8,
    /// Share of users with all addresses in one prefix.
    pub le1: f64,
    /// Share with addresses in at most two prefixes.
    pub le2: f64,
    /// Share with addresses in at most three prefixes.
    pub le3: f64,
}

/// Each qualifying user's distinct IPv6 addresses (the shared input of
/// Figure 4's per-length rows).
fn distinct_v6_addrs_per_user(
    index: &DatasetIndex,
    filter: impl Fn(UserId) -> bool,
) -> Vec<Vec<u128>> {
    let mut per_user = Vec::new();
    let ips = &index.tables().ips;
    for (user, group) in index.user_groups() {
        if !filter(user) {
            continue;
        }
        let mut addrs: Vec<u128> = group
            .ip_ids()
            .iter()
            .filter(|id| id.is_v6())
            .map(|&id| ips.v6_bits(id))
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        if !addrs.is_empty() {
            per_user.push(addrs);
        }
    }
    per_user
}

/// Computes Figure 4 (per-user IPv6 prefix span) for the given lengths.
/// The population is users with ≥1 IPv6 address passing `filter`.
pub fn prefixes_per_user(
    index: &DatasetIndex,
    lengths: &[u8],
    filter: impl Fn(UserId) -> bool,
) -> Vec<PrefixSpanRow> {
    let per_user = distinct_v6_addrs_per_user(index, filter);
    lengths
        .iter()
        .map(|&len| {
            let mut le = [0u64; 3];
            let total = per_user.len() as u64;
            for addrs in &per_user {
                let mut masked: Vec<u128> = addrs
                    .iter()
                    .map(|&raw| raw & Ipv6Prefix::mask(len))
                    .collect();
                masked.sort_unstable();
                masked.dedup();
                let n = masked.len();
                if n <= 1 {
                    le[0] += 1;
                }
                if n <= 2 {
                    le[1] += 1;
                }
                if n <= 3 {
                    le[2] += 1;
                }
            }
            PrefixSpanRow {
                len,
                le1: share(le[0], total),
                le2: share(le[1], total),
                le3: share(le[2], total),
            }
        })
        .collect()
}

/// Life spans of (user, address) pairs present on a focus day (Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct LifespanCdfs {
    /// Days since first observation, across all (user, v4 address) pairs.
    pub v4_pairs: Ecdf,
    /// Same for IPv6 pairs.
    pub v6_pairs: Ecdf,
    /// Median life span per user, v4.
    pub v4_user_median: Ecdf,
    /// Median life span per user, v6.
    pub v6_user_median: Ecdf,
}

/// Computes Figure 5. `history` must cover `[focus − lookback, focus]`;
/// pairs observed on `focus` get a life span equal to days since their
/// first appearance in the history (0 = first seen on the focus day).
///
/// One sort per user and family: a user's (address, day) rows up to the
/// focus day are packed into `u64` words (address index above the day)
/// and sorted once, so each address is one run whose first day is when
/// the pair was first seen and whose last day says whether it was seen
/// on the focus day.
pub fn address_lifespans(
    history: &DatasetIndex,
    focus: SimDate,
    filter: impl Fn(UserId) -> bool,
) -> LifespanCdfs {
    // Per family (v4, v6): every focus-day pair's span, and each user's
    // median span.
    let mut pairs: [Vec<u64>; 2] = Default::default();
    let mut medians: [Vec<u64>; 2] = Default::default();
    // A user's packed rows per family and its focus-day spans: reused
    // across users.
    let (mut rows, mut spans): ([Vec<u64>; 2], Vec<u64>) = Default::default();
    for (user, group) in history.user_groups() {
        if !filter(user) {
            continue;
        }
        for (&id, ts) in group.ip_ids().iter().zip(group.ts()) {
            let day = ts.date();
            let row = (id.index() as u64) << 16 | u64::from(day.index());
            let rows = &mut rows[usize::from(id.is_v6())];
            // Rows keep timestamp order, so repeats are mostly adjacent.
            if day <= focus && rows.last() != Some(&row) {
                rows.push(row);
            }
        }
        for ((rows, pairs), medians) in rows.iter_mut().zip(&mut pairs).zip(&mut medians) {
            rows.sort_unstable();
            spans.clear();
            for run in rows.chunk_by(|a, b| a >> 16 == b >> 16) {
                let (first, last) = (run[0] as u16, run[run.len() - 1] as u16);
                if last == focus.index() {
                    spans.push(u64::from(last - first));
                }
            }
            rows.clear();
            if spans.is_empty() {
                continue;
            }
            pairs.extend_from_slice(&spans);
            spans.sort_unstable();
            medians.push(spans[(spans.len() - 1) / 2]);
        }
    }
    let [v4_pairs, v6_pairs] = pairs.map(Ecdf::from_values);
    let [v4_user_median, v6_user_median] = medians.map(Ecdf::from_values);
    LifespanCdfs {
        v4_pairs,
        v6_pairs,
        v4_user_median,
        v6_user_median,
    }
}

/// One row of Figure 6: at a prefix length, the share of (user, prefix)
/// pairs first observed within the last 1, 2, 3 days.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixLifespanRow {
    /// Prefix length.
    pub len: u8,
    /// Share of pairs ≤ 1 day old (first seen on the focus day).
    pub d1: f64,
    /// Share ≤ 2 days old.
    pub d2: f64,
    /// Share ≤ 3 days old.
    pub d3: f64,
}

/// Computes Figure 6 for one protocol. `lengths` are prefix lengths valid
/// for the protocol (≤32 for v4); `want_v6` selects the protocol.
///
/// One sorted sweep: each user's rows up to the focus day are sorted
/// once into distinct addresses, each with its first day and whether it
/// was seen on the focus day. Ids ascend with addresses, so at every
/// length a user's prefixes are contiguous runs of that list, and each
/// length is one linear walk with no hashing.
pub fn prefix_lifespans(
    history: &DatasetIndex,
    focus: SimDate,
    lengths: &[u8],
    want_v6: bool,
    filter: impl Fn(UserId) -> bool,
) -> Vec<PrefixLifespanRow> {
    let ips = &history.tables().ips;
    let bits = |id| match want_v6 {
        true => ips.v6_bits(id),
        false => u128::from(ips.v4_bits(id)),
    };
    let masks: Vec<u128> = lengths
        .iter()
        .map(|&len| match want_v6 {
            true => Ipv6Prefix::mask(len),
            false => u128::from(Ipv4Prefix::mask(len.min(32))),
        })
        .collect();
    // Per length: pairs on the focus day, and those aged ≤ 0, 1, 2 days.
    let mut tallies = vec![[0u64; 4]; lengths.len()];
    // A user's (address, day) rows, then (bits, first day, seen on the
    // focus day) per distinct address: buffers reused across users.
    let (mut rows, mut addrs) = (Vec::new(), Vec::new());
    for (_, group) in history.user_groups().filter(|&(user, _)| filter(user)) {
        rows.clear();
        for (&id, ts) in group.ip_ids().iter().zip(group.ts()) {
            let row = (id, ts.date());
            // Rows keep timestamp order, so repeats are mostly adjacent.
            if id.is_v6() == want_v6 && row.1 <= focus && rows.last() != Some(&row) {
                rows.push(row);
            }
        }
        rows.sort_unstable();
        addrs.clear();
        for run in rows.chunk_by(|a, b| a.0 == b.0) {
            addrs.push((bits(run[0].0), run[0].1, run[run.len() - 1].1 == focus));
        }
        for (&mask, tally) in masks.iter().zip(&mut tallies) {
            for run in addrs.chunk_by(|a, b| a.0 & mask == b.0 & mask) {
                if run.iter().any(|a| a.2) {
                    let age = focus.days_since(run.iter().map(|a| a.1).min().expect("a run"));
                    let counted = [true, age == 0, age <= 1, age <= 2];
                    for (t, c) in tally.iter_mut().zip(counted) {
                        *t += u64::from(c);
                    }
                }
            }
        }
    }
    lengths
        .iter()
        .zip(tallies)
        .map(|(&len, [total, d1, d2, d3])| PrefixLifespanRow {
            len,
            d1: share(d1, total),
            d2: share(d2, total),
            d3: share(d3, total),
        })
        .collect()
}

/// `count` as a share of `total` (0 when `total` is).
fn share(count: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        count as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::StableHashSet;
    use ipv6_study_telemetry::{Asn, Country, OwnedColumns, RequestRecord};

    fn rec(user: u64, day: SimDate, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: day.at(12, 0, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    fn d(m: u8, dd: u8) -> SimDate {
        SimDate::ymd(m, dd)
    }

    fn idx(recs: &[RequestRecord]) -> DatasetIndex {
        DatasetIndex::by_user(OwnedColumns::from_records(recs).as_slice())
    }

    #[test]
    fn addrs_per_user_counts_distinct_per_protocol() {
        let recs = vec![
            rec(1, d(4, 13), "2001:db8::1"),
            rec(1, d(4, 13), "2001:db8::1"), // duplicate
            rec(1, d(4, 13), "2001:db8::2"),
            rec(1, d(4, 13), "10.0.0.1"),
            rec(2, d(4, 13), "10.0.0.1"),
            rec(3, d(4, 13), "10.0.0.9"),
        ];
        let a = addrs_per_user(&idx(&recs), |_| true);
        assert_eq!(a.v6_counts[&UserId(1)], 2);
        assert_eq!(a.v4_counts[&UserId(1)], 1);
        assert_eq!(a.v6.len(), 1, "only user 1 has v6");
        assert_eq!(a.v4.len(), 3);
        // Filtering removes users entirely.
        let b = addrs_per_user(&idx(&recs), |u| u.raw() != 1);
        assert!(b.v6.is_empty());
        assert_eq!(b.v4.len(), 2);
    }

    #[test]
    fn prefix_span_shows_aggregation_at_64() {
        // One user with three addresses in the same /64: spans 3 /128s but
        // one /64.
        let recs = vec![
            rec(1, d(4, 13), "2001:db8:1:2::a"),
            rec(1, d(4, 13), "2001:db8:1:2::b"),
            rec(1, d(4, 13), "2001:db8:1:2::c"),
            // And one user spanning two /64s in the same /48.
            rec(2, d(4, 13), "2001:db8:9:1::a"),
            rec(2, d(4, 13), "2001:db8:9:2::a"),
        ];
        let rows = prefixes_per_user(&idx(&recs), &[128, 64, 48], |_| true);
        let at = |len: u8| rows.iter().find(|r| r.len == len).unwrap();
        assert!(at(128).le1 < 0.01, "nobody has one /128");
        assert_eq!(at(64).le1, 0.5, "user 1 collapses at /64");
        assert_eq!(at(48).le1, 1.0, "both collapse at /48");
        assert_eq!(at(128).le3, 1.0, "user 1 has exactly 3 addresses");
    }

    #[test]
    fn lifespans_measure_days_since_first_seen() {
        let recs = vec![
            rec(1, d(4, 10), "2001:db8::1"), // seen 9 days before focus
            rec(1, d(4, 19), "2001:db8::1"),
            rec(1, d(4, 19), "2001:db8::2"), // new on focus day
            rec(2, d(4, 1), "10.0.0.1"),
            rec(2, d(4, 19), "10.0.0.1"), // 18 days
            rec(3, d(4, 15), "10.0.0.2"), // not present on focus day
        ];
        let l = address_lifespans(&idx(&recs), d(4, 19), |_| true);
        // v6 pairs on focus: (1, ::1) age 9, (1, ::2) age 0.
        assert_eq!(l.v6_pairs.len(), 2);
        assert_eq!(l.v6_pairs.count_le(0), 1);
        assert_eq!(l.v6_pairs.max(), Some(9));
        // v4: only user 2's pair, age 18. User 3's address is absent on
        // the focus day, so it contributes nothing.
        assert_eq!(l.v4_pairs.len(), 1);
        assert_eq!(l.v4_pairs.max(), Some(18));
        // Per-user medians: user 1 median of {0, 9} -> lower median 0.
        assert_eq!(l.v6_user_median.len(), 1);
        assert_eq!(l.v6_user_median.max(), Some(0));
    }

    #[test]
    fn prefix_lifespans_aggregate_by_prefix() {
        // Address rotates daily within one /64: the /128 pair is new on
        // the focus day, but the /64 pair is 3 days old.
        let recs = vec![
            rec(1, d(4, 16), "2001:db8:1:2::a"),
            rec(1, d(4, 17), "2001:db8:1:2::b"),
            rec(1, d(4, 18), "2001:db8:1:2::c"),
            rec(1, d(4, 19), "2001:db8:1:2::d"),
        ];
        let rows = prefix_lifespans(&idx(&recs), d(4, 19), &[128, 64], true, |_| true);
        let at = |len: u8| rows.iter().find(|r| r.len == len).unwrap();
        assert_eq!(at(128).d1, 1.0, "the /128 is brand new");
        assert_eq!(at(64).d1, 0.0, "the /64 was first seen 3 days ago");
        assert_eq!(at(64).d3, 0.0);
        // v4 filter yields nothing here.
        let v4rows = prefix_lifespans(&idx(&recs), d(4, 19), &[24], false, |_| true);
        assert_eq!(v4rows[0].d1, 0.0);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let empty = idx(&[]);
        let l = address_lifespans(&empty, d(4, 19), |_| true);
        assert!(l.v4_pairs.is_empty() && l.v6_pairs.is_empty());
        let rows = prefixes_per_user(&empty, &[64], |_| true);
        assert_eq!(rows[0].le1, 0.0);
        let a = addrs_per_user(&empty, |_| true);
        assert!(a.v4.is_empty());
        let rows = prefix_lifespans(&empty, d(4, 19), &[64], true, |_| true);
        assert_eq!(rows[0].d1, 0.0);
    }

    /// The oracle: Figure 6 with one hash map of first-seen days and one
    /// hash set of focus-day prefixes per (length, user).
    fn prefix_lifespans_oracle(
        history: &DatasetIndex,
        focus: SimDate,
        lengths: &[u8],
        want_v6: bool,
        filter: impl Fn(UserId) -> bool,
    ) -> Vec<PrefixLifespanRow> {
        let ips = &history.tables().ips;
        lengths
            .iter()
            .map(|&len| {
                let mut total = 0u64;
                let mut d = [0u64; 3];
                for (user, group) in history.user_groups() {
                    if !filter(user) {
                        continue;
                    }
                    let mut first: StableHashMap<u128, SimDate> = StableHashMap::default();
                    let mut on_focus: StableHashSet<u128> = StableHashSet::default();
                    for (&ts, &id) in group.ts().iter().zip(group.ip_ids()) {
                        let day = ts.date();
                        if id.is_v6() != want_v6 || day > focus {
                            continue;
                        }
                        let bits = if id.is_v6() {
                            ips.v6_bits(id) & Ipv6Prefix::mask(len)
                        } else {
                            u128::from(ips.v4_bits(id) & Ipv4Prefix::mask(len.min(32)))
                        };
                        first
                            .entry(bits)
                            .and_modify(|e| *e = (*e).min(day))
                            .or_insert(day);
                        if day == focus {
                            on_focus.insert(bits);
                        }
                    }
                    for bits in &on_focus {
                        total += 1;
                        let age = focus.days_since(first[bits]);
                        d[0] += u64::from(age == 0);
                        d[1] += u64::from(age <= 1);
                        d[2] += u64::from(age <= 2);
                    }
                }
                let frac = |c: u64| {
                    if total == 0 {
                        0.0
                    } else {
                        c as f64 / total as f64
                    }
                };
                PrefixLifespanRow {
                    len,
                    d1: frac(d[0]),
                    d2: frac(d[1]),
                    d3: frac(d[2]),
                }
            })
            .collect()
    }

    /// The sorted sweep equals the hash-map oracle on random mixed v4/v6
    /// histories (`random_history`: clustered addresses that share
    /// prefixes at many lengths) with a filtered-out user, at every length
    /// 0..=128 (v6) and 0..=32 (v4).
    #[test]
    fn prefix_sweep_matches_the_hash_map_oracle() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x4636_5357); // "F6SW"
        let focus = d(4, 19);
        let v6_lengths: Vec<u8> = (0..=128).collect();
        let v4_lengths: Vec<u8> = (0..=32).collect();
        for _ in 0..48 {
            let recs = random_history(&mut g, focus);
            let n = recs.len();
            let index = idx(&recs);
            let filter = |u: UserId| u.raw() != 5;
            for (lengths, v6) in [(&v6_lengths, true), (&v4_lengths, false)] {
                assert_eq!(
                    prefix_lifespans(&index, focus, lengths, v6, filter),
                    prefix_lifespans_oracle(&index, focus, lengths, v6, filter),
                    "v6={v6}, {n} rows"
                );
            }
        }
    }

    /// The oracle: Figure 5 with one hash map of first-seen days and one
    /// hash set of focus-day addresses per user.
    fn address_lifespans_oracle(
        history: &DatasetIndex,
        focus: SimDate,
        filter: impl Fn(UserId) -> bool,
    ) -> LifespanCdfs {
        let mut v4_pairs: Vec<u64> = Vec::new();
        let mut v6_pairs: Vec<u64> = Vec::new();
        let mut v4_medians: Vec<u64> = Vec::new();
        let mut v6_medians: Vec<u64> = Vec::new();
        for (user, group) in history.user_groups() {
            if !filter(user) {
                continue;
            }
            let mut first: StableHashMap<IpId, SimDate> = StableHashMap::default();
            let mut on_focus: StableHashSet<IpId> = StableHashSet::default();
            for (&ts, &id) in group.ts().iter().zip(group.ip_ids()) {
                let d = ts.date();
                if d > focus {
                    continue;
                }
                first
                    .entry(id)
                    .and_modify(|e| *e = (*e).min(d))
                    .or_insert(d);
                if d == focus {
                    on_focus.insert(id);
                }
            }
            let mut v4_spans: Vec<u64> = Vec::new();
            let mut v6_spans: Vec<u64> = Vec::new();
            for id in &on_focus {
                let span = u64::from(focus.days_since(first[id]));
                if id.is_v6() {
                    v6_spans.push(span);
                } else {
                    v4_spans.push(span);
                }
            }
            let take = |mut spans: Vec<u64>, pairs: &mut Vec<u64>, medians: &mut Vec<u64>| {
                if spans.is_empty() {
                    return;
                }
                pairs.extend_from_slice(&spans);
                spans.sort_unstable();
                medians.push(spans[(spans.len() - 1) / 2]);
            };
            take(v4_spans, &mut v4_pairs, &mut v4_medians);
            take(v6_spans, &mut v6_pairs, &mut v6_medians);
        }
        LifespanCdfs {
            v4_pairs: Ecdf::from_values(v4_pairs),
            v6_pairs: Ecdf::from_values(v6_pairs),
            v4_user_median: Ecdf::from_values(v4_medians),
            v6_user_median: Ecdf::from_values(v6_medians),
        }
    }

    /// A random mixed v4/v6 history in timestamp order: clustered
    /// addresses, so they recur over days and share prefixes at many
    /// lengths, and rows dated up to two days after the focus day.
    fn random_history(
        g: &mut ipv6_study_stats::testgen::TestGen,
        focus: SimDate,
    ) -> Vec<RequestRecord> {
        let n = g.range_u64(0, 400) as usize;
        let mut recs: Vec<RequestRecord> = g.vec_of(n, |g| {
            let day = focus + 2 - g.range_u64(0, 9) as u16;
            let ip = if g.below(3) == 0 {
                let host = 0x0a00_0000 | (g.below(4) as u32) << 16 | g.below(12) as u32;
                std::net::IpAddr::V4(host.into())
            } else {
                let site = (0x2001_0db8u128 << 96) | (g.below(3) as u128) << 80;
                let subnet = (g.below(6) as u128) << 64;
                let iid = u128::from(g.next_u64() >> g.range_u8(0, 63));
                std::net::IpAddr::V6((site | subnet | iid).into())
            };
            RequestRecord {
                ts: day.at(g.below(24) as u8, 0, 0),
                user: UserId(g.below(12)),
                ip,
                asn: Asn(64496),
                country: Country::new("US"),
            }
        });
        recs.sort_by_key(|r| r.ts);
        recs
    }

    /// The per-user sort equals the hash-map oracle on random histories,
    /// with a filtered-out user: the same pair multisets and per-user
    /// medians.
    #[test]
    fn address_lifespans_match_the_hash_map_oracle() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x4635_4c53); // "F5LS"
        let focus = d(4, 19);
        for _ in 0..48 {
            let recs = random_history(&mut g, focus);
            let index = idx(&recs);
            let filter = |u: UserId| u.raw() != 5;
            assert_eq!(
                address_lifespans(&index, focus, filter),
                address_lifespans_oracle(&index, focus, filter),
                "{} rows",
                recs.len()
            );
        }
    }
}
