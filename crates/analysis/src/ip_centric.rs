//! §6 — IP-centric behavior: user populations per address and per prefix.
//!
//! These analyses answer the collateral-damage question behind IP-level
//! enforcement: *who else is on this address or prefix?* They consume the
//! IP random sample (Figures 7–8) and the IPv6 prefix random samples
//! (Figures 9–10), joined with abuse labels.
//!
//! The functions walk an address grouping's per-address runs (see
//! [`DatasetIndex::by_address`]). Because the index orders address ids by
//! [`IpAddr`]'s total order (numeric within each family), every set of v6
//! addresses sharing a prefix is a *consecutive* range of runs — the
//! per-prefix analyses aggregate neighboring runs over the intern table's
//! **precomputed** /64 /56 /48 prefix-id columns instead of building a
//! per-prefix hash map, and user dedup happens on dense `u32` ids. The
//! one exception, [`users_per_prefix_by_user`], counts §6.2.3's
//! user-sample members per prefix from a user grouping.

use std::net::IpAddr;

use ipv6_study_netaddr::Ipv6Prefix;
use ipv6_study_stats::{Ecdf, StableHashMap};
use ipv6_study_telemetry::{AbuseLabels, UserId};

use crate::index::{AddressGroup, DatasetIndex};

/// The distinct users of one address run (records keep one address).
fn distinct_users_of(group: AddressGroup<'_>) -> u64 {
    let mut users: Vec<u32> = group.users_dense().to_vec();
    users.sort_unstable();
    users.dedup();
    users.len() as u64
}

/// Users per address, per protocol (Figure 7).
#[derive(Debug, Clone)]
pub struct UsersPerIp {
    /// Distribution of distinct users over IPv4 addresses.
    pub v4: Ecdf,
    /// Distribution over IPv6 addresses.
    pub v6: Ecdf,
    /// Raw per-address user counts (for outlier drill-downs).
    pub counts: StableHashMap<IpAddr, u64>,
}

/// Computes users-per-address over the window.
pub fn users_per_ip(index: &DatasetIndex) -> UsersPerIp {
    let mut counts: StableHashMap<IpAddr, u64> = StableHashMap::default();
    let mut v4: Vec<u64> = Vec::new();
    let mut v6: Vec<u64> = Vec::new();
    for (ip, group) in index.ip_groups() {
        let c = distinct_users_of(group);
        counts.insert(ip, c);
        if matches!(ip, IpAddr::V6(_)) {
            v6.push(c);
        } else {
            v4.push(c);
        }
    }
    UsersPerIp {
        v4: Ecdf::from_values(v4),
        v6: Ecdf::from_values(v6),
        counts,
    }
}

/// Populations on addresses hosting at least one abusive account (Fig 8).
#[derive(Debug, Clone)]
pub struct AbusePerIp {
    /// Abusive accounts per such IPv4 address.
    pub aa_v4: Ecdf,
    /// Abusive accounts per such IPv6 address.
    pub aa_v6: Ecdf,
    /// Benign users per such IPv4 address.
    pub benign_v4: Ecdf,
    /// Benign users per such IPv6 address.
    pub benign_v6: Ecdf,
}

impl AbusePerIp {
    /// Share of abusive-hosting v6 addresses with zero benign users — the
    /// paper's isolation statistic ("63% of addresses only had abusive
    /// accounts and no benign users in a day", §6.1.2).
    pub fn v6_isolated_share(&self) -> f64 {
        self.benign_v6.fraction_le(0)
    }

    /// Same for IPv4 (paper: 3.4%).
    pub fn v4_isolated_share(&self) -> f64 {
        self.benign_v4.fraction_le(0)
    }
}

/// Splits one run's users into (abusive, benign) distinct counts.
fn split_users(group: AddressGroup<'_>, labels: &AbuseLabels) -> (u64, u64) {
    let mut users: Vec<u32> = group.users_dense().to_vec();
    users.sort_unstable();
    users.dedup();
    let user_table = &group.tables().users;
    let aa = users
        .iter()
        .filter(|&&d| labels.is_abusive(user_table.user(d)))
        .count() as u64;
    (aa, users.len() as u64 - aa)
}

/// Computes Figure 8 over the window with the label set.
pub fn abuse_per_ip(index: &DatasetIndex, labels: &AbuseLabels) -> AbusePerIp {
    let mut aa_v4 = Vec::new();
    let mut aa_v6 = Vec::new();
    let mut benign_v4 = Vec::new();
    let mut benign_v6 = Vec::new();
    for (ip, group) in index.ip_groups() {
        let (aa, benign) = split_users(group, labels);
        if aa == 0 {
            continue; // address hosts no abusive account
        }
        if matches!(ip, IpAddr::V6(_)) {
            aa_v6.push(aa);
            benign_v6.push(benign);
        } else {
            aa_v4.push(aa);
            benign_v4.push(benign);
        }
    }
    AbusePerIp {
        aa_v4: Ecdf::from_values(aa_v4),
        aa_v6: Ecdf::from_values(aa_v6),
        benign_v4: Ecdf::from_values(benign_v4),
        benign_v6: Ecdf::from_values(benign_v6),
    }
}

/// Users per IPv6 prefix at one length (one curve of Figure 9), plus the
/// raw counts for outlier analysis.
#[derive(Debug, Clone)]
pub struct UsersPerPrefix {
    /// Prefix length.
    pub len: u8,
    /// Distribution of distinct users per prefix.
    pub ecdf: Ecdf,
    /// Raw counts.
    pub counts: StableHashMap<Ipv6Prefix, u64>,
}

/// Walks the index's v6 address runs aggregated into per-prefix runs at
/// `len`, calling `emit(prefix, users_of_prefix)` once per prefix. The
/// user list handed to `emit` is sorted and deduplicated.
fn walk_prefix_runs(index: &DatasetIndex, len: u8, mut emit: impl FnMut(Ipv6Prefix, &[UserId])) {
    let tables = index.tables();
    let ips = &tables.ips;
    // At the precomputed lengths the prefix bits come straight out of the
    // per-entry prefix-id columns; other lengths mask the stored bits.
    let bits_of = |id: ipv6_study_telemetry::IpId| -> u128 {
        match len {
            64 => ips.p64_bits(ips.p64_id(id)),
            56 => ips.p56_bits(ips.p56_id(id)),
            48 => ips.p48_bits(ips.p48_id(id)),
            _ => ips.v6_bits(id) & Ipv6Prefix::mask(len),
        }
    };
    // Dense user ids ascend exactly as raw `UserId`s do, so the sorted
    // dedup below hands `emit` the same sorted user list as before.
    let mut flush = |bits: u128, mut dense: Vec<u32>| {
        dense.sort_unstable();
        dense.dedup();
        let users: Vec<UserId> = dense.iter().map(|&d| tables.users.user(d)).collect();
        emit(Ipv6Prefix::from_bits(bits, len), &users);
    };
    let mut cur: Option<(u128, Vec<u32>)> = None;
    for (id, group) in index.ip_id_groups() {
        if !id.is_v6() {
            continue;
        }
        let bits = bits_of(id);
        match &mut cur {
            Some((cb, users)) if *cb == bits => users.extend_from_slice(group.users_dense()),
            _ => {
                if let Some((cb, users)) = cur.take() {
                    flush(cb, users);
                }
                cur = Some((bits, group.users_dense().to_vec()));
            }
        }
    }
    if let Some((cb, users)) = cur.take() {
        flush(cb, users);
    }
}

/// Computes users-per-prefix at `len` over the window's v6 records.
pub fn users_per_prefix(index: &DatasetIndex, len: u8) -> UsersPerPrefix {
    let mut counts: StableHashMap<Ipv6Prefix, u64> = StableHashMap::default();
    walk_prefix_runs(index, len, |p, users| {
        counts.insert(p, users.len() as u64);
    });
    UsersPerPrefix {
        len,
        ecdf: Ecdf::from_values(counts.values().copied()),
        counts,
    }
}

/// Users per IPv6 prefix at each of `lengths`, counted from a user
/// grouping (§6.2.3 counts user-sample members per prefix): each user's
/// distinct v6 addresses give its distinct prefixes at every length, and
/// the prefixes of all users at one length are sorted once, so a
/// prefix's run is one entry per user holding it. Equal to
/// [`users_per_prefix`] over an address grouping of the same rows.
pub fn users_per_prefix_by_user(index: &DatasetIndex, lengths: &[u8]) -> Vec<UsersPerPrefix> {
    let ips = &index.tables().ips;
    let masks: Vec<u128> = lengths.iter().map(|&len| Ipv6Prefix::mask(len)).collect();
    let mut per_len: Vec<Vec<u128>> = vec![Vec::new(); lengths.len()];
    let mut ids = Vec::new();
    for (_, group) in index.user_groups() {
        ids.clear();
        ids.extend(group.ip_ids().iter().filter(|id| id.is_v6()));
        // Ids ascend with addresses, so masked bits ascend too and a
        // user's repeats at a length are adjacent.
        ids.sort_unstable();
        ids.dedup();
        for (&mask, prefixes) in masks.iter().zip(&mut per_len) {
            let mut last = None;
            for &id in &ids {
                let bits = ips.v6_bits(id) & mask;
                if last != Some(bits) {
                    prefixes.push(bits);
                    last = Some(bits);
                }
            }
        }
    }
    lengths
        .iter()
        .zip(per_len)
        .map(|(&len, mut prefixes)| {
            prefixes.sort_unstable();
            let mut counts: StableHashMap<Ipv6Prefix, u64> = StableHashMap::default();
            for run in prefixes.chunk_by(|a, b| a == b) {
                counts.insert(Ipv6Prefix::from_bits(run[0], len), run.len() as u64);
            }
            UsersPerPrefix {
                len,
                ecdf: Ecdf::from_values(counts.values().copied()),
                counts,
            }
        })
        .collect()
}

/// Populations in prefixes hosting abusive accounts (Figure 10) at one
/// length.
#[derive(Debug, Clone)]
pub struct AbusePerPrefix {
    /// Prefix length.
    pub len: u8,
    /// Abusive accounts per prefix-with-abuse.
    pub aa: Ecdf,
    /// Benign users per prefix-with-abuse.
    pub benign: Ecdf,
}

/// Computes Figure 10 at `len`.
pub fn abuse_per_prefix(index: &DatasetIndex, labels: &AbuseLabels, len: u8) -> AbusePerPrefix {
    let mut aa_counts = Vec::new();
    let mut benign_counts = Vec::new();
    walk_prefix_runs(index, len, |_, users| {
        let aa = users.iter().filter(|&&u| labels.is_abusive(u)).count() as u64;
        if aa == 0 {
            return; // prefix hosts no abusive account
        }
        aa_counts.push(aa);
        benign_counts.push(users.len() as u64 - aa);
    });
    AbusePerPrefix {
        len,
        aa: Ecdf::from_values(aa_counts),
        benign: Ecdf::from_values(benign_counts),
    }
}

/// IPv4 analogues of the per-prefix views, used as the reference series in
/// Figures 9 and 10 ("IPv4" curve = users per full IPv4 address).
pub fn users_per_v4_addr(index: &DatasetIndex) -> Ecdf {
    Ecdf::from_values(
        index
            .ip_groups()
            .filter(|(ip, _)| matches!(ip, IpAddr::V4(_)))
            .map(|(_, group)| distinct_users_of(group)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_telemetry::{AbuseInfo, Asn, Country, OwnedColumns, RequestRecord, SimDate};

    fn rec(user: u64, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: SimDate::ymd(4, 13).at(10, 0, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    fn idx(recs: &[RequestRecord]) -> DatasetIndex {
        DatasetIndex::by_address(OwnedColumns::from_records(recs).as_slice())
    }

    fn labels_for(ids: &[u64]) -> AbuseLabels {
        ids.iter()
            .map(|&u| {
                (
                    UserId(u),
                    AbuseInfo {
                        created: SimDate::ymd(4, 12),
                        detected: SimDate::ymd(4, 13),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn users_per_ip_separates_protocols() {
        let recs = vec![
            rec(1, "10.0.0.1"),
            rec(2, "10.0.0.1"),
            rec(3, "10.0.0.1"),
            rec(1, "2001:db8::1"),
            rec(1, "2001:db8::2"),
            rec(2, "2001:db8::2"),
        ];
        let u = users_per_ip(&idx(&recs));
        assert_eq!(u.v4.len(), 1);
        assert_eq!(u.v4.max(), Some(3));
        assert_eq!(u.v6.len(), 2);
        assert_eq!(u.v6.fraction_le(1), 0.5);
        assert_eq!(u.counts[&"10.0.0.1".parse::<IpAddr>().unwrap()], 3);
    }

    #[test]
    fn abuse_per_ip_isolation_statistics() {
        let labels = labels_for(&[100, 101]);
        let recs = vec![
            // v6 address with only an abusive account.
            rec(100, "2001:db8::a"),
            // v6 address shared by an abusive account and a benign user.
            rec(101, "2001:db8::b"),
            rec(1, "2001:db8::b"),
            // v4 address with an AA and two benign users.
            rec(100, "10.0.0.1"),
            rec(1, "10.0.0.1"),
            rec(2, "10.0.0.1"),
            // Purely benign address: must not appear in the AA view.
            rec(3, "10.0.0.99"),
        ];
        let a = abuse_per_ip(&idx(&recs), &labels);
        assert_eq!(a.aa_v6.len(), 2);
        assert_eq!(a.v6_isolated_share(), 0.5);
        assert_eq!(a.aa_v4.len(), 1);
        assert_eq!(a.v4_isolated_share(), 0.0);
        assert_eq!(a.benign_v4.max(), Some(2));
    }

    #[test]
    fn users_per_prefix_aggregates() {
        let recs = vec![
            rec(1, "2001:db8:1:1::a"),
            rec(2, "2001:db8:1:2::b"),
            rec(3, "2001:db8:2:1::c"),
        ];
        let p64 = users_per_prefix(&idx(&recs), 64);
        assert_eq!(p64.ecdf.len(), 3);
        assert_eq!(p64.ecdf.max(), Some(1));
        let p48 = users_per_prefix(&idx(&recs), 48);
        assert_eq!(p48.ecdf.len(), 2);
        assert_eq!(p48.ecdf.max(), Some(2), "users 1,2 share 2001:db8:1::/48");
        let p32 = users_per_prefix(&idx(&recs), 32);
        assert_eq!(p32.ecdf.max(), Some(3));
    }

    #[test]
    fn abuse_per_prefix_counts_cohabitation() {
        let labels = labels_for(&[100]);
        let recs = vec![
            rec(100, "2001:db8:1:1::a"),
            rec(1, "2001:db8:1:2::b"),
            rec(2, "2001:db8:1:3::c"),
            rec(3, "2001:db9::1"), // different /48, no AA
        ];
        let a = abuse_per_prefix(&idx(&recs), &labels, 48);
        assert_eq!(a.aa.len(), 1);
        assert_eq!(a.benign.max(), Some(2));
        let a64 = abuse_per_prefix(&idx(&recs), &labels, 64);
        assert_eq!(a64.benign.max(), Some(0), "AA is alone in its /64");
    }

    #[test]
    fn v4_reference_series() {
        let recs = vec![
            rec(1, "10.0.0.1"),
            rec(2, "10.0.0.1"),
            rec(1, "2001:db8::1"),
        ];
        let e = users_per_v4_addr(&idx(&recs));
        assert_eq!(e.len(), 1);
        assert_eq!(e.max(), Some(2));
    }

    #[test]
    fn empty_inputs() {
        let empty = idx(&[]);
        let u = users_per_ip(&empty);
        assert!(u.v4.is_empty() && u.v6.is_empty());
        let a = abuse_per_ip(&empty, &AbuseLabels::new());
        assert!(a.aa_v4.is_empty());
        assert_eq!(a.v6_isolated_share(), 0.0);
    }

    /// Counting from a user grouping equals walking an address grouping
    /// of the same rows — the counts map and the ECDF — on random windows
    /// of clustered v6 addresses (shared /112s, /64s and /48s) mixed with
    /// v4 rows, at every length 0..=128.
    #[test]
    fn users_per_prefix_by_user_matches_the_address_walk() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x4f36_3232); // "O622"
        let lengths: Vec<u8> = (0..=128).collect();
        for _ in 0..32 {
            let n = g.range_u64(0, 300) as usize;
            let recs: Vec<RequestRecord> = g.vec_of(n, |g| {
                let ip = if g.below(4) == 0 {
                    format!("10.0.0.{}", g.below(8))
                } else {
                    let site = (0x2001_0db8u128 << 96) | (g.below(3) as u128) << 80;
                    let subnet = (g.below(4) as u128) << 64;
                    let gateway = (g.below(3) as u128) << 16;
                    let host = u128::from(g.below(4) as u16);
                    std::net::Ipv6Addr::from(site | subnet | gateway | host).to_string()
                };
                rec(g.below(20), &ip)
            });
            let rows = OwnedColumns::from_records(&recs);
            let by_user = DatasetIndex::by_user(rows.as_slice());
            let by_address = DatasetIndex::by_address(rows.as_slice());
            let counted = users_per_prefix_by_user(&by_user, &lengths);
            for (&len, upp) in lengths.iter().zip(counted) {
                let walked = users_per_prefix(&by_address, len);
                assert_eq!(upp.len, len);
                assert_eq!(upp.counts, walked.counts, "/{len}, {n} rows");
                assert_eq!(upp.ecdf, walked.ecdf, "/{len}, {n} rows");
            }
        }
    }
}
