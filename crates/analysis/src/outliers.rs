//! Outlier analyses (§5.1.3, §5.3.3, §6.1.3, §6.2.3).
//!
//! The paper's outlier findings are the operationally interesting ones:
//! IPv4 outliers (users with thousands of addresses, addresses with
//! hundreds of thousands of users) are *prevalent, diverse and
//! unpredictable*; IPv6 outliers are *rare, concentrated in a few ASNs,
//! and structurally fingerprintable*. These functions extract exactly the
//! statistics the paper quotes, plus the extrapolation machinery used to
//! scale sample counts to population statements.

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::net::IpAddr;

use ipv6_study_netaddr::{IidClass, Ipv6Prefix};
use ipv6_study_stats::counter::TopK;
use ipv6_study_stats::extrapolate::prevalence_ratio;
use ipv6_study_stats::StableHashMap;
use ipv6_study_telemetry::{Asn, ColumnSlice, UserId};

use crate::index::DatasetIndex;

/// Tail statistics of a per-entity count map.
#[derive(Debug, Clone, PartialEq)]
pub struct TailStats {
    /// Entities in the population.
    pub total: u64,
    /// Entities whose count exceeds each queried threshold, with the
    /// threshold. Sorted by threshold ascending.
    pub above: Vec<(u64, u64)>,
    /// The largest count.
    pub max: u64,
    /// The largest counts, descending (up to 20).
    pub top: Vec<u64>,
}

/// Computes tail statistics at the given thresholds.
pub fn tail_stats<K, S: BuildHasher>(counts: &HashMap<K, u64, S>, thresholds: &[u64]) -> TailStats {
    let mut top: Vec<u64> = counts.values().copied().collect();
    top.sort_unstable_by(|a, b| b.cmp(a));
    let above = thresholds
        .iter()
        .map(|&t| (t, top.iter().filter(|&&c| c > t).count() as u64))
        .collect();
    TailStats {
        total: counts.len() as u64,
        above,
        max: top.first().copied().unwrap_or(0),
        top: top.into_iter().take(20).collect(),
    }
}

impl TailStats {
    /// Entities above a threshold (must be one of the queried thresholds).
    pub fn above(&self, threshold: u64) -> u64 {
        self.above
            .iter()
            .find(|&&(t, _)| t == threshold)
            .map(|&(_, c)| c)
            .unwrap_or_else(|| panic!("threshold {threshold} was not queried"))
    }
}

/// §5.1.3's headline comparison: the prevalence of outlier users (above
/// `threshold` addresses) among each protocol's user population, as the
/// ratio v6-prevalence / v4-prevalence (the paper reports 1/12).
pub fn outlier_user_prevalence_ratio<S: BuildHasher>(
    v4_counts: &HashMap<UserId, u64, S>,
    v6_counts: &HashMap<UserId, u64, S>,
    threshold: u64,
) -> Option<f64> {
    let v4_out = v4_counts.values().filter(|&&c| c > threshold).count() as u64;
    let v6_out = v6_counts.values().filter(|&&c| c > threshold).count() as u64;
    prevalence_ratio(
        v6_out,
        v6_counts.len() as u64,
        v4_out,
        v4_counts.len() as u64,
    )
}

/// ASN concentration of heavy entities (addresses or prefixes): which ASNs
/// own the entities whose count exceeds `threshold`, and what share the top
/// ASN and top-4 ASNs hold (§6.1.3: one carrier owns 96% of heavy v6
/// addresses; §6.2.3: M247 holds 21% of heavy /64s, top-4 hold 61%).
#[derive(Debug, Clone)]
pub struct AsnConcentration {
    /// Heavy entities per ASN, ranked.
    pub ranked: Vec<(Asn, u64)>,
    /// Number of distinct ASNs with heavy entities.
    pub asns: usize,
    /// Share held by the top ASN.
    pub top1_share: f64,
    /// Share held by the top 4 ASNs.
    pub top4_share: f64,
}

/// Computes ASN concentration for heavy addresses.
///
/// `counts` gives users per address; the address grouping's keys are the
/// window's addresses, and the intern table supplies each one's ASN.
pub fn heavy_ip_asn_concentration<S: BuildHasher>(
    index: &DatasetIndex,
    counts: &HashMap<IpAddr, u64, S>,
    threshold: u64,
    want_v6: bool,
) -> AsnConcentration {
    let mut topk: TopK<u32> = TopK::new();
    let ips = &index.tables().ips;
    for (id, _) in index.ip_id_groups().filter(|(id, _)| id.is_v6() == want_v6) {
        if counts.get(&ips.addr(id)).is_some_and(|&c| c > threshold) {
            topk.add(ips.asn(id).0, 1);
        }
    }
    let ranked: Vec<(Asn, u64)> = topk
        .ranked(usize::MAX)
        .into_iter()
        .map(|(a, c)| (Asn(a), c))
        .collect();
    AsnConcentration {
        asns: topk.num_keys(),
        top1_share: topk.concentration(1),
        top4_share: topk.concentration(4),
        ranked,
    }
}

/// Same concentration analysis for heavy IPv6 prefixes.
///
/// Stays window-order based: a prefix's attributed ASN is the one of its
/// first record in timestamp order, which a per-address walk cannot recover
/// when equal-timestamp records of one prefix span several addresses. The
/// scan reads the id column in window (timestamp) order, each address's
/// ASN from the address table.
pub fn heavy_prefix_asn_concentration<S: BuildHasher>(
    records: ColumnSlice<'_>,
    counts: &HashMap<Ipv6Prefix, u64, S>,
    threshold: u64,
) -> AsnConcentration {
    let mut asn_of: StableHashMap<Ipv6Prefix, Asn> = StableHashMap::default();
    let len = counts.keys().next().map_or(64, |p| p.len());
    let ips = &records.tables().ips;
    for &id in records.ip_ids() {
        if id.is_v6() {
            let p = Ipv6Prefix::from_bits(ips.v6_bits(id), len);
            asn_of.entry(p).or_insert_with(|| ips.asn(id));
        }
    }
    let mut topk: TopK<u32> = TopK::new();
    for (p, &c) in counts {
        if c > threshold {
            if let Some(asn) = asn_of.get(p) {
                topk.add(asn.0, 1);
            }
        }
    }
    let ranked: Vec<(Asn, u64)> = topk
        .ranked(usize::MAX)
        .into_iter()
        .map(|(a, c)| (Asn(a), c))
        .collect();
    AsnConcentration {
        asns: topk.num_keys(),
        top1_share: topk.concentration(1),
        top4_share: topk.concentration(4),
        ranked,
    }
}

/// §6.1.3's predictability result: the share of heavy IPv6 addresses whose
/// IID matches the gateway signature (all-zero except the low 16 bits),
/// versus the same share among non-heavy addresses. A large gap means the
/// outliers are structurally fingerprintable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignaturePredictability {
    /// Heavy addresses carrying the signature / all heavy addresses.
    pub heavy_signature_share: f64,
    /// Light addresses carrying the signature / all light addresses.
    pub light_signature_share: f64,
}

/// Computes signature predictability over v6 address user-counts.
pub fn signature_predictability<S: BuildHasher>(
    counts: &HashMap<IpAddr, u64, S>,
    threshold: u64,
) -> SignaturePredictability {
    let mut heavy = (0u64, 0u64); // (signature, total)
    let mut light = (0u64, 0u64);
    for (ip, &c) in counts {
        if let IpAddr::V6(a) = ip {
            let sig = IidClass::classify(*a).is_gateway_signature();
            let slot = if c > threshold {
                &mut heavy
            } else {
                &mut light
            };
            slot.1 += 1;
            if sig {
                slot.0 += 1;
            }
        }
    }
    let share = |(s, t): (u64, u64)| if t == 0 { 0.0 } else { s as f64 / t as f64 };
    SignaturePredictability {
        heavy_signature_share: share(heavy),
        light_signature_share: share(light),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_telemetry::{Country, OwnedColumns, RequestRecord, SimDate};

    fn rec(user: u64, ip: &str, asn: u32) -> RequestRecord {
        RequestRecord {
            ts: SimDate::ymd(4, 13).at(8, 0, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(asn),
            country: Country::new("US"),
        }
    }

    #[test]
    fn tail_stats_thresholds() {
        let counts: HashMap<u32, u64> =
            [(1, 5), (2, 50), (3, 500), (4, 5000)].into_iter().collect();
        let t = tail_stats(&counts, &[10, 100, 1000]);
        assert_eq!(t.total, 4);
        assert_eq!(t.above(10), 3);
        assert_eq!(t.above(100), 2);
        assert_eq!(t.above(1000), 1);
        assert_eq!(t.max, 5000);
        assert_eq!(t.top[0], 5000);
    }

    #[test]
    #[should_panic(expected = "was not queried")]
    fn tail_stats_unknown_threshold_panics() {
        let counts: HashMap<u32, u64> = [(1, 5)].into_iter().collect();
        tail_stats(&counts, &[10]).above(42);
    }

    #[test]
    fn prevalence_ratio_matches_paper_shape() {
        // 100 v4 users, 10 outliers; 100 v6 users, 1 outlier → ratio 0.1.
        let v4: HashMap<UserId, u64> = (0..100)
            .map(|u| (UserId(u), if u < 10 { 2000 } else { 3 }))
            .collect();
        let v6: HashMap<UserId, u64> = (0..100)
            .map(|u| (UserId(u + 1000), if u == 0 { 2000 } else { 3 }))
            .collect();
        let r = outlier_user_prevalence_ratio(&v4, &v6, 1000).unwrap();
        assert!((r - 0.1).abs() < 1e-12);
    }

    #[test]
    fn asn_concentration_ranks() {
        let records = vec![
            rec(1, "2001:db8::1", 20057),
            rec(2, "2001:db8::2", 20057),
            rec(3, "2001:db8::3", 9009),
            rec(4, "2001:db8::4", 13335),
        ];
        let counts: HashMap<IpAddr, u64> = [
            ("2001:db8::1", 5000u64),
            ("2001:db8::2", 4000),
            ("2001:db8::3", 3000),
            ("2001:db8::4", 10), // light
        ]
        .into_iter()
        .map(|(s, c)| (s.parse().unwrap(), c))
        .collect();
        let index = DatasetIndex::by_address(OwnedColumns::from_records(&records).as_slice());
        let c = heavy_ip_asn_concentration(&index, &counts, 1000, true);
        assert_eq!(c.asns, 2);
        assert_eq!(c.ranked[0], (Asn(20057), 2));
        assert!((c.top1_share - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.top4_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_concentration() {
        let records = vec![
            rec(1, "2001:db8:1::1", 9009),
            rec(2, "2001:db8:2::1", 20057),
        ];
        let counts: HashMap<Ipv6Prefix, u64> =
            [("2001:db8:1::/48", 20_000u64), ("2001:db8:2::/48", 15_000)]
                .into_iter()
                .map(|(s, c)| (s.parse().unwrap(), c))
                .collect();
        let owned = OwnedColumns::from_records(&records);
        let c = heavy_prefix_asn_concentration(owned.as_slice(), &counts, 10_000);
        assert_eq!(c.asns, 2);
        assert!((c.top1_share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn signature_separates_heavy_from_light() {
        let counts: HashMap<IpAddr, u64> = [
            // Heavy gateway addresses: low-16-bit IIDs.
            ("2600:380:1:2::ab1", 50_000u64),
            ("2600:380:1:2::c44", 42_000),
            // Light privacy addresses.
            ("2001:db8::a1b2:c3d4:e5f6:1111", 1),
            ("2001:db8::b2c3:d4e5:f6a7:2222", 2),
        ]
        .into_iter()
        .map(|(s, c)| (s.parse().unwrap(), c))
        .collect();
        let p = signature_predictability(&counts, 10_000);
        assert_eq!(p.heavy_signature_share, 1.0);
        assert_eq!(p.light_signature_share, 0.0);
    }
}
