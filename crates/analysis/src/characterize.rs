//! §4 — data characterization: prevalence over time, by ASN, by country,
//! and client address patterns.
//!
//! The per-user analysis ([`client_patterns`]) walks a
//! [`DatasetIndex`]; the series and ratio tables take windowed
//! [`ColumnSlice`]s directly — they bucket by day or by ASN/country, which
//! the per-user/per-address index does not accelerate, and their inner
//! loops read the timestamp and id columns without rematerializing rows
//! (an address's ASN and country come from its table entry).

use std::net::Ipv6Addr;

use ipv6_study_netaddr::iid::iid;
use ipv6_study_netaddr::{EntropyProfile, IidClass};
use ipv6_study_telemetry::{radix_sort_u64, Asn, ColumnSlice, Country, DateRange, IpId, SimDate};

use crate::index::DatasetIndex;

/// One day of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrevalencePoint {
    /// The day.
    pub day: SimDate,
    /// Share of users making ≥1 IPv6 request that day.
    pub user_share: f64,
    /// Share of requests over IPv6 that day.
    pub request_share: f64,
}

/// Computes Figure 1: daily IPv6 prevalence among users (from the user
/// random sample) and among requests (from the request random sample).
///
/// Both samples must be in timestamp order (as every store slice is), so
/// each day is one contiguous run of rows, found by binary search. On a
/// day's run of the user sample, one flag byte per dense user id records
/// whether the user was seen and whether it was seen on IPv6, counting
/// each flag's first setting; the day's flags are cleared after it.
pub fn prevalence_series(
    user_sample: ColumnSlice<'_>,
    request_sample: ColumnSlice<'_>,
    range: DateRange,
) -> Vec<PrevalencePoint> {
    const SEEN: u8 = 1;
    const ON_V6: u8 = 2;
    debug_assert!(
        user_sample.ts().is_sorted() && request_sample.ts().is_sorted(),
        "samples are in timestamp order"
    );
    let day_rows = |sample: ColumnSlice<'_>, day: SimDate| {
        let ts = sample.ts();
        let start = ts.partition_point(|t| t.date() < day);
        start..start + ts[start..].partition_point(|t| t.date() == day)
    };
    let share = |v6: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            v6 as f64 / total as f64
        }
    };
    let (users, ips) = (user_sample.users_dense(), user_sample.ip_ids());
    let mut flags = vec![0u8; user_sample.tables().users.len()];
    range
        .days()
        .map(|day| {
            let rows = day_rows(user_sample, day);
            let (mut total, mut v6) = (0u64, 0u64);
            for (&user, &ip) in users[rows.clone()].iter().zip(&ips[rows.clone()]) {
                let flag = &mut flags[user as usize];
                total += u64::from(*flag & SEEN == 0);
                v6 += u64::from(ip.is_v6() && *flag & ON_V6 == 0);
                *flag |= if ip.is_v6() { SEEN | ON_V6 } else { SEEN };
            }
            for &user in &users[rows] {
                flags[user as usize] = 0;
            }
            let requests = &request_sample.ip_ids()[day_rows(request_sample, day)];
            let requests_v6 = requests.iter().filter(|id| id.is_v6()).count();
            PrevalencePoint {
                day,
                user_share: share(v6, total),
                request_share: share(requests_v6 as u64, requests.len() as u64),
            }
        })
        .collect()
}

/// One row of Table 1 / Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioRow<K> {
    /// The key (ASN or country).
    pub key: K,
    /// Users observed on the key.
    pub users: u64,
    /// Share of those users seen on IPv6.
    pub ratio: f64,
}

/// Table 1 / Table 2's rows: the distinct users of each key — a row's
/// key is its address's, packed into a `u32` by `key_of` and unpacked by
/// `unpack` — and the share of them seen on IPv6, for keys with at least
/// `min_users` users, by descending share, then ascending key.
///
/// Distinct (key, user) pairs are counted by sorting packed
/// `key << 32 | user` words and dropping repeats, over every row and over
/// the v6 rows apart; both lists then ascend by key, so one walk pairs
/// each key's users with its v6 users.
fn ratio_rows<K: Ord>(
    records: ColumnSlice<'_>,
    min_users: u64,
    key_of: impl Fn(IpId) -> u32,
    unpack: impl Fn(u32) -> K,
) -> Vec<RatioRow<K>> {
    let mut pairs = Vec::with_capacity(records.len());
    let mut v6_pairs = Vec::new();
    for (&id, &user) in records.ip_ids().iter().zip(records.users_dense()) {
        let pair = u64::from(key_of(id)) << 32 | u64::from(user);
        pairs.push(pair);
        if id.is_v6() {
            v6_pairs.push(pair);
        }
    }
    for list in [&mut pairs, &mut v6_pairs] {
        radix_sort_u64(list);
        list.dedup();
    }
    let same_key = |a: &u64, b: &u64| a >> 32 == b >> 32;
    // Every v6 pair is a pair, so no v6 key is skipped.
    let mut v6_runs = v6_pairs.chunk_by(same_key).peekable();
    let mut rows = Vec::new();
    for run in pairs.chunk_by(same_key) {
        let key = run[0] >> 32;
        let v6_users = v6_runs
            .next_if(|v6| v6[0] >> 32 == key)
            .map_or(0, <[u64]>::len);
        let users = run.len() as u64;
        if users >= min_users {
            rows.push(RatioRow {
                key: unpack(key as u32),
                users,
                ratio: v6_users as f64 / users as f64,
            });
        }
    }
    rows.sort_by(|a, b| {
        b.ratio
            .partial_cmp(&a.ratio)
            .expect("finite ratios")
            .then(a.key.cmp(&b.key))
    });
    rows
}

/// Table 1: ASNs ranked by the share of their users on IPv6, considering
/// ASNs with at least `min_users` observed users.
pub fn asn_ratio_table(records: ColumnSlice<'_>, min_users: u64) -> Vec<RatioRow<Asn>> {
    let ips = &records.tables().ips;
    ratio_rows(records, min_users, |id| ips.asn(id).0, Asn)
}

/// Share of considered ASNs with zero IPv6 users and with <10% IPv6 users
/// (§4.2 reports 10.7% and 28.3%).
pub fn asn_low_v6_shares(rows: &[RatioRow<Asn>]) -> (f64, f64) {
    if rows.is_empty() {
        return (0.0, 0.0);
    }
    let zero = rows.iter().filter(|r| r.ratio == 0.0).count() as f64;
    let low = rows.iter().filter(|r| r.ratio < 0.10).count() as f64;
    (zero / rows.len() as f64, low / rows.len() as f64)
}

/// Table 2 / Figure 12: countries ranked by IPv6 user share.
pub fn country_ratio_table(records: ColumnSlice<'_>, min_users: u64) -> Vec<RatioRow<Country>> {
    let ips = &records.tables().ips;
    let key_of = |id| u32::from(u16::from_be_bytes(ips.country(id).0));
    ratio_rows(records, min_users, key_of, |k| {
        Country((k as u16).to_be_bytes())
    })
}

/// §4.4 — client IPv6 address patterns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientPatterns {
    /// IPv6 users observed.
    pub v6_users: u64,
    /// Share of IPv6 users seen on a transition protocol (6to4/Teredo).
    pub transition_share: f64,
    /// Share of IPv6 users with a MAC-embedded (EUI-64) address.
    pub mac_embedded_share: f64,
    /// Among MAC-embedded users with ≥2 IPv6 addresses: share reusing one
    /// IID across all of them (static MAC).
    pub iid_reuse_share: f64,
    /// Mean nybble entropy (bits, max 4) of the observed IIDs — near 4 for
    /// an RFC 4941-randomized population (Entropy/IP-style measurement).
    pub iid_entropy_bits: f64,
}

/// Computes §4.4's statistics from the user random sample.
pub fn client_patterns(index: &DatasetIndex) -> ClientPatterns {
    let mut v6_users = 0u64;
    let mut transition = 0u64;
    let mut mac_embedded = 0u64;
    let mut multi = 0u64;
    let mut reused = 0u64;
    // The IID words (low 64 bits) of every user's distinct v6 addresses,
    // feeding the Entropy/IP-style nybble measurement.
    let mut iid_words: Vec<u64> = Vec::new();

    let ips = &index.tables().ips;
    for (_, group) in index.user_groups() {
        let mut addrs: Vec<u128> = Vec::new();
        let mut iids: Vec<u64> = Vec::new();
        let mut is_transition = false;
        let mut is_mac = false;
        for &id in group.ip_ids() {
            if id.is_v6() {
                let bits = ips.v6_bits(id);
                addrs.push(bits);
                let a = Ipv6Addr::from(bits);
                match IidClass::classify(a) {
                    IidClass::Teredo | IidClass::SixToFour => is_transition = true,
                    IidClass::MacEmbedded(_) => {
                        is_mac = true;
                        iids.push(iid(a));
                    }
                    _ => {}
                }
            }
        }
        addrs.sort_unstable();
        addrs.dedup();
        if addrs.is_empty() {
            continue; // not a v6 user in this window
        }
        v6_users += 1;
        iid_words.extend(addrs.iter().map(|&raw| raw as u64));
        if is_transition {
            transition += 1;
        }
        if is_mac {
            mac_embedded += 1;
            if addrs.len() >= 2 {
                multi += 1;
                iids.sort_unstable();
                iids.dedup();
                // All of the user's MAC-embedded addresses share one IID.
                if iids.len() == 1 {
                    reused += 1;
                }
            }
        }
    }
    let entropy = EntropyProfile::compute(iid_words);
    let n = v6_users.max(1) as f64;
    ClientPatterns {
        v6_users,
        transition_share: transition as f64 / n,
        mac_embedded_share: mac_embedded as f64 / n,
        iid_reuse_share: if multi == 0 {
            0.0
        } else {
            reused as f64 / multi as f64
        },
        iid_entropy_bits: entropy.map_or(0.0, |e| e.mean_bits()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use ipv6_study_telemetry::{OwnedColumns, RequestRecord, UserId};

    fn cols(recs: &[RequestRecord]) -> OwnedColumns {
        OwnedColumns::from_records(recs)
    }

    fn rec(user: u64, day: SimDate, ip: &str, asn: u32, cc: &str) -> RequestRecord {
        RequestRecord {
            ts: day.at(9, 0, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(asn),
            country: Country::new(cc),
        }
    }

    fn d(m: u8, dd: u8) -> SimDate {
        SimDate::ymd(m, dd)
    }

    #[test]
    fn prevalence_counts_users_and_requests() {
        let day = d(4, 13);
        let user_sample = vec![
            rec(1, day, "2001:db8::1", 1, "US"),
            rec(1, day, "10.0.0.1", 1, "US"), // user 1 is dual-stack
            rec(2, day, "10.0.0.2", 1, "US"),
        ];
        let request_sample = vec![
            rec(3, day, "2001:db8::9", 1, "US"),
            rec(4, day, "10.0.0.9", 1, "US"),
            rec(5, day, "10.0.0.8", 1, "US"),
            rec(6, day, "10.0.0.7", 1, "US"),
        ];
        let (users, reqs) = (cols(&user_sample), cols(&request_sample));
        let pts = prevalence_series(users.as_slice(), reqs.as_slice(), DateRange::single(day));
        assert_eq!(pts.len(), 1);
        assert!(
            (pts[0].user_share - 0.5).abs() < 1e-12,
            "1 of 2 users on v6"
        );
        assert!((pts[0].request_share - 0.25).abs() < 1e-12);
    }

    #[test]
    fn prevalence_handles_empty_days() {
        let empty = cols(&[]);
        let pts = prevalence_series(
            empty.as_slice(),
            empty.as_slice(),
            DateRange::new(d(4, 13), d(4, 14)),
        );
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].user_share, 0.0);
    }

    /// The oracle: Figure 1 with a hash map of per-user flags and one of
    /// request counters per day.
    fn prevalence_series_oracle(
        user_sample: ColumnSlice<'_>,
        request_sample: ColumnSlice<'_>,
        range: DateRange,
    ) -> Vec<PrevalencePoint> {
        let mut users_by_day: HashMap<SimDate, HashMap<u32, bool>> = HashMap::new();
        for ((&ts, &user), &ip) in user_sample
            .ts()
            .iter()
            .zip(user_sample.users_dense())
            .zip(user_sample.ip_ids())
        {
            let d = ts.date();
            if range.contains(d) {
                let e = users_by_day
                    .entry(d)
                    .or_default()
                    .entry(user)
                    .or_insert(false);
                *e |= ip.is_v6();
            }
        }
        let mut reqs_by_day: HashMap<SimDate, (u64, u64)> = HashMap::new();
        for (&ts, &ip) in request_sample.ts().iter().zip(request_sample.ip_ids()) {
            let d = ts.date();
            if range.contains(d) {
                let e = reqs_by_day.entry(d).or_default();
                e.0 += 1;
                if ip.is_v6() {
                    e.1 += 1;
                }
            }
        }
        range
            .days()
            .map(|day| {
                let (u_total, u_v6) = users_by_day
                    .get(&day)
                    .map(|m| (m.len() as u64, m.values().filter(|&&v| v).count() as u64))
                    .unwrap_or((0, 0));
                let (r_total, r_v6) = reqs_by_day.get(&day).copied().unwrap_or((0, 0));
                PrevalencePoint {
                    day,
                    user_share: if u_total == 0 {
                        0.0
                    } else {
                        u_v6 as f64 / u_total as f64
                    },
                    request_share: if r_total == 0 {
                        0.0
                    } else {
                        r_v6 as f64 / r_total as f64
                    },
                }
            })
            .collect()
    }

    /// The per-day flag sweep equals the hash-map oracle on random
    /// timestamp-ordered samples: users on many days, dual-stack users,
    /// days with no rows, and rows before and after the range.
    #[test]
    fn prevalence_matches_the_hash_map_oracle() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x4631_5056); // "F1PV"
        let range = DateRange::new(d(4, 10), d(4, 16));
        for _ in 0..40 {
            let sample = |g: &mut TestGen| {
                let n = g.range_u64(0, 400) as usize;
                let mut recs: Vec<RequestRecord> = g.vec_of(n, |g| {
                    let day = d(4, 8) + g.range_u64(0, 11) as u16;
                    let ip = if g.below(3) == 0 {
                        format!("2001:db8::{:x}", g.below(16))
                    } else {
                        format!("10.0.0.{}", g.below(16))
                    };
                    let mut r = rec(g.below(25), day, &ip, 1, "US");
                    r.ts = day.at(g.below(24) as u8, g.below(60) as u8, 0);
                    r
                });
                recs.sort_by_key(|r| r.ts);
                cols(&recs)
            };
            let (users, reqs) = (sample(&mut g), sample(&mut g));
            assert_eq!(
                prevalence_series(users.as_slice(), reqs.as_slice(), range),
                prevalence_series_oracle(users.as_slice(), reqs.as_slice(), range),
            );
        }
    }

    #[test]
    fn asn_table_ranks_by_ratio() {
        let day = d(4, 13);
        let mut recs = Vec::new();
        // ASN 100: 3 users, all on v6. ASN 200: 3 users, one on v6.
        for u in 0..3 {
            recs.push(rec(u, day, "2001:db8::1", 100, "US"));
            recs.push(rec(10 + u, day, "10.0.0.1", 200, "US"));
        }
        recs.push(rec(10, day, "2001:db8::5", 200, "US"));
        let c = cols(&recs);
        let rows = asn_ratio_table(c.as_slice(), 3);
        assert_eq!(rows[0].key, Asn(100));
        assert!((rows[0].ratio - 1.0).abs() < 1e-12);
        assert_eq!(rows[1].key, Asn(200));
        assert!((rows[1].ratio - 1.0 / 3.0).abs() < 1e-12);
        // min_users filters.
        let rows_strict = asn_ratio_table(c.as_slice(), 4);
        assert!(rows_strict.is_empty());
        let (zero, low) = asn_low_v6_shares(&rows);
        assert_eq!(zero, 0.0);
        assert_eq!(low, 0.0);
    }

    #[test]
    fn country_table_counts_users_once() {
        let day = d(4, 13);
        let recs = vec![
            rec(1, day, "2001:db8::1", 1, "IN"),
            rec(1, day, "2001:db8::2", 1, "IN"), // same user twice
            rec(2, day, "10.0.0.1", 1, "IN"),
            rec(3, day, "10.0.0.2", 1, "US"),
        ];
        let c = cols(&recs);
        let rows = country_ratio_table(c.as_slice(), 1);
        let in_row = rows.iter().find(|r| r.key == Country::new("IN")).unwrap();
        assert_eq!(in_row.users, 2);
        assert!((in_row.ratio - 0.5).abs() < 1e-12);
    }

    /// The per-key hash-set version the sorted pair count replaced.
    fn ratio_rows_oracle<K: Eq + std::hash::Hash + Ord + Copy>(
        records: ColumnSlice<'_>,
        keys: &[K],
        min_users: u64,
    ) -> Vec<RatioRow<K>> {
        use std::collections::HashSet;
        let mut total: HashMap<K, HashSet<u32>> = HashMap::new();
        let mut v6: HashMap<K, HashSet<u32>> = HashMap::new();
        for ((&k, &user), &ip) in keys.iter().zip(records.users_dense()).zip(records.ip_ids()) {
            total.entry(k).or_default().insert(user);
            if ip.is_v6() {
                v6.entry(k).or_default().insert(user);
            }
        }
        let mut rows: Vec<RatioRow<K>> = total
            .into_iter()
            .filter(|(_, users)| users.len() as u64 >= min_users)
            .map(|(k, users)| {
                let v6_users = v6.get(&k).map_or(0, |s| s.len() as u64);
                RatioRow {
                    key: k,
                    users: users.len() as u64,
                    ratio: v6_users as f64 / users.len() as f64,
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.ratio
                .partial_cmp(&a.ratio)
                .expect("finite ratios")
                .then(a.key.cmp(&b.key))
        });
        rows
    }

    /// Both tables equal the hash-set oracle on random windows: many
    /// users per address, ASNs and countries shared by v4 and v6
    /// addresses, keys with only v4 or only v6 users, and every
    /// `min_users` cut.
    #[test]
    fn ratio_tables_match_the_hash_set_oracle() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x5431_5432); // "T1T2"
        let countries = ["US", "DE", "IN", "BR", "JP"];
        for case in 0..40 {
            let n = g.range_u64(0, 400) as usize;
            let recs: Vec<RequestRecord> = g.vec_of(n, |g| {
                let host = g.below(40);
                let ip = if g.below(3) == 0 {
                    format!("10.0.{}.{}", host % 4, host)
                } else {
                    format!("2001:db8:{:x}::{host:x}", host % 6)
                };
                // An address's pair is a function of the address.
                let k = host + 7 * u64::from(ip.contains(':'));
                let (asn, cc) = (64_496 + (k % 6) as u32, countries[(k % 5) as usize]);
                rec(g.below(30), d(4, 13), &ip, asn, cc)
            });
            let c = cols(&recs);
            let slice = c.as_slice();
            // Each row's pair, through its address's `IpTable` entry.
            let asns: Vec<Asn> = slice.records().map(|r| r.asn).collect();
            let ccs: Vec<Country> = slice.records().map(|r| r.country).collect();
            for min_users in [0, 1, 2, 5, 31] {
                assert_eq!(
                    asn_ratio_table(slice, min_users),
                    ratio_rows_oracle(slice, &asns, min_users),
                    "case {case}, min {min_users}: ASNs"
                );
                assert_eq!(
                    country_ratio_table(slice, min_users),
                    ratio_rows_oracle(slice, &ccs, min_users),
                    "case {case}, min {min_users}: countries"
                );
            }
        }
    }

    #[test]
    fn client_patterns_detects_classes() {
        let day = d(4, 13);
        let recs = vec![
            // EUI-64 user with the same IID on two addresses.
            rec(1, day, "2001:db8:1::211:22ff:fe33:4455", 1, "US"),
            rec(1, day, "2001:db8:2::211:22ff:fe33:4455", 1, "US"),
            // Teredo user.
            rec(2, day, "2001:0:1:2:3:4:5:6", 1, "US"),
            // Plain privacy-IID users.
            rec(3, day, "2001:db8::a1b2:c3d4:e5f6:1789", 1, "US"),
            rec(4, day, "2001:db8::ffff:c3d4:e5f6:2789", 1, "US"),
        ];
        let p = client_patterns(&DatasetIndex::by_user(cols(&recs).as_slice()));
        assert_eq!(p.v6_users, 4);
        assert!((p.transition_share - 0.25).abs() < 1e-12);
        assert!((p.mac_embedded_share - 0.25).abs() < 1e-12);
        assert!((p.iid_reuse_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iid_reuse_detects_randomized_macs() {
        let day = d(4, 13);
        // Different MAC-embedded IIDs across addresses: no reuse.
        let recs = vec![
            rec(1, day, "2001:db8:1::211:22ff:fe33:4455", 1, "US"),
            rec(1, day, "2001:db8:2::aa11:22ff:fe33:9999", 1, "US"),
        ];
        let p = client_patterns(&DatasetIndex::by_user(cols(&recs).as_slice()));
        assert_eq!(p.iid_reuse_share, 0.0);
    }
}
