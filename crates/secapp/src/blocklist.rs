//! A TTL'd prefix blocklist and its longitudinal evaluation.
//!
//! §7.2: IPv6 blocklisting can be aggressive (few users per address) but
//! must be *short-term* (addresses are ephemeral). [`Blocklist`] is the
//! enforcement structure — a pair of tries with per-entry expiry — and
//! [`evaluate_over_days`] is the harness that measures recall and
//! collateral for a listing policy as the list ages.

use std::net::IpAddr;

use ipv6_study_netaddr::{Ipv4Prefix, Ipv6Prefix, PrefixTrie};
use ipv6_study_telemetry::{AbuseLabels, ColumnSlice, SimDate};

use crate::actioning::{tally, Granularity};
use crate::{address_slot, first_sight, ABUSIVE, HIT};

/// A blocklist over IPv4 addresses and IPv6 prefixes with per-entry TTLs.
#[derive(Debug, Clone, Default)]
pub struct Blocklist {
    v4: PrefixTrie<Ipv4Prefix, SimDate>,
    v6: PrefixTrie<Ipv6Prefix, SimDate>,
}

impl Blocklist {
    /// Creates an empty blocklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lists an IPv4 address until `expires` (inclusive).
    pub fn add_v4(&mut self, prefix: Ipv4Prefix, expires: SimDate) {
        match self.v4.get_mut(&prefix) {
            Some(e) => *e = (*e).max(expires),
            None => {
                self.v4.insert(prefix, expires);
            }
        }
    }

    /// Lists an IPv6 prefix until `expires` (inclusive).
    pub fn add_v6(&mut self, prefix: Ipv6Prefix, expires: SimDate) {
        match self.v6.get_mut(&prefix) {
            Some(e) => *e = (*e).max(expires),
            None => {
                self.v6.insert(prefix, expires);
            }
        }
    }

    /// Whether traffic from `ip` is blocked on `day`.
    ///
    /// Checks *every* covering entry, not just the most specific one: a
    /// stale /128 must not shadow a still-live /64 listing.
    pub fn blocks(&self, ip: IpAddr, day: SimDate) -> bool {
        let live = |&expires: &SimDate| expires >= day;
        match ip {
            IpAddr::V4(a) => self.v4.any_covering(&Ipv4Prefix::host(a), live),
            IpAddr::V6(a) => self.v6.any_covering(&Ipv6Prefix::host(a), live),
        }
    }

    /// Number of live entries on `day`.
    pub fn live_entries(&self, day: SimDate) -> usize {
        self.v4.iter().filter(|(_, &e)| e >= day).count()
            + self.v6.iter().filter(|(_, &e)| e >= day).count()
    }

    /// Builds a blocklist from one day's observations: every unit at the
    /// given granularity whose abusive-account ratio is ≥ `threshold` is
    /// listed for `ttl_days`.
    pub fn from_day(
        records: ColumnSlice<'_>,
        labels: &AbuseLabels,
        granularity: Granularity,
        threshold: f64,
        listed_on: SimDate,
        ttl_days: u16,
    ) -> Self {
        // Shares the actioning radix tally: per-unit (abusive, benign)
        // distinct-user counts keyed by portable address/prefix bits.
        let units = tally(records, labels, granularity);
        let mut bl = Self::new();
        let expires = SimDate::from_index((listed_on.index() + ttl_days).min(365));
        for (key, (abusive, benign)) in units {
            let total = abusive + benign;
            if total == 0 || abusive == 0 {
                continue;
            }
            let ratio = abusive as f64 / total as f64;
            if ratio >= threshold {
                match granularity {
                    Granularity::V6Full => bl.add_v6(Ipv6Prefix::from_bits(key, 128), expires),
                    Granularity::V6Prefix(len) => {
                        // Clamped like every Granularity consumer; the
                        // tally above already masked `key` the same way.
                        bl.add_v6(
                            Ipv6Prefix::from_bits(key, Granularity::v6_len(len)),
                            expires,
                        )
                    }
                    Granularity::V4Full => {
                        bl.add_v4(Ipv4Prefix::from_bits(key as u32, 32), expires)
                    }
                }
            }
        }
        bl
    }
}

/// One day of a blocklist evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlocklistDayEval {
    /// Day offset from listing day (1 = next day).
    pub offset: u16,
    /// Share of that day's abusive accounts blocked (recall).
    pub recall: f64,
    /// Share of that day's benign users blocked (collateral).
    pub collateral: f64,
}

/// Evaluates a blocklist against subsequent days' traffic.
///
/// `days` yields `(day, records)` pairs strictly after the listing day.
/// Distinct users are counted through one flag byte per dense user id:
/// a user's label is looked up once, at first sight, and the blocklist
/// is probed only until the user is hit, at most once per address a day.
pub fn evaluate_over_days<'a>(
    blocklist: &Blocklist,
    labels: &AbuseLabels,
    listed_on: SimDate,
    days: impl IntoIterator<Item = (SimDate, ColumnSlice<'a>)>,
) -> Vec<BlocklistDayEval> {
    let (mut flags, mut blocked): (Vec<u8>, Vec<u8>) = (Vec::new(), Vec::new());
    days.into_iter()
        .map(|(day, records)| {
            let (users, ips) = (&records.tables().users, &records.tables().ips);
            flags.clear();
            flags.resize(users.len(), 0);
            // Per address: 0 not probed yet, 1 clear, 2 blocked.
            blocked.clear();
            blocked.resize(ips.len(), 0);
            // [all, hit] distinct users; row 0 benign, row 1 abusive.
            let mut counts = [[0usize; 2]; 2];
            for (&dense, &id) in records.users_dense().iter().zip(records.ip_ids()) {
                let flag = &mut flags[dense as usize];
                if *flag == 0 {
                    *flag = first_sight(labels, users.user(dense));
                    counts[usize::from(*flag & ABUSIVE != 0)][0] += 1;
                }
                if *flag & HIT != 0 {
                    continue;
                }
                let probe = &mut blocked[address_slot(ips, id)];
                if *probe == 0 {
                    *probe = 1 + u8::from(blocklist.blocks(ips.addr(id), day));
                }
                if *probe == 2 {
                    *flag |= HIT;
                    counts[usize::from(*flag & ABUSIVE != 0)][1] += 1;
                }
            }
            let frac = |[all, hit]: [usize; 2]| {
                if all == 0 {
                    0.0
                } else {
                    hit as f64 / all as f64
                }
            };
            BlocklistDayEval {
                offset: day.days_since(listed_on),
                recall: frac(counts[1]),
                collateral: frac(counts[0]),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_telemetry::{AbuseInfo, Asn, Country, OwnedColumns, RequestRecord, UserId};

    fn cols(recs: &[RequestRecord]) -> OwnedColumns {
        OwnedColumns::from_records(recs)
    }

    fn rec(user: u64, day: SimDate, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: day.at(10, 0, 0),
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
                        created: SimDate::ymd(4, 10),
                        detected: SimDate::ymd(4, 19),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn ttl_expiry() {
        let mut bl = Blocklist::new();
        bl.add_v6("2001:db8::/64".parse().unwrap(), SimDate::ymd(4, 15));
        let inside: IpAddr = "2001:db8::1".parse().unwrap();
        assert!(bl.blocks(inside, SimDate::ymd(4, 14)));
        assert!(bl.blocks(inside, SimDate::ymd(4, 15)));
        assert!(!bl.blocks(inside, SimDate::ymd(4, 16)), "expired");
        assert!(!bl.blocks("2001:db9::1".parse().unwrap(), SimDate::ymd(4, 14)));
        assert_eq!(bl.live_entries(SimDate::ymd(4, 15)), 1);
        assert_eq!(bl.live_entries(SimDate::ymd(4, 16)), 0);
    }

    #[test]
    fn re_adding_extends_expiry() {
        let mut bl = Blocklist::new();
        let p: Ipv6Prefix = "2001:db8::/64".parse().unwrap();
        bl.add_v6(p, SimDate::ymd(4, 14));
        bl.add_v6(p, SimDate::ymd(4, 18));
        bl.add_v6(p, SimDate::ymd(4, 12)); // shorter must not shrink
        assert!(bl.blocks("2001:db8::1".parse().unwrap(), SimDate::ymd(4, 17)));
    }

    #[test]
    fn v4_blocking() {
        let mut bl = Blocklist::new();
        bl.add_v4("192.0.2.7/32".parse().unwrap(), SimDate::ymd(4, 20));
        assert!(bl.blocks("192.0.2.7".parse().unwrap(), SimDate::ymd(4, 15)));
        assert!(!bl.blocks("192.0.2.8".parse().unwrap(), SimDate::ymd(4, 15)));
    }

    #[test]
    fn from_day_respects_threshold() {
        let d = SimDate::ymd(4, 18);
        let labels = labels_for(&[100]);
        let records = vec![
            rec(100, d, "2001:db8::a"), // purely abusive address
            rec(100, d, "2001:db8::b"),
            rec(1, d, "2001:db8::b"), // mixed (ratio 0.5)
            rec(2, d, "2001:db8::c"), // purely benign
        ];
        let c = cols(&records);
        let strict = Blocklist::from_day(c.as_slice(), &labels, Granularity::V6Full, 1.0, d, 7);
        assert!(strict.blocks("2001:db8::a".parse().unwrap(), d + 1));
        assert!(!strict.blocks("2001:db8::b".parse().unwrap(), d + 1));
        assert!(!strict.blocks("2001:db8::c".parse().unwrap(), d + 1));
        let loose = Blocklist::from_day(c.as_slice(), &labels, Granularity::V6Full, 0.3, d, 7);
        assert!(loose.blocks("2001:db8::b".parse().unwrap(), d + 1));
        assert!(
            !loose.blocks("2001:db8::c".parse().unwrap(), d + 1),
            "benign-only never listed"
        );
    }

    mod model_based {
        use super::*;
        use ipv6_study_stats::testgen::TestGen;

        /// A naive reference blocklist: a plain list of (prefix, expiry).
        #[derive(Default)]
        struct NaiveList {
            v6: Vec<(Ipv6Prefix, SimDate)>,
        }

        impl NaiveList {
            fn add(&mut self, p: Ipv6Prefix, e: SimDate) {
                self.v6.push((p, e));
            }
            fn blocks(&self, ip: IpAddr, day: SimDate) -> bool {
                let IpAddr::V6(a) = ip else { return false };
                self.v6.iter().any(|&(p, e)| p.contains_addr(a) && e >= day)
            }
        }

        /// The trie-backed blocklist agrees with the naive model on
        /// arbitrary add/query sequences (same-prefix re-adds keep the
        /// max expiry in both).
        #[test]
        fn trie_blocklist_matches_naive_model() {
            let mut g = TestGen::new(0x424C_4B01);
            for _ in 0..128 {
                let mut fast = Blocklist::new();
                let mut naive = NaiveList::default();
                for _ in 0..g.range_u64(1, 39) {
                    // Spread prefixes over a narrow space to force overlap.
                    let raw = (0x2001_0db8u128 << 96) | u128::from(g.next_u64());
                    let p = Ipv6Prefix::from_bits(raw, g.range_u8(40, 128));
                    let e = SimDate::from_index(g.range_u64(100, 139) as u16);
                    fast.add_v6(p, e);
                    naive.add(p, e);
                }
                for _ in 0..40 {
                    let addr = IpAddr::V6(std::net::Ipv6Addr::from(
                        (0x2001_0db8u128 << 96) | u128::from(g.next_u64()),
                    ));
                    let day = SimDate::from_index(g.range_u64(90, 149) as u16);
                    assert_eq!(fast.blocks(addr, day), naive.blocks(addr, day));
                }
            }
        }
    }

    #[test]
    fn evaluation_measures_recall_and_collateral() {
        let d = SimDate::ymd(4, 18);
        let labels = labels_for(&[100, 101]);
        let day_n = vec![rec(100, d, "2001:db8::a")];
        let n = cols(&day_n);
        let bl = Blocklist::from_day(n.as_slice(), &labels, Granularity::V6Full, 0.5, d, 7);
        // Next day: AA 100 returns to the same address; AA 101 is fresh;
        // one benign user on a clean address.
        let next = vec![
            rec(100, d + 1, "2001:db8::a"),
            rec(101, d + 1, "2001:db8::ffff"),
            rec(1, d + 1, "2001:db8::c"),
        ];
        let next_cols = cols(&next);
        let evals = evaluate_over_days(&bl, &labels, d, [(d + 1, next_cols.as_slice())]);
        assert_eq!(evals.len(), 1);
        assert_eq!(evals[0].offset, 1);
        assert!((evals[0].recall - 0.5).abs() < 1e-12);
        assert_eq!(evals[0].collateral, 0.0);
    }
    /// The oracle: one `HashSet` per population and outcome, a label
    /// look-up per row, and every cover of every row's address collected.
    fn evaluate_oracle(
        blocklist: &Blocklist,
        labels: &AbuseLabels,
        listed_on: SimDate,
        days: &[(SimDate, ColumnSlice<'_>)],
    ) -> Vec<BlocklistDayEval> {
        use std::collections::HashSet;
        let blocks = |ip: IpAddr, day: SimDate| match ip {
            IpAddr::V4(a) => blocklist
                .v4
                .covering(&Ipv4Prefix::host(a))
                .iter()
                .any(|(_, &e)| e >= day),
            IpAddr::V6(a) => blocklist
                .v6
                .covering(&Ipv6Prefix::host(a))
                .iter()
                .any(|(_, &e)| e >= day),
        };
        days.iter()
            .map(|&(day, records)| {
                let users = &records.tables().users;
                let mut sets: [HashSet<u32>; 4] = Default::default();
                for (i, &dense) in records.users_dense().iter().enumerate() {
                    let blocked = blocks(records.addr_at(i), day);
                    let base = if labels.is_abusive(users.user(dense)) {
                        0
                    } else {
                        2
                    };
                    sets[base].insert(dense);
                    if blocked {
                        sets[base + 1].insert(dense);
                    }
                }
                let frac = |hit: usize, all: usize| {
                    if all == 0 {
                        0.0
                    } else {
                        hit as f64 / all as f64
                    }
                };
                BlocklistDayEval {
                    offset: day.days_since(listed_on),
                    recall: frac(sets[1].len(), sets[0].len()),
                    collateral: frac(sets[3].len(), sets[2].len()),
                }
            })
            .collect()
    }

    /// The flag-byte evaluation equals the hash-set oracle on random
    /// traffic against blocklists of nested v6 prefixes and v4 entries,
    /// some expiring before or during the evaluated days.
    #[test]
    fn flag_evaluation_matches_the_hash_set_oracle() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x424C_4B03);
        let listed_on = SimDate::ymd(4, 13);
        let v6 = |g: &mut TestGen| {
            let site = (0x2001_0db8u128 << 96) | (g.below(2) as u128) << 80;
            site | (g.below(4) as u128) << 64 | u128::from(g.below(6))
        };
        for _ in 0..64 {
            let mut bl = Blocklist::new();
            for _ in 0..g.range_u64(0, 12) {
                let expires = listed_on + g.range_u64(0, 7) as u16;
                if g.below(4) == 0 {
                    let host = 0xc000_0200 | g.below(6) as u32;
                    bl.add_v4(Ipv4Prefix::from_bits(host, 32), expires);
                } else {
                    // Lengths /44../128 over few subnets nest the entries.
                    let len = [44, 48, 56, 64, 96, 128][g.below(6) as usize];
                    bl.add_v6(Ipv6Prefix::from_bits(v6(&mut g), len), expires);
                }
            }
            let labels = labels_for(&[1, 4, 7]);
            let days: Vec<(SimDate, OwnedColumns)> = (1..=6u16)
                .map(|k| {
                    let day = listed_on + k;
                    let n = g.range_u64(0, 60) as usize;
                    let recs = g.vec_of(n, |g| RequestRecord {
                        ts: day.at(g.below(24) as u8, 0, 0),
                        user: UserId(g.below(10)),
                        ip: if g.below(3) == 0 {
                            IpAddr::V4((0xc000_0200 | g.below(6) as u32).into())
                        } else {
                            IpAddr::V6(v6(g).into())
                        },
                        asn: Asn(64496),
                        country: Country::new("US"),
                    });
                    (day, cols(&recs))
                })
                .collect();
            let slices: Vec<(SimDate, ColumnSlice<'_>)> =
                days.iter().map(|(d, c)| (*d, c.as_slice())).collect();
            assert_eq!(
                evaluate_over_days(&bl, &labels, listed_on, slices.iter().copied()),
                evaluate_oracle(&bl, &labels, listed_on, &slices)
            );
        }
    }
}
