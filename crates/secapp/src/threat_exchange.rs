//! Threat-intelligence value decay.
//!
//! §7.2: *"the value of intelligence on suspicious IPv6 addresses degrades
//! quickly."* We quantify that: share today's abusive units (addresses or
//! prefixes) as an indicator list, then measure what fraction of each
//! subsequent day's abusive accounts the list still catches. The decay
//! curve is the product a threat exchange actually delivers to consumers.

use ipv6_study_telemetry::{AbuseLabels, ColumnSlice};

use crate::actioning::Granularity;
use crate::{address_slot, first_sight, ABUSIVE, COUNTED, HIT};

/// One day of an indicator list's residual value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecayPoint {
    /// Days since the list was shared (0 = same day).
    pub offset: u16,
    /// Share of that day's abusive accounts appearing on listed units.
    pub residual_recall: f64,
    /// Share of that day's benign users appearing on listed units
    /// (consumer collateral if they act blindly on the feed).
    pub collateral: f64,
}

/// Builds the indicator list from `day0` (every unit hosting an abusive
/// account) and evaluates its residual value on each of `later_days`.
///
/// Distinct users are counted through one flag byte per dense user id:
/// a user's label is looked up once, at first sight, and the list is
/// probed only until the user is hit, at most once per address a day.
pub fn value_decay<'a>(
    day0: ColumnSlice<'_>,
    labels: &AbuseLabels,
    granularity: Granularity,
    later_days: impl IntoIterator<Item = (u16, ColumnSlice<'a>)>,
) -> Vec<DecayPoint> {
    let mut flags: Vec<u8> = vec![0; day0.tables().users.len()];
    let mut listed: Vec<u128> = Vec::new();
    let day0_users = &day0.tables().users;
    for (i, &dense) in day0.users_dense().iter().enumerate() {
        let flag = &mut flags[dense as usize];
        if *flag == 0 {
            *flag = first_sight(labels, day0_users.user(dense));
        }
        if *flag & ABUSIVE != 0 {
            listed.extend(granularity.unit_bits(day0.addr_at(i)));
        }
    }
    listed.sort_unstable();
    listed.dedup();
    let mut probes: Vec<u8> = Vec::new();
    later_days
        .into_iter()
        .map(|(offset, records)| {
            let (users, ips) = (&records.tables().users, &records.tables().ips);
            flags.clear();
            flags.resize(users.len(), 0);
            // Per address: 0 not probed yet, 1 no unit at the granularity,
            // 2 an unlisted unit, 3 a listed one.
            probes.clear();
            probes.resize(ips.len(), 0);
            // [all, hit] distinct users; row 0 benign, row 1 abusive.
            let mut counts = [[0usize; 2]; 2];
            for (&dense, &id) in records.users_dense().iter().zip(records.ip_ids()) {
                let flag = &mut flags[dense as usize];
                if *flag == 0 {
                    *flag = first_sight(labels, users.user(dense));
                    if *flag & ABUSIVE != 0 {
                        // Abusive accounts count on any protocol.
                        *flag |= COUNTED;
                        counts[1][0] += 1;
                    }
                }
                if *flag & HIT != 0 {
                    continue;
                }
                let probe = &mut probes[address_slot(ips, id)];
                if *probe == 0 {
                    *probe = granularity
                        .unit_bits(ips.addr(id))
                        .map_or(1, |key| 2 + u8::from(listed.binary_search(&key).is_ok()));
                }
                if *probe == 1 {
                    continue;
                }
                let abusive = usize::from(*flag & ABUSIVE != 0);
                if *flag & COUNTED == 0 {
                    *flag |= COUNTED;
                    counts[abusive][0] += 1;
                }
                if *probe == 3 {
                    *flag |= HIT;
                    counts[abusive][1] += 1;
                }
            }
            let frac = |[all, hit]: [usize; 2]| {
                if all == 0 {
                    0.0
                } else {
                    hit as f64 / all as f64
                }
            };
            DecayPoint {
                offset,
                residual_recall: frac(counts[1]),
                collateral: frac(counts[0]),
            }
        })
        .collect()
}

/// Summarizes a decay curve as its half-life: the first offset at which
/// residual recall drops below half the day-0 (or first-point) value.
/// Returns `None` when recall never halves within the curve.
pub fn half_life(points: &[DecayPoint]) -> Option<u16> {
    let base = points.first()?.residual_recall;
    if base == 0.0 {
        return Some(0);
    }
    points
        .iter()
        .find(|p| p.residual_recall < base / 2.0)
        .map(|p| p.offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_telemetry::{
        AbuseInfo, Asn, Country, OwnedColumns, RequestRecord, SimDate, UserId,
    };

    fn cols(recs: &[RequestRecord]) -> OwnedColumns {
        OwnedColumns::from_records(recs)
    }

    fn rec(user: u64, ip: &str) -> RequestRecord {
        RequestRecord {
            ts: SimDate::ymd(4, 15).at(10, 0, 0),
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
    fn decay_measures_residual_recall() {
        let labels = labels_for(&[100, 101, 102]);
        let day0 = vec![rec(100, "2001:db8::a"), rec(101, "2001:db8::b")];
        // Day 1: 100 persists on a listed address, 102 is fresh.
        let day1 = vec![rec(100, "2001:db8::a"), rec(102, "2001:db8::c9")];
        // Day 2: all attackers moved.
        let day2 = vec![rec(101, "2001:db8::e1")];
        let (c0, c1, c2) = (cols(&day0), cols(&day1), cols(&day2));
        let pts = value_decay(
            c0.as_slice(),
            &labels,
            Granularity::V6Full,
            [(1u16, c1.as_slice()), (2, c2.as_slice())],
        );
        assert!((pts[0].residual_recall - 0.5).abs() < 1e-12);
        assert_eq!(pts[1].residual_recall, 0.0);
        assert_eq!(half_life(&pts), Some(2));
    }

    #[test]
    fn collateral_counts_benign_on_listed_units() {
        let labels = labels_for(&[100]);
        let day0 = vec![rec(100, "192.0.2.1")];
        let day1 = vec![rec(1, "192.0.2.1"), rec(2, "192.0.2.2")];
        let (c0, c1) = (cols(&day0), cols(&day1));
        let pts = value_decay(
            c0.as_slice(),
            &labels,
            Granularity::V4Full,
            [(1u16, c1.as_slice())],
        );
        assert!((pts[0].collateral - 0.5).abs() < 1e-12);
        assert_eq!(pts[0].residual_recall, 0.0, "no abusive accounts that day");
    }

    #[test]
    fn prefix_lists_decay_slower() {
        let labels = labels_for(&[100]);
        let day0 = vec![rec(100, "2001:db8:1:2::a")];
        // Attacker rotates within the /64.
        let day1 = vec![rec(100, "2001:db8:1:2::b")];
        let (c0, c1) = (cols(&day0), cols(&day1));
        let full = value_decay(
            c0.as_slice(),
            &labels,
            Granularity::V6Full,
            [(1u16, c1.as_slice())],
        );
        let p64 = value_decay(
            c0.as_slice(),
            &labels,
            Granularity::V6Prefix(64),
            [(1u16, c1.as_slice())],
        );
        assert_eq!(full[0].residual_recall, 0.0);
        assert!((p64[0].residual_recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_life_edge_cases() {
        assert_eq!(half_life(&[]), None);
        let flat = vec![
            DecayPoint {
                offset: 1,
                residual_recall: 0.4,
                collateral: 0.0,
            },
            DecayPoint {
                offset: 2,
                residual_recall: 0.35,
                collateral: 0.0,
            },
        ];
        assert_eq!(half_life(&flat), None);
        let zero = vec![DecayPoint {
            offset: 1,
            residual_recall: 0.0,
            collateral: 0.0,
        }];
        assert_eq!(half_life(&zero), Some(0));
    }
    /// The oracle: the listed units and each population and outcome in
    /// a `HashSet`, with a label look-up per row.
    fn value_decay_oracle(
        day0: ColumnSlice<'_>,
        labels: &AbuseLabels,
        granularity: Granularity,
        later_days: &[(u16, ColumnSlice<'_>)],
    ) -> Vec<DecayPoint> {
        use std::collections::HashSet;
        let mut listed: HashSet<u128> = HashSet::new();
        for (i, &dense) in day0.users_dense().iter().enumerate() {
            if labels.is_abusive(day0.tables().users.user(dense)) {
                listed.extend(granularity.unit_bits(day0.addr_at(i)));
            }
        }
        later_days
            .iter()
            .map(|&(offset, records)| {
                let mut sets: [HashSet<u32>; 4] = Default::default();
                for (i, &dense) in records.users_dense().iter().enumerate() {
                    let key = granularity.unit_bits(records.addr_at(i));
                    let hit = key.is_some_and(|k| listed.contains(&k));
                    if labels.is_abusive(records.tables().users.user(dense)) {
                        sets[0].insert(dense);
                        if hit {
                            sets[1].insert(dense);
                        }
                    } else if key.is_some() {
                        sets[2].insert(dense);
                        if hit {
                            sets[3].insert(dense);
                        }
                    }
                }
                let frac = |h: usize, a: usize| if a == 0 { 0.0 } else { h as f64 / a as f64 };
                DecayPoint {
                    offset,
                    residual_recall: frac(sets[1].len(), sets[0].len()),
                    collateral: frac(sets[3].len(), sets[2].len()),
                }
            })
            .collect()
    }

    /// The flag-byte decay equals the hash-set oracle on random mixed
    /// v4/v6 days at every granularity, including abusive accounts seen
    /// only on the other protocol and users hit on their later rows.
    #[test]
    fn flag_decay_matches_the_hash_set_oracle() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x5845_4301);
        let labels = labels_for(&[1, 4, 7]);
        let day = |g: &mut TestGen| {
            let n = g.range_u64(0, 50) as usize;
            let recs = g.vec_of(n, |g| {
                let ip = if g.below(3) == 0 {
                    format!("192.0.2.{}", g.below(5))
                } else {
                    format!("2001:db8:0:{:x}::{:x}", g.below(4), g.below(5))
                };
                rec(g.below(10), &ip)
            });
            cols(&recs)
        };
        for _ in 0..64 {
            let day0 = day(&mut g);
            let later: Vec<(u16, OwnedColumns)> = (1..=4u16).map(|k| (k, day(&mut g))).collect();
            let slices: Vec<(u16, ColumnSlice<'_>)> =
                later.iter().map(|(k, c)| (*k, c.as_slice())).collect();
            for gran in [
                Granularity::V6Full,
                Granularity::V6Prefix(64),
                Granularity::V6Prefix(0),
                Granularity::V4Full,
            ] {
                assert_eq!(
                    value_decay(day0.as_slice(), &labels, gran, slices.iter().copied()),
                    value_decay_oracle(day0.as_slice(), &labels, gran, &slices),
                    "{gran:?}"
                );
            }
        }
    }
}
