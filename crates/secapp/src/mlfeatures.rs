//! IP-behavior features and a from-scratch logistic scorer.
//!
//! §7.2's machine-learning discussion: models using IP features should
//! treat the protocols distinctly, because the same feature (say,
//! users-per-address) has wildly different distributions on IPv4 and IPv6.
//! This module extracts the behavioral features the paper's analyses
//! surface and trains a tiny logistic-regression model to predict whether
//! a unit (address or prefix) will host an abusive account the next day —
//! enough to demonstrate the transfer gap between protocols and the value
//! of per-protocol training.

use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

use ipv6_study_netaddr::IidClass;
use ipv6_study_telemetry::{radix_sort_u64, AbuseLabels, ColumnSlice, IpId};

/// Behavioral features of one unit (address) over an observation day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector {
    /// log(1 + distinct users).
    pub log_users: f64,
    /// log(1 + requests).
    pub log_requests: f64,
    /// Requests per user.
    pub reqs_per_user: f64,
    /// Whether the address is IPv6.
    pub is_v6: f64,
    /// IPv6 only: whether the IID matches the gateway signature.
    pub gateway_signature: f64,
    /// IPv6 only: whether the IID is MAC-embedded.
    pub mac_embedded: f64,
    /// Share of the unit's requests in night hours (0–6): bots are
    /// diurnal-flat, humans are not.
    pub night_share: f64,
}

impl FeatureVector {
    /// The feature array (with implicit bias handled by the model).
    pub fn as_array(&self) -> [f64; 7] {
        [
            self.log_users,
            self.log_requests,
            self.reqs_per_user,
            self.is_v6,
            self.gateway_signature,
            self.mac_embedded,
            self.night_share,
        ]
    }
}

/// Extracts per-address features from one day of records.
///
/// Each row becomes one packed `address slot << 32 | dense user` word;
/// one radix sort of those words groups every address's rows, so a run's
/// length is its requests and its distinct words its users, with night
/// requests tallied in one counter per interned address. Nothing is
/// hashed until the result map, and each address is materialized once.
pub fn extract_features(records: ColumnSlice<'_>) -> HashMap<IpAddr, FeatureVector> {
    let ips = &records.tables().ips;
    // One slot per interned address, v4 ids then v6 ones: slot order is
    // id order.
    let n4 = ips.num_v4();
    let slot = |id: IpId| id.index() + if id.is_v6() { n4 } else { 0 };
    let mut night = vec![0u32; ips.len()];
    let mut keys: Vec<u64> = Vec::with_capacity(records.len());
    for ((&id, &user), &ts) in records
        .ip_ids()
        .iter()
        .zip(records.users_dense())
        .zip(records.ts())
    {
        let s = slot(id);
        keys.push((s as u64) << 32 | u64::from(user));
        night[s] += u32::from(ts.hour() < 6);
    }
    radix_sort_u64(&mut keys);
    keys.chunk_by(|a, b| a >> 32 == b >> 32)
        .map(|run| {
            let s = (run[0] >> 32) as usize;
            let id = if s < n4 {
                IpId::new(false, s)
            } else {
                IpId::new(true, s - n4)
            };
            let requests = run.len() as u64;
            let users = run.chunk_by(|a, b| a == b).count();
            features(ips.addr(id), requests, users as u64, u64::from(night[s]))
        })
        .collect()
}

/// An address's features from its requests, distinct users and night
/// requests over the day.
fn features(ip: IpAddr, requests: u64, users: u64, night: u64) -> (IpAddr, FeatureVector) {
    let (sig, mac, v6) = match ip {
        IpAddr::V6(addr) => {
            let c = IidClass::classify(addr);
            (c.is_gateway_signature(), c.is_mac_embedded(), true)
        }
        IpAddr::V4(_) => (false, false, false),
    };
    let users = users as f64;
    (
        ip,
        FeatureVector {
            log_users: (1.0 + users).ln(),
            log_requests: (1.0 + requests as f64).ln(),
            reqs_per_user: requests as f64 / users.max(1.0),
            is_v6: f64::from(v6),
            gateway_signature: f64::from(sig),
            mac_embedded: f64::from(mac),
            night_share: night as f64 / requests.max(1) as f64,
        },
    )
}

/// Builds next-day labels: an address is positive when it hosts at least
/// one abusive account on `next_day`'s records.
pub fn next_day_labels(next_day: ColumnSlice<'_>, labels: &AbuseLabels) -> HashSet<IpAddr> {
    let users = &next_day.tables().users;
    next_day
        .users_dense()
        .iter()
        .enumerate()
        .filter(|(_, &dense)| labels.is_abusive(users.user(dense)))
        .map(|(i, _)| next_day.addr_at(i))
        .collect()
}

/// A logistic-regression model over [`FeatureVector`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// Weights, one per feature.
    pub weights: [f64; 7],
    /// Bias term.
    pub bias: f64,
}

impl LogisticModel {
    /// Trains by batch gradient descent with L2 regularization.
    ///
    /// Deterministic: initialization is zeros and the data order is the
    /// caller's. Class imbalance is handled by weighting positives by the
    /// negative/positive ratio.
    pub fn train(data: &[(FeatureVector, bool)], epochs: u32, lr: f64) -> Self {
        let mut w = [0.0f64; 7];
        let mut b = 0.0f64;
        if data.is_empty() {
            return Self {
                weights: w,
                bias: b,
            };
        }
        let pos = data.iter().filter(|(_, y)| *y).count().max(1) as f64;
        let neg = (data.len() as f64 - pos).max(1.0);
        let pos_weight = neg / pos;
        let n = data.len() as f64;
        const L2: f64 = 1e-4;
        for _ in 0..epochs {
            let mut gw = [0.0f64; 7];
            let mut gb = 0.0f64;
            for (fv, y) in data {
                let x = fv.as_array();
                let z: f64 = b + w.iter().zip(x.iter()).map(|(wi, xi)| wi * xi).sum::<f64>();
                let p = 1.0 / (1.0 + (-z).exp());
                let weight = if *y { pos_weight } else { 1.0 };
                let err = (p - f64::from(*y)) * weight;
                for i in 0..7 {
                    gw[i] += err * x[i];
                }
                gb += err;
            }
            for i in 0..7 {
                w[i] -= lr * (gw[i] / n + L2 * w[i]);
            }
            b -= lr * gb / n;
        }
        Self {
            weights: w,
            bias: b,
        }
    }

    /// The predicted probability that the unit hosts abuse tomorrow.
    pub fn predict(&self, fv: &FeatureVector) -> f64 {
        let x = fv.as_array();
        let z: f64 = self.bias
            + self
                .weights
                .iter()
                .zip(x.iter())
                .map(|(w, xi)| w * xi)
                .sum::<f64>();
        1.0 / (1.0 + (-z).exp())
    }

    /// Ranking AUC over labeled data (probability a random positive ranks
    /// above a random negative), computed exactly.
    pub fn auc(&self, data: &[(FeatureVector, bool)]) -> f64 {
        let mut scored: Vec<(f64, bool)> =
            data.iter().map(|(fv, y)| (self.predict(fv), *y)).collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
        let pos = scored.iter().filter(|(_, y)| *y).count() as f64;
        let neg = scored.len() as f64 - pos;
        if pos == 0.0 || neg == 0.0 {
            return 0.5;
        }
        // Rank-sum with midranks for ties.
        let mut rank_sum = 0.0;
        let mut i = 0;
        let n = scored.len();
        let mut rank = 1.0;
        while i < n {
            let mut j = i;
            while j < n && scored[j].0 == scored[i].0 {
                j += 1;
            }
            let mid = (rank + rank + (j - i) as f64 - 1.0) / 2.0;
            for item in &scored[i..j] {
                if item.1 {
                    rank_sum += mid;
                }
            }
            rank += (j - i) as f64;
            i = j;
        }
        (rank_sum - pos * (pos + 1.0) / 2.0) / (pos * neg)
    }
}

/// Assembles a training set from a (day, next-day) pair: features from
/// `day`, labels from `next_day`, restricted to one protocol when
/// `only_v6` is set.
pub fn training_set(
    day: ColumnSlice<'_>,
    next_day: ColumnSlice<'_>,
    labels: &AbuseLabels,
    only_v6: Option<bool>,
) -> Vec<(FeatureVector, bool)> {
    let [v4, v6] = training_sets_by_protocol(day, next_day, labels);
    match only_v6 {
        Some(true) => v6,
        Some(false) => v4,
        // Every IPv4 address sorts before every IPv6 one.
        None => [v4, v6].concat(),
    }
}

/// The IPv4 and the IPv6 training sets of a (day, next-day) pair from
/// one feature extraction: [`training_set`] with `Some(false)` and with
/// `Some(true)`.
pub fn training_sets_by_protocol(
    day: ColumnSlice<'_>,
    next_day: ColumnSlice<'_>,
    labels: &AbuseLabels,
) -> [Vec<(FeatureVector, bool)>; 2] {
    let positives = next_day_labels(next_day, labels);
    let mut rows: Vec<(IpAddr, FeatureVector)> = extract_features(day).into_iter().collect();
    // Deterministic order for reproducible training: sort on the unit's
    // address, a *total* key. Sorting on feature values ties for distinct
    // addresses, which lets the accumulator map's per-instance iteration
    // order leak into the gradient summation order — and 200 epochs of
    // descent amplify that rounding noise into visibly different AUCs.
    rows.sort_unstable_by_key(|&(ip, _)| ip);
    let mut sets = [Vec::new(), Vec::new()];
    for (ip, fv) in rows {
        sets[usize::from(ip.is_ipv6())].push((fv, positives.contains(&ip)));
    }
    sets
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

    fn rec(user: u64, ip: &str, hour: u8) -> RequestRecord {
        RequestRecord {
            ts: SimDate::ymd(4, 18).at(hour, 0, 0),
            user: UserId(user),
            ip: ip.parse().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    #[test]
    fn feature_extraction() {
        let recs = vec![
            rec(1, "2600:380:1:2::ab1", 2),
            rec(2, "2600:380:1:2::ab1", 14),
            rec(1, "10.0.0.1", 3),
        ];
        let c = cols(&recs);
        let f = extract_features(c.as_slice());
        let v6 = &f[&"2600:380:1:2::ab1".parse::<IpAddr>().unwrap()];
        assert_eq!(v6.is_v6, 1.0);
        assert_eq!(v6.gateway_signature, 1.0);
        assert!((v6.night_share - 0.5).abs() < 1e-12);
        assert!((v6.log_users - 3.0f64.ln()).abs() < 1e-12);
        let v4 = &f[&"10.0.0.1".parse::<IpAddr>().unwrap()];
        assert_eq!(v4.is_v6, 0.0);
        assert_eq!(v4.night_share, 1.0);
    }

    /// The hash-map version the sorted extraction replaced.
    fn extract_features_oracle(records: ColumnSlice<'_>) -> HashMap<IpAddr, FeatureVector> {
        struct Acc {
            users: HashSet<u32>,
            requests: u64,
            night: u64,
        }
        let tables = records.tables();
        let mut acc: HashMap<IpId, Acc> = HashMap::new();
        for ((&id, &user), &ts) in records
            .ip_ids()
            .iter()
            .zip(records.users_dense())
            .zip(records.ts())
        {
            let e = acc.entry(id).or_insert_with(|| Acc {
                users: HashSet::new(),
                requests: 0,
                night: 0,
            });
            e.users.insert(user);
            e.requests += 1;
            if ts.hour() < 6 {
                e.night += 1;
            }
        }
        acc.into_iter()
            .map(|(id, a)| {
                let ip = tables.ips.addr(id);
                features(ip, a.requests, a.users.len() as u64, a.night)
            })
            .collect()
    }

    /// The sorted extraction equals the hash-map oracle on random days:
    /// both families, repeated (address, user) pairs, every hour, and a
    /// window that interns addresses it does not hold.
    #[test]
    fn feature_extraction_matches_the_hash_map_oracle() {
        use ipv6_study_stats::testgen::TestGen;
        let mut g = TestGen::new(0x4d4c_4645); // "MLFE"
        for case in 0..40 {
            let n = g.range_u64(0, 300) as usize;
            let recs: Vec<RequestRecord> = g.vec_of(n, |g| {
                let host = g.below(25);
                let ip = if g.below(3) == 0 {
                    format!("10.0.0.{host}")
                } else {
                    format!("2001:db8:{:x}::{host:x}", host % 3)
                };
                rec(g.below(12), &ip, g.below(24) as u8)
            });
            let c = cols(&recs);
            let half = c.as_slice().slice(0..n / 2);
            for window in [c.as_slice(), half] {
                assert_eq!(
                    extract_features(window),
                    extract_features_oracle(window),
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn logistic_learns_a_separable_problem() {
        // Positives have high night share and many requests per user.
        let mk = |night: f64, rpu: f64| FeatureVector {
            log_users: 0.7,
            log_requests: rpu.ln().max(0.0) + 0.7,
            reqs_per_user: rpu,
            is_v6: 1.0,
            gateway_signature: 0.0,
            mac_embedded: 0.0,
            night_share: night,
        };
        let mut data = Vec::new();
        for i in 0..200 {
            let jitter = (i % 10) as f64 / 100.0;
            data.push((mk(0.8 + jitter / 4.0, 20.0 + jitter), true));
            data.push((mk(0.05 + jitter / 4.0, 3.0 + jitter), false));
        }
        let model = LogisticModel::train(&data, 400, 0.5);
        let auc = model.auc(&data);
        assert!(auc > 0.95, "AUC {auc}");
        assert!(model.predict(&mk(0.85, 25.0)) > model.predict(&mk(0.02, 2.0)));
    }

    #[test]
    fn auc_of_empty_or_one_class_is_half() {
        let model = LogisticModel::train(&[], 10, 0.1);
        assert_eq!(model.auc(&[]), 0.5);
        let fv = FeatureVector {
            log_users: 0.0,
            log_requests: 0.0,
            reqs_per_user: 1.0,
            is_v6: 0.0,
            gateway_signature: 0.0,
            mac_embedded: 0.0,
            night_share: 0.0,
        };
        assert_eq!(model.auc(&[(fv, true)]), 0.5);
    }

    #[test]
    fn training_set_filters_by_protocol() {
        let labels: AbuseLabels = [(
            UserId(100),
            AbuseInfo {
                created: SimDate::ymd(4, 17),
                detected: SimDate::ymd(4, 19),
            },
        )]
        .into_iter()
        .collect();
        let day = vec![rec(1, "2001:db8::1", 10), rec(2, "10.0.0.1", 10)];
        let next = vec![rec(100, "2001:db8::1", 11)];
        let (cd, cn) = (cols(&day), cols(&next));
        let all = training_set(cd.as_slice(), cn.as_slice(), &labels, None);
        assert_eq!(all.len(), 2);
        let v6_only = training_set(cd.as_slice(), cn.as_slice(), &labels, Some(true));
        assert_eq!(v6_only.len(), 1);
        assert!(v6_only[0].1, "the v6 address hosts abuse next day");
        let v4_only = training_set(cd.as_slice(), cn.as_slice(), &labels, Some(false));
        assert!(!v4_only[0].1);
        let [v4, v6] = training_sets_by_protocol(cd.as_slice(), cn.as_slice(), &labels);
        assert_eq!((v4, v6), (v4_only, v6_only));
    }
}
