//! Predicting heavily-populated addresses from structure.
//!
//! §6.1.3's operational insight: the mega-populated IPv6 addresses live in
//! a handful of ASNs and carry a distinctive IID structure ("the IID bits
//! are all zeros except the least significant 16 bits"), so a platform can
//! *predict* them and exempt them from blocklists/rate limits instead of
//! discovering them through collateral damage. [`HeavyAddressPredictor`]
//! implements that predictor and its precision/recall evaluation.

use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

use ipv6_study_netaddr::IidClass;
use ipv6_study_telemetry::Asn;

/// Predicts whether an IPv6 address is heavily populated from its
/// structure and ASN, without counting users. The default predictor
/// trusts only the IID signature; [`HeavyAddressPredictor::learn`] adds
/// the gateway ASNs.
#[derive(Debug, Clone, Default)]
pub struct HeavyAddressPredictor {
    /// ASNs known to run gateway-style deployments, learned from
    /// observed heavy addresses.
    gateway_asns: HashSet<Asn>,
}

impl HeavyAddressPredictor {
    /// Learns gateway ASNs from observed heavy addresses: any ASN where
    /// most heavy addresses carry the signature is recorded.
    pub fn learn<S1: std::hash::BuildHasher, S2: std::hash::BuildHasher>(
        counts: &HashMap<IpAddr, u64, S1>,
        asn_of: &HashMap<IpAddr, Asn, S2>,
        heavy_threshold: u64,
    ) -> Self {
        let mut sig: HashMap<Asn, (u64, u64)> = HashMap::new(); // (signature, total)
        for (ip, &c) in counts {
            if c <= heavy_threshold {
                continue;
            }
            if let IpAddr::V6(a) = ip {
                if let Some(&asn) = asn_of.get(ip) {
                    let e = sig.entry(asn).or_default();
                    e.1 += 1;
                    if IidClass::classify(*a).is_gateway_signature() {
                        e.0 += 1;
                    }
                }
            }
        }
        Self {
            gateway_asns: sig
                .into_iter()
                .filter(|&(_, (s, t))| t > 0 && s * 2 >= t)
                .map(|(asn, _)| asn)
                .collect(),
        }
    }

    /// The learned/configured gateway ASNs.
    pub fn gateway_asns(&self) -> &HashSet<Asn> {
        &self.gateway_asns
    }

    /// Predicts whether an address is heavily populated.
    ///
    /// Structural rule: the gateway IID signature predicts heavy. When
    /// gateway ASNs are known, the signature is only trusted there
    /// (tightening precision against coincidental low-IID addresses).
    pub fn predict(&self, ip: IpAddr, asn: Option<Asn>) -> bool {
        match ip {
            IpAddr::V6(a) => {
                let sig = IidClass::classify(a).is_gateway_signature();
                if self.gateway_asns.is_empty() {
                    sig
                } else {
                    sig && asn.is_some_and(|x| self.gateway_asns.contains(&x))
                }
            }
            IpAddr::V4(_) => false,
        }
    }

    /// Precision/recall of the predictor against ground-truth user counts.
    pub fn evaluate<S1: std::hash::BuildHasher, S2: std::hash::BuildHasher>(
        &self,
        counts: &HashMap<IpAddr, u64, S1>,
        asn_of: &HashMap<IpAddr, Asn, S2>,
        heavy_threshold: u64,
    ) -> PredictorEval {
        let mut tp = 0u64;
        let mut fp = 0u64;
        let mut fn_ = 0u64;
        for (ip, &c) in counts {
            if !matches!(ip, IpAddr::V6(_)) {
                continue;
            }
            let heavy = c > heavy_threshold;
            let pred = self.predict(*ip, asn_of.get(ip).copied());
            match (heavy, pred) {
                (true, true) => tp += 1,
                (false, true) => fp += 1,
                (true, false) => fn_ += 1,
                (false, false) => {}
            }
        }
        PredictorEval {
            precision: if tp + fp == 0 {
                1.0
            } else {
                tp as f64 / (tp + fp) as f64
            },
            recall: if tp + fn_ == 0 {
                1.0
            } else {
                tp as f64 / (tp + fn_) as f64
            },
            predicted: tp + fp,
            heavy: tp + fn_,
        }
    }
}

/// Evaluation of a heavy-address predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorEval {
    /// TP / (TP + FP).
    pub precision: f64,
    /// TP / (TP + FN).
    pub recall: f64,
    /// Addresses predicted heavy.
    pub predicted: u64,
    /// Addresses actually heavy.
    pub heavy: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn world() -> (HashMap<IpAddr, u64>, HashMap<IpAddr, Asn>) {
        let counts: HashMap<IpAddr, u64> = [
            // Gateway addresses: heavy, signature IIDs, AS20057.
            ("2600:380:1:2::ab1", 40_000u64),
            ("2600:380:1:2::c3", 35_000),
            // Privacy addresses: light.
            ("2001:db8::a1b2:c3d4:e5f6:7788", 1),
            ("2001:db8::b1b2:c3d4:e5f6:8899", 2),
            // A coincidental low-IID address that is NOT heavy.
            ("2001:db8:9::5", 1),
        ]
        .into_iter()
        .map(|(s, c)| (ip(s), c))
        .collect();
        let asn_of: HashMap<IpAddr, Asn> = [
            ("2600:380:1:2::ab1", 20057u32),
            ("2600:380:1:2::c3", 20057),
            ("2001:db8::a1b2:c3d4:e5f6:7788", 64512),
            ("2001:db8::b1b2:c3d4:e5f6:8899", 64512),
            ("2001:db8:9::5", 64512),
        ]
        .into_iter()
        .map(|(s, a)| (ip(s), Asn(a)))
        .collect();
        (counts, asn_of)
    }

    #[test]
    fn structural_predictor_has_full_recall() {
        let (counts, asn_of) = world();
        let p = HeavyAddressPredictor::default();
        let e = p.evaluate(&counts, &asn_of, 10_000);
        assert_eq!(e.recall, 1.0);
        // The coincidental low-IID address is a false positive.
        assert!(e.precision < 1.0);
        assert_eq!(e.heavy, 2);
        assert_eq!(e.predicted, 3);
    }

    #[test]
    fn learned_asns_tighten_precision() {
        let (counts, asn_of) = world();
        let p = HeavyAddressPredictor::learn(&counts, &asn_of, 10_000);
        assert!(p.gateway_asns().contains(&Asn(20057)));
        assert!(!p.gateway_asns().contains(&Asn(64512)));
        let e = p.evaluate(&counts, &asn_of, 10_000);
        assert_eq!(e.precision, 1.0);
        assert_eq!(e.recall, 1.0);
    }

    #[test]
    fn v4_is_never_predicted() {
        let p = HeavyAddressPredictor::default();
        assert!(!p.predict(ip("192.0.2.1"), Some(Asn(20057))));
    }

    #[test]
    fn empty_world_is_vacuously_perfect() {
        let p = HeavyAddressPredictor::default();
        let e = p.evaluate(&HashMap::new(), &HashMap::new(), 100);
        assert_eq!(e.precision, 1.0);
        assert_eq!(e.recall, 1.0);
        assert_eq!(e.predicted, 0);
    }
}
