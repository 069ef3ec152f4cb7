//! The study's four deterministic attribute samplers.
//!
//! §3.1: *"Our sampling method is deterministic over time and over network
//! requests, selecting requests based on the hash value of a particular
//! request attribute. As a result, our datasets include all network requests
//! with the same randomly-selected set of attribute values over time."*
//!
//! Each sampler hashes one attribute with its own domain-separation seed:
//!
//! | dataset                    | attribute            |
//! |----------------------------|----------------------|
//! | request random sample      | (user, ip, ts) tuple |
//! | user random sample         | user id              |
//! | IP random sample           | source address       |
//! | IPv6 prefix random sample  | prefix bits + length |
//!
//! Note the request sampler hashes the whole tuple (there is no request id),
//! which matches "a random sample of all network requests".

use ipv6_study_netaddr::Ipv6Prefix;
use ipv6_study_stats::hash::{sampled, stable_hash64, StableHasher};

use crate::ids::UserId;
use crate::record::RequestRecord;

/// Domain-separation seeds. Fixed constants: the datasets must be the same
/// in every run and every process, exactly like the paper's samplers.
const SEED_REQUEST: u64 = 0x5245_5155; // "REQU"
const SEED_USER: u64 = 0x5553_4552; // "USER"
const SEED_IP: u64 = 0x4950_4144; // "IPAD"
const SEED_PREFIX: u64 = 0x5052_4658; // "PRFX"

/// Sampling configuration and decision functions for all datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct Samplers {
    /// Inclusion probability for the request random sample.
    pub request_rate: f64,
    /// Inclusion probability for the user random sample.
    pub user_rate: f64,
    /// Inclusion probability for the IP random sample.
    pub ip_rate: f64,
    /// Inclusion probability for each IPv6 prefix random sample. The paper
    /// samples prefixes per length; we use one rate across lengths, with
    /// independent per-length hash domains.
    pub prefix_rate: f64,
}

impl Samplers {
    /// The paper's configuration: 0.1% samples throughout.
    pub fn paper() -> Self {
        Self {
            request_rate: 0.001,
            user_rate: 0.001,
            ip_rate: 0.001,
            prefix_rate: 0.001,
        }
    }

    /// A scaled configuration for simulations with `population` users,
    /// chosen so each sample captures roughly the same *proportion* of the
    /// simulated platform as the paper's 0.1% did of ~2.5B accounts. For
    /// small simulated populations this raises the rates (capped at 1.0) so
    /// samples stay statistically useful.
    pub fn scaled_for(population: u64) -> Self {
        // Target ≈ max(4000 users, 0.1%) in the user sample (enough that
        // Figure 1's ±0.5pp weekend/lockdown effects clear sampling noise),
        // capped at 50% so "samples" stay samples.
        let user_rate = (4_000.0 / population.max(1) as f64).clamp(0.001, 0.5);
        Self {
            request_rate: user_rate,
            user_rate,
            // IP sample: addresses outnumber users on v6 and are shared on
            // v4; the same rate keeps both usable.
            ip_rate: user_rate,
            prefix_rate: user_rate,
        }
    }

    /// Whether a user belongs to the user random sample.
    pub fn user_sampled(&self, user: UserId) -> bool {
        sampled(SEED_USER, user.raw(), self.user_rate)
    }

    /// Whether an address belongs to the IP random sample.
    pub fn ip_sampled(&self, rec: &RequestRecord) -> bool {
        sampled(SEED_IP, rec.ip_key(), self.ip_rate)
    }

    /// Whether a request belongs to the request random sample.
    pub fn request_sampled(&self, rec: &RequestRecord) -> bool {
        let mut h = StableHasher::new(SEED_REQUEST);
        h.write_u64(rec.user.raw())
            .write_u64(rec.ip_key())
            .write_u64(u64::from(rec.ts.secs()));
        let key = h.finish();
        sampled(SEED_REQUEST ^ 1, key, self.request_rate)
    }

    /// Whether an IPv6 prefix belongs to the prefix random sample for its
    /// length. Decisions are independent across lengths (per-length hash
    /// domain), mirroring the paper's per-length prefix samples.
    pub fn prefix_sampled(&self, prefix: Ipv6Prefix) -> bool {
        let mut h = StableHasher::new(SEED_PREFIX ^ u64::from(prefix.len()));
        h.write_u128(prefix.bits());
        sampled(SEED_PREFIX, h.finish(), self.prefix_rate)
    }
}

/// Derives a per-entity sub-seed for hash-driven generation, mixing a
/// namespace tag with an entity id. Shared helper for simulator crates.
pub fn entity_seed(namespace: u64, entity: u64) -> u64 {
    stable_hash64(namespace, &entity.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Asn, Country};
    use crate::time::SimDate;
    use std::net::IpAddr;

    fn rec(user: u64, ip: &str, secs_offset: u32) -> RequestRecord {
        RequestRecord {
            ts: crate::time::Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + secs_offset),
            user: UserId(user),
            ip: ip.parse::<IpAddr>().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    #[test]
    fn user_sampling_is_per_user_and_stable_over_time() {
        let s = Samplers {
            request_rate: 0.5,
            user_rate: 0.5,
            ip_rate: 0.5,
            prefix_rate: 0.5,
        };
        for u in 0..200 {
            let a = s.user_sampled(UserId(u));
            let b = s.user_sampled(UserId(u));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ip_sampling_keys_on_address_only() {
        let s = Samplers {
            request_rate: 1.0,
            user_rate: 1.0,
            ip_rate: 0.5,
            prefix_rate: 1.0,
        };
        let r1 = rec(1, "2001:db8::1", 0);
        let r2 = rec(999, "2001:db8::1", 5000); // same IP, different user/time
        assert_eq!(s.ip_sampled(&r1), s.ip_sampled(&r2));
    }

    #[test]
    fn request_sampling_depends_on_tuple() {
        let s = Samplers {
            request_rate: 0.5,
            user_rate: 1.0,
            ip_rate: 1.0,
            prefix_rate: 1.0,
        };
        let base = rec(1, "2001:db8::1", 0);
        // Deterministic for the identical record.
        assert_eq!(s.request_sampled(&base), s.request_sampled(&base));
        // Across many distinct records the rate is approximately honored.
        let hits = (0..20_000)
            .filter(|&i| s.request_sampled(&rec(i, "2001:db8::1", i as u32)))
            .count();
        assert!((hits as f64 / 20_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn prefix_sampling_is_independent_across_lengths() {
        let s = Samplers {
            request_rate: 1.0,
            user_rate: 1.0,
            ip_rate: 1.0,
            prefix_rate: 0.5,
        };
        let addr: std::net::Ipv6Addr = "2001:db8:1:2:3:4:5:6".parse().unwrap();
        // The /64 decision should not force the /48 decision: across many
        // prefixes, the joint rate should look like product, not identity.
        let mut agree = 0;
        let n = 4000;
        for i in 0..n {
            let a: std::net::Ipv6Addr = format!("2001:db8:{}:{}::1", i / 256, i % 256)
                .parse()
                .unwrap();
            let p64 = Ipv6Prefix::containing(a, 64);
            let p48 = Ipv6Prefix::containing(a, 48);
            if s.prefix_sampled(p64) == s.prefix_sampled(p48) {
                agree += 1;
            }
        }
        let frac = agree as f64 / n as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "decisions should be independent, agree={frac}"
        );
        let _ = addr;
    }

    #[test]
    fn scaled_rates_are_sane() {
        let small = Samplers::scaled_for(10_000);
        assert!(small.user_rate <= 1.0 && small.user_rate >= 0.1);
        let large = Samplers::scaled_for(100_000_000);
        assert!(
            (large.user_rate - 0.001).abs() < 1e-9,
            "floors at the paper's 0.1%"
        );
        let paper = Samplers::paper();
        assert_eq!(paper.user_rate, 0.001);
    }
}
