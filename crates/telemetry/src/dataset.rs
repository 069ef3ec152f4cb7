//! One-pass routing of a simulated request stream into the study datasets.
//!
//! The simulation driver produces every request the platform would see; the
//! paper (and we) can only afford to *keep* deterministic samples. A
//! [`StudyDatasets`] accepts the full stream through [`StudyDatasets::offer`]
//! and retains each record in whichever datasets sample it:
//!
//! - the **request** random sample (Fig 1's request series),
//! - the **user** random sample (all requests of sampled users — the
//!   workhorse dataset for §4–§5 and the outlier extrapolations),
//! - the **IP** random sample (all requests from sampled addresses, §6.1),
//! - the **IPv6 prefix** random samples at the study's fifteen lengths
//!   (§6.2), each an independent per-length sample.
//!
//! Prefix-sample records are stored once per sampled length; lengths are
//! configurable to bound memory when an analysis needs only a few.

use std::collections::HashMap;

use ipv6_study_netaddr::{Ipv6Prefix, STUDY_PREFIX_LENGTHS};

use crate::record::RequestRecord;
use crate::sampler::Samplers;
use crate::store::{FrozenStore, RequestStore};

/// The four dataset families of §3.1, filled by deterministic sampling.
#[derive(Debug)]
pub struct StudyDatasets {
    /// Sampler configuration used to route records.
    pub samplers: Samplers,
    /// Random sample of all requests.
    pub request_sample: RequestStore,
    /// All requests from a random sample of users.
    pub user_sample: RequestStore,
    /// All requests from a random sample of addresses.
    pub ip_sample: RequestStore,
    /// All requests from random samples of IPv6 prefixes, per length.
    pub prefix_samples: HashMap<u8, RequestStore>,
    /// Total records offered (the "platform volume" before sampling).
    pub offered: u64,
}

impl StudyDatasets {
    /// Creates dataset stores sampling at the given rates, collecting
    /// prefix samples for every study length.
    pub fn new(samplers: Samplers) -> Self {
        Self::with_prefix_lengths(samplers, &STUDY_PREFIX_LENGTHS)
    }

    /// Creates dataset stores collecting prefix samples only for the given
    /// lengths (pass `&[]` to skip prefix sampling entirely).
    pub fn with_prefix_lengths(samplers: Samplers, lengths: &[u8]) -> Self {
        Self {
            samplers,
            request_sample: RequestStore::new(),
            user_sample: RequestStore::new(),
            ip_sample: RequestStore::new(),
            prefix_samples: lengths.iter().map(|&l| (l, RequestStore::new())).collect(),
            offered: 0,
        }
    }

    /// Offers one platform request; it is retained in every dataset whose
    /// sampler selects it.
    pub fn offer(&mut self, rec: RequestRecord) {
        self.offered += 1;
        if self.samplers.request_sampled(&rec) {
            self.request_sample.push(rec);
        }
        if self.samplers.user_sampled(rec.user) {
            self.user_sample.push(rec);
        }
        if self.samplers.ip_sampled(&rec) {
            self.ip_sample.push(rec);
        }
        if let Some(addr) = rec.ipv6() {
            for (&len, store) in self.prefix_samples.iter_mut() {
                let p = Ipv6Prefix::containing(addr, len);
                if self.samplers.prefix_sampled(p) {
                    store.push(rec);
                }
            }
        }
    }

    /// The prefix sample for a given length.
    ///
    /// # Panics
    /// Panics when that length was not collected.
    pub fn prefix_sample(&mut self, len: u8) -> &mut RequestStore {
        self.prefix_samples
            .get_mut(&len)
            .unwrap_or_else(|| panic!("prefix length /{len} was not collected"))
    }

    /// Total records retained across all datasets (diagnostic).
    pub fn retained(&self) -> u64 {
        let base = self.request_sample.len() + self.user_sample.len() + self.ip_sample.len();
        let prefixes: usize = self.prefix_samples.values().map(|s| s.len()).sum();
        (base + prefixes) as u64
    }

    /// Iterates every retained record across all stores in arbitrary
    /// order — the input for building shared intern tables before freezing.
    pub fn iter_unordered(&self) -> impl Iterator<Item = &RequestRecord> + Clone {
        self.request_sample
            .iter_unordered()
            .chain(self.user_sample.iter_unordered())
            .chain(self.ip_sample.iter_unordered())
            .chain(
                self.prefix_samples
                    .values()
                    .flat_map(|s| s.iter_unordered()),
            )
    }

    /// Consumes the datasets into an immutable columnar [`FrozenDatasets`]
    /// whose stores serve `&self` range queries (see [`FrozenStore`]),
    /// encoded against intern tables built over these datasets alone.
    pub fn freeze(self) -> FrozenDatasets {
        let tables = std::sync::Arc::new(crate::intern::EntityTables::build(self.iter_unordered()));
        self.freeze_with(tables)
    }

    /// Consumes the datasets into a columnar [`FrozenDatasets`] encoded
    /// against shared intern tables.
    pub fn freeze_with(
        self,
        tables: std::sync::Arc<crate::intern::EntityTables>,
    ) -> FrozenDatasets {
        FrozenDatasets {
            samplers: self.samplers,
            request_sample: self.request_sample.freeze_with(tables.clone()),
            user_sample: self.user_sample.freeze_with(tables.clone()),
            ip_sample: self.ip_sample.freeze_with(tables.clone()),
            prefix_samples: self
                .prefix_samples
                .into_iter()
                .map(|(len, store)| (len, store.freeze_with(tables.clone())))
                .collect(),
            offered: self.offered,
        }
    }
}

/// The frozen counterpart of [`StudyDatasets`]: same dataset families, but
/// every store is an immutable, pre-sorted [`FrozenStore`] shareable across
/// analysis threads.
#[derive(Debug)]
pub struct FrozenDatasets {
    /// Sampler configuration the datasets were routed with.
    pub samplers: Samplers,
    /// Random sample of all requests.
    pub request_sample: FrozenStore,
    /// All requests from a random sample of users.
    pub user_sample: FrozenStore,
    /// All requests from a random sample of addresses.
    pub ip_sample: FrozenStore,
    /// All requests from random samples of IPv6 prefixes, per length.
    pub prefix_samples: HashMap<u8, FrozenStore>,
    /// Total records offered (the "platform volume" before sampling).
    pub offered: u64,
}

impl FrozenDatasets {
    /// The prefix sample for a given length.
    ///
    /// # Panics
    /// Panics when that length was not collected.
    pub fn prefix_sample(&self, len: u8) -> &FrozenStore {
        self.prefix_samples
            .get(&len)
            .unwrap_or_else(|| panic!("prefix length /{len} was not collected"))
    }

    /// Total records retained across all datasets (diagnostic).
    pub fn retained(&self) -> u64 {
        let base = self.request_sample.len() + self.user_sample.len() + self.ip_sample.len();
        let prefixes: usize = self.prefix_samples.values().map(|s| s.len()).sum();
        (base + prefixes) as u64
    }

    /// Heap bytes held by all stores' columns (intern tables excluded —
    /// they are shared and accounted once by the caller).
    pub fn bytes(&self) -> usize {
        self.request_sample.bytes()
            + self.user_sample.bytes()
            + self.ip_sample.bytes()
            + self
                .prefix_samples
                .values()
                .map(|s| s.bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Asn, Country, UserId};
    use crate::time::SimDate;
    use std::net::IpAddr;

    fn rec(user: u64, ip: &str, sec: u32) -> RequestRecord {
        RequestRecord {
            ts: crate::time::Timestamp::from_secs(SimDate::ymd(4, 13).start().secs() + sec),
            user: UserId(user),
            ip: ip.parse::<IpAddr>().unwrap(),
            asn: Asn(64496),
            country: Country::new("US"),
        }
    }

    #[test]
    fn full_rate_retains_everything() {
        let s = Samplers {
            request_rate: 1.0,
            user_rate: 1.0,
            ip_rate: 1.0,
            prefix_rate: 1.0,
        };
        let mut d = StudyDatasets::with_prefix_lengths(s, &[64, 48]);
        d.offer(rec(1, "2001:db8::1", 0));
        d.offer(rec(2, "192.0.2.1", 1));
        assert_eq!(d.offered, 2);
        assert_eq!(d.request_sample.len(), 2);
        assert_eq!(d.user_sample.len(), 2);
        assert_eq!(d.ip_sample.len(), 2);
        // Only the IPv6 record lands in prefix samples.
        assert_eq!(d.prefix_sample(64).len(), 1);
        assert_eq!(d.prefix_sample(48).len(), 1);
    }

    #[test]
    fn user_sample_keeps_all_requests_of_sampled_users() {
        let s = Samplers {
            request_rate: 0.0001,
            user_rate: 0.05,
            ip_rate: 0.0001,
            prefix_rate: 0.0,
        };
        let mut d = StudyDatasets::with_prefix_lengths(s.clone(), &[]);
        // Find a sampled user.
        let sampled_user = (0..10_000)
            .find(|&u| s.user_sampled(UserId(u)))
            .expect("some user sampled");
        for i in 0..50 {
            d.offer(rec(sampled_user, "2001:db8::1", i));
        }
        assert_eq!(
            d.user_sample.len(),
            50,
            "every request of a sampled user is kept"
        );
        // And an unsampled user contributes nothing.
        let unsampled = (0..10_000)
            .find(|&u| !s.user_sampled(UserId(u)))
            .expect("some user unsampled");
        d.offer(rec(unsampled, "2001:db8::2", 99));
        assert_eq!(d.user_sample.len(), 50);
    }

    #[test]
    #[should_panic(expected = "was not collected")]
    fn missing_prefix_length_panics() {
        let s = Samplers::paper();
        let mut d = StudyDatasets::with_prefix_lengths(s, &[64]);
        let _ = d.prefix_sample(56);
    }

    #[test]
    fn retained_is_consistent() {
        let s = Samplers {
            request_rate: 1.0,
            user_rate: 1.0,
            ip_rate: 1.0,
            prefix_rate: 1.0,
        };
        let mut d = StudyDatasets::with_prefix_lengths(s, &[64]);
        d.offer(rec(1, "2001:db8::1", 0));
        assert_eq!(d.retained(), 4); // request + user + ip + one prefix store
    }
}
