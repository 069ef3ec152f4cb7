//! The world: the full population of networks the simulated users attach to.
//!
//! [`World::standard`] builds, per country, a small portfolio of residential
//! ISPs, mobile carriers and an enterprise network — with deployment ratios
//! inverted from the country's observed IPv6 user share (see
//! [`crate::countries::solve_deployment`]) — plus a global set of
//! hosting/VPN providers. Named, real-world-inspired ASNs are wired in where
//! the paper's tables call them out:
//!
//! - **Table 1's high-IPv6 carriers**: Reliance Jio (AS55836, 0.96),
//!   T-Mobile US (AS21928, 0.95), Sky Broadband (AS5607, 0.95), AWN Thailand
//!   (AS131445, 0.88), Sprint (AS10507, 0.86), Verizon (AS22394, 0.86),
//!   Telefónica Brasil (AS26599), Deutsche Telekom (AS3320, 0.83), Comcast
//!   (AS7922, 0.82), TIM Brasil (AS26615, 0.82).
//! - **§6.1.3's gateway carrier** (modeled on AS20057 AT&T Mobility): a
//!   mobile carrier whose subscribers egress through a handful of /112-style
//!   gateway blocks with low-16-bit IIDs — the source of the mega-populated
//!   IPv6 addresses and /112 prefixes.
//! - **§6.1.3's heavy IPv4 CGNs**: Telkom Indonesia (AS23693), Axiata
//!   (AS24203), Indosat (AS4761), Vodafone India (AS38266) — tiny egress
//!   pools shared by enormous subscriber bases.
//! - **§6.2.3's hosting/VPN providers**: M247 (AS9009), Cloudflare
//!   (AS13335), OVH (AS16276), DigitalOcean (AS14061) — VPN egress PoPs
//!   that create heavily populated /64s, plus rentable attacker servers.

use ipv6_study_netaddr::{Ipv4Prefix, Ipv6Prefix};
use ipv6_study_stats::dist::WeightedIndex;
use ipv6_study_telemetry::{Asn, Country};

use crate::conf::{V4Conf, V6Conf};
use crate::countries::{solve_deployment, standard_countries, CountryProfile};
use crate::kind::NetworkKind;
use crate::network::{Network, NetworkError, NetworkId, NetworkSpec};

/// Number of gateway /112 blocks on the gateway-mode carrier. Few blocks ×
/// a large subscriber base = the paper's mega-populated prefixes.
const GATEWAY_BLOCKS: u16 = 6;
/// Active egress addresses per gateway block: tiny by design, so each
/// gateway address carries a large slice of the carrier's users (the
/// §6.1.3 mega-populated addresses). Their load grows with the simulated
/// population, exactly like a real gateway's.
const GATEWAY_EGRESS: u16 = 4;

/// Egress-pool size for the mega-CGNs (heavily shared IPv4); fixed so the
/// per-address user load grows with the population.
const MEGA_CGN_POOL: u32 = 24;
/// Egress addresses per enterprise network (shared by its companies).
const ENTERPRISE_POOL: u32 = 4_096;
/// Egress addresses per hosting/VPN provider (IPv4).
const HOSTING_POOL_V4: u32 = 512;
/// VPN PoP count (IPv6 /64s) per hosting provider.
const HOSTING_POPS: u16 = 24;
/// Design household count behind [`World::standard`]; use [`World::sized`]
/// for a different simulated population.
const DEFAULT_DESIGN_HOUSEHOLDS: u64 = 20_000;
/// Households sharing one residential egress address on average. NAT444 is
/// widespread, and Figure 7 needs only about a third of IPv4 addresses to
/// be single-user even within one day.
const HOUSEHOLDS_PER_V4_ADDR: f64 = 2.2;
/// Subscribers per ordinary-CGN egress address on average.
const SUBSCRIBERS_PER_CGN_ADDR: f64 = 7.0;
/// Average household members (mirrors the behavior crate's distribution).
const MEMBERS_PER_HOUSEHOLD: f64 = 2.4;
/// Share of users with a mobile subscription (mirrors behavior).
const MOBILE_SHARE: f64 = 0.78;

/// The complete network population plus country metadata and pick tables.
#[derive(Debug)]
pub struct World {
    /// World seed (flows into nothing here — the world is static — but is
    /// carried for provenance and reused by the behavior crate).
    pub seed: u64,
    networks: Vec<Network>,
    countries: Vec<CountryProfile>,
    country_index: WeightedIndex,
    residential: Vec<(Vec<NetworkId>, WeightedIndex)>,
    mobile: Vec<(Vec<NetworkId>, WeightedIndex)>,
    enterprise: Vec<(Vec<NetworkId>, WeightedIndex)>,
    hosting: (Vec<NetworkId>, WeightedIndex),
}

/// Internal builder state.
struct Builder {
    networks: Vec<Network>,
}

impl Builder {
    fn next_id(&self) -> NetworkId {
        NetworkId(self.networks.len() as u32)
    }

    /// Sequential synthetic address blocks: the i-th network owns the IPv4
    /// /16 `11.0.0.0/16 + i` and the IPv6 /32 `2a00::/32 + i` (documented
    /// synthetic space; geolocation and ASN mapping are by construction).
    fn v4_pool(&self) -> Ipv4Prefix {
        let i = self.networks.len() as u32;
        Ipv4Prefix::from_bits(0x0B00_0000u32.wrapping_add(i << 16), 16)
    }

    fn v6_routing(&self) -> Ipv6Prefix {
        let i = self.networks.len() as u128;
        Ipv6Prefix::from_bits((0x2A00_0000u128 + i) << 96, 32)
    }

    fn push(&mut self, spec: NetworkSpec) -> Result<NetworkId, NetworkError> {
        let id = self.next_id();
        self.networks.push(Network::try_new(id, spec)?);
        Ok(id)
    }

    fn synth_asn(&self) -> Asn {
        // Private-use 32-bit ASN range, one per synthetic network.
        Asn(4_200_000_000 + self.networks.len() as u32)
    }
}

/// A named-network override: replaces one synthetic slot in a country's
/// portfolio with a real-world-inspired ASN and deployment ratio.
struct NamedNet {
    code: &'static str,
    kind: NetworkKind,
    asn: u32,
    name: &'static str,
    /// Subscriber weight within (country, kind).
    weight: f64,
    /// Fixed IPv6 deployment ratio (overrides the solved country ratio);
    /// `None` inherits the solved ratio.
    v6: Option<f64>,
    /// Marks the gateway-mode carrier.
    gateway: bool,
    /// Marks a mega-CGN (tiny IPv4 egress pool).
    mega_cgn: bool,
}

const NAMED: &[NamedNet] = &[
    NamedNet {
        code: "IN",
        kind: NetworkKind::Mobile,
        asn: 55836,
        name: "Reliance Jio",
        weight: 0.55,
        v6: Some(0.96),
        gateway: false,
        mega_cgn: false,
    },
    NamedNet {
        code: "IN",
        kind: NetworkKind::Mobile,
        asn: 38266,
        name: "Vodafone India",
        weight: 0.25,
        v6: Some(0.45),
        gateway: false,
        mega_cgn: true,
    },
    NamedNet {
        code: "US",
        kind: NetworkKind::Mobile,
        asn: 21928,
        name: "T-Mobile US",
        weight: 0.28,
        v6: Some(0.95),
        gateway: false,
        mega_cgn: false,
    },
    NamedNet {
        code: "US",
        kind: NetworkKind::Mobile,
        asn: 22394,
        name: "Verizon Wireless",
        weight: 0.25,
        v6: Some(0.86),
        gateway: false,
        mega_cgn: false,
    },
    NamedNet {
        code: "US",
        kind: NetworkKind::Mobile,
        asn: 10507,
        name: "Sprint PCS",
        weight: 0.12,
        v6: Some(0.86),
        gateway: false,
        mega_cgn: false,
    },
    NamedNet {
        code: "US",
        kind: NetworkKind::Mobile,
        asn: 20057,
        name: "AT&T Mobility",
        weight: 0.30,
        v6: Some(0.88),
        gateway: true,
        mega_cgn: false,
    },
    NamedNet {
        code: "US",
        kind: NetworkKind::Residential,
        asn: 7922,
        name: "Comcast",
        weight: 0.40,
        v6: Some(0.82),
        gateway: false,
        mega_cgn: false,
    },
    NamedNet {
        code: "GB",
        kind: NetworkKind::Residential,
        asn: 5607,
        name: "Sky Broadband",
        weight: 0.35,
        v6: Some(0.95),
        gateway: false,
        mega_cgn: false,
    },
    NamedNet {
        code: "TH",
        kind: NetworkKind::Mobile,
        asn: 131445,
        name: "Advanced Wireless Network",
        weight: 0.45,
        v6: Some(0.88),
        gateway: false,
        mega_cgn: false,
    },
    NamedNet {
        code: "DE",
        kind: NetworkKind::Residential,
        asn: 3320,
        name: "Deutsche Telekom",
        weight: 0.45,
        v6: Some(0.83),
        gateway: false,
        mega_cgn: false,
    },
    NamedNet {
        code: "BR",
        kind: NetworkKind::Residential,
        asn: 26599,
        name: "Telefonica Brasil",
        weight: 0.35,
        v6: Some(0.84),
        gateway: false,
        mega_cgn: false,
    },
    NamedNet {
        code: "BR",
        kind: NetworkKind::Mobile,
        asn: 26615,
        name: "TIM Brasil",
        weight: 0.30,
        v6: Some(0.82),
        gateway: false,
        mega_cgn: false,
    },
    NamedNet {
        code: "ID",
        kind: NetworkKind::Mobile,
        asn: 23693,
        name: "Telkomsel",
        weight: 0.45,
        v6: Some(0.04),
        gateway: false,
        mega_cgn: true,
    },
    NamedNet {
        code: "ID",
        kind: NetworkKind::Mobile,
        asn: 24203,
        name: "Axiata XL",
        weight: 0.30,
        v6: Some(0.05),
        gateway: false,
        mega_cgn: true,
    },
    NamedNet {
        code: "ID",
        kind: NetworkKind::Mobile,
        asn: 4761,
        name: "Indosat",
        weight: 0.25,
        v6: Some(0.05),
        gateway: false,
        mega_cgn: true,
    },
];

/// Hosting/VPN providers (global).
const HOSTERS: &[(&str, u32, &str)] = &[
    ("RO", 9009, "M247"),
    ("US", 13335, "Cloudflare"),
    ("FR", 16276, "OVH"),
    ("US", 14061, "DigitalOcean"),
    ("NL", 4_200_100_001, "SyntheticHost-A"),
    ("SG", 4_200_100_002, "SyntheticHost-B"),
];

impl World {
    /// Builds the standard world at the default design population.
    pub fn standard(seed: u64) -> Self {
        Self::sized(seed, DEFAULT_DESIGN_HOUSEHOLDS)
    }

    /// Builds the standard world sized for `design_households` homes, so
    /// address-sharing densities (users per NAT/CGN egress) stay constant
    /// across simulation scales.
    pub fn sized(seed: u64, design_households: u64) -> Self {
        // invariant: the standard world's derived pool sizes are clamped
        // into their prefixes by construction, so try_sized cannot fail
        // here; a panic means the builder itself regressed.
        Self::try_sized(seed, design_households).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`World::sized`], for callers whose population
    /// size comes from configuration: construction errors are reported
    /// instead of panicking, so `StudyConfig::validate` can surface them.
    pub fn try_sized(seed: u64, design_households: u64) -> Result<Self, NetworkError> {
        let countries = standard_countries();
        let mut b = Builder {
            networks: Vec::new(),
        };
        let mut residential = Vec::new();
        let mut mobile = Vec::new();
        let mut enterprise = Vec::new();

        for profile in &countries {
            let code = profile.country.as_str();
            let households_c = design_households as f64 * profile.weight;
            let mobile_subs_c = households_c * MEMBERS_PER_HOUSEHOLD * MOBILE_SHARE;
            let res_pool = |weight: f64| -> u32 {
                ((households_c * weight / HOUSEHOLDS_PER_V4_ADDR) as u32).clamp(24, 60_000)
            };
            let cgn_pool = |weight: f64| -> u32 {
                ((mobile_subs_c * weight / SUBSCRIBERS_PER_CGN_ADDR) as u32).clamp(16, 16_000)
            };
            let res_jan = solve_deployment(profile.v6_jan, profile.mobile_skew);
            let res_apr = solve_deployment(profile.v6_apr, profile.mobile_skew);
            // Linear ramp between the two calibration points; day 22 is
            // Jan 23 and day 109 is Apr 19.
            let ramp = (res_apr - res_jan) / 87.0;
            let res_base = (res_jan - ramp * 22.0).clamp(0.0, 1.0);
            let mob = |r: f64| (profile.mobile_skew * r).clamp(0.0, 0.97);

            // Residential portfolio: one leader, one median, one laggard,
            // so countries show ASN diversity in Table-1-style rankings.
            let named_res: Vec<&NamedNet> = NAMED
                .iter()
                .filter(|n| n.code == code && n.kind == NetworkKind::Residential)
                .collect();
            let mut res_ids = Vec::new();
            let mut res_weights = Vec::new();
            for n in &named_res {
                let id = b.push(NetworkSpec {
                    asn: Asn(n.asn),
                    name: n.name.to_string(),
                    kind: NetworkKind::Residential,
                    country: profile.country,
                    weight: n.weight,
                    v6_base_ratio: n.v6.unwrap_or(res_base).max(0.0001),
                    v6_ramp_per_day: if n.v6.is_some() { 0.0 } else { ramp.max(0.0) },
                    v4: V4Conf::home(b.v4_pool(), res_pool(n.weight), 5.0),
                    v6: Some(V6Conf::residential(b.v6_routing(), 56, 75.0)),
                })?;
                res_ids.push(id);
                res_weights.push(n.weight);
            }
            let remaining: f64 = 1.0 - res_weights.iter().sum::<f64>();
            // Spread multipliers keep the weighted mean at the solved ratio.
            for (i, (mult, w, pd_len, pd_days)) in [
                (1.25, 0.45, 56u8, 75.0),
                (1.0, 0.35, 60, 40.0),
                (0.5, 0.20, 64, 20.0),
            ]
            .iter()
            .enumerate()
            {
                let ratio = (res_base * mult).clamp(0.0, 0.97);
                let weight = remaining * w;
                let id = b.push(NetworkSpec {
                    asn: b.synth_asn(),
                    name: format!("{code}-Broadband-{}", i + 1),
                    kind: NetworkKind::Residential,
                    country: profile.country,
                    weight,
                    v6_base_ratio: ratio.max(0.0001),
                    v6_ramp_per_day: (ramp * mult).max(0.0),
                    v4: V4Conf::home(b.v4_pool(), res_pool(weight), 5.0),
                    v6: Some(V6Conf::residential(b.v6_routing(), *pd_len, *pd_days)),
                })?;
                res_ids.push(id);
                res_weights.push(weight);
            }
            residential.push((res_ids, WeightedIndex::new(&res_weights)));

            // Mobile portfolio.
            let named_mob: Vec<&NamedNet> = NAMED
                .iter()
                .filter(|n| n.code == code && n.kind == NetworkKind::Mobile)
                .collect();
            let mut mob_ids = Vec::new();
            let mut mob_weights = Vec::new();
            for n in &named_mob {
                let v4 = if n.mega_cgn {
                    let mut c = V4Conf::cgn(b.v4_pool(), MEGA_CGN_POOL, 3.0);
                    c.lease_mean_days = 1.0;
                    c
                } else {
                    let mut c = V4Conf::cgn(b.v4_pool(), cgn_pool(n.weight), 4.0);
                    c.lease_mean_days = 1.0;
                    c
                };
                // Gateway carrier aside, alternate named carriers between
                // per-device and sector-shared /64 deployments.
                let v6conf = if n.gateway {
                    V6Conf::gateway(b.v6_routing(), GATEWAY_BLOCKS, GATEWAY_EGRESS)
                } else if n.asn % 2 == 0 {
                    let subs = (mobile_subs_c * n.weight) as u32;
                    V6Conf::mobile_sector(b.v6_routing(), (subs / 12).max(16))
                } else {
                    V6Conf::mobile(b.v6_routing(), 7.0, 0.15)
                };
                let id = b.push(NetworkSpec {
                    asn: Asn(n.asn),
                    name: n.name.to_string(),
                    kind: NetworkKind::Mobile,
                    country: profile.country,
                    weight: n.weight,
                    v6_base_ratio: n.v6.unwrap_or_else(|| mob(res_base)).max(0.0001),
                    v6_ramp_per_day: 0.0,
                    v4,
                    v6: Some(v6conf),
                })?;
                mob_ids.push(id);
                mob_weights.push(n.weight);
            }
            let remaining: f64 = 1.0 - mob_weights.iter().sum::<f64>();
            if remaining > 1e-9 {
                for (i, (mult, w)) in [(1.1, 0.6), (0.75, 0.4)].iter().enumerate() {
                    let ratio = (mob(res_base) * mult).clamp(0.0, 0.97);
                    let weight = remaining * w;
                    let id = b.push(NetworkSpec {
                        asn: b.synth_asn(),
                        name: format!("{code}-Mobile-{}", i + 1),
                        kind: NetworkKind::Mobile,
                        country: profile.country,
                        weight,
                        v6_base_ratio: ratio.max(0.0001),
                        v6_ramp_per_day: (ramp * mob(1.0) * mult).max(0.0),
                        v4: {
                            let mut c = V4Conf::cgn(b.v4_pool(), cgn_pool(weight), 4.0);
                            c.lease_mean_days = 1.0;
                            c
                        },
                        v6: Some(if i == 0 {
                            let subs = (mobile_subs_c * weight) as u32;
                            V6Conf::mobile_sector(b.v6_routing(), (subs / 12).max(16))
                        } else {
                            V6Conf::mobile(b.v6_routing(), 7.0, 0.15)
                        }),
                    })?;
                    mob_ids.push(id);
                    mob_weights.push(weight);
                }
            }
            mobile.push((mob_ids, WeightedIndex::new(&mob_weights)));

            // One enterprise network per country, IPv6-poor and sticky.
            let ent_ratio = (0.2 * res_base).clamp(0.0001, 0.5);
            let ent_id = b.push(NetworkSpec {
                asn: b.synth_asn(),
                name: format!("{code}-Enterprise"),
                kind: NetworkKind::Enterprise,
                country: profile.country,
                weight: 1.0,
                v6_base_ratio: ent_ratio,
                v6_ramp_per_day: 0.0,
                v4: V4Conf::enterprise(b.v4_pool(), ENTERPRISE_POOL),
                v6: Some(V6Conf::residential(b.v6_routing(), 64, 365.0)),
            })?;
            enterprise.push((vec![ent_id], WeightedIndex::new(&[1.0])));
        }

        // Global hosting/VPN providers.
        let mut host_ids = Vec::new();
        let mut host_weights = Vec::new();
        for (i, (cc, asn, name)) in HOSTERS.iter().enumerate() {
            let id = b.push(NetworkSpec {
                asn: Asn(*asn),
                name: (*name).to_string(),
                kind: NetworkKind::Hosting,
                country: Country::new(cc),
                weight: if i == 0 { 0.30 } else { 0.14 },
                v6_base_ratio: 0.9,
                v6_ramp_per_day: 0.0,
                v4: V4Conf::shared_egress(b.v4_pool(), HOSTING_POOL_V4),
                v6: Some(V6Conf::hosting(b.v6_routing(), HOSTING_POPS)),
            })?;
            host_ids.push(id);
            host_weights.push(if i == 0 { 0.30 } else { 0.14 });
        }

        let country_index =
            WeightedIndex::new(&countries.iter().map(|c| c.weight).collect::<Vec<_>>());

        Ok(World {
            seed,
            networks: b.networks,
            countries,
            country_index,
            residential,
            mobile,
            enterprise,
            hosting: (host_ids, WeightedIndex::new(&host_weights)),
        })
    }

    /// All networks.
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// Mutable access to the networks, for ablation studies that rewrite
    /// assignment policies after the world is built.
    pub fn networks_mut(&mut self) -> &mut [Network] {
        &mut self.networks
    }

    /// A network by id.
    pub fn network(&self, id: NetworkId) -> &Network {
        &self.networks[id.0 as usize]
    }

    /// All country profiles.
    pub fn countries(&self) -> &[CountryProfile] {
        &self.countries
    }

    /// The profile at a country index.
    pub fn country(&self, idx: usize) -> &CountryProfile {
        &self.countries[idx]
    }

    /// Samples a country index by population weight.
    pub fn pick_country(&self, h: u64) -> usize {
        self.country_index.sample(h)
    }

    /// Samples a residential ISP for a country.
    pub fn pick_residential(&self, country_idx: usize, h: u64) -> NetworkId {
        let (ids, w) = &self.residential[country_idx];
        ids[w.sample(h)]
    }

    /// Samples a mobile carrier for a country.
    pub fn pick_mobile(&self, country_idx: usize, h: u64) -> NetworkId {
        let (ids, w) = &self.mobile[country_idx];
        ids[w.sample(h)]
    }

    /// Samples the enterprise network for a country.
    pub fn pick_enterprise(&self, country_idx: usize, h: u64) -> NetworkId {
        let (ids, w) = &self.enterprise[country_idx];
        ids[w.sample(h)]
    }

    /// Samples a hosting/VPN provider (global).
    pub fn pick_hosting(&self, h: u64) -> NetworkId {
        let (ids, w) = &self.hosting;
        ids[w.sample(h)]
    }

    /// Finds a network by ASN (named networks have unique ASNs).
    pub fn find_by_asn(&self, asn: Asn) -> Option<&Network> {
        self.networks.iter().find(|n| n.asn == asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::hash::stable_hash64;
    use ipv6_study_telemetry::SimDate;

    fn world() -> World {
        World::standard(42)
    }

    #[test]
    fn world_builds_with_all_kinds_everywhere() {
        let w = world();
        assert!(w.networks().len() > 150, "got {}", w.networks().len());
        for idx in 0..w.countries().len() {
            let h = stable_hash64(1, &(idx as u64).to_le_bytes());
            let r = w.network(w.pick_residential(idx, h));
            assert_eq!(r.kind, NetworkKind::Residential);
            assert_eq!(r.country, w.country(idx).country);
            let m = w.network(w.pick_mobile(idx, h));
            assert_eq!(m.kind, NetworkKind::Mobile);
            let e = w.network(w.pick_enterprise(idx, h));
            assert_eq!(e.kind, NetworkKind::Enterprise);
        }
        let host = w.network(w.pick_hosting(7));
        assert_eq!(host.kind, NetworkKind::Hosting);
    }

    #[test]
    fn named_networks_are_present_with_ratios() {
        let w = world();
        let jio = w.find_by_asn(Asn(55836)).expect("Reliance Jio");
        assert!((jio.v6_base_ratio - 0.96).abs() < 1e-9);
        assert_eq!(jio.country, Country::new("IN"));
        let sky = w.find_by_asn(Asn(5607)).expect("Sky");
        assert!((sky.v6_base_ratio - 0.95).abs() < 1e-9);
        let telkom = w.find_by_asn(Asn(23693)).expect("Telkomsel");
        assert!(telkom.v4.pool_size <= 64, "mega CGN pool is tiny");
        assert!(telkom.v4.intra_day_cycles > 1.0);
        assert!(w.find_by_asn(Asn(9009)).is_some(), "M247");
    }

    #[test]
    fn address_pools_do_not_overlap() {
        let w = world();
        let mut v4 = std::collections::HashSet::new();
        let mut v6 = std::collections::HashSet::new();
        for n in w.networks() {
            assert!(v4.insert(n.v4.pool), "duplicate v4 pool {:?}", n.v4.pool);
            if let Some(conf) = &n.v6 {
                assert!(v6.insert(conf.routing), "duplicate v6 routing");
            }
        }
    }

    #[test]
    fn country_sampling_tracks_weights() {
        let w = world();
        let n = 200_000;
        let mut hits = vec![0u32; w.countries().len()];
        for i in 0..n {
            let h = stable_hash64(9, &(i as u64).to_le_bytes());
            hits[w.pick_country(h)] += 1;
        }
        // India carries ~14%.
        let in_idx = w
            .countries()
            .iter()
            .position(|c| c.country == Country::new("IN"))
            .unwrap();
        let got = f64::from(hits[in_idx]) / n as f64;
        assert!((got - 0.14).abs() < 0.01, "IN share {got}");
    }

    #[test]
    fn germany_ramps_over_the_window() {
        let w = world();
        let dt = w.find_by_asn(Asn(3320)).unwrap();
        // The named DT network has a fixed (already-high) ratio…
        assert!(dt.v6_base_ratio > 0.8);
        // …while the synthetic German ISPs carry the country ramp.
        let de_ramp = w
            .networks()
            .iter()
            .filter(|n| n.country == Country::new("DE") && n.kind == NetworkKind::Residential)
            .any(|n| n.v6_ramp_per_day > 0.0005);
        assert!(de_ramp, "German residential ramp expected");
        let by_ramp = w
            .networks()
            .iter()
            .filter(|n| n.country == Country::new("BY"))
            .any(|n| n.v6_ramp_per_day > 0.0005);
        assert!(by_ramp, "Belarus ramp expected");
    }

    #[test]
    fn try_sized_builds_across_scales() {
        for hh in [400, 20_000, 1_000_000] {
            let w = World::try_sized(42, hh).expect("standard world is always valid");
            assert!(w.networks().len() > 150);
        }
    }

    #[test]
    fn deployment_ratio_bounds_hold_everywhere() {
        let w = world();
        for n in w.networks() {
            for day in [SimDate::ymd(1, 23), SimDate::ymd(4, 19)] {
                let r = n.v6_ratio_on(day);
                assert!((0.0..=1.0).contains(&r), "{}: {r}", n.name);
            }
        }
    }
}
