//! Attacker campaigns and the detection process.
//!
//! Abusive accounts arrive in *campaigns* riding one of three
//! infrastructure types, each reproducing a behavior the paper observes:
//!
//! - **Hosting servers** — rented VMs with stable v4/v6 addresses. Accounts
//!   spread ~one-per-server (§6.1.2: "attackers tend not to use a large
//!   number of abusive accounts on a single IP address"); servers cluster
//!   inside the customer's /56 allocation, producing the /56-level abusive
//!   aggregation of Figure 10a, with no benign users on the same address
//!   (the isolated-v6 effect of Figure 8).
//! - **Residential proxies** — compromised home connections. Every request
//!   exits a different household, so accounts rack up IPv4 addresses that
//!   are *shared with many benign users* (Figure 8's v4 pattern) while
//!   touching IPv6 rarely (proxy software is v4-biased), driving the
//!   v4>v6 inversion of Figure 3.
//! - **Mobile device farms** — phones on carrier CGN: forced IPv4 cycling
//!   within a day versus one stable IPv6 /64 (§5.1.2's hypothesis,
//!   implemented literally).
//!
//! Detection censors lifetimes exactly as §3.3 describes: most accounts are
//! caught within a day; a small *evasive* minority (proxy-heavy campaigns)
//! survives longer and supplies the outlier accounts of §5.1.3.

use ipv6_study_netmodel::{AttachKeys, Network, NetworkId, World};
use ipv6_study_stats::dist::{bernoulli, geometric, lognormal, poisson, uniform_range};
use ipv6_study_stats::hash::StableHasher;
use ipv6_study_telemetry::{
    AbuseInfo, AbuseLabels, DateRange, RequestRecord, RequestSink, SimDate, UserId,
};

use crate::population::{Population, MAX_MEMBERS};

/// Bit marking abusive user ids (benign ids stay far below this).
pub const ABUSE_ID_BASE: u64 = 1 << 48;

/// Probability an ordinary account is detected on any given active day
/// (≈ 78% caught on day one — "the vast majority … within a day", §3.3).
const DETECT_P_ORDINARY: f64 = 0.85;
/// Detection probability per day for evasive campaigns.
const DETECT_P_EVASIVE: f64 = 0.18;
/// Fraction of campaigns that are evasive.
const EVASIVE_FRACTION: f64 = 0.05;
/// Mean requests per abusive account per active day.
const REQ_PER_DAY: f64 = 12.0;

/// Infrastructure a campaign operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignInfra {
    /// Rented servers on a hosting provider.
    Hosting {
        /// The provider.
        net: NetworkId,
        /// Servers rented (accounts spread across them).
        servers: u32,
    },
    /// A pool of compromised residential connections.
    ResidentialProxy {
        /// Proxy pool size available to the campaign.
        pool: u32,
    },
    /// Phones on a mobile carrier.
    MobileFarm {
        /// The carrier.
        net: NetworkId,
        /// Farm phones (accounts spread across them).
        devices: u32,
    },
}

/// One campaign's static description.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// Campaign index.
    pub id: u32,
    /// Infrastructure.
    pub infra: CampaignInfra,
    /// First account-creation day.
    pub start: SimDate,
    /// Days over which accounts are created.
    pub creation_window: u16,
    /// Total accounts the campaign creates.
    pub accounts: u32,
    /// Whether the campaign evades detection for longer.
    pub evasive: bool,
}

/// The attacker simulation: campaigns, accounts, labels, and emission.
#[derive(Debug)]
pub struct AbuseSim<'w> {
    world: &'w World,
    seed: u64,
    campaigns: u32,
    /// Household count of the benign population (proxy pools draw from it).
    households: u64,
    window: DateRange,
    /// Multiplier on per-day detection probabilities (1.0 = the platform's
    /// real posture; lower = the slow-detection ablation).
    detect_scale: f64,
}

impl<'w> AbuseSim<'w> {
    /// Creates an attacker simulation with `campaigns` campaigns whose
    /// activity falls inside `window`, preying on a benign population of
    /// `households` homes.
    pub fn new(
        world: &'w World,
        seed: u64,
        campaigns: u32,
        households: u64,
        window: DateRange,
    ) -> Self {
        assert!(households > 0);
        Self {
            world,
            seed,
            campaigns,
            households,
            window,
            detect_scale: 1.0,
        }
    }

    /// Scales detection speed (0 < scale ≤ 1; e.g. 0.5 halves the per-day
    /// catch probability — the "slower defender" ablation).
    pub fn with_detect_scale(mut self, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "detect scale must be in (0, 1]"
        );
        self.detect_scale = scale;
        self
    }

    fn h(&self, tag: u32, a: u64, b: u64) -> u64 {
        let mut s = StableHasher::new(self.seed ^ 0x4142_5553 ^ (u64::from(tag) << 32)); // "ABUS"
        s.write_u64(a).write_u64(b);
        s.finish()
    }

    /// The abusive account id for (campaign, sequence).
    pub fn account_id(campaign: u32, seq: u32) -> UserId {
        debug_assert!(seq < (1 << 16));
        UserId(ABUSE_ID_BASE | (u64::from(campaign) << 16) | u64::from(seq))
    }

    /// The campaign at index `c`.
    pub fn campaign(&self, c: u32) -> Campaign {
        let base = self.h(1, u64::from(c), 0);
        let evasive = bernoulli(self.h(2, u64::from(c), 0), EVASIVE_FRACTION);
        let infra = match uniform_range(self.h(3, u64::from(c), 0), 100) {
            0..=43 => CampaignInfra::Hosting {
                net: self.world.pick_hosting(self.h(4, u64::from(c), 0)),
                servers: 4 + uniform_range(self.h(5, u64::from(c), 0), 28) as u32,
            },
            44..=59 => CampaignInfra::ResidentialProxy {
                // Pools are reused day over day — the infrastructure
                // persistence that gives IPv4 actioning its high recall
                // (Figure 11's 65.8% at threshold 0).
                pool: if evasive {
                    400 + uniform_range(self.h(6, u64::from(c), 0), 1_200) as u32
                } else {
                    12 + uniform_range(self.h(6, u64::from(c), 0), 36) as u32
                },
            },
            _ => {
                // A mobile carrier in a weighted-random country.
                let country = self.world.pick_country(self.h(7, u64::from(c), 0));
                CampaignInfra::MobileFarm {
                    net: self.world.pick_mobile(country, self.h(8, u64::from(c), 0)),
                    devices: 6 + uniform_range(self.h(9, u64::from(c), 0), 40) as u32,
                }
            }
        };
        let span = u64::from(self.window.num_days());
        let start = self.window.start + uniform_range(base, span) as u16;
        let creation_window = 1 + uniform_range(self.h(10, u64::from(c), 0), 10) as u16;
        let accounts = lognormal(self.h(11, u64::from(c), 0), 3.3, 0.6).clamp(3.0, 1_500.0) as u32;
        Campaign {
            id: c,
            infra,
            start,
            creation_window,
            accounts,
            evasive,
        }
    }

    /// Creation and detection dates for one account.
    pub fn account_dates(&self, camp: &Campaign, seq: u32) -> AbuseInfo {
        let key = (u64::from(camp.id) << 32) | u64::from(seq);
        let offset = uniform_range(self.h(12, key, 0), u64::from(camp.creation_window)) as u16;
        let created_idx = (u32::from(camp.start.index()) + u32::from(offset)).min(365);
        let created = SimDate::from_index(created_idx as u16);
        let p = self.detect_scale
            * if camp.evasive {
                DETECT_P_EVASIVE
            } else {
                DETECT_P_ORDINARY
            };
        let extra_days = geometric(self.h(13, key, 0), p).min(27) as u16;
        let detected_idx = (u32::from(created.index()) + u32::from(extra_days)).min(365);
        AbuseInfo {
            created,
            detected: SimDate::from_index(detected_idx as u16),
        }
    }

    /// The full label dataset (the platform's abusive-account snapshot).
    pub fn labels(&self) -> AbuseLabels {
        let mut labels = AbuseLabels::new();
        for c in 0..self.campaigns {
            let camp = self.campaign(c);
            for seq in 0..camp.accounts {
                labels.insert(Self::account_id(c, seq), self.account_dates(&camp, seq));
            }
        }
        labels
    }

    /// Emits every abusive request on `day`.
    pub fn emit_day(&self, pop: &Population<'_>, day: SimDate, out: &mut dyn RequestSink) {
        self.emit_day_campaigns(pop, day, 0..self.campaigns, out);
    }

    /// Emits `day`'s abusive requests for a contiguous campaign range —
    /// the shard unit of the parallel driver. Campaigns are independent of
    /// each other, so covering all the campaigns with disjoint ranges in
    /// ascending order reproduces [`AbuseSim::emit_day`] exactly.
    pub fn emit_day_campaigns(
        &self,
        pop: &Population<'_>,
        day: SimDate,
        campaigns: std::ops::Range<u32>,
        out: &mut dyn RequestSink,
    ) {
        debug_assert!(campaigns.end <= self.campaigns);
        for c in campaigns {
            let camp = self.campaign(c);
            // Quick reject: campaign can't be active outside
            // [start, start + window + max lifespan].
            // Both arms of the evasion branch cap extra lifetime at 28
            // days (geometric(..).min(27) + 1), so the horizon is uniform.
            let horizon = u32::from(camp.start.index()) + u32::from(camp.creation_window) + 28;
            if day < camp.start || u32::from(day.index()) > horizon {
                continue;
            }
            for seq in 0..camp.accounts {
                let dates = self.account_dates(&camp, seq);
                if day < dates.created || day > dates.detected {
                    continue;
                }
                self.emit_account_day(pop, &camp, seq, day, out);
            }
        }
    }

    fn emit_account_day(
        &self,
        pop: &Population<'_>,
        camp: &Campaign,
        seq: u32,
        day: SimDate,
        out: &mut dyn RequestSink,
    ) {
        let account = Self::account_id(camp.id, seq);
        let key = (u64::from(camp.id) << 32) | u64::from(seq);
        let d = u64::from(day.index());
        let n_req = poisson(self.h(20, key, d), REQ_PER_DAY).clamp(1, 200) as u32;
        // Request `j`'s draws key on `jd`; its source address came from
        // `network`'s pool, whose ASN and country the record carries.
        let mut push = |jd: u64, ip: std::net::IpAddr, network: &Network| {
            let hour = uniform_range(self.h(27, key, jd), 24) as u8;
            let min = uniform_range(self.h(28, key, jd), 60) as u8;
            let sec = uniform_range(self.h(29, key, jd), 60) as u8;
            out.push(RequestRecord {
                ts: day.at(hour, min, sec),
                user: account,
                ip,
                asn: network.asn,
                country: network.country,
            });
        };
        let requests = (0..n_req).map(|j| (d << 16) | u64::from(j));

        match camp.infra {
            CampaignInfra::Hosting { net, servers } => {
                let network = self.world.network(net);
                // IPv6 servers are re-addressed daily (v6 space is
                // free), IPv4 servers weekly (v4 is scarce and
                // reused): new abusive accounts appear on fresh v6
                // addresses — capping /128 actioning recall (§7.1) —
                // while staying inside the campaign's /56, and v4
                // infrastructure persists, giving IPv4 actioning its
                // high recall.
                let created = self.account_dates(camp, seq).created.index();
                let server6 = self.h(30, u64::from(created), u64::from(seq % servers));
                let server4 = self.h(31, u64::from(created / 7), u64::from(seq % servers));
                // Campaigns also re-rent their customer allocation
                // (a fresh /56) roughly weekly, bounding how long /56
                // actioning keeps catching them.
                let customer = (u64::from(camp.id) << 8) | u64::from(created / 7);
                let v6ok = network.v6.is_some();
                for jd in requests {
                    let over_v6 = v6ok && bernoulli(self.h(21, key, jd), 0.55);
                    let ip = if over_v6 {
                        std::net::IpAddr::V6(
                            network
                                .v6_server_address(customer, server6)
                                .expect("hosting provider has v6"),
                        )
                    } else {
                        std::net::IpAddr::V4(network.v4_server_address(customer, server4))
                    };
                    push(jd, ip, network);
                }
            }
            CampaignInfra::ResidentialProxy { pool } => {
                // Proxy sessions are sticky: the account rides a small
                // per-day subset of the campaign's pool (rotating per
                // session, not per request).
                let n_prox = 1 + poisson(self.h(32, key, d), 0.9).min(6);
                for jd in requests {
                    let which = uniform_range(self.h(33, key, jd), n_prox);
                    let slot = uniform_range(self.h(22, key, (d << 8) | which), u64::from(pool));
                    let hh_idx =
                        uniform_range(self.h(23, u64::from(camp.id), slot), self.households);
                    let hh = pop.household(hh_idx);
                    let network = self.world.network(hh.home_net);
                    let member_dev = hh_idx * MAX_MEMBERS * 4; // member 0, device 0
                    let keys = AttachKeys {
                        user: hh_idx * MAX_MEMBERS,
                        device: member_dev,
                        household: hh_idx,
                    };
                    let attachment = network.attachment(&keys, day);
                    let v6ok = network.subscriber_has_v6(hh_idx, day);
                    let over_v6 = v6ok && bernoulli(self.h(24, key, jd), 0.15);
                    let v6 = if over_v6 {
                        attachment.v6(0, 0, None)
                    } else {
                        None
                    };
                    let ip = match v6 {
                        Some(a) => std::net::IpAddr::V6(a),
                        None => std::net::IpAddr::V4(attachment.v4(0)),
                    };
                    push(jd, ip, network);
                }
            }
            CampaignInfra::MobileFarm { net, devices } => {
                let network = self.world.network(net);
                let phone = u64::from(seq % devices);
                // Farm devices get ids far outside the benign space.
                let dev_key = ABUSE_ID_BASE | (u64::from(camp.id) << 8) | phone;
                // One farm = one locale: all phones behind the same
                // regional CGN gateway.
                let farm_key = ABUSE_ID_BASE | u64::from(camp.id);
                let keys = AttachKeys {
                    user: dev_key,
                    device: dev_key,
                    household: farm_key,
                };
                let attachment = network.attachment(&keys, day);
                let v6ok = network.subscriber_has_v6(dev_key, day);
                for jd in requests {
                    let over_v6 = v6ok && bernoulli(self.h(25, key, jd), 0.30);
                    let v6 = if over_v6 {
                        attachment.v6(0, 0, None)
                    } else {
                        None
                    };
                    let ip = match v6 {
                        Some(a) => std::net::IpAddr::V6(a),
                        None => {
                            // CGN cycling: the forced-v4-diversity
                            // mechanism.
                            let cyc = uniform_range(self.h(26, key, jd), 2) as u32;
                            std::net::IpAddr::V4(attachment.v4(cyc))
                        }
                    };
                    push(jd, ip, network);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_telemetry::time::focus_week;
    use ipv6_study_telemetry::FnSink;

    fn setup() -> World {
        World::standard(13)
    }

    fn window() -> DateRange {
        DateRange::new(SimDate::ymd(3, 1), SimDate::ymd(4, 19))
    }

    #[test]
    fn most_accounts_die_within_a_day() {
        let w = setup();
        let sim = AbuseSim::new(&w, 1, 80, 10_000, window());
        let labels = sim.labels();
        assert!(labels.len() > 500, "labels: {}", labels.len());
        let day1 = labels.detected_within(0);
        assert!(day1 > 0.6, "day-one detection rate {day1}");
        let week = labels.detected_within(6);
        assert!(week > 0.85, "week detection rate {week}");
        // But evasive accounts exist.
        assert!(week < 1.0, "some accounts survive past a week");
    }

    #[test]
    fn emission_respects_lifetimes() {
        let w = setup();
        let pop = Population::new(&w, 2, 2_000);
        let sim = AbuseSim::new(&w, 1, 30, 2_000, window());
        let labels = sim.labels();
        for day in focus_week().days() {
            let mut recs = Vec::new();
            sim.emit_day(&pop, day, &mut FnSink(|r| recs.push(r)));
            for r in recs {
                let info = labels.get(r.user).expect("emitted account is labeled");
                assert!(day >= info.created && day <= info.detected);
            }
        }
    }

    #[test]
    fn infra_mix_shapes_protocol_usage() {
        let w = setup();
        let pop = Population::new(&w, 2, 5_000);
        let sim = AbuseSim::new(&w, 1, 120, 5_000, window());
        let mut v4_addrs_per_account: std::collections::HashMap<
            UserId,
            std::collections::HashSet<std::net::IpAddr>,
        > = Default::default();
        let mut v6_addrs_per_account: std::collections::HashMap<
            UserId,
            std::collections::HashSet<std::net::IpAddr>,
        > = Default::default();
        for day in window().days() {
            sim.emit_day(
                &pop,
                day,
                &mut FnSink(|r: RequestRecord| {
                    let m = if r.is_v6() {
                        &mut v6_addrs_per_account
                    } else {
                        &mut v4_addrs_per_account
                    };
                    m.entry(r.user).or_default().insert(r.ip);
                }),
            );
        }
        assert!(!v4_addrs_per_account.is_empty() && !v6_addrs_per_account.is_empty());
        let mean = |m: &std::collections::HashMap<
            UserId,
            std::collections::HashSet<std::net::IpAddr>,
        >| { m.values().map(|s| s.len() as f64).sum::<f64>() / m.len() as f64 };
        // The inversion: abusive accounts hold more v4 than v6 addresses.
        assert!(
            mean(&v4_addrs_per_account) > mean(&v6_addrs_per_account),
            "v4 {} vs v6 {}",
            mean(&v4_addrs_per_account),
            mean(&v6_addrs_per_account)
        );
    }

    #[test]
    fn hosting_accounts_sit_in_shared_56s() {
        use ipv6_study_netaddr::Ipv6Prefix;
        let w = setup();
        let pop = Population::new(&w, 2, 1_000);
        let sim = AbuseSim::new(&w, 1, 200, 1_000, window());
        // Find a hosting campaign with enough accounts.
        let camp = (0..200)
            .map(|c| sim.campaign(c))
            .find(|c| matches!(c.infra, CampaignInfra::Hosting { .. }) && c.accounts >= 10)
            .expect("a hosting campaign exists");
        let mut p56s = std::collections::HashSet::new();
        let mut p64s = std::collections::HashSet::new();
        for day in window().days() {
            let mut recs = Vec::new();
            sim.emit_day(
                &pop,
                day,
                &mut FnSink(|r: RequestRecord| {
                    if r.user.raw() >> 16 == (ABUSE_ID_BASE >> 16) | u64::from(camp.id) {
                        recs.push(r);
                    }
                }),
            );
            for r in recs {
                if let Some(a) = r.ipv6() {
                    p56s.insert(Ipv6Prefix::containing(a, 56));
                    p64s.insert(Ipv6Prefix::containing(a, 64));
                }
            }
        }
        assert!(!p64s.is_empty(), "campaign used v6");
        assert!(
            p56s.len() <= 2,
            "servers share the customer /56: {}",
            p56s.len()
        );
        assert!(p64s.len() >= p56s.len(), "servers spread across /64s");
    }

    #[test]
    fn campaign_ranges_cover_emit_day_exactly() {
        let w = setup();
        let pop = Population::new(&w, 2, 1_000);
        let sim = AbuseSim::new(&w, 7, 24, 1_000, window());
        let day = SimDate::ymd(4, 15);
        let mut whole = Vec::new();
        sim.emit_day(&pop, day, &mut FnSink(|r| whole.push(r)));
        let mut sharded = Vec::new();
        for lo in (0..24).step_by(7) {
            let hi = (lo + 7).min(24);
            sim.emit_day_campaigns(&pop, day, lo..hi, &mut FnSink(|r| sharded.push(r)));
        }
        assert_eq!(whole, sharded);
        assert!(!whole.is_empty(), "mid-window day has abusive traffic");
    }

    #[test]
    fn campaigns_are_deterministic() {
        let w = setup();
        let sim = AbuseSim::new(&w, 1, 10, 1_000, window());
        for c in 0..10 {
            let a = sim.campaign(c);
            let b = sim.campaign(c);
            assert_eq!(a.accounts, b.accounts);
            assert_eq!(a.start, b.start);
            assert_eq!(a.infra, b.infra);
        }
    }
}
