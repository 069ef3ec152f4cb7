//! The benign population: households, users, and their network portfolios.
//!
//! The household is the unit of home connectivity — everyone in it shares
//! one home NAT egress (IPv4) and one delegated prefix (IPv6), which is what
//! makes IPv4 addresses multi-user (Fig 7) and clusters household members
//! into one /64 (Fig 9). Each member additionally carries their own mobile
//! subscription (usually), possibly a workplace network, and rarely a VPN
//! habit.
//!
//! Everything is derived procedurally: `Population` holds only the world
//! reference, a seed, and the household count. Profiles are pure functions
//! of `(seed, household index)` — O(1) lookup of any user, no giant vectors.

use ipv6_study_netmodel::{NetworkId, World};
use ipv6_study_stats::dist::{bernoulli, lognormal, uniform_range};
use ipv6_study_stats::hash::StableHasher;
use ipv6_study_telemetry::{DeviceId, HouseholdId, UserId};

use crate::device::{devices_per_user, DeviceProfile};

/// Fraction of users with a personal mobile subscription.
pub const MOBILE_SUBSCRIPTION: f64 = 0.78;
/// Fraction of users with a workplace (enterprise) network.
pub const WORK_NETWORK: f64 = 0.35;
/// Fraction of users who route some sessions through a VPN.
pub const VPN_USERS: f64 = 0.015;
/// Maximum members a household can hold in the id encoding.
pub const MAX_MEMBERS: u64 = 8;
/// Mean members per household (the 25/30/25/20 split below). Exported so
/// config-time sampling validation uses the same population arithmetic as
/// the simulator.
pub const USERS_PER_HOUSEHOLD: f64 = 2.4;

/// Expected user count for a household count — `households ×`
/// [`USERS_PER_HOUSEHOLD`], truncated.
pub fn approx_users(households: u64) -> u64 {
    (households as f64 * USERS_PER_HOUSEHOLD) as u64
}

/// A household: country, home ISP, and member count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HouseholdProfile {
    /// Household id.
    pub household: HouseholdId,
    /// Index into the world's country table.
    pub country_idx: usize,
    /// The home (residential) ISP.
    pub home_net: NetworkId,
    /// Number of members (1–4).
    pub members: u32,
}

/// One user's full profile.
#[derive(Debug, Clone)]
pub struct UserProfile {
    /// User id (encodes household and member index).
    pub user: UserId,
    /// The household this user lives in.
    pub household: HouseholdProfile,
    /// Mobile carrier, when subscribed.
    pub mobile_net: Option<NetworkId>,
    /// Workplace network, when employed at a connected workplace.
    pub work_net: Option<NetworkId>,
    /// Company id within the workplace network (keys the enterprise NAT).
    pub company: u64,
    /// VPN provider for the minority that uses one.
    pub vpn_net: Option<NetworkId>,
    /// The user's devices (first is always a phone).
    pub devices: Vec<DeviceProfile>,
    /// Per-user request-volume multiplier (log-normal, mean ≈ 1).
    pub activity: f64,
    /// Probability the user is online at all on a given day. Platforms see
    /// a wide engagement spectrum; the week-level figures (a quarter of
    /// IPv6 users showing a single address all week, Figure 4a at /128)
    /// require many low-engagement users.
    pub presence: f64,
    /// Address-churn multiplier. 1.0 for almost everyone; a tiny minority
    /// of "churners" (≈0.1%, plus an extreme ≈0.01%) cycle addresses at
    /// enormous rates — the §5.1.3 outlier users with hundreds to
    /// thousands of addresses a week, which the paper found concentrated
    /// in mobile ASNs and could not explain. IPv4 churn runs hotter than
    /// IPv6 (CGN cycles per flow; IPv6 reattaches per session), giving
    /// IPv4 its more extreme outlier tail.
    pub churn_factor: f64,
}

/// The procedurally generated population.
#[derive(Debug)]
pub struct Population<'w> {
    world: &'w World,
    seed: u64,
    households: u64,
}

impl<'w> Population<'w> {
    /// Creates a population of `households` homes over the given world.
    pub fn new(world: &'w World, seed: u64, households: u64) -> Self {
        assert!(households > 0, "population needs at least one household");
        Self {
            world,
            seed,
            households,
        }
    }

    /// The world this population lives in.
    pub fn world(&self) -> &'w World {
        self.world
    }

    /// Expected number of users (~[`USERS_PER_HOUSEHOLD`] members per
    /// household).
    pub fn approx_users(&self) -> u64 {
        approx_users(self.households)
    }

    fn h(&self, tag: u32, a: u64, b: u64) -> u64 {
        let mut h = StableHasher::new(self.seed ^ (u64::from(tag) << 32));
        h.write_u64(a).write_u64(b);
        h.finish()
    }

    /// The household at index `hh` (0-based).
    pub fn household(&self, hh: u64) -> HouseholdProfile {
        debug_assert!(hh < self.households);
        let country_idx = self.world.pick_country(self.h(1, hh, 0));
        let home_net = self.world.pick_residential(country_idx, self.h(2, hh, 0));
        // 1–4 members: 25% singles, 30% couples, 25% three, 20% four
        // (mean 2.4 — household co-residence drives both IPv4 NAT sharing
        // and the /64 user aggregation of Figure 9).
        let members = match uniform_range(self.h(3, hh, 0), 100) {
            0..=24 => 1,
            25..=54 => 2,
            55..=79 => 3,
            _ => 4,
        };
        HouseholdProfile {
            household: HouseholdId(hh),
            country_idx,
            home_net,
            members,
        }
    }

    /// The user ids of a household's members.
    pub fn member_ids(&self, hh: &HouseholdProfile) -> impl Iterator<Item = UserId> {
        let base = hh.household.raw() * MAX_MEMBERS;
        (0..u64::from(hh.members)).map(move |k| UserId(base + k))
    }

    /// Decodes which household a user id belongs to.
    pub fn household_of(&self, user: UserId) -> HouseholdProfile {
        self.household(user.raw() / MAX_MEMBERS)
    }

    /// The full profile of a user (user ids come from [`Population::member_ids`]).
    pub fn user(&self, user: UserId) -> UserProfile {
        let hh = self.household_of(user);
        let u = user.raw();
        let mobile_net = bernoulli(self.h(4, u, 0), MOBILE_SUBSCRIPTION)
            .then(|| self.world.pick_mobile(hh.country_idx, self.h(5, u, 0)));
        let work_net = bernoulli(self.h(6, u, 0), WORK_NETWORK)
            .then(|| self.world.pick_enterprise(hh.country_idx, self.h(7, u, 0)));
        // ~3000 companies per country's enterprise network.
        let company = uniform_range(self.h(8, u, 0), 3_000);
        let vpn_net = bernoulli(self.h(9, u, 0), VPN_USERS)
            .then(|| self.world.pick_hosting(self.h(10, u, 0)));
        let n_dev = devices_per_user(self.h(11, u, 0));
        let devices = (0..n_dev)
            .map(|d| DeviceProfile::derive(self.seed, DeviceId(u * 4 + u64::from(d)), d == 0))
            .collect();
        // Log-normal activity, median 1, long right tail.
        let mut activity = lognormal(self.h(12, u, 0), 0.0, 0.6).clamp(0.05, 20.0);
        let churn_factor = match uniform_range(self.h(13, u, 0), 10_000) {
            0..=7 => 250.0, // extreme churner
            8..=59 => 30.0, // heavy churner
            _ => 1.0,
        };
        // Churners are also hyperactive: thousands of addresses are only
        // observable through thousands of requests.
        if churn_factor > 100.0 {
            activity = activity.max(30.0);
        } else if churn_factor > 1.0 {
            activity = activity.max(8.0);
        }
        // Engagement tiers: daily users, regulars, occasional users.
        // Churners are always daily, always mobile — the paper's top
        // outlier users sat in mobile ASNs.
        let presence = if churn_factor > 1.0 {
            0.95
        } else {
            match uniform_range(self.h(14, u, 0), 100) {
                0..=29 => 0.95,
                30..=69 => 0.60,
                _ => 0.25,
            }
        };
        let mobile_net = mobile_net.or_else(|| {
            (churn_factor > 1.0).then(|| self.world.pick_mobile(hh.country_idx, self.h(15, u, 0)))
        });
        UserProfile {
            user,
            household: hh,
            mobile_net,
            work_net,
            company,
            vpn_net,
            devices,
            activity,
            presence,
            churn_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_netmodel::NetworkKind;

    fn world() -> World {
        World::standard(7)
    }

    #[test]
    fn households_are_deterministic_and_bounded() {
        let w = world();
        let p = Population::new(&w, 1, 1000);
        for hh in 0..1000 {
            let a = p.household(hh);
            let b = p.household(hh);
            assert_eq!(a, b);
            assert!((1..=4).contains(&a.members));
            assert_eq!(w.network(a.home_net).kind, NetworkKind::Residential);
            assert_eq!(
                w.network(a.home_net).country,
                w.country(a.country_idx).country
            );
        }
    }

    #[test]
    fn member_ids_round_trip_to_household() {
        let w = world();
        let p = Population::new(&w, 1, 100);
        for hh in 0..100 {
            let prof = p.household(hh);
            for uid in p.member_ids(&prof) {
                assert_eq!(p.household_of(uid).household, prof.household);
            }
        }
    }

    #[test]
    fn user_profiles_have_expected_structure() {
        let w = world();
        let p = Population::new(&w, 1, 2000);
        let mut mobile = 0;
        let mut work = 0;
        let mut vpn = 0;
        let mut users = 0;
        for uid in (0..2000).flat_map(|hh| p.member_ids(&p.household(hh))) {
            let prof = p.user(uid);
            users += 1;
            assert!(!prof.devices.is_empty() && prof.devices.len() <= 3);
            assert_eq!(prof.devices[0].kind, crate::device::DeviceKind::Phone);
            assert!(prof.activity > 0.0);
            if let Some(m) = prof.mobile_net {
                mobile += 1;
                assert_eq!(w.network(m).kind, NetworkKind::Mobile);
            }
            if let Some(e) = prof.work_net {
                work += 1;
                assert_eq!(w.network(e).kind, NetworkKind::Enterprise);
            }
            if let Some(v) = prof.vpn_net {
                vpn += 1;
                assert_eq!(w.network(v).kind, NetworkKind::Hosting);
            }
        }
        let users = users as f64;
        assert!((users / 2000.0 - 2.4).abs() < 0.25, "members/household");
        assert!((f64::from(mobile) / users - MOBILE_SUBSCRIPTION).abs() < 0.03);
        assert!((f64::from(work) / users - WORK_NETWORK).abs() < 0.03);
        assert!(f64::from(vpn) / users < 0.03);
    }

    #[test]
    fn members_share_home_but_not_necessarily_mobile() {
        let w = world();
        let p = Population::new(&w, 1, 500);
        let mut differing_mobile = false;
        for hh in 0..500 {
            let prof = p.household(hh);
            let members: Vec<UserProfile> = p.member_ids(&prof).map(|u| p.user(u)).collect();
            let home = members[0].household.home_net;
            assert!(members.iter().all(|m| m.household.home_net == home));
            let mobiles: std::collections::HashSet<_> =
                members.iter().filter_map(|m| m.mobile_net).collect();
            if mobiles.len() > 1 {
                differing_mobile = true;
            }
        }
        assert!(differing_mobile, "members can use different carriers");
    }
}
