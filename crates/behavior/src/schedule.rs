//! The activity model: which networks a user touches on a day, and how much.
//!
//! This is the machinery behind the paper's temporal effects (§4.1,
//! Appendix B): on weekdays users split time between home, mobile and work
//! networks; weekends shift time home; lockdowns (per-country dates) shift
//! it much further home and away from both mobile and work. Because network
//! types differ in IPv6 deployment, these shifts move the aggregate IPv6
//! share of users and of requests in opposite directions — exactly the
//! Figure 1 signature.

use ipv6_study_netmodel::{NetworkId, World};
use ipv6_study_stats::dist::{bernoulli, poisson};
use ipv6_study_stats::hash::StableHasher;
use ipv6_study_telemetry::SimDate;

use crate::population::UserProfile;

/// The kind of session context within a day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextKind {
    /// On the home network (any household device).
    Home,
    /// On cellular data (phones).
    Mobile,
    /// At the workplace (computers behind the enterprise NAT).
    Work,
    /// Routed through the user's VPN provider.
    Vpn,
}

/// One (network, device) session bundle on a day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionCtx {
    /// Network the traffic egresses from.
    pub net: NetworkId,
    /// Context kind.
    pub kind: ContextKind,
    /// Index into the user's device list.
    pub device_idx: usize,
    /// Number of requests this device makes in this context today.
    pub requests: u32,
    /// First hour of the context's activity window (inclusive).
    pub hour_lo: u8,
    /// Last hour of the window (inclusive).
    pub hour_hi: u8,
}

/// A user's full plan for one day.
#[derive(Debug, Clone, Default)]
pub struct DayPlan {
    /// The session contexts; empty when the user is offline all day.
    pub contexts: Vec<SessionCtx>,
}

/// Mean requests per (context, device) session.
const REQ_HOME: f64 = 6.5;
const REQ_MOBILE: f64 = 5.5;
const REQ_WORK: f64 = 7.0;
const REQ_VPN: f64 = 4.0;

/// Cap on the per-user daily presence probability (the per-user value
/// comes from [`UserProfile::presence`]).
const P_ACTIVE_CAP: f64 = 0.97;

/// Session-context probabilities for (weekday, weekend, lockdown).
/// Lockdown supersedes the weekday/weekend split for home and work;
/// weekends still damp mobile a little under lockdown.
#[derive(Debug, Clone, Copy)]
struct Mix {
    home: f64,
    mobile: f64,
    work: f64,
}

fn mix_for(day_is_weekend: bool, locked_down: bool) -> Mix {
    match (locked_down, day_is_weekend) {
        (false, false) => Mix {
            home: 0.72,
            mobile: 0.74,
            work: 0.55,
        },
        // Weekends: slightly more home Wi-Fi, notably less cellular (no
        // commute) — users whose only IPv6 path is mobile drop out of the
        // IPv6 user count (the paper's weekend dip, §4.1 — small but
        // consistent).
        (false, true) => Mix {
            home: 0.76,
            mobile: 0.62,
            work: 0.06,
        },
        // Lockdowns: everyone is home on Wi-Fi; cellular usage drops hard
        // (the 2020 Wi-Fi offload), and offices close. Losing the mobile
        // path costs more IPv6 users than the extra home time adds, while
        // killing the (v4-heavy) office traffic lifts the IPv6 share of
        // *requests* — Figure 1's scissors.
        (true, false) => Mix {
            home: 0.90,
            mobile: 0.55,
            work: 0.07,
        },
        (true, true) => Mix {
            home: 0.91,
            mobile: 0.50,
            work: 0.02,
        },
    }
}

/// Per-device presence probability within a context.
const P_PHONE_AT_HOME: f64 = 0.75;
const P_COMPUTER_AT_HOME: f64 = 0.55;
const P_COMPUTER_AT_WORK: f64 = 0.85;
const P_VPN_SESSION: f64 = 0.45;

/// The key prefix every draw of one user-day's plan hashes.
#[derive(Clone, Copy)]
struct PlanDraws {
    user: u64,
    day: u64,
}

impl PlanDraws {
    /// The draw for `tag` at `a`. Always inlined, so each call site folds
    /// its constant tag and the fixed-width writes; a shared out-of-line
    /// copy hashes through the generic buffered byte path.
    #[inline(always)]
    fn hash(self, tag: u32, a: u64) -> u64 {
        let mut s = StableHasher::new(0x5343_4845 ^ u64::from(tag)); // "SCHE"
        s.write_u64(self.user).write_u64(self.day).write_u64(a);
        s.finish()
    }
}

/// Computes the user's plan for `day`.
pub fn day_plan(world: &World, profile: &UserProfile, day: SimDate) -> DayPlan {
    let h = PlanDraws {
        user: profile.user.raw(),
        day: u64::from(day.index()),
    };

    if !bernoulli(h.hash(0, 0), profile.presence.min(P_ACTIVE_CAP)) {
        return DayPlan::default();
    }

    let country = world.country(profile.household.country_idx);
    let locked = country.lockdown.is_some_and(|ld| day >= ld);
    let mix = mix_for(day.is_weekend(), locked);
    let mut contexts = Vec::new();

    // Work first: working users almost always also show up at home in the
    // evening (few users are work-only), which matters for the weekend
    // and lockdown effects on the IPv6 user share.
    let works_today = profile.work_net.is_some() && bernoulli(h.hash(6, 0), mix.work);
    let home_prob = if works_today {
        mix.home.max(0.88)
    } else {
        mix.home
    };

    // Home: each device present independently.
    if bernoulli(h.hash(1, 0), home_prob) {
        for (i, dev) in profile.devices.iter().enumerate() {
            let p = match dev.kind {
                crate::device::DeviceKind::Phone => P_PHONE_AT_HOME,
                crate::device::DeviceKind::Computer => P_COMPUTER_AT_HOME,
            };
            if bernoulli(h.hash(2, i as u64), p) {
                let requests = draw_requests(h.hash(3, i as u64), REQ_HOME * profile.activity);
                if requests > 0 {
                    let (lo, hi) = if locked || day.is_weekend() {
                        (9, 23)
                    } else {
                        (17, 23)
                    };
                    contexts.push(SessionCtx {
                        net: profile.household.home_net,
                        kind: ContextKind::Home,
                        device_idx: i,
                        requests,
                        hour_lo: lo,
                        hour_hi: hi,
                    });
                }
            }
        }
    }

    // Mobile: the phone(s), on cellular.
    if let Some(mnet) = profile.mobile_net {
        if bernoulli(h.hash(4, 0), mix.mobile) {
            for (i, dev) in profile.devices.iter().enumerate() {
                if dev.kind == crate::device::DeviceKind::Phone {
                    let requests =
                        draw_requests(h.hash(5, i as u64), REQ_MOBILE * profile.activity);
                    if requests > 0 {
                        contexts.push(SessionCtx {
                            net: mnet,
                            kind: ContextKind::Mobile,
                            device_idx: i,
                            requests,
                            hour_lo: 7,
                            hour_hi: 22,
                        });
                    }
                    break; // one phone on cellular per day is plenty
                }
            }
        }
    }

    // Work: computers behind the enterprise NAT, weekday office hours.
    if let Some(wnet) = profile.work_net {
        if works_today {
            let comp = profile
                .devices
                .iter()
                .position(|d| d.kind == crate::device::DeviceKind::Computer);
            // Users without a computer use their phone on office Wi-Fi.
            let idx = comp.unwrap_or(0);
            if bernoulli(
                h.hash(7, 0),
                if comp.is_some() {
                    P_COMPUTER_AT_WORK
                } else {
                    0.5
                },
            ) {
                let requests = draw_requests(h.hash(8, 0), REQ_WORK * profile.activity);
                if requests > 0 {
                    contexts.push(SessionCtx {
                        net: wnet,
                        kind: ContextKind::Work,
                        device_idx: idx,
                        requests,
                        hour_lo: 9,
                        hour_hi: 17,
                    });
                }
            }
        }
    }

    // VPN: habitual users route an evening session through it.
    if let Some(vnet) = profile.vpn_net {
        if bernoulli(h.hash(9, 0), P_VPN_SESSION) {
            let requests = draw_requests(h.hash(10, 0), REQ_VPN * profile.activity);
            if requests > 0 {
                contexts.push(SessionCtx {
                    net: vnet,
                    kind: ContextKind::Vpn,
                    device_idx: 0,
                    requests,
                    hour_lo: 19,
                    hour_hi: 23,
                });
            }
        }
    }

    DayPlan { contexts }
}

fn draw_requests(h: u64, mean: f64) -> u32 {
    poisson(h, mean).min(400) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
    use ipv6_study_netmodel::World;
    use ipv6_study_telemetry::{Country, UserId};

    fn setup() -> World {
        World::standard(11)
    }

    fn plans_for<'a>(
        world: &'a World,
        pop: &'a Population<'a>,
        day: SimDate,
        n: u64,
    ) -> Vec<DayPlan> {
        (0..n)
            .flat_map(|hh| {
                let prof = pop.household(hh);
                pop.member_ids(&prof)
                    .map(|u| pop.user(u))
                    .collect::<Vec<_>>()
            })
            .map(|u| day_plan(world, &u, day))
            .collect()
    }

    #[test]
    fn plans_are_deterministic() {
        let w = setup();
        let pop = Population::new(&w, 3, 50);
        let u = pop.user(UserId(0));
        let a = day_plan(&w, &u, SimDate::ymd(4, 13));
        let b = day_plan(&w, &u, SimDate::ymd(4, 13));
        assert_eq!(a.contexts, b.contexts);
    }

    #[test]
    fn context_population_rates_are_sane() {
        let w = setup();
        let pop = Population::new(&w, 3, 3000);
        let day = SimDate::ymd(2, 12); // pre-lockdown Wednesday
        let plans = plans_for(&w, &pop, day, 3000);
        let total = plans.len() as f64;
        // Per-user presence tiers average ~0.6, and presence/request draws
        // trim further: the observed daily-active share lands near 50%.
        let active = plans.iter().filter(|p| !p.contexts.is_empty()).count() as f64;
        assert!(
            (0.40..=0.62).contains(&(active / total)),
            "active {}",
            active / total
        );
        let with_work = plans
            .iter()
            .filter(|p| p.contexts.iter().any(|c| c.kind == ContextKind::Work))
            .count() as f64;
        // ~35% employed × 55% office × 85% presence × ~55% active ≈ 0.09.
        assert!(
            (0.04..=0.14).contains(&(with_work / total)),
            "work {}",
            with_work / total
        );
    }

    #[test]
    fn weekends_damp_work() {
        let w = setup();
        let pop = Population::new(&w, 3, 3000);
        let weekday = SimDate::ymd(2, 12);
        let weekend = SimDate::ymd(2, 15); // Saturday
        let count_work = |day| {
            plans_for(&w, &pop, day, 3000)
                .iter()
                .filter(|p| p.contexts.iter().any(|c| c.kind == ContextKind::Work))
                .count()
        };
        let wk = count_work(weekday);
        let we = count_work(weekend);
        assert!(
            we * 4 < wk,
            "weekend work {we} should be well below weekday {wk}"
        );
    }

    #[test]
    fn lockdown_shifts_home() {
        let w = setup();
        let pop = Population::new(&w, 3, 4000);
        // Italy locked down Mar 9; compare an Italian-like aggregate by
        // using the whole population before (Feb 12) and after (Apr 15).
        let before = plans_for(&w, &pop, SimDate::ymd(2, 12), 4000);
        let after = plans_for(&w, &pop, SimDate::ymd(4, 15), 4000);
        let home_share = |plans: &[DayPlan]| {
            let total: usize = plans.iter().map(|p| p.contexts.len()).sum();
            let home: usize = plans
                .iter()
                .flat_map(|p| &p.contexts)
                .filter(|c| c.kind == ContextKind::Home)
                .count();
            home as f64 / total.max(1) as f64
        };
        assert!(
            home_share(&after) > home_share(&before) + 0.03,
            "lockdown should shift sessions home: {} -> {}",
            home_share(&before),
            home_share(&after)
        );
    }

    #[test]
    fn request_counts_scale_with_activity() {
        let w = setup();
        let pop = Population::new(&w, 3, 2000);
        let day = SimDate::ymd(4, 14);
        let mut lo = 0u64;
        let mut hi = 0u64;
        let mut lo_n = 0u64;
        let mut hi_n = 0u64;
        for hh in 0..2000 {
            let prof = pop.household(hh);
            for uid in pop.member_ids(&prof) {
                let u = pop.user(uid);
                let reqs: u32 = day_plan(&w, &u, day)
                    .contexts
                    .iter()
                    .map(|c| c.requests)
                    .sum();
                if u.activity < 0.7 {
                    lo += u64::from(reqs);
                    lo_n += 1;
                } else if u.activity > 1.5 {
                    hi += u64::from(reqs);
                    hi_n += 1;
                }
            }
        }
        assert!(lo_n > 50 && hi_n > 50);
        assert!(
            (hi as f64 / hi_n as f64) > 2.0 * (lo as f64 / lo_n as f64),
            "high-activity users should request much more"
        );
    }

    #[test]
    fn hours_are_within_windows() {
        let w = setup();
        let pop = Population::new(&w, 3, 300);
        for hh in 0..300 {
            let prof = pop.household(hh);
            for uid in pop.member_ids(&prof) {
                let u = pop.user(uid);
                for c in day_plan(&w, &u, SimDate::ymd(4, 16)).contexts {
                    assert!(c.hour_lo <= c.hour_hi && c.hour_hi < 24);
                    assert!(c.device_idx < u.devices.len());
                    assert!(c.requests > 0);
                }
            }
        }
    }

    #[test]
    fn puerto_rico_style_mobile_drop() {
        // Lockdown reduces the mobile context probability.
        let m_weekday = mix_for(false, false).mobile;
        let m_weekend = mix_for(true, false).mobile;
        let m_locked = mix_for(false, true).mobile;
        assert!(m_locked < m_weekday);
        assert!(m_weekend > m_locked);
        let _ = Country::new("PR");
    }
}
