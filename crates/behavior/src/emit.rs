//! Materializing a user-day into request records.
//!
//! Protocol choice follows dual-stack reality: when the network path and
//! the device both support IPv6, most requests prefer it (happy eyeballs;
//! Zander et al. measured fast v6→v4 failover, and the paper observes users'
//! requests "often distributed between IPv4 and IPv6", §4.1) — so even IPv6
//! users emit a healthy share of IPv4 requests, which keeps the request-level
//! IPv6 share (22–25%) well under the user-level share (34–36%).

use crate::device::Transition;
use ipv6_study_netmodel::{AttachKeys, World};
use ipv6_study_stats::dist::{bernoulli, poisson, uniform_range};
use ipv6_study_stats::hash::StableHasher;
use ipv6_study_telemetry::{RequestRecord, RequestSink, SimDate};

use crate::population::UserProfile;
use crate::schedule::{ContextKind, DayPlan, SessionCtx};

/// Probability a dual-stack request goes over IPv6.
pub const HAPPY_EYEBALLS_V6: f64 = 0.70;

/// Emits every request of `plan` as [`RequestRecord`]s into `out`.
pub fn emit_user_day(
    world: &World,
    profile: &UserProfile,
    day: SimDate,
    plan: &DayPlan,
    out: &mut dyn RequestSink,
) {
    for ctx in &plan.contexts {
        emit_context(world, profile, day, ctx, out);
    }
}

fn emit_context(
    world: &World,
    profile: &UserProfile,
    day: SimDate,
    ctx: &SessionCtx,
    out: &mut dyn RequestSink,
) {
    let net = world.network(ctx.net);
    let device = &profile.devices[ctx.device_idx];
    let u = profile.user.raw();

    let h = Draws {
        user: u,
        day: u64::from(day.index()),
        path: u64::from(ctx.net.0) << 8 | ctx.device_idx as u64,
    };

    // Whose subscription gates IPv6 on this path?
    let subscriber_key = match ctx.kind {
        ContextKind::Home => profile.household.household.raw(),
        ContextKind::Mobile | ContextKind::Vpn => u,
        ContextKind::Work => profile.company,
    };
    let keys = AttachKeys {
        user: u,
        device: device.device.raw(),
        household: match ctx.kind {
            ContextKind::Work => profile.company,
            _ => profile.household.household.raw(),
        },
    };

    let path_v6 = device.v6_capable && net.subscriber_has_v6(subscriber_key, day);

    // Intra-day variability: CGN v4 cycles and mobile v6 reattaches.
    // Churners multiply both rates, IPv4 harder than IPv6 (§5.1.3's
    // more-extreme IPv4 outlier tail).
    let v4_churn = profile.churn_factor;
    let v6_churn = 1.0 + (profile.churn_factor - 1.0) * 0.25;
    let v4_cycles =
        poisson(h.hash(1, 0, 0), net.v4_intra_day_cycles() * v4_churn).min(5_000) as u32;
    let v6_attaches =
        poisson(h.hash(2, 0, 0), net.v6_intra_day_attaches() * v6_churn).min(5_000) as u32;
    // Extra temporary-IID rotations within the day (RFC 4941 lifetimes are
    // ~daily but interface resets mint fresh temporaries): heavier on
    // mobile. This is the main source of >5-addresses-per-day users
    // (Figure 2's upper tail).
    let slot_mean = match ctx.kind {
        ContextKind::Mobile => 1.4,
        ContextKind::Home => 0.5,
        _ => 0.2,
    };
    let v6_slots = poisson(h.hash(9, 0, 0), slot_mean).min(5_000) as u32;
    let eui = device.eui64_mac_on(day);
    // The context's renewal state, derived once: each request below
    // hashes only its own draw.
    let attachment = net.attachment(&keys, day);

    for j in 0..ctx.requests {
        let jj = u64::from(j);
        let over_v6 = path_v6 && bernoulli(h.hash(3, jj, 0), HAPPY_EYEBALLS_V6);
        // The network whose pool the source address came from (SIM-hopping
        // churners may egress a different carrier; the record's ASN and
        // country must match the address).
        let mut egress_net = net;
        let ip = if over_v6 {
            let attach = uniform_range(h.hash(4, jj, 0), u64::from(v6_attaches) + 1) as u32;
            let slot = uniform_range(h.hash(9, jj, 1), u64::from(v6_slots) + 1) as u32;
            if let Some(t) = device.transition {
                // Relic tunnel clients: their "IPv6" address embeds the
                // IPv4 path (§4.4's <0.01% of users).
                std::net::IpAddr::V6(transition_address(t, attachment.v4(0), h.hash(10, jj, 0)))
            } else {
                match attachment.v6(attach, slot, eui) {
                    Some(a) => std::net::IpAddr::V6(a),
                    None => std::net::IpAddr::V4(attachment.v4(0)),
                }
            }
        } else {
            let cycle = uniform_range(h.hash(5, jj, 0), u64::from(v4_cycles) + 1) as u32;
            // Churners SIM-hop: on cellular, heavy cycles spill across the
            // country's other carriers, so one user can burn through far
            // more IPv4 addresses than any single CGN pool holds — the
            // §5.1.3 outliers the paper localized to mobile ASNs.
            if profile.churn_factor > 1.0 && ctx.kind == ContextKind::Mobile && cycle >= 8 {
                let alt = world.pick_mobile(
                    profile.household.country_idx,
                    h.hash(11, u64::from(cycle / 8), 0),
                );
                egress_net = world.network(alt);
                std::net::IpAddr::V4(egress_net.attachment(&keys, day).v4(cycle))
            } else {
                std::net::IpAddr::V4(attachment.v4(cycle))
            }
        };

        let span = u64::from(ctx.hour_hi - ctx.hour_lo) + 1;
        let hour = ctx.hour_lo + uniform_range(h.hash(6, jj, 0), span) as u8;
        let min = uniform_range(h.hash(7, jj, 0), 60) as u8;
        let sec = uniform_range(h.hash(8, jj, 0), 60) as u8;

        out.push(RequestRecord {
            ts: day.at(hour, min, sec),
            user: profile.user,
            ip,
            asn: egress_net.asn,
            country: egress_net.country,
        });
    }
}

/// The key prefix every draw of one context hashes: the user, the day,
/// and the network and device the context egresses through.
#[derive(Clone, Copy)]
struct Draws {
    user: u64,
    day: u64,
    path: u64,
}

impl Draws {
    /// The draw for `tag` at `(a, b)`. Always inlined, so each call site
    /// folds its constant tag and the five fixed-width writes; a shared
    /// out-of-line copy hashes through the generic buffered byte path.
    #[inline(always)]
    fn hash(self, tag: u32, a: u64, b: u64) -> u64 {
        let mut s = StableHasher::new(0x454D_4954 ^ u64::from(tag)); // "EMIT"
        s.write_u64(self.user)
            .write_u64(self.day)
            .write_u64(self.path)
            .write_u64(a)
            .write_u64(b);
        s.finish()
    }
}

/// Builds a 6to4 or Teredo address embedding the device's IPv4 path.
fn transition_address(t: Transition, v4: std::net::Ipv4Addr, h: u64) -> std::net::Ipv6Addr {
    let v4 = u128::from(u32::from(v4));
    let raw = match t {
        // 2002:V4:V4:subnet::IID
        Transition::SixToFour => (0x2002u128 << 112) | (v4 << 80) | u128::from(h >> 16),
        // 2001:0:server:flags:... (we keep the prefix exact and the rest
        // opaque; the classifier only keys on 2001:0::/32).
        Transition::Teredo => (0x2001_0000u128 << 96) | (v4 << 48) | u128::from(h >> 32),
    };
    std::net::Ipv6Addr::from(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
    use crate::schedule::day_plan;
    use ipv6_study_netmodel::World;
    use ipv6_study_telemetry::{FnSink, UserId};

    fn collect_day(
        world: &World,
        pop: &Population,
        uid: UserId,
        day: SimDate,
    ) -> Vec<RequestRecord> {
        let prof = pop.user(uid);
        let plan = day_plan(world, &prof, day);
        let mut v = Vec::new();
        emit_user_day(world, &prof, day, &plan, &mut FnSink(|r| v.push(r)));
        v
    }

    #[test]
    fn transition_addresses_classify_correctly() {
        use ipv6_study_netaddr::IidClass;
        let a = transition_address(Transition::SixToFour, "192.0.2.1".parse().unwrap(), 12345);
        assert_eq!(IidClass::classify(a), IidClass::SixToFour);
        let b = transition_address(Transition::Teredo, "192.0.2.1".parse().unwrap(), 12345);
        assert_eq!(IidClass::classify(b), IidClass::Teredo);
    }

    #[test]
    fn emission_is_deterministic_and_well_formed() {
        let w = World::standard(5);
        let pop = Population::new(&w, 9, 200);
        let day = SimDate::ymd(4, 14);
        for hh in 0..50u64 {
            let prof = pop.household(hh);
            for uid in pop.member_ids(&prof) {
                let a = collect_day(&w, &pop, uid, day);
                let b = collect_day(&w, &pop, uid, day);
                assert_eq!(a, b);
                for r in &a {
                    assert_eq!(r.ts.date(), day);
                    assert_eq!(r.user, uid);
                }
            }
        }
    }

    #[test]
    fn dual_stack_users_mix_protocols() {
        let w = World::standard(5);
        let pop = Population::new(&w, 9, 3000);
        let day = SimDate::ymd(4, 14);
        let mut v6_users = 0u32;
        let mut mixed_users = 0u32;
        for hh in 0..3000u64 {
            let prof = pop.household(hh);
            for uid in pop.member_ids(&prof) {
                let recs = collect_day(&w, &pop, uid, day);
                let v6 = recs.iter().filter(|r| r.is_v6()).count();
                if v6 > 0 {
                    v6_users += 1;
                    if v6 < recs.len() {
                        mixed_users += 1;
                    }
                }
            }
        }
        assert!(v6_users > 300, "some v6 users expected, got {v6_users}");
        assert!(
            f64::from(mixed_users) / f64::from(v6_users) > 0.5,
            "most v6 users also send v4 ({mixed_users}/{v6_users})"
        );
    }

    #[test]
    fn aggregate_v6_share_is_in_the_papers_band() {
        let w = World::standard(5);
        let pop = Population::new(&w, 9, 6000);
        let day = SimDate::ymd(2, 12); // pre-lockdown weekday
        let mut users_any = 0u32;
        let mut users_v6 = 0u32;
        let mut req_total = 0u64;
        let mut req_v6 = 0u64;
        for hh in 0..6000u64 {
            let prof = pop.household(hh);
            for uid in pop.member_ids(&prof) {
                let recs = collect_day(&w, &pop, uid, day);
                if recs.is_empty() {
                    continue;
                }
                users_any += 1;
                let v6 = recs.iter().filter(|r| r.is_v6()).count() as u64;
                if v6 > 0 {
                    users_v6 += 1;
                }
                req_total += recs.len() as u64;
                req_v6 += v6;
            }
        }
        let user_share = f64::from(users_v6) / f64::from(users_any);
        let req_share = req_v6 as f64 / req_total as f64;
        // Paper: 34–36% of users, 22–25% of requests. Allow simulator slack.
        assert!(
            (0.28..=0.44).contains(&user_share),
            "user share {user_share}"
        );
        assert!(
            (0.17..=0.32).contains(&req_share),
            "request share {req_share}"
        );
        assert!(user_share > req_share, "user share exceeds request share");
    }

    #[test]
    fn requests_egress_from_the_planned_networks() {
        let w = World::standard(5);
        let pop = Population::new(&w, 9, 100);
        let day = SimDate::ymd(4, 16);
        for hh in 0..100u64 {
            let prof = pop.household(hh);
            for uid in pop.member_ids(&prof) {
                let user = pop.user(uid);
                if user.churn_factor > 1.0 {
                    // SIM-hopping churners legitimately egress through
                    // carriers outside the plan.
                    continue;
                }
                let plan = day_plan(&w, &user, day);
                let nets: std::collections::HashSet<_> =
                    plan.contexts.iter().map(|c| w.network(c.net).asn).collect();
                let mut recs = Vec::new();
                emit_user_day(&w, &user, day, &plan, &mut FnSink(|r| recs.push(r)));
                for r in recs {
                    assert!(nets.contains(&r.asn), "record ASN from planned networks");
                }
            }
        }
    }

    /// §5.1.3 regression: churner users accumulate far more IPv4 than
    /// IPv6 addresses over a week, and far more than ordinary users.
    #[test]
    fn churners_accumulate_v4_heavy_address_tails() {
        use std::collections::HashSet;
        let w = World::sized(42, 4_000);
        let pop = Population::new(&w, 42 ^ 0x504F_5055, 4_000);
        let mut churner_v4_max = 0usize;
        let mut churner_v6_max = 0usize;
        let mut found = 0;
        'outer: for hh in 0..4_000u64 {
            let hprof = pop.household(hh);
            for uid in pop.member_ids(&hprof) {
                let u = pop.user(uid);
                if u.churn_factor > 1.0 {
                    found += 1;
                    let mut v4 = HashSet::new();
                    let mut v6 = HashSet::new();
                    for d in 0..7u16 {
                        let day = SimDate::ymd(4, 13) + d;
                        let plan = crate::schedule::day_plan(&w, &u, day);
                        emit_user_day(
                            &w,
                            &u,
                            day,
                            &plan,
                            &mut FnSink(|r: RequestRecord| {
                                if r.is_v6() {
                                    v6.insert(r.ip);
                                } else {
                                    v4.insert(r.ip);
                                }
                            }),
                        );
                    }
                    churner_v4_max = churner_v4_max.max(v4.len());
                    churner_v6_max = churner_v6_max.max(v6.len());
                    if found >= 12 {
                        break 'outer;
                    }
                }
            }
        }
        assert!(found >= 5, "expected several churners, found {found}");
        assert!(
            churner_v4_max > 40,
            "churner v4 tail too small: {churner_v4_max}"
        );
        assert!(
            churner_v4_max > churner_v6_max,
            "v4 outliers must exceed v6: {churner_v4_max} vs {churner_v6_max}"
        );
    }
}
