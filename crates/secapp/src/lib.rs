//! §7 — IP-based security applications.
//!
//! The study's payoff section: given the behavioral differences measured in
//! §5–§6, how should defenses treat IPv6? Each module implements one
//! mechanism the paper discusses, plus the evaluation harness that
//! regenerates its numbers:
//!
//! - [`actioning`] — the day-*n* → day-*n+1* actioning simulation behind
//!   Figure 11's ROC curves, at any prefix granularity.
//! - [`blocklist`] — a TTL'd prefix blocklist and its recall/collateral
//!   evaluation over time (the "IPv6 blocklisting is likely most effective
//!   when deployed short term" analysis of §7.2).
//! - [`ratelimit`] — per-prefix rate limiting: threshold recommendation
//!   from users-per-key distributions ("thresholds can be set more tightly"
//!   on IPv6) and a token-bucket enforcement engine.
//! - [`threat_exchange`] — intelligence value decay: how fast a shared
//!   list of abusive IPv6 addresses goes stale (§7.2's "the value of
//!   intelligence on suspicious IPv6 addresses degrades quickly").
//! - [`mlfeatures`] — IP-behavior feature extraction plus a from-scratch
//!   logistic-regression scorer, for the "models may perform better if
//!   treating the two protocols distinctly" discussion.
//! - [`signatures`] — the heavily-populated-address predictor built on the
//!   §6.1.3 IID signature, enabling the "predict outliers and exempt them"
//!   policy the paper recommends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ipv6_study_telemetry::{AbuseLabels, IpId, IpTable, UserId};

pub mod actioning;
pub mod blocklist;
pub mod mlfeatures;
pub mod ratelimit;
pub mod signatures;
pub mod threat_exchange;

pub use actioning::{actioning_roc, actioning_roc_between, DayCounts, Granularity};
pub use blocklist::Blocklist;
pub use mlfeatures::{FeatureVector, LogisticModel};
pub use ratelimit::{recommend_threshold, RateLimiter};
pub use signatures::HeavyAddressPredictor;
pub use threat_exchange::value_decay;

// The list evaluations count a day's distinct users through one flag
// byte per dense user id, made of these bits: seen (its label looked
// up), labeled abusive, counted in a denominator, hit by the list.
const SEEN: u8 = 1;
const ABUSIVE: u8 = 2;
const COUNTED: u8 = 4;
const HIT: u8 = 8;

/// A user's flags at first sight: the one label look-up.
fn first_sight(labels: &AbuseLabels, user: UserId) -> u8 {
    if labels.is_abusive(user) {
        SEEN | ABUSIVE
    } else {
        SEEN
    }
}

/// An address's position in a table over both families' addresses (the
/// evaluations probe a list at most once per address a day).
fn address_slot(ips: &IpTable, id: IpId) -> usize {
    id.index() + usize::from(id.is_v6()) * ips.num_v4()
}
