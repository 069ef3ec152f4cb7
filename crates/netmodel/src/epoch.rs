//! Renewal-process arithmetic for address assignments.
//!
//! Every lease-like assignment in the model — a home's public IPv4 address,
//! a delegated IPv6 prefix, a mobile device's /64 — is a *renewal process*:
//! the assignment changes every `period` days, where the period is drawn
//! per entity from a log-normal around the network's configured mean, and
//! the phase is uniform. "Which assignment epoch is entity X in on day D?"
//! is then O(1):
//!
//! ```text
//! epoch(D) = (D + phase) / period
//! ```
//!
//! Address *lifespans* (Figures 5 and 6) fall out of the period
//! distribution: an assignment first observed on the first day of its epoch
//! lives `period` days. Log-normal periods give the paper's mix of
//! fast-churning and sticky assignments.

use ipv6_study_stats::dist::{lognormal, uniform_range};
use ipv6_study_stats::hash::StableHasher;
use ipv6_study_telemetry::SimDate;

/// A per-entity renewal schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Renewal {
    /// Days between assignment changes (≥ 1).
    pub period: u32,
    /// Phase offset in `[0, period)`.
    pub phase: u32,
}

impl Renewal {
    /// Derives the schedule for an entity from a pre-mixed seed, a mean
    /// period in days, and a log-normal shape `sigma` (0 = deterministic
    /// period).
    ///
    /// Periods are clamped to `[1, 3650]`.
    pub fn derive(entity_seed: u64, mean_days: f64, sigma: f64) -> Self {
        let mut h = StableHasher::new(0x5045_5249); // "PERI"
        h.write_u64(entity_seed);
        let hp = h.finish();
        let mean = mean_days.max(1.0);
        // Parameterize so the log-normal's *mean* (not median) is `mean`:
        // E[lognormal(mu, s)] = exp(mu + s²/2)  =>  mu = ln(mean) − s²/2.
        let mu = mean.ln() - sigma * sigma / 2.0;
        let period = lognormal(hp, mu, sigma).round().clamp(1.0, 3650.0) as u32;
        let mut h2 = StableHasher::new(0x5048_4153); // "PHAS"
        h2.write_u64(entity_seed);
        let phase = uniform_range(h2.finish(), u64::from(period)) as u32;
        Self { period, phase }
    }

    /// The epoch index containing `day`.
    pub fn epoch(&self, day: SimDate) -> u32 {
        (u32::from(day.index()) + self.phase) / self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6_study_stats::hash::stable_hash64;

    #[test]
    fn epochs_advance_by_period() {
        let r = Renewal {
            period: 7,
            phase: 3,
        };
        let d0 = SimDate::from_index(0);
        assert_eq!(r.epoch(d0), 0);
        // Epoch boundary at day index 4 (4 + 3 = 7).
        assert_eq!(r.epoch(SimDate::from_index(3)), 0);
        assert_eq!(r.epoch(SimDate::from_index(4)), 1);
        assert_eq!(r.epoch(SimDate::from_index(10)), 1);
        assert_eq!(r.epoch(SimDate::from_index(11)), 2);
    }

    #[test]
    fn derived_periods_match_mean() {
        let n = 20_000;
        let mean = 10.0;
        let sum: f64 = (0..n)
            .map(|i| {
                let seed = stable_hash64(1, &(i as u64).to_le_bytes());
                Renewal::derive(seed, mean, 0.8).period as f64
            })
            .sum();
        let got = sum / n as f64;
        // Rounding + clamping to ≥1 biases slightly; allow 10%.
        assert!((got - mean).abs() / mean < 0.10, "mean period {got}");
    }

    #[test]
    fn zero_sigma_is_deterministic_period() {
        let r = Renewal::derive(42, 7.0, 0.0);
        assert_eq!(r.period, 7);
        assert!(r.phase < 7);
    }

    #[test]
    fn phase_spreads_entities() {
        // Different entities should not all renew on the same day.
        let mut phases = std::collections::HashSet::new();
        for i in 0..100u64 {
            let r = Renewal::derive(stable_hash64(2, &i.to_le_bytes()), 30.0, 0.0);
            phases.insert(r.phase);
        }
        assert!(phases.len() > 10, "expected spread, got {}", phases.len());
    }
}
