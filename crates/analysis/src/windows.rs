//! The window recipes: every day range an analysis pass reads.
//!
//! Each entry of the experiment registry
//! (`ipv6_study_core::experiments`) declares its inputs as (dataset
//! family, [`Recipe`]) pairs, and the incremental engine derives which
//! passes an extension invalidates from those declarations alone. The
//! recipes come in two kinds:
//!
//! - **anchored** recipes are fixed calendar spans (the Apr 13–19 focus
//!   week, the 28-day lookback behind Apr 19, the Jan/Feb comparison
//!   weeks). Appending days after the base range never changes their
//!   contents, so a pass that reads only anchored recipes is *not*
//!   invalidated by an extension.
//! - **end-relative** recipes slide with the last simulated day (the
//!   four-day pair window behind Figure 11, the day-*n*/day-*n+1* pair
//!   behind §7.2-ML and EC1, Figure 1's whole-timeline prevalence span).
//!   A pass reading one must rerun after every extension.
//!
//! All builders use [`SimDate::checked_sub_days`]-style checked
//! arithmetic: a window that would underflow the 2020 calendar is a
//! configuration bug and panics with a description instead of silently
//! clamping to Jan 1 (see `SimDate::days_since`'s saturation trap).

use ipv6_study_telemetry::time::{
    focus_day_ip, focus_day_user, focus_week, prepandemic_week, DateRange, SimDate,
};

/// Days reaching *back* from a focus day in the §5.3 lifespan lookback
/// (the window is `LOOKBACK_DAYS + 1` = 28 days long, inclusive).
pub const LOOKBACK_DAYS: u16 = 27;

/// Days reaching back from the last simulated day in the full-population
/// pair window (the window is `PAIR_BACK_DAYS + 1` = 4 days long — three
/// consecutive day pairs for the Figure 11 ROC).
pub const PAIR_BACK_DAYS: u16 = 3;

/// A window ending at `end` and reaching `back` days behind it
/// (`back + 1` days long). Panics when the window would underflow the
/// 2020 calendar rather than silently clamping.
pub fn window_ending(end: SimDate, back: u16) -> DateRange {
    let start = end
        .checked_sub_days(back)
        .unwrap_or_else(|| panic!("window of {back} days behind {end} underflows the calendar"));
    DateRange::new(start, end)
}

/// The 28-day address/prefix-lifespan lookback behind `focus` (§5.3).
pub fn lookback_window(focus: SimDate) -> DateRange {
    window_ending(focus, LOOKBACK_DAYS)
}

/// The full-population pair window: the last four simulated days, whose
/// day pairs feed the Figure 11 actioning ROC. The driver routes every
/// record of these days into the pair store.
pub fn pair_window(sim_end: SimDate) -> DateRange {
    window_ending(sim_end, PAIR_BACK_DAYS)
}

/// A window recipe: the days one declared analysis input covers, as a
/// function of the simulated range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// Every simulated day (end-relative).
    Sim,
    /// The Apr 13–19 focus week.
    Week,
    /// Apr 19, the user-sample focus day.
    Apr19,
    /// Apr 13, the IP-sample focus day.
    Apr13,
    /// The 28-day lifespan lookback behind Apr 19 (§5.3).
    Lookback,
    /// The Jan 23–29 comparison week of Table 2.
    JanWeek,
    /// The Feb 12–18 pre-pandemic week of Appendix A.3.
    FebWeek,
    /// Appendix A.5's 27-day lookback behind Feb 18 (the appendix's
    /// shorter span).
    FebLookback,
    /// Appendix A.5's 27-day lookback behind Apr 19.
    AprLookback,
    /// The four-day pair window (end-relative).
    PairWindow,
    /// The day-*n* / day-*n+1* pair scored by §7.2's ML transfer and EC1:
    /// the last two simulated days (end-relative).
    MlPair,
}

impl Recipe {
    /// The days the recipe covers when the simulation covers `sim`.
    pub fn days(self, sim: DateRange) -> DateRange {
        match self {
            Recipe::Sim => sim,
            Recipe::Week => focus_week(),
            Recipe::Apr19 => DateRange::single(focus_day_user()),
            Recipe::Apr13 => DateRange::single(focus_day_ip()),
            Recipe::Lookback => lookback_window(focus_day_user()),
            Recipe::JanWeek => DateRange::new(SimDate::ymd(1, 23), SimDate::ymd(1, 29)),
            Recipe::FebWeek => prepandemic_week(),
            Recipe::FebLookback => window_ending(SimDate::ymd(2, 18), 26),
            Recipe::AprLookback => window_ending(focus_day_user(), 26),
            Recipe::PairWindow => pair_window(sim.end),
            Recipe::MlPair => window_ending(sim.end, 1),
        }
    }

    /// The recipe's name in span paths and messages.
    pub fn name(self) -> &'static str {
        match self {
            Recipe::Sim => "sim",
            Recipe::Week => "week",
            Recipe::Apr19 => "apr19",
            Recipe::Apr13 => "apr13",
            Recipe::Lookback => "lookback",
            Recipe::JanWeek => "jan_week",
            Recipe::FebWeek => "feb_week",
            Recipe::FebLookback => "feb_lookback",
            Recipe::AprLookback => "apr_lookback",
            Recipe::PairWindow => "last4",
            Recipe::MlPair => "last2",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_shapes() {
        assert_eq!(lookback_window(focus_day_user()).num_days(), 28);
        assert_eq!(pair_window(focus_day_user()).num_days(), 4);
        assert_eq!(
            pair_window(SimDate::ymd(4, 19)).start,
            SimDate::ymd(4, 16),
            "pair window is the driver's routing window"
        );
        let sim = DateRange::new(SimDate::ymd(4, 6), SimDate::ymd(4, 20));
        let ml = Recipe::MlPair.days(sim);
        assert_eq!(
            (ml.start, ml.end),
            (SimDate::ymd(4, 19), SimDate::ymd(4, 20))
        );
        assert_eq!(Recipe::FebLookback.days(sim).num_days(), 27);
        assert_eq!(Recipe::AprLookback.days(sim).end, focus_day_user());
        assert_eq!(Recipe::JanWeek.days(sim).num_days(), 7);
    }

    #[test]
    #[should_panic(expected = "underflows the calendar")]
    fn underflowing_window_panics_instead_of_clamping() {
        let _ = window_ending(SimDate::ymd(1, 3), 10);
    }
}
