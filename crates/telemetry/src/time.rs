//! The study's calendar: dates and timestamps over the year 2020.
//!
//! The paper's datasets span Jan 23 – Apr 19 2020, with per-day analyses
//! (weekend effects, §4.1) and a focus week of Apr 13–19. A full civil-time
//! library would be overkill and nondeterministic temptation; instead we
//! model exactly what the study needs: days of one known leap year, with
//! weekday arithmetic anchored on the fact that 2020-01-01 was a Wednesday.

use std::fmt;
use std::ops::{Add, Sub};

/// Cumulative days before each month of 2020 (a leap year).
const CUM_DAYS: [u16; 13] = [0, 31, 60, 91, 121, 152, 182, 213, 244, 274, 305, 335, 366];

/// Days in each month of 2020.
const MONTH_DAYS: [u8; 12] = [31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// A calendar date in 2020, stored as days since Jan 1 (day 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimDate(u16);

/// Day of week.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Weekday {
    Mon,
    Tue,
    Wed,
    Thu,
    Fri,
    Sat,
    Sun,
}

impl SimDate {
    /// Constructs a date from month and day (both 1-based) in 2020.
    ///
    /// # Panics
    /// Panics on out-of-range month/day.
    pub fn ymd(month: u8, day: u8) -> Self {
        assert!((1..=12).contains(&month), "month out of range");
        assert!(
            day >= 1 && day <= MONTH_DAYS[(month - 1) as usize],
            "day out of range"
        );
        Self(CUM_DAYS[(month - 1) as usize] + u16::from(day) - 1)
    }

    /// Constructs from a raw day index (0 = Jan 1 2020).
    ///
    /// # Panics
    /// Panics if the index runs past 2020.
    pub fn from_index(idx: u16) -> Self {
        assert!(idx < 366, "day index out of 2020");
        Self(idx)
    }

    /// The raw day index (0 = Jan 1 2020).
    pub fn index(self) -> u16 {
        self.0
    }

    /// Month (1–12).
    pub fn month(self) -> u8 {
        (CUM_DAYS
            .iter()
            .position(|&c| c > self.0)
            .expect("index < 366")) as u8
    }

    /// Day of month (1-based).
    pub fn day(self) -> u8 {
        (self.0 - CUM_DAYS[(self.month() - 1) as usize] + 1) as u8
    }

    /// Day of week. Jan 1 2020 was a Wednesday.
    pub fn weekday(self) -> Weekday {
        match self.0 % 7 {
            0 => Weekday::Wed,
            1 => Weekday::Thu,
            2 => Weekday::Fri,
            3 => Weekday::Sat,
            4 => Weekday::Sun,
            5 => Weekday::Mon,
            _ => Weekday::Tue,
        }
    }

    /// Whether the date falls on a weekend.
    pub fn is_weekend(self) -> bool {
        matches!(self.weekday(), Weekday::Sat | Weekday::Sun)
    }

    /// The timestamp at `hh:mm:ss` on this date.
    ///
    /// Panics on an out-of-range time component, in release builds too:
    /// a wrapped timestamp would silently land the record on the wrong
    /// day and corrupt every downstream daily slice.
    pub fn at(self, hour: u8, min: u8, sec: u8) -> Timestamp {
        assert!(
            hour < 24 && min < 60 && sec < 60,
            "SimDate::at: invalid time {hour:02}:{min:02}:{sec:02}"
        );
        Timestamp(
            u32::from(self.0) * 86_400
                + u32::from(hour) * 3_600
                + u32::from(min) * 60
                + u32::from(sec),
        )
    }

    /// Midnight at the start of this date.
    pub fn start(self) -> Timestamp {
        self.at(0, 0, 0)
    }

    /// Days between two dates (`self - earlier`), saturating at 0 when
    /// `earlier` is later.
    ///
    /// Saturation is a bug trap on long timelines — a clamped distance
    /// silently shrinks lookback windows — so debug builds assert that
    /// `earlier <= self`.
    pub fn days_since(self, earlier: SimDate) -> u16 {
        debug_assert!(
            earlier.0 <= self.0,
            "days_since saturated: {earlier} is after {self}"
        );
        self.0.saturating_sub(earlier.0)
    }

    /// The date `days` before `self`, or `None` when that would land
    /// before Jan 1 2020. The non-clamping form of `self - days`.
    pub fn checked_sub_days(self, days: u16) -> Option<SimDate> {
        self.0.checked_sub(days).map(SimDate)
    }
}

impl Add<u16> for SimDate {
    type Output = SimDate;
    fn add(self, days: u16) -> SimDate {
        SimDate::from_index(self.0 + days)
    }
}

impl Sub<u16> for SimDate {
    type Output = SimDate;
    /// Like [`SimDate::days_since`], the saturating path is asserted in
    /// debug builds; reach for [`SimDate::checked_sub_days`] instead of
    /// relying on the clamp.
    fn sub(self, days: u16) -> SimDate {
        debug_assert!(
            days <= self.0,
            "SimDate subtraction saturated: {self} - {days} days"
        );
        SimDate(self.0.saturating_sub(days))
    }
}

impl fmt::Display for SimDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "2020-{:02}-{:02}", self.month(), self.day())
    }
}

/// Seconds since 2020-01-01T00:00:00 (UTC, by convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Timestamp(u32);

impl Timestamp {
    /// Constructs from raw seconds since the 2020 epoch.
    pub fn from_secs(secs: u32) -> Self {
        Self(secs)
    }

    /// Raw seconds since the 2020 epoch.
    pub fn secs(self) -> u32 {
        self.0
    }

    /// The calendar date containing this instant.
    pub fn date(self) -> SimDate {
        SimDate::from_index((self.0 / 86_400) as u16)
    }

    /// Hour of day (0–23).
    pub fn hour(self) -> u8 {
        ((self.0 % 86_400) / 3_600) as u8
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.date();
        let rem = self.0 % 86_400;
        write!(
            f,
            "{}T{:02}:{:02}:{:02}",
            d,
            rem / 3600,
            (rem % 3600) / 60,
            rem % 60
        )
    }
}

/// An inclusive range of dates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DateRange {
    /// First day (inclusive).
    pub start: SimDate,
    /// Last day (inclusive).
    pub end: SimDate,
}

impl DateRange {
    /// Creates a range; `start` must not exceed `end`.
    ///
    /// # Panics
    /// Panics when `start > end`.
    pub fn new(start: SimDate, end: SimDate) -> Self {
        assert!(start <= end, "range start after end");
        Self { start, end }
    }

    /// A single-day range.
    pub fn single(day: SimDate) -> Self {
        Self {
            start: day,
            end: day,
        }
    }

    /// Whether `d` lies inside the range.
    pub fn contains(&self, d: SimDate) -> bool {
        (self.start..=self.end).contains(&d)
    }

    /// Number of days in the range (≥ 1).
    pub fn num_days(&self) -> u16 {
        self.end.index() - self.start.index() + 1
    }

    /// Iterates the days in order.
    pub fn days(&self) -> impl Iterator<Item = SimDate> {
        (self.start.index()..=self.end.index()).map(SimDate::from_index)
    }

    /// Timestamp bounds `[start_of_first_day, end_of_last_day]`.
    pub fn ts_bounds(&self) -> (Timestamp, Timestamp) {
        (
            self.start.start(),
            Timestamp::from_secs((u32::from(self.end.index()) + 1) * 86_400 - 1),
        )
    }
}

/// First day of the paper's request/user random samples (Jan 23 2020).
pub fn study_start() -> SimDate {
    SimDate::ymd(1, 23)
}

/// Last day of the study window (Apr 19 2020).
pub fn study_end() -> SimDate {
    SimDate::ymd(4, 19)
}

/// The focus week Apr 13–19 2020, "the overlapping time frame among our
/// datasets" (§4.1), on which most analyses run.
pub fn focus_week() -> DateRange {
    DateRange::new(SimDate::ymd(4, 13), SimDate::ymd(4, 19))
}

/// The single focus day Apr 19 used by the one-day analyses in §5, and
/// Apr 13 used by the IP-centric one-day analyses in §6.1.
pub fn focus_day_user() -> SimDate {
    SimDate::ymd(4, 19)
}

/// The one-day window (Apr 13) used by the users-per-IP analyses (Fig 7/8).
pub fn focus_day_ip() -> SimDate {
    SimDate::ymd(4, 13)
}

/// A pre-pandemic comparison week (Feb 12–18, used in Appendix A.5).
pub fn prepandemic_week() -> DateRange {
    DateRange::new(SimDate::ymd(2, 12), SimDate::ymd(2, 18))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "invalid time")]
    fn at_rejects_out_of_range_components_in_release_too() {
        let _ = SimDate::ymd(4, 19).at(24, 0, 0);
    }

    #[test]
    fn at_accepts_the_last_second_of_the_day() {
        let ts = SimDate::ymd(1, 1).at(23, 59, 59);
        assert_eq!(ts.0, 86_399);
    }

    #[test]
    fn known_dates() {
        assert_eq!(SimDate::ymd(1, 1).index(), 0);
        assert_eq!(SimDate::ymd(1, 31).index(), 30);
        assert_eq!(SimDate::ymd(2, 29).index(), 59); // 2020 is a leap year
        assert_eq!(SimDate::ymd(3, 1).index(), 60);
        assert_eq!(SimDate::ymd(12, 31).index(), 365);
    }

    #[test]
    fn month_day_round_trip() {
        for idx in 0..366 {
            let d = SimDate::from_index(idx);
            assert_eq!(SimDate::ymd(d.month(), d.day()), d);
        }
    }

    #[test]
    fn weekdays_match_2020_calendar() {
        assert_eq!(SimDate::ymd(1, 1).weekday(), Weekday::Wed);
        // The paper's Figure 1 marks Saturdays; Jan 25 2020 was a Saturday.
        assert_eq!(SimDate::ymd(1, 25).weekday(), Weekday::Sat);
        assert!(SimDate::ymd(1, 25).is_weekend());
        assert_eq!(SimDate::ymd(3, 9).weekday(), Weekday::Mon); // Italy lockdown
        assert_eq!(SimDate::ymd(4, 13).weekday(), Weekday::Mon);
        assert_eq!(SimDate::ymd(4, 19).weekday(), Weekday::Sun);
        assert!(!SimDate::ymd(4, 17).is_weekend());
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn rejects_feb_30() {
        SimDate::ymd(2, 30);
    }

    #[test]
    fn date_arithmetic() {
        let d = SimDate::ymd(4, 19);
        assert_eq!(d - 6, SimDate::ymd(4, 13));
        assert_eq!(SimDate::ymd(4, 13) + 6, d);
        assert_eq!(d.days_since(SimDate::ymd(4, 13)), 6);
    }

    #[test]
    fn checked_arithmetic_at_boundaries() {
        let epoch = SimDate::from_index(0);
        let year_end = SimDate::from_index(365);

        // Day 0: zero distance is fine, any reach past Jan 1 is None.
        assert_eq!(epoch.checked_sub_days(0), Some(epoch));
        assert_eq!(epoch.checked_sub_days(1), None);

        // Year end: the full year span is representable, one more is not.
        assert_eq!(year_end.checked_sub_days(365), Some(epoch));
        assert_eq!(year_end.checked_sub_days(366), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "days_since saturated")]
    fn days_since_asserts_on_saturation_in_debug() {
        let _ = SimDate::ymd(4, 13).days_since(SimDate::ymd(4, 19));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "subtraction saturated")]
    fn sub_asserts_on_saturation_in_debug() {
        let _ = SimDate::ymd(1, 3) - 10;
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn saturating_paths_clamp_in_release() {
        assert_eq!(SimDate::ymd(4, 13).days_since(SimDate::ymd(4, 19)), 0);
        assert_eq!(SimDate::ymd(1, 3) - 10, SimDate::ymd(1, 1));
    }

    #[test]
    fn timestamps() {
        let ts = SimDate::ymd(1, 2).at(13, 30, 5);
        assert_eq!(ts.secs(), 86_400 + 13 * 3600 + 30 * 60 + 5);
        assert_eq!(ts.date(), SimDate::ymd(1, 2));
        assert_eq!(ts.hour(), 13);
        assert_eq!(ts.to_string(), "2020-01-02T13:30:05");
        assert_eq!(SimDate::ymd(1, 1).start().secs(), 0);
    }

    #[test]
    fn ranges() {
        let r = focus_week();
        assert_eq!(r.num_days(), 7);
        assert!(r.contains(SimDate::ymd(4, 16)));
        assert!(!r.contains(SimDate::ymd(4, 20)));
        let days: Vec<SimDate> = r.days().collect();
        assert_eq!(days.len(), 7);
        assert_eq!(days[0], SimDate::ymd(4, 13));
        assert_eq!(days[6], SimDate::ymd(4, 19));
        let (lo, hi) = r.ts_bounds();
        assert_eq!(lo.date(), SimDate::ymd(4, 13));
        assert_eq!(hi.date(), SimDate::ymd(4, 19));
        assert_eq!((hi.secs() + 1) % 86_400, 0);
    }

    #[test]
    fn study_constants() {
        assert_eq!(DateRange::new(study_start(), study_end()).num_days(), 88);
        assert_eq!(study_start().to_string(), "2020-01-23");
        assert_eq!(study_end().to_string(), "2020-04-19");
        assert_eq!(DateRange::single(focus_day_ip()).num_days(), 1);
    }
}
