//! Abusive-account labels.
//!
//! §3.1: the paper joins its request datasets with *"millions of
//! high-confidence abusive accounts labeled by Facebook"*; §3.3 stresses
//! that detection (mostly within a day of an account becoming active)
//! censors the observable lifetime of abusive accounts. Our label set
//! records both the creation and the detection date so that analyses can
//! reproduce this censoring honestly — an account's requests simply stop
//! after detection, exactly like accounts actioned by the real platform.

use std::collections::HashMap;

use crate::ids::UserId;
use crate::time::SimDate;

/// Label metadata for one abusive account.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbuseInfo {
    /// Day the account became active.
    pub created: SimDate,
    /// Day the platform detected and actioned it (activity stops here).
    pub detected: SimDate,
}

/// The labeled abusive-account dataset.
#[derive(Debug, Clone, Default)]
pub struct AbuseLabels {
    labels: HashMap<UserId, AbuseInfo>,
}

impl AbuseLabels {
    /// Creates an empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a label. Re-labeling an account keeps the earliest creation
    /// and detection dates (labels are append-only facts).
    pub fn insert(&mut self, user: UserId, info: AbuseInfo) {
        self.labels
            .entry(user)
            .and_modify(|e| {
                e.created = e.created.min(info.created);
                e.detected = e.detected.min(info.detected);
            })
            .or_insert(info);
    }

    /// Whether the account is labeled abusive (as of the label snapshot).
    pub fn is_abusive(&self, user: UserId) -> bool {
        self.labels.contains_key(&user)
    }

    /// Label metadata for an account.
    pub fn get(&self, user: UserId) -> Option<AbuseInfo> {
        self.labels.get(&user).copied()
    }

    /// Number of labeled accounts.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no accounts are labeled.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates `(user, info)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, AbuseInfo)> + '_ {
        self.labels.iter().map(|(&u, &i)| (u, i))
    }

    /// Fraction of labeled accounts detected within `days` days of creation
    /// — the censoring statistic the paper reports ("the vast majority of
    /// observed abusive accounts are detected within a day", §3.3).
    pub fn detected_within(&self, days: u16) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        let quick = self
            .labels
            .values()
            .filter(|i| i.detected.days_since(i.created) <= days)
            .count();
        quick as f64 / self.labels.len() as f64
    }
}

impl FromIterator<(UserId, AbuseInfo)> for AbuseLabels {
    fn from_iter<T: IntoIterator<Item = (UserId, AbuseInfo)>>(iter: T) -> Self {
        let mut l = Self::new();
        for (u, i) in iter {
            l.insert(u, i);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_queries() {
        let mut l = AbuseLabels::new();
        l.insert(
            UserId(1),
            AbuseInfo {
                created: SimDate::ymd(4, 10),
                detected: SimDate::ymd(4, 10),
            },
        );
        l.insert(
            UserId(2),
            AbuseInfo {
                created: SimDate::ymd(4, 10),
                detected: SimDate::ymd(4, 15),
            },
        );
        assert!(l.is_abusive(UserId(1)));
        assert!(!l.is_abusive(UserId(3)));
        assert_eq!(l.len(), 2);
        assert_eq!(l.detected_within(0), 0.5);
        assert_eq!(l.detected_within(5), 1.0);
    }

    #[test]
    fn relabel_keeps_earliest() {
        let mut l = AbuseLabels::new();
        l.insert(
            UserId(1),
            AbuseInfo {
                created: SimDate::ymd(4, 12),
                detected: SimDate::ymd(4, 14),
            },
        );
        l.insert(
            UserId(1),
            AbuseInfo {
                created: SimDate::ymd(4, 10),
                detected: SimDate::ymd(4, 16),
            },
        );
        let i = l.get(UserId(1)).unwrap();
        assert_eq!(i.created, SimDate::ymd(4, 10));
        assert_eq!(i.detected, SimDate::ymd(4, 14));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn empty_set_statistics() {
        let l = AbuseLabels::new();
        assert_eq!(l.detected_within(7), 0.0);
        assert!(l.is_empty());
    }
}
