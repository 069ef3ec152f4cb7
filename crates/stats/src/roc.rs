//! Receiver Operating Characteristic curves.
//!
//! Section 7.1 of the paper evaluates IP-actioning policies as a binary
//! decision sweep: for every prefix observed on day *n* with abusive-account
//! ratio ≥ *t*, action it; measure on day *n+1* the true-positive rate (share
//! of abusive accounts caught) and false-positive rate (share of benign users
//! collaterally hit), then sweep *t* from 0% to 100% to trace Figure 11.
//!
//! This module provides the generic machinery: a [`RocCurve`] built from
//! per-decision-unit `(score, positives_hit, negatives_hit)` triples, where a
//! unit (an address or a prefix) is actioned whenever `score >= threshold`.

use std::sync::OnceLock;

/// One operating point on a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold that produces this point (units actioned when
    /// `score >= threshold`).
    pub threshold: f64,
    /// True-positive rate in `[0, 1]`.
    pub tpr: f64,
    /// False-positive rate in `[0, 1]`.
    pub fpr: f64,
}

/// A ROC curve over weighted decision units.
///
/// Each unit carries a `score` (here: the abusive-account ratio on day *n*),
/// a positive weight (abusive accounts on the unit on day *n+1*) and a
/// negative weight (benign users on day *n+1*). Unlike the textbook
/// per-example ROC, weights let one unit contribute thousands of users —
/// matching how a single blocked CGN address harms everyone behind it.
///
/// Weights are integer counts, so every sum is exact in any order. The
/// first query after a change sorts the units once by descending score
/// into a cumulative table; each threshold is then one binary search.
#[derive(Debug, Clone, Default)]
pub struct RocCurve {
    /// `(score, positive_weight, negative_weight)` per decision unit.
    units: Vec<(f64, u64, u64)>,
    /// The units by descending score, each with the weights summed over
    /// it and every unit before it; built by the first query.
    table: OnceLock<Vec<(f64, u64, u64)>>,
}

impl RocCurve {
    /// Creates an empty curve builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one decision unit.
    pub fn push(&mut self, score: f64, positive_weight: u64, negative_weight: u64) {
        debug_assert!(score.is_finite());
        self.table.take();
        self.units.push((score, positive_weight, negative_weight));
    }

    /// Pools another curve's decision units into this one (e.g. the same
    /// experiment repeated over several day pairs).
    pub fn extend_from(&mut self, other: &RocCurve) {
        self.table.take();
        self.units.extend_from_slice(&other.units);
    }

    fn table(&self) -> &[(f64, u64, u64)] {
        self.table.get_or_init(|| {
            let mut table = self.units.clone();
            table.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
            for i in 1..table.len() {
                table[i].1 += table[i - 1].1;
                table[i].2 += table[i - 1].2;
            }
            table
        })
    }

    /// `(positive, negative)` weight of the units scoring `>= threshold`:
    /// with scores descending, a prefix of the table.
    fn actioned(&self, threshold: f64) -> (u64, u64) {
        let table = self.table();
        match table.partition_point(|u| u.0 >= threshold) {
            0 => (0, 0),
            k => (table[k - 1].1, table[k - 1].2),
        }
    }

    /// Total positive weight across all units (the day-*n+1* abusive mass).
    pub fn total_positive(&self) -> u64 {
        self.table().last().map_or(0, |u| u.1)
    }

    /// Total negative weight across all units.
    pub fn total_negative(&self) -> u64 {
        self.table().last().map_or(0, |u| u.2)
    }

    /// Evaluates the operating point at a single threshold.
    ///
    /// `total_negative_override` supports the paper's setting where the FPR
    /// denominator is the *entire* benign population (including users on
    /// never-observed units), not just users on scored units. Pass `None` to
    /// use the in-curve total.
    pub fn point_at(&self, threshold: f64, total_negative_override: Option<f64>) -> RocPoint {
        let (tp, fp) = self.actioned(threshold);
        let tot_p = self.total_positive() as f64;
        let tot_n = total_negative_override.unwrap_or_else(|| self.total_negative() as f64);
        RocPoint {
            threshold,
            tpr: if tot_p > 0.0 { tp as f64 / tot_p } else { 0.0 },
            fpr: if tot_n > 0.0 { fp as f64 / tot_n } else { 0.0 },
        }
    }

    /// Sweeps the given thresholds (descending TPR as threshold rises) into a
    /// plottable curve.
    pub fn sweep(&self, thresholds: &[f64], total_negative_override: Option<f64>) -> Vec<RocPoint> {
        thresholds
            .iter()
            .map(|&t| self.point_at(t, total_negative_override))
            .collect()
    }

    /// The TPR attained at the largest threshold whose FPR does not exceed
    /// `max_fpr` — "recall at a tolerable false-positive budget", the paper's
    /// preferred comparison ("for FPR values below 1%, IPv4's ROC curve is
    /// consistently below those of IPv6…"). Scans a fine threshold grid.
    pub fn tpr_at_fpr(&self, max_fpr: f64, total_negative_override: Option<f64>) -> f64 {
        let mut best = 0.0f64;
        for i in 0..=1000 {
            let t = i as f64 / 1000.0;
            let p = self.point_at(t, total_negative_override);
            if p.fpr <= max_fpr {
                best = best.max(p.tpr);
            }
        }
        best
    }

    /// Area under the curve via trapezoidal integration over a fine
    /// threshold grid. A scalar summary for regression tests and ablations.
    pub fn auc(&self, total_negative_override: Option<f64>) -> f64 {
        let mut pts: Vec<RocPoint> = (0..=1000)
            .map(|i| self.point_at(i as f64 / 1000.0, total_negative_override))
            .collect();
        pts.sort_by(|a, b| a.fpr.partial_cmp(&b.fpr).expect("finite rates"));
        let mut auc = 0.0;
        // Anchor the curve at (0,0) and (max_fpr, max_tpr) ... integrate the
        // observed envelope only; actioning curves need not reach (1,1).
        let mut prev = RocPoint {
            threshold: f64::NAN,
            tpr: 0.0,
            fpr: 0.0,
        };
        for p in pts {
            auc += (p.fpr - prev.fpr) * (p.tpr + prev.tpr) / 2.0;
            prev = p;
        }
        auc
    }

    /// Number of decision units recorded.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when no units were recorded.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::TestGen;

    fn sample_curve() -> RocCurve {
        let mut c = RocCurve::new();
        // unit: score, abusive next day, benign next day
        c.push(1.0, 10, 0); // purely abusive yesterday, clean hit
        c.push(0.5, 5, 5); // mixed
        c.push(0.1, 1, 100); // heavily benign
        c
    }

    #[test]
    fn threshold_zero_actions_everything() {
        let c = sample_curve();
        let p = c.point_at(0.0, None);
        assert!((p.tpr - 1.0).abs() < 1e-12);
        assert!((p.fpr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_one_actions_only_pure_units() {
        let c = sample_curve();
        let p = c.point_at(1.0, None);
        assert!((p.tpr - 10.0 / 16.0).abs() < 1e-12);
        assert!((p.fpr - 0.0).abs() < 1e-12);
    }

    #[test]
    fn fpr_denominator_override() {
        let c = sample_curve();
        // Pretend the full benign population is 10x the in-curve negatives.
        let p = c.point_at(0.0, Some(1050.0));
        assert!((p.fpr - 105.0 / 1050.0).abs() < 1e-12);
    }

    #[test]
    fn tpr_at_fpr_budget() {
        let c = sample_curve();
        // With zero FPR budget, only the pure unit may be actioned.
        assert!((c.tpr_at_fpr(0.0, None) - 10.0 / 16.0).abs() < 1e-12);
        // With unlimited budget the whole mass is reachable.
        assert!((c.tpr_at_fpr(1.0, None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_curve_is_safe() {
        let c = RocCurve::new();
        let p = c.point_at(0.5, None);
        assert_eq!(p.tpr, 0.0);
        assert_eq!(p.fpr, 0.0);
        assert_eq!(c.auc(None), 0.0);
        assert!(c.is_empty());
    }

    /// A pseudo-random curve with 1–49 units of bounded integer mass.
    fn random_curve(g: &mut TestGen) -> RocCurve {
        let mut c = RocCurve::new();
        for _ in 0..g.range_u64(1, 49) {
            c.push(
                g.range_f64(0.0, 1.0),
                g.range_u64(0, 50),
                g.range_u64(0, 50),
            );
        }
        c
    }

    /// Raising the threshold can only shrink the actioned set, so both
    /// rates are monotone non-increasing in the threshold.
    #[test]
    fn rates_monotone_in_threshold() {
        let mut g = TestGen::new(0x524F_4301);
        for _ in 0..256 {
            let c = random_curve(&mut g);
            let mut prev = c.point_at(0.0, None);
            for i in 1..=20 {
                let cur = c.point_at(i as f64 / 20.0, None);
                assert!(cur.tpr <= prev.tpr + 1e-12);
                assert!(cur.fpr <= prev.fpr + 1e-12);
                prev = cur;
            }
        }
    }

    #[test]
    fn auc_is_a_probability() {
        let mut g = TestGen::new(0x524F_4302);
        for _ in 0..256 {
            let c = random_curve(&mut g);
            let auc = c.auc(None);
            assert!((0.0..=1.0 + 1e-9).contains(&auc));
        }
    }
    /// The oracle: one scan over every unit per threshold, summing f64
    /// weights in push order.
    fn naive_point_at(units: &[(f64, u64, u64)], t: f64, over: Option<f64>) -> RocPoint {
        let (mut tp, mut fp) = (0.0, 0.0);
        for &(score, pos, neg) in units {
            if score >= t {
                tp += pos as f64;
                fp += neg as f64;
            }
        }
        let tot_p: f64 = units.iter().map(|u| u.1 as f64).sum();
        let tot_n = over.unwrap_or_else(|| units.iter().map(|u| u.2 as f64).sum());
        RocPoint {
            threshold: t,
            tpr: if tot_p > 0.0 { tp / tot_p } else { 0.0 },
            fpr: if tot_n > 0.0 { fp / tot_n } else { 0.0 },
        }
    }

    /// The cumulative table reproduces the per-unit scan bit for bit on
    /// random curves with tied scores, −1 (never actioned) scores, heavy
    /// weights and no units at all — at every unit's own score, between
    /// scores, on the 1,001-point grid, and through `tpr_at_fpr`, `auc`
    /// and a curve grown after it was first queried.
    #[test]
    fn cumulative_table_matches_the_per_unit_scan() {
        let mut g = TestGen::new(0x524F_4303);
        for round in 0..100 {
            let n = if round % 10 == 0 {
                0
            } else {
                g.range_u64(1, 80)
            };
            let units: Vec<(f64, u64, u64)> = (0..n)
                .map(|_| {
                    let score = match g.below(4) {
                        0 => -1.0,
                        1 => g.below(5) as f64 / 4.0, // ties
                        _ => g.unit(),
                    };
                    let heavy = if g.below(8) == 0 { 1 << 40 } else { 50 };
                    (score, g.range_u64(0, heavy), g.range_u64(0, heavy))
                })
                .collect();
            let (head, tail) = units.split_at(units.len() / 2);
            let mut c = RocCurve::new();
            for &(s, p, q) in head {
                c.push(s, p, q);
            }
            let _ = c.point_at(0.5, None); // builds the table for `head`
            let mut rest = RocCurve::new();
            for &(s, p, q) in tail {
                rest.push(s, p, q);
            }
            c.extend_from(&rest);
            assert_eq!(c.len(), units.len());
            let mut thresholds: Vec<f64> = units.iter().map(|u| u.0).collect();
            thresholds.extend((0..=1000).map(|i| i as f64 / 1000.0));
            thresholds.extend([-2.0, -1.0, -0.5, 1e-9, 2.0]);
            for over in [None, Some(1e6)] {
                for &t in &thresholds {
                    let (a, b) = (c.point_at(t, over), naive_point_at(&units, t, over));
                    assert_eq!((a.tpr, a.fpr), (b.tpr, b.fpr), "t={t}");
                }
                let grid: Vec<RocPoint> = (0..=1000)
                    .map(|i| naive_point_at(&units, i as f64 / 1000.0, over))
                    .collect();
                for max_fpr in [0.0, 0.01, 0.5, 1.0] {
                    let best = grid
                        .iter()
                        .filter(|p| p.fpr <= max_fpr)
                        .fold(0.0f64, |best, p| best.max(p.tpr));
                    assert_eq!(c.tpr_at_fpr(max_fpr, over), best);
                }
            }
        }
    }
}
