//! Fig. 4 — % of total cases improved vs. improvement threshold, for
//! top-10 and all relays of each type.
//!
//! For every threshold x, the curve gives the fraction of *total* cases
//! whose best improvement (within the chosen relay subset) exceeds x ms.
//! "Best performance of each relay set is considered per case": for the
//! top-10 subset, each case's improvement is the maximum over the
//! top-10 relays that improved it.

use crate::analysis::top_relays;
use crate::relays::RelayType;
use crate::workflow::CampaignResults;
use shortcuts_netsim::fasthash::FastBuild;
use shortcuts_netsim::HostId;
use std::collections::HashSet;

/// One curve of Fig. 4.
#[derive(Debug, Clone)]
pub struct ThresholdCurve {
    /// The relay type.
    pub rtype: RelayType,
    /// Number of top relays considered (`None` = all relays).
    pub top_k: Option<usize>,
    /// `(threshold_ms, fraction_of_total_cases)` points.
    pub points: Vec<(f64, f64)>,
}

impl ThresholdCurve {
    /// Computes the curve for `rtype`, restricted to the top-`top_k`
    /// relays when given (ranked by improvement frequency, as in
    /// Fig. 3), over thresholds `xs`.
    pub fn compute(
        results: &CampaignResults,
        rtype: RelayType,
        top_k: Option<usize>,
        xs: &[f64],
    ) -> Self {
        let total = results.total_cases().max(1);
        let allowed: Option<HashSet<HostId, FastBuild>> = top_k.map(|k| {
            top_relays::top_hosts(results, rtype, k)
                .into_iter()
                .collect()
        });

        // Best improvement per case within the allowed subset.
        let mut best_improvements = Vec::new();
        for c in &results.cases {
            let best = c
                .improving(rtype)
                .iter()
                .filter(|(h, _)| allowed.as_ref().is_none_or(|a| a.contains(h)))
                .map(|&(_, imp)| f64::from(imp))
                .fold(f64::NEG_INFINITY, f64::max);
            if best.is_finite() {
                best_improvements.push(best);
            }
        }

        let points = xs
            .iter()
            .map(|&x| {
                let n = best_improvements.iter().filter(|&&i| i > x).count();
                (x, n as f64 / total as f64)
            })
            .collect();

        ThresholdCurve {
            rtype,
            top_k,
            points,
        }
    }

    /// Fraction of total cases with improvement above `x` (nearest
    /// computed point at or below `x`).
    pub fn fraction_at(&self, x: f64) -> f64 {
        self.points
            .iter()
            .rfind(|(px, _)| *px <= x)
            .map(|&(_, f)| f)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::improvement::tests::synthetic_results;

    fn xs() -> Vec<f64> {
        (0..=10).map(|i| f64::from(i) * 5.0).collect()
    }

    #[test]
    fn curves_decrease_with_threshold() {
        let r = synthetic_results();
        let c = ThresholdCurve::compute(&r, RelayType::Cor, None, &xs());
        for w in c.points.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    fn all_relays_curve_matches_synthetic_data() {
        let r = synthetic_results();
        let c = ThresholdCurve::compute(&r, RelayType::Cor, None, &xs());
        // Improvements are 20 and 15 ms over 4 total cases.
        assert_eq!(c.fraction_at(0.0), 0.5);
        assert_eq!(c.fraction_at(15.0), 0.25); // strictly above 15
        assert_eq!(c.fraction_at(20.0), 0.0);
    }

    #[test]
    fn top_k_subset_never_beats_all() {
        let r = synthetic_results();
        let all = ThresholdCurve::compute(&r, RelayType::Cor, None, &xs());
        let top1 = ThresholdCurve::compute(&r, RelayType::Cor, Some(1), &xs());
        for (a, t) in all.points.iter().zip(top1.points.iter()) {
            assert!(t.1 <= a.1 + 1e-12);
        }
    }

    #[test]
    fn empty_type_is_flat_zero() {
        let r = synthetic_results();
        let c = ThresholdCurve::compute(&r, RelayType::RarEye, None, &xs());
        assert!(c.points.iter().all(|&(_, f)| f == 0.0));
    }
}
