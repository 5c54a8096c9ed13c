//! Fig. 3 — % of total cases improved vs. number of top relays.
//!
//! Relays of each type are ranked by **frequency of improvement** (how
//! many cases they improved). The curve at x = k is the fraction of all
//! cases improved by *at least one of the top-k relays*. The paper's
//! headline: the top-10 COR relays (in 6 facilities) already improve
//! ~58 % of all cases — matching the best other type's performance with
//! two orders of magnitude fewer relays.

use crate::relays::RelayType;
use crate::workflow::CampaignResults;
use shortcuts_netsim::fasthash::FastMap;
use shortcuts_netsim::HostId;

/// Ranking and coverage curve for one relay type.
#[derive(Debug, Clone)]
pub struct TopRelayAnalysis {
    /// The relay type.
    pub rtype: RelayType,
    /// Relays ranked by improvement frequency (most frequent first),
    /// with their improvement counts.
    pub ranked: Vec<(HostId, usize)>,
    /// `coverage[k-1]` = fraction of total cases improved by the top-k
    /// relays together.
    pub coverage: Vec<f64>,
    /// Total number of cases.
    pub total_cases: usize,
}

impl TopRelayAnalysis {
    /// Computes the ranking and coverage curve for `rtype`, with the
    /// curve cut at `max_k` relays.
    pub fn compute(results: &CampaignResults, rtype: RelayType, max_k: usize) -> Self {
        let total = results.total_cases().max(1);

        // Per relay: the case indexes it improved.
        let mut improved_cases: FastMap<HostId, Vec<u32>> = FastMap::default();
        for (case_idx, c) in results.cases.iter().enumerate() {
            for &(host, _) in c.improving(rtype) {
                improved_cases
                    .entry(host)
                    .or_default()
                    .push(case_idx as u32);
            }
        }

        let ranked = rank(improved_cases.iter().map(|(&h, v)| (h, v.len())).collect());

        // Cases covered so far, as a bitset over case indexes.
        let mut coverage = Vec::with_capacity(max_k.min(ranked.len()));
        let mut covered = vec![0u64; results.cases.len().div_ceil(64)];
        let mut n_covered = 0usize;
        for (host, _) in ranked.iter().take(max_k) {
            for &case_idx in &improved_cases[host] {
                let word = &mut covered[case_idx as usize / 64];
                let bit = 1 << (case_idx % 64);
                n_covered += usize::from(*word & bit == 0);
                *word |= bit;
            }
            coverage.push(n_covered as f64 / total as f64);
        }

        TopRelayAnalysis {
            rtype,
            ranked,
            coverage,
            total_cases: total,
        }
    }

    /// Coverage of the top-k relays (fraction of total cases), or the
    /// final coverage if fewer relays exist; no relays cover nothing.
    pub fn coverage_at(&self, k: usize) -> f64 {
        match k.min(self.coverage.len()) {
            0 => 0.0,
            n => self.coverage[n - 1],
        }
    }

    /// Number of relays needed to reach `fraction` of the type's final
    /// coverage, or `None` if never reached.
    pub fn relays_for_fraction(&self, fraction: f64) -> Option<usize> {
        let target = self.coverage.last()? * fraction;
        self.coverage
            .iter()
            .position(|&c| c >= target)
            .map(|i| i + 1)
    }

    /// The top-k relay hosts.
    pub fn top_hosts(&self, k: usize) -> Vec<HostId> {
        self.ranked.iter().take(k).map(|&(h, _)| h).collect()
    }
}

/// The `k` relays of `rtype` that improved the most cases, in
/// [`TopRelayAnalysis::ranked`] order: the same ranking, counted
/// without the per-relay case lists the coverage curve needs.
pub(crate) fn top_hosts(results: &CampaignResults, rtype: RelayType, k: usize) -> Vec<HostId> {
    let mut counts: FastMap<HostId, usize> = FastMap::default();
    for c in &results.cases {
        for &(host, _) in c.improving(rtype) {
            *counts.entry(host).or_default() += 1;
        }
    }
    rank(counts.into_iter().collect())
        .into_iter()
        .take(k)
        .map(|(h, _)| h)
        .collect()
}

/// Sorts `(relay, improvement count)` by frequency desc, host id asc
/// for determinism.
fn rank(mut counts: Vec<(HostId, usize)>) -> Vec<(HostId, usize)> {
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::improvement::tests::synthetic_results;

    #[test]
    fn coverage_is_monotone() {
        let r = synthetic_results();
        let a = TopRelayAnalysis::compute(&r, RelayType::Cor, 100);
        for w in a.coverage.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn single_heavy_hitter_dominates() {
        let r = synthetic_results();
        let a = TopRelayAnalysis::compute(&r, RelayType::Cor, 100);
        // COR relay host 100 improves 2 of 4 cases.
        assert_eq!(a.ranked.len(), 1);
        assert_eq!(a.ranked[0].1, 2);
        assert_eq!(a.coverage_at(1), 0.5);
        assert_eq!(a.coverage_at(50), 0.5);
        assert_eq!(a.top_hosts(3).len(), 1);
    }

    #[test]
    fn top_zero_relays_cover_nothing() {
        let r = synthetic_results();
        let a = TopRelayAnalysis::compute(&r, RelayType::Cor, 100);
        assert_eq!(a.coverage_at(1), 0.5);
        assert_eq!(a.coverage_at(0), 0.0);
    }

    #[test]
    fn empty_type_has_empty_curve() {
        let r = synthetic_results();
        let a = TopRelayAnalysis::compute(&r, RelayType::RarEye, 100);
        assert!(a.ranked.is_empty());
        assert_eq!(a.coverage_at(10), 0.0);
        assert!(a.relays_for_fraction(0.75).is_none());
    }

    #[test]
    fn relays_for_fraction_finds_knee() {
        let r = synthetic_results();
        let a = TopRelayAnalysis::compute(&r, RelayType::Cor, 100);
        assert_eq!(a.relays_for_fraction(0.75), Some(1));
        assert_eq!(a.relays_for_fraction(1.0), Some(1));
    }
}
