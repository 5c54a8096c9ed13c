//! "Stability over Time" — coefficient of variation of pair RTTs and
//! per-round consistency of the headline result.
//!
//! The paper computes, for every direct and relayed pair, the CV of its
//! median RTTs across rounds (stddev / mean) and finds CV < 10 % for
//! 90 % of pairs — overlays are stable enough to be usable. It also
//! checks that COR wins >75 % of cases in *every* round, not just in
//! aggregate.

use crate::analysis::stats;
use crate::relays::RelayType;
use crate::workflow::{CampaignResults, PairHistory};
use std::collections::HashMap;

/// CV distribution over measured pairs.
#[derive(Debug, Clone)]
pub struct StabilityAnalysis {
    /// CVs of direct pairs with at least `min_samples` rounds.
    pub direct_cvs: Vec<f64>,
    /// CVs of overlay links with at least `min_samples` rounds.
    pub link_cvs: Vec<f64>,
    /// Minimum samples per pair required.
    pub min_samples: usize,
}

impl StabilityAnalysis {
    /// Computes CVs over all pair histories with ≥ `min_samples`
    /// observations.
    pub fn compute(results: &CampaignResults, min_samples: usize) -> Self {
        let cvs = |hist: &PairHistory| {
            let mut v: Vec<f64> = hist
                .values()
                .filter(|h| h.len() >= min_samples)
                .filter_map(stats::coefficient_of_variation)
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v
        };
        StabilityAnalysis {
            direct_cvs: cvs(&results.direct_history),
            link_cvs: cvs(&results.link_history),
            min_samples,
        }
    }

    /// Fraction of all pairs (direct + links) with CV below `cv`.
    pub fn fraction_below(&self, cv: f64) -> f64 {
        let total = self.direct_cvs.len() + self.link_cvs.len();
        if total == 0 {
            return 0.0;
        }
        let below = self.direct_cvs.iter().filter(|&&c| c < cv).count()
            + self.link_cvs.iter().filter(|&&c| c < cv).count();
        below as f64 / total as f64
    }

    /// Maximum CV observed.
    pub fn max_cv(&self) -> f64 {
        self.direct_cvs
            .iter()
            .chain(self.link_cvs.iter())
            .fold(0.0_f64, |a, &b| a.max(b))
    }
}

/// Per-round improved fraction for one relay type ("consistent pattern
/// over time").
pub fn per_round_improved_fraction(results: &CampaignResults, rtype: RelayType) -> Vec<f64> {
    let mut per_round: HashMap<u32, (usize, usize)> = HashMap::new();
    for c in &results.cases {
        let e = per_round.entry(c.round).or_default();
        e.0 += 1;
        if c.outcome(rtype).improved(c.direct_ms) {
            e.1 += 1;
        }
    }
    let mut rounds: Vec<u32> = per_round.keys().copied().collect();
    rounds.sort_unstable();
    rounds
        .into_iter()
        .map(|r| {
            let (total, improved) = per_round[&r];
            improved as f64 / total.max(1) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{Campaign, CampaignConfig};
    use crate::world::{World, WorldConfig};

    fn results(rounds: u32) -> CampaignResults {
        let world = World::build(&WorldConfig::small(), 61);
        let mut cfg = CampaignConfig::small();
        cfg.rounds = rounds;
        Campaign::new(&world, cfg).run()
    }

    #[test]
    fn cvs_are_small_for_stable_overlays() {
        let r = results(4);
        let s = StabilityAnalysis::compute(&r, 3);
        assert!(!s.direct_cvs.is_empty(), "no direct pairs with 3 samples");
        // The simulator's jitter is mild relative to base RTTs: most
        // pairs should sit below 10% CV like the paper's 90%.
        assert!(
            s.fraction_below(0.10) > 0.6,
            "only {:.0}% below 10% CV",
            100.0 * s.fraction_below(0.10)
        );
        assert!(s.max_cv() < 1.0, "CV above 100% indicates a bug");
    }

    #[test]
    fn min_samples_filters_pairs() {
        let r = results(3);
        let strict = StabilityAnalysis::compute(&r, 3);
        let lax = StabilityAnalysis::compute(&r, 1);
        assert!(lax.direct_cvs.len() >= strict.direct_cvs.len());
    }

    #[test]
    fn per_round_fractions_cover_all_rounds() {
        let r = results(3);
        let fracs = per_round_improved_fraction(&r, RelayType::Cor);
        assert_eq!(fracs.len(), 3);
        for f in fracs {
            assert!((0.0..=1.0).contains(&f));
        }
    }
}
