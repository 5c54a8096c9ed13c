//! The VoIP analysis — paths above the 320 ms quality threshold.
//!
//! ITU G.114 / Cisco guidance treats ~300–320 ms RTT as the point where
//! VoIP quality degrades badly. The paper reports that 19 % of direct
//! paths exceed 320 ms, and that employing only COR relays (taking the
//! relayed path when it is faster) drops that to 11 %.

use crate::relays::RelayType;
use crate::workflow::CampaignResults;

/// The 320 ms VoIP quality threshold (RTT), ms.
pub const VOIP_THRESHOLD_MS: f64 = 320.0;

/// Result of the VoIP threshold analysis.
#[derive(Debug, Clone, Copy)]
pub struct VoipAnalysis {
    /// Threshold used, ms.
    pub threshold_ms: f64,
    /// Fraction of direct paths above the threshold.
    pub direct_over: f64,
    /// Fraction of paths above the threshold when each case uses
    /// min(direct, best COR relay).
    pub with_cor_over: f64,
    /// Total cases.
    pub total_cases: usize,
}

impl VoipAnalysis {
    /// Runs the analysis at the standard 320 ms threshold.
    pub fn compute(results: &CampaignResults) -> Self {
        Self::compute_at(results, VOIP_THRESHOLD_MS)
    }

    /// Runs the analysis at a custom threshold.
    pub fn compute_at(results: &CampaignResults, threshold_ms: f64) -> Self {
        let total = results.total_cases().max(1);
        let mut direct_over = 0usize;
        let mut with_cor_over = 0usize;
        for c in &results.cases {
            let direct_bad = c.direct_ms > threshold_ms;
            if direct_bad {
                direct_over += 1;
            }
            let effective = match c.outcome(RelayType::Cor).best() {
                Some((_, rtt)) => c.direct_ms.min(rtt),
                None => c.direct_ms,
            };
            if effective > threshold_ms {
                with_cor_over += 1;
            }
        }
        VoipAnalysis {
            threshold_ms,
            direct_over: direct_over as f64 / total as f64,
            with_cor_over: with_cor_over as f64 / total as f64,
            total_cases: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{Campaign, CampaignConfig};
    use crate::world::{World, WorldConfig};

    fn results() -> CampaignResults {
        let world = World::build(&WorldConfig::small(), 51);
        let mut cfg = CampaignConfig::small();
        cfg.rounds = 2;
        Campaign::new(&world, cfg).run()
    }

    #[test]
    fn cor_never_increases_bad_fraction() {
        let r = results();
        let v = VoipAnalysis::compute(&r);
        assert!(v.with_cor_over <= v.direct_over + 1e-12);
        assert!((0.0..=1.0).contains(&v.direct_over));
    }

    #[test]
    fn lower_threshold_catches_more_paths() {
        let r = results();
        let strict = VoipAnalysis::compute_at(&r, 100.0);
        let lax = VoipAnalysis::compute_at(&r, 500.0);
        assert!(strict.direct_over >= lax.direct_over);
    }

    #[test]
    fn some_paths_are_bad_some_good() {
        let r = results();
        let v = VoipAnalysis::compute_at(&r, 150.0);
        // In a global endpoint set there should be both fast and slow
        // direct paths around 150 ms.
        assert!(v.direct_over > 0.0, "no slow paths at all?");
        assert!(v.direct_over < 1.0, "every path slow?");
    }
}
