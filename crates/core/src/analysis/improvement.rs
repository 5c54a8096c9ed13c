//! Fig. 2 — CDF of latency improvements per relay type, plus the
//! headline percentages.
//!
//! For each case (RAE pair, round) and each type, the *best* relay of
//! that type is compared with the direct path. The paper reports:
//! improved-case fractions of 76 % (COR), 58 % (RAR_other), 43 % (PLR),
//! 35 % (RAR_eye); median improvements of 12–14 ms; and >100 ms
//! improvements in 6 % of the improved COR/RAR_other cases.

use crate::analysis::stats;
use crate::relays::RelayType;
use crate::workflow::CampaignResults;

/// Summary of one relay type's improvements.
#[derive(Debug, Clone)]
pub struct TypeImprovement {
    /// The relay type.
    pub rtype: RelayType,
    /// Fraction of *total* cases where the type's best relay beat the
    /// direct path.
    pub improved_fraction: f64,
    /// Improvements (ms) of the improved cases (best relay per case).
    pub improvements_ms: Vec<f64>,
    /// Median improvement among improved cases, ms.
    pub median_improvement_ms: f64,
    /// Fraction of improved cases with improvement > 100 ms.
    pub over_100ms_fraction: f64,
    /// Median number of improving relays per improved case (the paper's
    /// "redundancy" observation: median of 8 for COR).
    pub median_improving_relays: f64,
}

/// The full Fig. 2 analysis.
#[derive(Debug, Clone)]
pub struct ImprovementAnalysis {
    /// Per-type summaries in [`RelayType::ALL`] order.
    pub per_type: Vec<TypeImprovement>,
    /// Total number of cases.
    pub total_cases: usize,
    /// Fraction of cases improved by at least one relay of any type.
    pub any_improved_fraction: f64,
}

impl ImprovementAnalysis {
    /// Runs the analysis.
    pub fn compute(results: &CampaignResults) -> Self {
        let total = results.total_cases().max(1);
        let mut per_type = Vec::with_capacity(4);
        let mut any_improved = 0usize;

        for c in &results.cases {
            if RelayType::ALL
                .iter()
                .any(|t| c.outcome(*t).improved(c.direct_ms))
            {
                any_improved += 1;
            }
        }

        for t in RelayType::ALL {
            let mut improvements = Vec::new();
            let mut improving_counts = Vec::new();
            for c in &results.cases {
                let out = c.outcome(t);
                if let Some(delta) = out.best_improvement(c.direct_ms) {
                    if delta > 0.0 {
                        improvements.push(delta);
                        improving_counts.push(f64::from(out.n_improving));
                    }
                }
            }
            let improved_fraction = improvements.len() as f64 / total as f64;
            let median_improvement_ms = stats::percentile(&improvements, 50.0).unwrap_or(0.0);
            let over_100ms_fraction = stats::fraction_above(&improvements, 100.0);
            let median_improving_relays = stats::percentile(&improving_counts, 50.0).unwrap_or(0.0);
            per_type.push(TypeImprovement {
                rtype: t,
                improved_fraction,
                improvements_ms: improvements,
                median_improvement_ms,
                over_100ms_fraction,
                median_improving_relays,
            });
        }

        ImprovementAnalysis {
            per_type,
            total_cases: total,
            any_improved_fraction: any_improved as f64 / total as f64,
        }
    }

    /// Summary for one type.
    pub fn for_type(&self, t: RelayType) -> &TypeImprovement {
        &self.per_type[t.index()]
    }

    /// CDF of a type's improvements sampled at `xs` (Fig. 2's series).
    pub fn cdf(&self, t: RelayType, xs: &[f64]) -> Vec<(f64, f64)> {
        stats::cdf_at(&self.for_type(t).improvements_ms, xs)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workflow::{CaseRecord, Cases, PairHistory, TypeOutcome};
    use shortcuts_geo::CountryCode;
    use shortcuts_netsim::HostId;
    use std::collections::HashMap;

    /// Builds a minimal synthetic results object with controlled
    /// outcomes: COR improves cases 0 and 1, PLR improves case 0 only.
    pub(crate) fn synthetic_results() -> CampaignResults {
        use crate::colo::{ColoPool, FilterFunnel};
        let cc = |s| CountryCode::new(s).unwrap();
        // A case of `round`, its improving relays appended to `arena`.
        let mk_case = |round: u32,
                       cor_best: Option<f64>,
                       plr_best: Option<f64>,
                       arena: &mut Vec<(HostId, f32)>| {
            let improving_start = arena.len() as u32;
            let mut outcomes: [TypeOutcome; 4] = Default::default();
            let bests = [
                (RelayType::Cor, HostId(100), cor_best),
                (RelayType::Plr, HostId(200), plr_best),
            ];
            for (t, host, best) in bests {
                if let Some(v) = best {
                    let improves = v < 100.0;
                    if improves {
                        arena.push((host, (100.0 - v) as f32));
                    }
                    outcomes[t.index()] = TypeOutcome::new(Some((host, v)), 0, u32::from(improves));
                }
            }
            CaseRecord {
                round,
                src: HostId(1),
                dst: HostId(2),
                src_country: cc("DE"),
                dst_country: cc("FR"),
                intercontinental: false,
                direct_ms: 100.0,
                outcomes,
                improving_start,
            }
        };
        let mut cases = Cases::default();
        let mut arena = Vec::new();
        let round = vec![
            mk_case(0, Some(80.0), Some(95.0), &mut arena), // both improve
            mk_case(0, Some(85.0), Some(120.0), &mut arena), // only COR improves
        ];
        cases.push_round(round, arena);
        let mut arena = Vec::new();
        let round = vec![
            mk_case(1, Some(130.0), None, &mut arena), // nobody improves
            mk_case(1, None, None, &mut arena),        // nothing feasible
        ];
        cases.push_round(round, arena);
        CampaignResults {
            cases,
            direct_history: PairHistory::default(),
            link_history: PairHistory::default(),
            symmetry_samples: vec![],
            relay_meta: HashMap::new(),
            colo_pool: ColoPool {
                relays: vec![],
                funnel: FilterFunnel {
                    initial: 0,
                    single_facility: 0,
                    pingable: 0,
                    ownership: 0,
                    presence: 0,
                    geolocated: 0,
                },
            },
            pings_sent: 0,
            unresponsive_pairs: 0,
            avg_endpoints: 0.0,
            avg_relays: [0.0; 4],
        }
    }

    #[test]
    fn fractions_count_total_cases() {
        let r = synthetic_results();
        let a = ImprovementAnalysis::compute(&r);
        assert_eq!(a.total_cases, 4);
        assert_eq!(a.for_type(RelayType::Cor).improved_fraction, 0.5);
        assert_eq!(a.for_type(RelayType::Plr).improved_fraction, 0.25);
        assert_eq!(a.for_type(RelayType::RarEye).improved_fraction, 0.0);
        assert_eq!(a.any_improved_fraction, 0.5);
    }

    #[test]
    fn improvements_are_best_relay_deltas() {
        let r = synthetic_results();
        let a = ImprovementAnalysis::compute(&r);
        let cor = a.for_type(RelayType::Cor);
        let mut imps = cor.improvements_ms.clone();
        imps.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(imps, vec![15.0, 20.0]);
        assert_eq!(cor.median_improvement_ms, 17.5);
        assert_eq!(cor.over_100ms_fraction, 0.0);
    }

    #[test]
    fn cdf_reaches_one() {
        let r = synthetic_results();
        let a = ImprovementAnalysis::compute(&r);
        let cdf = a.cdf(RelayType::Cor, &[0.0, 15.0, 20.0, 50.0]);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf[0].1, 0.0);
    }
}
