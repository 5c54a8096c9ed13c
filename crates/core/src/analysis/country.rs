//! "Changing Countries and Paths" — does relaying through a *different
//! country* help more?
//!
//! The paper's reasoning: BGP path inflation hits international paths;
//! a relay in a third country forces the discovery of alternate,
//! non-inflated paths. Empirically: for COR, the min-latency relay
//! improves the direct path in 75 % of cases when it is in a different
//! country than both endpoints, vs. 50 % when it shares a country with
//! one endpoint.

use crate::relays::RelayType;
use crate::workflow::CampaignResults;

/// Improvement rates split by relay-country relationship.
#[derive(Debug, Clone, Copy)]
pub struct CountryAnalysis {
    /// The relay type analyzed.
    pub rtype: RelayType,
    /// Cases whose best (min-latency) relay is in a different country
    /// than both endpoints.
    pub different_country_cases: usize,
    /// ... of which improved.
    pub different_country_improved: usize,
    /// Cases whose best relay shares a country with an endpoint.
    pub same_country_cases: usize,
    /// ... of which improved.
    pub same_country_improved: usize,
}

impl CountryAnalysis {
    /// Runs the analysis for one relay type.
    pub fn compute(results: &CampaignResults, rtype: RelayType) -> Self {
        let mut diff = (0usize, 0usize);
        let mut same = (0usize, 0usize);
        for c in &results.cases {
            let out = c.outcome(rtype);
            let Some((host, rtt)) = out.best() else {
                continue;
            };
            let Some(meta) = results.relay_meta.get(&host) else {
                continue;
            };
            let changes_country = meta.country != c.src_country && meta.country != c.dst_country;
            let improved = rtt < c.direct_ms;
            let bucket = if changes_country {
                &mut diff
            } else {
                &mut same
            };
            bucket.0 += 1;
            if improved {
                bucket.1 += 1;
            }
        }
        CountryAnalysis {
            rtype,
            different_country_cases: diff.0,
            different_country_improved: diff.1,
            same_country_cases: same.0,
            same_country_improved: same.1,
        }
    }

    /// Improvement rate when the relay changes country.
    pub fn different_country_rate(&self) -> f64 {
        rate(
            self.different_country_improved,
            self.different_country_cases,
        )
    }

    /// Improvement rate when the relay shares a country with an
    /// endpoint.
    pub fn same_country_rate(&self) -> f64 {
        rate(self.same_country_improved, self.same_country_cases)
    }
}

fn rate(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fraction of cases whose endpoints are on different continents
/// (paper: 74 %, "a set conducive to path inflation").
pub fn intercontinental_fraction(results: &CampaignResults) -> f64 {
    if results.cases.is_empty() {
        return 0.0;
    }
    results.cases.iter().filter(|c| c.intercontinental).count() as f64 / results.cases.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{Campaign, CampaignConfig};
    use crate::world::{World, WorldConfig};

    fn results() -> CampaignResults {
        let world = World::build(&WorldConfig::small(), 41);
        let mut cfg = CampaignConfig::small();
        cfg.rounds = 2;
        Campaign::new(&world, cfg).run()
    }

    #[test]
    fn rates_are_probabilities() {
        let r = results();
        for t in RelayType::ALL {
            let a = CountryAnalysis::compute(&r, t);
            assert!((0.0..=1.0).contains(&a.different_country_rate()));
            assert!((0.0..=1.0).contains(&a.same_country_rate()));
            assert!(a.different_country_improved <= a.different_country_cases);
            assert!(a.same_country_improved <= a.same_country_cases);
        }
    }

    #[test]
    fn cor_crossing_countries_helps() {
        let r = results();
        let a = CountryAnalysis::compute(&r, RelayType::Cor);
        // The paper's effect direction: different-country relays win
        // more often. Require the direction (with slack for small
        // worlds) only when both buckets have data.
        if a.different_country_cases > 20 && a.same_country_cases > 20 {
            assert!(
                a.different_country_rate() + 0.10 >= a.same_country_rate(),
                "diff {} vs same {}",
                a.different_country_rate(),
                a.same_country_rate()
            );
        }
    }

    #[test]
    fn intercontinental_fraction_is_high() {
        let r = results();
        let f = intercontinental_fraction(&r);
        // One endpoint per country worldwide: most pairs cross
        // continents (paper: 74%).
        assert!(f > 0.5, "intercontinental fraction {f}");
        assert!(f <= 1.0);
    }
}
