//! The paper's published values, one row per quantity.
//!
//! Each row names a quantity the paper reports, in the unit the paper
//! reports it, under the key the paper report's `summary.csv`
//! (`crate::paper`) gives the measured value. Per-type rows end in
//! the relay type's label (`COR`, `PLR`, `RAR_other`, `RAR_eye`).

/// One published value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Target {
    /// The quantity's key in `summary.csv`.
    pub key: &'static str,
    /// What the quantity is.
    pub description: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// The unit of `paper` (and of the measured value beside it).
    pub unit: &'static str,
}

const fn t(key: &'static str, description: &'static str, paper: f64, unit: &'static str) -> Target {
    Target {
        key,
        description,
        paper,
        unit,
    }
}

/// Every value the paper publishes that the reproduction measures.
#[rustfmt::skip]
pub const TARGETS: &[Target] = &[
    // §2.1 / Fig. 1: eyeball selection.
    t("eyeball_ases_at_10pct", "eyeball ASes at a 10 % user cutoff", 494.0, "ASes"),
    t("eyeball_countries_at_10pct", "countries those ASes cover", 223.0, "countries"),
    t("countries_total", "countries in the dataset", 225.0, "countries"),
    // §2.2: the COR selection funnel.
    t("funnel_raw", "IPs in the raw facility dataset", 2675.0, "IPs"),
    t("funnel_single_facility", "IPs after filter 1 (single facility)", 1008.0, "IPs"),
    t("funnel_pingable", "IPs after filter 2 (pingability)", 764.0, "IPs"),
    t("funnel_ownership", "IPs after filter 3 (IP ownership)", 725.0, "IPs"),
    t("funnel_presence", "IPs after filter 4 (facility presence)", 725.0, "IPs"),
    t("funnel_geolocated", "IPs after filter 5 (geolocation): the pool", 356.0, "IPs"),
    t("colo_facilities", "facilities of the COR pool", 58.0, "facilities"),
    t("colo_cities", "cities of the COR pool", 36.0, "cities"),
    // §2.5: the campaign, 45 rounds.
    t("campaign_cases", "direct-path cases measured", 90_000.0, "cases"),
    t("campaign_pings", "pings sent", 8.7, "M pings"),
    t("endpoints_per_round", "endpoints per round", 82.0, "endpoints"),
    t("relays_per_round_COR", "COR relays per round", 129.0, "relays"),
    t("relays_per_round_PLR", "PLR relays per round", 59.0, "relays"),
    t("relays_per_round_RAR_other", "RAR_other relays per round", 102.0, "relays"),
    t("relays_per_round_RAR_eye", "RAR_eye relays per round", 82.0, "relays"),
    // Fig. 2: cases improved per relay type.
    t("improved_pct_COR", "cases a COR relay improves", 76.0, "%"),
    t("improved_pct_PLR", "cases a PLR relay improves", 43.0, "%"),
    t("improved_pct_RAR_other", "cases a RAR_other relay improves", 58.0, "%"),
    t("improved_pct_RAR_eye", "cases a RAR_eye relay improves", 35.0, "%"),
    t("improved_pct_any", "cases a relay of any type improves", 83.0, "%"),
    // Figs. 3 and 4: a few COR relays carry the gain.
    t("top10_cor_facilities", "facilities of the top-10 COR relays", 6.0, "facilities"),
    t("top10_cor_improved_pct", "cases the top-10 COR relays improve", 58.0, "%"),
    t("top10_cor_share_pct", "top-10 COR coverage, share of COR's", 75.0, "%"),
    t("top10_cor_over_20ms_pct", "pairs top-10 COR improve by > 20 ms", 20.0, "%"),
    // §3 "Changing Countries and Paths".
    t("country_diff_improved_pct_COR", "COR in a third country improves", 75.0, "%"),
    t("country_same_improved_pct_COR", "COR in an endpoint's country improves", 50.0, "%"),
    t("intercontinental_pct", "intercontinental endpoint pairs", 74.0, "%"),
    // §3, the VoIP threshold.
    t("direct_over_320ms_pct", "direct paths over 320 ms", 19.0, "%"),
    t("cor_over_320ms_pct", "paths over 320 ms with COR relays", 11.0, "%"),
    // §3 "Stability over Time"; bounds the paper states.
    t("cv_below_10pct_pct", "pairs whose RTT CV is below 10 %", 90.0, "%"),
    t("max_cv_pct", "largest RTT CV (at most)", 40.0, "%"),
    t("round_min_improved_COR", "COR's worst round (above)", 0.75, "fraction"),
    t("round_min_improved_RAR_other", "RAR_other's worst round (above)", 0.5, "fraction"),
    t("round_max_improved_PLR", "PLR's best round (below)", 0.5, "fraction"),
    t("round_max_improved_RAR_eye", "RAR_eye's best round (below)", 0.5, "fraction"),
    // §3, ping-direction symmetry.
    t("symmetric_within_5pct_pct", "bidirectional pairs within 5 %", 80.0, "%"),
    t("symmetry_mean_diff_pct", "mean signed forward/reverse difference", 0.0, "%"),
    // Table 1: facilities of the top-20 COR relays; rows are its first 10.
    t("top20_cor_facilities", "facilities of the top-20 COR relays", 10.0, "facilities"),
    t("table1_pdb_top10_rows", "rows in PeeringDB's global top 10", 4.0, "rows"),
    t("table1_cloud_rows", "rows offering cloud services", 10.0, "rows"),
    t("table1_min_nets", "fewest networks at a row's facility", 22.0, "networks"),
    t("table1_hub_rows", "rows in a hub metro", 10.0, "rows"),
];

/// The row for `key`, if the paper publishes that quantity.
pub fn target(key: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.key == key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn keys_are_unique_and_csv_safe() {
        let mut seen = HashSet::new();
        for t in TARGETS {
            assert!(seen.insert(t.key), "duplicate key {}", t.key);
            assert!(!t.key.contains([',', '"', '\n']), "{}", t.key);
            assert!(t.paper.is_finite(), "{}", t.key);
        }
        assert_eq!(target("improved_pct_COR").map(|t| t.paper), Some(76.0));
        assert!(target("no_such_quantity").is_none());
    }
}
