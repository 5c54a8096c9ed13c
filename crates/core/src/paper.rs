//! The paper report: every figure, table and §3 number the paper
//! publishes, and the placement ablation.
//!
//! [`run`] runs one campaign, the paper's own, on the world it is
//! given; it feeds Figs. 2-4, Table 1, §3 and the placement ablation,
//! which only regroups the campaign's cases. Besides the five
//! `campaign` CSVs ([`report::campaign_csvs`]) it renders Fig. 1's
//! coverage curve, Fig. 2's CDF, Table 1's rows and `summary.csv`: one
//! `quantity,measured,paper` row per scalar, its `paper` cell from
//! [`TARGETS`](crate::analysis::targets::TARGETS).
//!
//! The method's exact rules are tier-1 tests, not report rows:
//! `tests/method_invariants.rs` holds the §2.4 filter and §2.5
//! stitching to the windows a campaign measured.

use crate::analysis::country::{intercontinental_fraction, CountryAnalysis};
use crate::analysis::facilities::FacilityTable;
use crate::analysis::improvement::ImprovementAnalysis;
use crate::analysis::stability::{per_round_improved_fraction, StabilityAnalysis};
use crate::analysis::symmetry::SymmetryAnalysis;
use crate::analysis::targets::target;
use crate::analysis::threshold::ThresholdCurve;
use crate::analysis::top_relays::TopRelayAnalysis;
use crate::analysis::voip::VoipAnalysis;
use crate::eyeball::select_eyeballs;
use crate::relays::RelayType;
use crate::report;
use crate::workflow::{Campaign, CampaignConfig, CampaignResults, RoundSummary};
use crate::world::World;
use shortcuts_netsim::HostId;
use std::collections::HashSet;
use std::fmt::Write;

/// Improvement thresholds (ms) of Fig. 2's CDF.
const CDF_XS: [f64; 12] = [
    1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 75.0, 100.0, 150.0, 200.0,
];

/// `summary.csv` under construction.
struct Summary(String);

impl Summary {
    /// Appends one row; its `paper` cell is the quantity's target, if
    /// the paper publishes it. Integers print as integers, anything
    /// else to four decimals.
    fn row(&mut self, quantity: &str, measured: f64) {
        let num = |v: f64| match v.fract() {
            0.0 => format!("{v:.0}"),
            _ => format!("{v:.4}"),
        };
        let paper = target(quantity).map(|t| num(t.paper)).unwrap_or_default();
        let _ = writeln!(self.0, "{quantity},{},{paper}", num(measured));
    }

    /// One row per relay type, `<quantity>_<label>`.
    fn per_type(&mut self, quantity: &str, mut measured: impl FnMut(RelayType) -> f64) {
        for t in RelayType::ALL {
            self.row(&format!("{quantity}_{}", t.label()), measured(t));
        }
    }
}

/// Runs the paper report on `world` under `base` (its seed and rounds
/// drive the campaign) and returns the files to write, named, in write
/// order. `on_round` sees the campaign's rounds as they finish.
pub fn run<F: FnMut(&RoundSummary)>(
    world: &World,
    base: &CampaignConfig,
    on_round: F,
) -> Vec<(&'static str, String)> {
    let mut s = Summary(String::from("quantity,measured,paper\n"));
    let (apnic, cities) = (&world.apnic, &world.topo.cities);

    // §2.1 / Fig. 1: eyeball coverage, before any measurement.
    let cutoffs: Vec<f64> = (0..=20).map(|i| f64::from(i) * 5.0).collect();
    let coverage = report::coverage_csv(&apnic.coverage_curve(&cutoffs));
    let cutoff = base.eyeball_cutoff_pct;
    let (ases, countries) = (apnic.ases_above(cutoff), apnic.countries_above(cutoff));
    s.row("eyeball_ases_at_10pct", ases.len() as f64);
    s.row("eyeball_countries_at_10pct", countries.len() as f64);
    s.row("countries_total", cities.countries().len() as f64);
    let eyeballs = select_eyeballs(world, cutoff);
    s.row("eyeball_candidates", eyeballs.candidates.len() as f64);
    s.row("eyeballs_verified", eyeballs.verified.len() as f64);
    for c in [30, 40, 50] {
        let per_country = apnic.ases_per_country(f64::from(c));
        let multi = per_country.values().filter(|&&n| n > 1).count();
        s.row(&format!("multi_as_countries_at_{c}pct"), multi as f64);
    }

    let r = Campaign::new(world, base.clone()).run_streaming(on_round);
    let f = r.colo_pool.funnel;
    s.row("funnel_raw", f.initial as f64);
    let stages = [
        ("single_facility", f.single_facility),
        ("pingable", f.pingable),
        ("ownership", f.ownership),
        ("presence", f.presence),
        ("geolocated", f.geolocated),
    ];
    for ((name, kept), rate) in stages.into_iter().zip(f.pass_rates()) {
        s.row(&format!("funnel_{name}"), kept as f64);
        s.row(&format!("funnel_{name}_kept_pct"), 100.0 * rate);
    }
    s.row("colo_facilities", r.colo_pool.facility_count() as f64);
    s.row("colo_cities", r.colo_pool.city_count() as f64);
    s.row("campaign_cases", r.total_cases() as f64);
    s.row("campaign_pings", r.pings_sent as f64 / 1e6);
    s.row("endpoints_per_round", r.avg_endpoints);
    s.per_type("relays_per_round", |t| r.avg_relays[t.index()]);

    // Fig. 2.
    let improvement = ImprovementAnalysis::compute(&r);
    let improved = |t| 100.0 * improvement.for_type(t).improved_fraction;
    s.per_type("improved_pct", improved);
    let any = improvement.any_improved_fraction;
    s.row("improved_pct_any", 100.0 * any);

    // Fig. 3 over every relay, and Fig. 4 at the two thresholds the
    // paper quotes.
    let tops = RelayType::ALL.map(|t| TopRelayAnalysis::compute(&r, t, usize::MAX));
    let cor = &tops[RelayType::Cor.index()];
    let top10_facilities: HashSet<_> = cor
        .top_hosts(10)
        .iter()
        .filter_map(|h| r.relay_meta.get(h).and_then(|m| m.facility))
        .collect();
    let final_coverage = |t: RelayType| tops[t.index()].coverage.last().copied().unwrap_or(0.0);
    s.row("top10_cor_facilities", top10_facilities.len() as f64);
    s.row("top10_cor_improved_pct", 100.0 * cor.coverage_at(10));
    let share = cor.coverage_at(10) / final_coverage(RelayType::Cor).max(1e-9);
    s.row("top10_cor_share_pct", 100.0 * share);
    s.per_type("final_coverage_pct", |t| 100.0 * final_coverage(t));
    for (a, t) in tops.iter().zip(RelayType::ALL) {
        for (fraction, pct) in [(0.75, 75), (0.9, 90)] {
            if let Some(k) = a.relays_for_fraction(fraction) {
                let key = format!("relays_for_{pct}pct_of_final_{}", t.label());
                s.row(&key, k as f64);
            }
        }
    }
    let top10 = |t| ThresholdCurve::compute(&r, t, Some(10), &[0.0, 20.0]);
    let cor_over_20ms = top10(RelayType::Cor).fraction_at(20.0);
    s.row("top10_cor_over_20ms_pct", 100.0 * cor_over_20ms);
    s.per_type("top10_vs_all_gap_pp", |t| {
        let all = ThresholdCurve::compute(&r, t, None, &[0.0]);
        100.0 * (all.fraction_at(0.0) - top10(t).fraction_at(0.0))
    });

    // §3: countries, the VoIP threshold, stability, symmetry.
    let countries = RelayType::ALL.map(|t| CountryAnalysis::compute(&r, t));
    let country = |t: RelayType| &countries[t.index()];
    let diff = |t| 100.0 * country(t).different_country_rate();
    s.per_type("country_diff_improved_pct", diff);
    let diff_cases = |t| country(t).different_country_cases as f64;
    s.per_type("country_diff_cases", diff_cases);
    let same = |t| 100.0 * country(t).same_country_rate();
    s.per_type("country_same_improved_pct", same);
    let same_cases = |t| country(t).same_country_cases as f64;
    s.per_type("country_same_cases", same_cases);
    let intercontinental = intercontinental_fraction(&r);
    s.row("intercontinental_pct", 100.0 * intercontinental);
    let voip = VoipAnalysis::compute(&r);
    s.row("direct_over_320ms_pct", 100.0 * voip.direct_over);
    s.row("cor_over_320ms_pct", 100.0 * voip.with_cor_over);
    let stability = StabilityAnalysis::compute(&r, 3.min(base.rounds as usize));
    s.row("cv_below_10pct_pct", 100.0 * stability.fraction_below(0.10));
    s.row("max_cv_pct", 100.0 * stability.max_cv());
    let per_round = |t| per_round_improved_fraction(&r, t).into_iter();
    let min = |t| per_round(t).fold(f64::INFINITY, f64::min);
    s.per_type("round_min_improved", min);
    s.per_type("round_max_improved", |t| per_round(t).fold(0.0, f64::max));
    let symmetry = SymmetryAnalysis::compute(&r);
    s.row("symmetry_samples", symmetry.samples as f64);
    s.row("symmetric_within_5pct_pct", 100.0 * symmetry.within_5pct);
    s.row("symmetry_mean_diff_pct", 100.0 * symmetry.mean_signed_diff);

    // Table 1: the first ten rows carry the paper's claims.
    let table = FacilityTable::compute(world, &r, 20);
    let facilities = report::facilities_csv(&table, cities);
    let first10 = &table.rows[..table.rows.len().min(10)];
    let hub = |city: &str| cities.by_name(city).is_some_and(|c| c.is_hub);
    let rows = |keep: &dyn Fn(&_) -> bool| first10.iter().filter(|&row| keep(row)).count();
    s.row("top20_cor_facilities", table.facility_count() as f64);
    s.row("table1_pdb_top10_rows", rows(&|row| row.pdb_top10) as f64);
    s.row("table1_cloud_rows", rows(&|row| row.offers_cloud) as f64);
    let min_nets = first10.iter().map(|row| row.net_count).min();
    s.row("table1_min_nets", min_nets.unwrap_or(0) as f64);
    s.row("table1_hub_rows", rows(&|row| hub(&row.city)) as f64);

    placement(world, &r, &mut s);

    let mut files = Vec::from(report::campaign_csvs(&r));
    let cdf = report::improvement_cdf_csv(&improvement, &CDF_XS);
    files.extend([
        ("coverage.csv", coverage),
        ("improvement_cdf.csv", cdf),
        ("facilities.csv", facilities),
        ("summary.csv", s.0),
    ]);
    files
}

/// The placement ablation: COR relays at hub-metro facilities against
/// those at regional ones, by the cases each set improves.
fn placement(world: &World, results: &CampaignResults, s: &mut Summary) {
    let (mut hub, mut regional) = (HashSet::new(), HashSet::new());
    for (&host, meta) in &results.relay_meta {
        if meta.rtype != RelayType::Cor {
            continue;
        }
        if world.topo.cities.get(meta.city).is_hub {
            hub.insert(host);
        } else {
            regional.insert(host);
        }
    }
    let all: HashSet<HostId> = hub.union(&regional).copied().collect();
    for (name, set) in [("hub", &hub), ("regional", &regional), ("all", &all)] {
        // Cases the set improves, and its improvements per relay.
        let (mut improved, mut improvements) = (0usize, 0usize);
        for c in results.cases.iter() {
            let improving = c.improving(RelayType::Cor).iter();
            let n = improving.filter(|(h, _)| set.contains(h)).count();
            improved += usize::from(n > 0);
            improvements += n;
        }
        let covered = improved as f64 / results.total_cases().max(1) as f64;
        s.row(&format!("placement_{name}_relays"), set.len() as f64);
        s.row(&format!("placement_{name}_improved_pct"), 100.0 * covered);
        if name != "all" {
            let key = format!("placement_{name}_improvements_per_relay");
            s.row(&key, improvements as f64 / set.len().max(1) as f64);
        }
    }
}
