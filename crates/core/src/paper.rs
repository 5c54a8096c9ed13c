//! The paper report: every figure, table and §3 number the paper
//! publishes, the four ablations and the two-relay extension.
//!
//! [`run`] runs three campaigns on the world it is given. The paper's own feeds Figs. 2-4, Table 1, §3, the placement
//! ablation and the baseline arm of the median and routing ablations;
//! a single-ping and a shortest-path campaign are the other two arms.
//! The feasibility ablation and the two-relay extension measure one
//! round each, outside any campaign. Besides the five `campaign` CSVs
//! ([`report::campaign_csvs`]) it renders Fig. 1's coverage curve,
//! Fig. 2's CDF, Table 1's rows and `summary.csv`: one
//! `quantity,measured,paper` row per scalar, its `paper` cell from
//! [`TARGETS`](crate::analysis::targets::TARGETS).

use crate::analysis::country::{intercontinental_fraction, CountryAnalysis};
use crate::analysis::facilities::FacilityTable;
use crate::analysis::improvement::ImprovementAnalysis;
use crate::analysis::stability::{per_round_improved_fraction, StabilityAnalysis};
use crate::analysis::symmetry::SymmetryAnalysis;
use crate::analysis::targets::target;
use crate::analysis::threshold::ThresholdCurve;
use crate::analysis::top_relays::TopRelayAnalysis;
use crate::analysis::voip::VoipAnalysis;
use crate::colo::{run_pipeline, ColoPool};
use crate::eyeball::{select_eyeballs, EndpointPool};
use crate::feasibility::{is_feasible, min_relay_rtt};
use crate::measure::{measure_pair, WindowConfig};
use crate::relays::{RelayPools, RelayType};
use crate::report;
use crate::workflow::{Campaign, CampaignConfig, CampaignResults, RoundSummary};
use crate::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::{HostId, PingHandle};
use shortcuts_topology::routing::RoutingPolicy;
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::sync::Arc;

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
/// drive every campaign) and returns the files to write, named, in
/// write order. `on_round` sees each campaign's rounds as they finish,
/// with the campaign's name: `paper`, `single-ping` or `shortest-path`.
pub fn run<F: FnMut(&str, &RoundSummary)>(
    world: &World,
    base: &CampaignConfig,
    mut on_round: F,
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

    // The paper campaign, on an engine the single-ping arm and the two
    // one-round studies reuse.
    let engine = world.shared().engine_budgeted(base.routing, base.memory);
    let paper = Campaign::new(world, base.clone());
    let r = paper.run_streaming_on(&engine, |round| on_round("paper", round));
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
    let improved = |a: &ImprovementAnalysis, t| 100.0 * a.for_type(t).improved_fraction;
    s.per_type("improved_pct", |t| improved(&improvement, t));
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
    let min_samples = 3.min(base.rounds as usize);
    let stability = StabilityAnalysis::compute(&r, min_samples);
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

    // The median ablation: one ping per window instead of six.
    let mut cfg = base.clone();
    cfg.window = WindowConfig {
        pings: 1,
        interval_secs: 0.0,
        min_valid: 1,
    };
    let single =
        Campaign::new(world, cfg).run_streaming_on(&engine, |round| on_round("single-ping", round));
    let single_improvement = ImprovementAnalysis::compute(&single);
    let single_improved = |t| improved(&single_improvement, t);
    s.per_type("single_ping_improved_pct", single_improved);
    let single_stability = StabilityAnalysis::compute(&single, min_samples);
    let single_cv_below = single_stability.fraction_below(0.10);
    s.row("single_ping_cv_below_10pct_pct", 100.0 * single_cv_below);
    s.row("single_ping_max_cv_pct", 100.0 * single_stability.max_cv());
    s.row("single_ping_pings", single.pings_sent as f64 / 1e6);
    drop(single);

    // The routing ablation: shortest paths instead of valley-free ones.
    let mut cfg = base.clone();
    cfg.routing = RoutingPolicy::ShortestPath;
    let shortest =
        Campaign::new(world, cfg).run_streaming(|round| on_round("shortest-path", round));
    let shortest_improvement = ImprovementAnalysis::compute(&shortest);
    let shortest_improved = |t| improved(&shortest_improvement, t);
    s.per_type("shortest_path_improved_pct", shortest_improved);
    let delta = |t| shortest_improved(t) - improved(&improvement, t);
    s.per_type("shortest_path_delta_pp", delta);
    let (direct, shortest_direct) = (median_direct(&r), median_direct(&shortest));
    s.row("median_direct_ms", direct);
    s.row("shortest_path_median_direct_ms", shortest_direct);
    s.row("policy_inflation_ms", direct - shortest_direct);
    let shortest_cor = shortest_improvement.for_type(RelayType::Cor);
    let median = shortest_cor.median_improvement_ms;
    s.row("shortest_path_median_improvement_ms_COR", median);
    drop(shortest);

    // The two one-round studies start where a campaign's selection
    // leaves its RNG: right after the funnel.
    let handle = PingHandle::new(Arc::clone(&engine));
    let mut rng = StdRng::seed_from_u64(base.seed);
    let lg = world.looking_glasses.lgs()[0].host;
    let colo = run_pipeline(world, &handle, lg, SimTime(0.0), &base.colo, &mut rng);
    let one = OneRound {
        world,
        handle,
        window: base.window,
        endpoints: EndpointPool::build(world, &eyeballs.verified),
        rng,
    };
    one.feasibility(&RelayPools::build(world, &colo, &eyeballs.verified), &mut s);
    one.two_relays(&colo, &mut s);

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

/// The direct RTT at index `n / 2` of the sorted cases.
fn median_direct(results: &CampaignResults) -> f64 {
    let mut v: Vec<f64> = results.cases.iter().map(|c| c.direct_ms).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v.get(v.len() / 2).copied().unwrap_or(0.0)
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

/// What the two one-round studies measure with: an engine handle, the
/// window, and the endpoint pool and RNG a campaign's selection leaves.
struct OneRound<'w> {
    world: &'w World,
    handle: PingHandle,
    window: WindowConfig,
    endpoints: EndpointPool<'w>,
    rng: StdRng,
}

impl OneRound<'_> {
    /// The median RTT of one window from `a` to `b`, if any.
    fn measure(&self, a: HostId, b: HostId, rng: &mut StdRng) -> Option<f64> {
        measure_pair(&self.handle, a, b, SimTime(0.0), &self.window, rng)
    }

    fn location(&self, host: HostId) -> shortcuts_geo::GeoPoint {
        self.world.hosts.get(host).location
    }

    /// The §2.4 feasibility ablation: how many overlay links the
    /// filter saves, and whether a relay it excludes could have beaten
    /// the direct path (its base RTTs below the measured direct RTT).
    /// At most 20,000 excluded relays are checked.
    fn feasibility(&self, relays: &RelayPools, s: &mut Summary) {
        let mut rng = self.rng.clone();
        let raes = self.endpoints.sample_round(&mut rng);
        let relays = relays.sample_round(self.world, 0, &mut rng);
        let [mut pairs, mut feasible_links, mut total_links, mut violations, mut checked] = [0; 5];
        for (i, a) in raes.iter().enumerate() {
            for b in &raes[i + 1..] {
                let Some(direct) = self.measure(a.host, b.host, &mut rng) else {
                    continue;
                };
                pairs += 1;
                let (la, lb) = (self.location(a.host), self.location(b.host));
                for r in &relays.relays {
                    total_links += 2;
                    if is_feasible(&la, &lb, &r.location, direct) {
                        feasible_links += 2;
                    } else if checked < 20_000 {
                        checked += 1;
                        let base = |e| self.handle.base_rtt(e, r.host);
                        if let (Some(l1), Some(l2)) = (base(a.host), base(b.host)) {
                            // Infeasibility certificate from geometry alone.
                            debug_assert!(min_relay_rtt(&la, &lb, &r.location) > direct);
                            violations += usize::from(l1 + l2 < direct);
                        }
                    }
                }
            }
        }
        s.row("feasibility_pairs", pairs as f64);
        s.row("feasibility_links_needed", feasible_links as f64);
        s.row("feasibility_links_total", total_links as f64);
        let saved = 1.0 - feasible_links as f64 / total_links.max(1) as f64;
        s.row("feasibility_saved_pct", 100.0 * saved);
        s.row("feasibility_violations", violations as f64);
        s.row("feasibility_checked", checked as f64);
    }

    /// The two-relay extension: each sampled endpoint pair's best
    /// one-relay COR path against its best two-relay path `e1 -> r1 ->
    /// r2 -> e2`, relays drawn one per facility (at most 30). Every
    /// third endpoint is paired with every third later one.
    fn two_relays(&self, colo: &ColoPool, s: &mut Summary) {
        let mut rng = self.rng.clone();
        let raes = self.endpoints.sample_round(&mut rng);
        let mut seen_facility = HashSet::new();
        let relays: Vec<HostId> = (colo.relays.iter())
            .filter(|r| seen_facility.insert(r.facility))
            .take(30)
            .map(|r| r.host)
            .collect();

        // Relay-relay legs, measured once.
        let mut between: HashMap<(HostId, HostId), f64> = HashMap::new();
        for (i, &a) in relays.iter().enumerate() {
            for &b in &relays[i + 1..] {
                if let Some(m) = self.measure(a, b, &mut rng) {
                    between.insert((a, b), m);
                    between.insert((b, a), m);
                }
            }
        }

        let (mut one_wins, mut two_small, mut two_big, mut neither) = (0, 0, 0, 0);
        let mut extra_gain = Vec::new();
        for i in (0..raes.len()).step_by(3) {
            for j in ((i + 1)..raes.len()).step_by(3) {
                let (e1, e2) = (raes[i].host, raes[j].host);
                let Some(direct) = self.measure(e1, e2, &mut rng) else {
                    continue;
                };
                let (l1, l2) = (self.location(e1), self.location(e2));
                // Endpoint->relay legs of the feasible relays.
                let mut legs: HashMap<HostId, (Option<f64>, Option<f64>)> = HashMap::new();
                for &r in &relays {
                    if is_feasible(&l1, &l2, &self.location(r), direct) {
                        let a = self.measure(e1, r, &mut rng);
                        legs.insert(r, (a, self.measure(e2, r, &mut rng)));
                    }
                }
                let best1 = (legs.values())
                    .filter_map(|(a, b)| Some(a.as_ref()? + b.as_ref()?))
                    .fold(f64::INFINITY, f64::min);
                // Two distinct relays: `between` holds no (r, r) leg.
                let mut best2 = f64::INFINITY;
                for (&r1, (a1, _)) in &legs {
                    for (&r2, (_, b2)) in &legs {
                        if let (Some(a1), Some(mid), Some(b2)) = (a1, between.get(&(r1, r2)), b2) {
                            best2 = best2.min(a1 + mid + b2);
                        }
                    }
                }
                if !best1.is_finite() && !best2.is_finite() {
                    neither += 1;
                } else if best2 < best1 - 2.0 {
                    two_big += 1;
                    extra_gain.push(best1 - best2);
                } else if best2 < best1 {
                    two_small += 1;
                } else {
                    one_wins += 1;
                }
            }
        }
        let total: usize = one_wins + two_small + two_big + neither;
        let pct = |n: usize| 100.0 * n as f64 / total as f64;
        s.row("two_relay_endpoints", raes.len() as f64);
        s.row("two_relay_candidate_relays", relays.len() as f64);
        s.row("two_relay_pairs", total as f64);
        s.row("two_relay_one_at_least_as_good_pct", pct(one_wins));
        s.row("two_relay_better_by_at_most_2ms_pct", pct(two_small));
        s.row("two_relay_better_by_over_2ms_pct", pct(two_big));
        s.row("two_relay_no_relayed_path_pct", pct(neither));
        extra_gain.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        if let Some(&median) = extra_gain.get(extra_gain.len() / 2) {
            s.row("two_relay_median_extra_gain_ms", median);
        }
    }
}
