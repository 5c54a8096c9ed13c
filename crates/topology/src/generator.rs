//! Seeded random topology generation.
//!
//! The generator builds an Internet-like AS graph embedded in the city
//! database:
//!
//! - A small clique of **tier-1** backbones with PoPs on every continent.
//! - Regional **tier-2** transits with continental footprints, buying
//!   transit from 1–3 tier-1s and peering with other tier-2s they meet at
//!   facilities.
//! - Per-country **eyeball** ISPs with domestic footprints (a few large
//!   ones also reach the nearest hub metro), buying transit from
//!   regional tier-2s. Their user shares drive the synthetic APNIC
//!   dataset of §2.1.
//! - Global **content/cloud** providers at hub metros, peering widely.
//! - Stub **enterprise** networks (APNIC noise, never eyeballs).
//! - **Research** networks hosting PlanetLab sites.
//! - **Facilities** at hub metros (flagships with hundreds of members,
//!   mirroring the paper's Table 1) and a long tail of regional sites;
//!   **IXPs** inside them.
//! - **Peering links** created where networks meet: co-membership at a
//!   facility or IXP is what makes peering possible, which is exactly the
//!   "Colos concentrate interconnection" premise of the paper.
//!
//! Everything is driven by a single `u64` seed through `StdRng`, so any
//! topology is exactly reproducible.

use crate::asys::{AsInfo, AsType};
use crate::graph::{Topology, TopologyBuilder};
use crate::ids::{Asn, FacilityId};
use crate::ip::IpAllocator;
use rand::prelude::*;
use rand::rngs::StdRng;
use shortcuts_geo::{CityDb, CityId, Continent};
use std::collections::{HashMap, HashSet};

/// Knobs of the topology generator.
///
/// The two presets are [`TopologyConfig::paper_scale`] (default; big
/// enough that the measurement campaign has the paper's diversity) and
/// [`TopologyConfig::small`] (fast unit-test scale).
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Number of tier-1 backbone ASes (fully meshed via peering).
    pub n_tier1: usize,
    /// Number of tier-2 regional transit ASes.
    pub n_tier2: usize,
    /// Min/max eyeball ASes generated per country.
    pub eyeballs_per_country: (usize, usize),
    /// Number of global content/cloud ASes (hub footprints).
    pub n_content: usize,
    /// Probability that a country gets a national hosting/cloud
    /// provider (content-type AS homed in-country, colocated at the
    /// local facility). These are the "core" networks where RIPE Atlas
    /// keeps its strong non-eyeball deployment.
    pub local_hosting_prob: f64,
    /// Number of stub enterprise ASes.
    pub n_enterprise: usize,
    /// Number of research/NREN ASes.
    pub n_research: usize,
    /// PoP cities per tier-1 (sampled from all cities, hubs always in).
    pub tier1_pops: usize,
    /// Min/max PoP cities per tier-2 (within its home continent).
    pub tier2_pops: (usize, usize),
    /// Min/max PoP cities per content AS (hub-biased).
    pub content_pops: (usize, usize),
    /// Probability that a large eyeball also gets a PoP at the nearest
    /// hub metro (possibly abroad) — this is what puts some eyeballs
    /// into big colos.
    pub eyeball_hub_presence: f64,
    /// Number of facilities at each hub city (flagship metros get the
    /// max of the range).
    pub facilities_per_hub: (usize, usize),
    /// Fraction of non-hub facility-eligible cities that get one small
    /// facility.
    pub small_facility_fraction: f64,
    /// Probability that an AS with a PoP in a facility's city joins the
    /// facility, by AS type (indexed by [`AsType`] order in `ALL`).
    pub facility_join_prob: [f64; 6],
    /// Peering probability for a pair of co-located (same facility or
    /// IXP) ASes, by unordered type pair; see [`peer_prob`].
    pub peering_scale: f64,
    /// Peering probability inside the global research/NREN mesh
    /// (GEANT/Internet2 style). [`TopologyConfig::scaled`] divides it
    /// by the scale factor so per-AS mesh degree stays constant as the
    /// research population grows.
    pub research_mesh_prob: f64,
    /// Prefixes originated per AS: min/max.
    pub prefixes_per_as: (usize, usize),
}

impl TopologyConfig {
    /// Full-size configuration used by the paper-reproduction campaign.
    pub fn paper_scale() -> Self {
        TopologyConfig {
            n_tier1: 12,
            n_tier2: 90,
            eyeballs_per_country: (3, 6),
            n_content: 140,
            local_hosting_prob: 0.8,
            n_enterprise: 320,
            n_research: 70,
            tier1_pops: 40,
            tier2_pops: (5, 14),
            content_pops: (5, 22),
            eyeball_hub_presence: 0.25,
            facilities_per_hub: (1, 3),
            small_facility_fraction: 0.35,
            // Tier1, Tier2, Eyeball, Content, Enterprise, Research
            facility_join_prob: [0.95, 0.85, 0.45, 0.9, 0.12, 0.35],
            peering_scale: 1.0,
            research_mesh_prob: 0.35,
            prefixes_per_as: (1, 3),
        }
    }

    /// A [`paper_scale`](Self::paper_scale) world inflated by `factor`
    /// (≥ 1) — the internet-scale preset run under byte budgets (the
    /// perf ledger's `campaign_churn_budget` uses a 4× world).
    ///
    /// Populations that the paper treats as "the long tail" grow
    /// linearly (tier-2 transits, content, enterprises, research, and
    /// per-country eyeballs); the tier-1 clique grows with the square
    /// root (backbones consolidate, they don't multiply); and both
    /// peering probabilities are divided by `factor` so the *expected
    /// per-AS peering degree* — and with it the routed graph's density
    /// and the per-destination routing-table footprint — stays roughly
    /// constant while AS count scales. Without that inverse scaling a
    /// 100× world would have 100× the co-members per facility *and*
    /// the same per-pair probability, i.e. a 10,000× edge blow-up.
    pub fn scaled(factor: f64) -> Self {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "scaled() inflates paper_scale; factor must be finite and >= 1"
        );
        let base = Self::paper_scale();
        let lin = |n: usize| ((n as f64) * factor).round().max(1.0) as usize;
        TopologyConfig {
            n_tier1: ((base.n_tier1 as f64) * factor.sqrt()).round() as usize,
            n_tier2: lin(base.n_tier2),
            eyeballs_per_country: (
                lin(base.eyeballs_per_country.0),
                lin(base.eyeballs_per_country.1),
            ),
            n_content: lin(base.n_content),
            n_enterprise: lin(base.n_enterprise),
            n_research: lin(base.n_research),
            peering_scale: base.peering_scale / factor,
            research_mesh_prob: base.research_mesh_prob / factor,
            ..base
        }
    }

    /// Small, fast configuration for unit tests (~200 ASes).
    pub fn small() -> Self {
        TopologyConfig {
            n_tier1: 4,
            n_tier2: 16,
            eyeballs_per_country: (1, 1),
            n_content: 24,
            local_hosting_prob: 0.8,
            n_enterprise: 30,
            n_research: 12,
            tier1_pops: 25,
            tier2_pops: (4, 8),
            content_pops: (4, 10),
            eyeball_hub_presence: 0.25,
            facilities_per_hub: (1, 2),
            small_facility_fraction: 0.2,
            facility_join_prob: [0.95, 0.85, 0.45, 0.9, 0.12, 0.35],
            peering_scale: 1.0,
            research_mesh_prob: 0.35,
            prefixes_per_as: (1, 2),
        }
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig::paper_scale()
    }
}

/// Base peering probability for an unordered pair of AS types meeting at
/// a facility or IXP. Tier-1s never open peering here (their clique is
/// explicit); enterprises barely peer.
pub fn peer_prob(a: AsType, b: AsType) -> f64 {
    use AsType::*;
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    match (x, y) {
        (Tier1, _) => 0.0,
        (Tier2, Tier2) => 0.35,
        (Tier2, Eyeball) => 0.30,
        (Tier2, Content) => 0.45,
        (Tier2, Research) => 0.45,
        (Tier2, Enterprise) => 0.05,
        (Eyeball, Eyeball) => 0.15,
        (Eyeball, Content) => 0.55,
        (Eyeball, Research) => 0.10,
        (Eyeball, Enterprise) => 0.03,
        (Content, Content) => 0.65,
        (Content, Research) => 0.40,
        (Content, Enterprise) => 0.08,
        (Enterprise, Enterprise) => 0.02,
        (Enterprise, Research) => 0.03,
        (Research, Research) => 0.50,
        // Unreachable: (x, y) is normalized so x <= y.
        _ => 0.0,
    }
}

fn type_index(t: AsType) -> usize {
    AsType::ALL.iter().position(|&x| x == t).expect("in ALL")
}

/// Internal state while generating.
struct Gen<'c> {
    cfg: &'c TopologyConfig,
    rng: StdRng,
    next_asn: u32,
    alloc: IpAllocator,
}

impl<'c> Gen<'c> {
    fn fresh_asn(&mut self) -> Asn {
        let a = Asn(self.next_asn);
        self.next_asn += 1;
        a
    }

    fn new_as(
        &mut self,
        b: &mut TopologyBuilder,
        as_type: AsType,
        home_city: CityId,
        user_share: f64,
        offers_cloud: bool,
    ) -> Asn {
        let asn = self.fresh_asn();
        let home_country = b.cities().get(home_city).country;
        let n_pref = self
            .rng
            .gen_range(self.cfg.prefixes_per_as.0..=self.cfg.prefixes_per_as.1);
        let prefixes = (0..n_pref).map(|_| self.alloc.alloc_prefix()).collect();
        b.add_as(AsInfo {
            asn,
            as_type,
            home_country,
            countries: vec![],
            pops: vec![],
            prefixes,
            user_share,
            offers_cloud,
        });
        asn
    }
}

/// City ids grouped by continent, for regional footprint sampling.
fn cities_by_continent(db: &CityDb) -> HashMap<Continent, Vec<CityId>> {
    let mut m: HashMap<Continent, Vec<CityId>> = HashMap::new();
    for c in db.iter() {
        m.entry(c.continent).or_default().push(c.id);
    }
    m
}

/// Nearest hub metro to `from`, memoized: the generator asks this for
/// every large eyeball, national hoster and research network, and at
/// scaled sizes those repeat the same handful of home cities
/// thousands of times. Pure geometry — no RNG — so caching cannot
/// perturb the generation stream.
fn nearest_hub(
    cache: &mut HashMap<CityId, CityId>,
    b: &TopologyBuilder,
    hubs: &[CityId],
    from: CityId,
) -> Option<CityId> {
    if let Some(&h) = cache.get(&from) {
        return Some(h);
    }
    let here = b.cities().get(from).location;
    let best = hubs.iter().copied().min_by(|&x, &y| {
        let dx = b.cities().get(x).location.distance_km(&here);
        let dy = b.cities().get(y).location.distance_km(&here);
        dx.partial_cmp(&dy).expect("finite")
    })?;
    cache.insert(from, best);
    Some(best)
}

/// Member count from which pair sampling switches to the sparse
/// geometric-skip path. The presets top out near ~90 members per
/// facility (and ~70 research networks), so they always take the
/// dense walk and keep their RNG stream — and every generated
/// topology — bit-identical; only [`TopologyConfig::scaled`] worlds
/// cross this line.
const SPARSE_PAIRS_MIN: usize = 512;

/// Visits candidate pairs `(i, j)`, `i < j < n`, where each pair
/// survives an independent Bernoulli(`p_max`) draw — in O(expected
/// candidates) RNG draws instead of O(n²).
///
/// Walks the row-major upper triangle with geometric skips: the gap
/// until the next success of a Bernoulli(`p_max`) stream is
/// `floor(ln(u) / ln(1 - p_max))`. Callers whose per-pair probability
/// varies (facility peering: it depends on the AS-type pair) pass the
/// *maximum* probability as `p_max` and thin inside `hit` by
/// accepting with `p_pair / p_max` — rejection sampling, exactly
/// Bernoulli(`p_pair`) per pair. Callers with constant probability
/// (the research mesh) pass it directly and accept every hit.
fn bernoulli_pairs_sparse<R: Rng>(
    rng: &mut R,
    n: usize,
    p_max: f64,
    mut hit: impl FnMut(&mut R, usize, usize),
) {
    if n < 2 || p_max <= 0.0 {
        return;
    }
    debug_assert!(p_max < 1.0, "p_max >= 1 should take the dense walk");
    let total = (n as u64) * (n as u64 - 1) / 2;
    let ln_q = (1.0 - p_max).ln();
    let mut k: u64 = 0; // next unexamined candidate index
    let mut row = 0usize; // current i
    let mut row_start: u64 = 0; // candidate index of (row, row + 1)
    loop {
        // u in (0, 1]: gen() is [0, 1) and ln(0) must not happen.
        let u: f64 = 1.0 - rng.gen_range(0.0_f64..1.0);
        let skip = (u.ln() / ln_q).floor();
        k = k.saturating_add(if skip >= total as f64 {
            total
        } else {
            skip as u64
        });
        if k >= total {
            return;
        }
        // k is monotone, so the row pointer only ever advances: O(n)
        // row-location work across the whole call.
        while k >= row_start + (n - 1 - row) as u64 {
            row_start += (n - 1 - row) as u64;
            row += 1;
        }
        let j = row + 1 + (k - row_start) as usize;
        hit(rng, row, j);
        k += 1;
    }
}

impl Topology {
    /// Generates a topology from `config` with the given `seed`.
    ///
    /// The same `(config, seed)` pair always produces an identical
    /// topology.
    pub fn generate(config: &TopologyConfig, seed: u64) -> Topology {
        let mut b = Topology::builder();
        let mut g = Gen {
            cfg: config,
            rng: StdRng::seed_from_u64(seed),
            next_asn: 100,
            alloc: IpAllocator::default(),
        };

        let all_cities: Vec<CityId> = b.cities().iter().map(|c| c.id).collect();
        let hubs: Vec<CityId> = b.cities().hubs();
        let by_continent = cities_by_continent(b.cities());
        let countries = b.cities().countries();
        // Reused scratch buffers: at scaled sizes the per-AS loops
        // below run tens of thousands of times, and a fresh Vec per
        // iteration is pure allocator churn. Contents and order are
        // identical to the per-iteration allocations they replace, so
        // every shuffle consumes the same RNG stream.
        let mut city_scratch: Vec<CityId> = Vec::with_capacity(all_cities.len());
        let mut asn_scratch: Vec<Asn> = Vec::new();
        let mut hub_cache: HashMap<CityId, CityId> = HashMap::new();

        // ---- Tier-1 backbones -------------------------------------------
        // The non-hub pool is loop-invariant; hoist it (with a set for
        // the membership test `all_cities × hubs` would otherwise pay).
        let hub_set: std::collections::HashSet<CityId> = hubs.iter().copied().collect();
        let nonhub_cities: Vec<CityId> = all_cities
            .iter()
            .copied()
            .filter(|c| !hub_set.contains(c))
            .collect();
        let mut tier1s = Vec::with_capacity(config.n_tier1);
        for _ in 0..config.n_tier1 {
            let home = *hubs.choose(&mut g.rng).expect("hubs exist");
            let asn = g.new_as(&mut b, AsType::Tier1, home, 0.0, false);
            // All hubs + random extra cities.
            let extra = config.tier1_pops.saturating_sub(hubs.len());
            city_scratch.clear();
            city_scratch.extend_from_slice(&nonhub_cities);
            city_scratch.shuffle(&mut g.rng);
            for &c in hubs.iter().chain(city_scratch.iter().take(extra)) {
                b.add_pop(asn, c);
            }
            tier1s.push(asn);
        }
        // Full tier-1 peering clique.
        for i in 0..tier1s.len() {
            for j in (i + 1)..tier1s.len() {
                b.add_peering(tier1s[i], tier1s[j]);
            }
        }

        // ---- Tier-2 regional transits ------------------------------------
        // Spread across continents proportionally to city count.
        let mut tier2s: Vec<Asn> = Vec::with_capacity(config.n_tier2);
        let mut tier2_by_continent: HashMap<Continent, Vec<Asn>> = HashMap::new();
        let continents: Vec<Continent> = Continent::ALL.to_vec();
        // The continent weights never change mid-generation; build the
        // weighted sampler once instead of per tier-2.
        let weighted_continent = rand::distributions::WeightedIndex::new(
            continents
                .iter()
                .map(|c| by_continent.get(c).map_or(0, |v| v.len()).max(1)),
        )
        .expect("weights nonzero");
        for i in 0..config.n_tier2 {
            // Deterministic round-robin weighted by city counts; every
            // 3rd pick is weighted-random.
            let cont = if i % 3 == 0 {
                continents[weighted_continent.sample(&mut g.rng)]
            } else {
                continents[i % continents.len()]
            };
            let pool = by_continent.get(&cont).expect("continent has cities");
            let n_pops = g
                .rng
                .gen_range(config.tier2_pops.0..=config.tier2_pops.1)
                .min(pool.len());
            city_scratch.clear();
            city_scratch.extend_from_slice(pool);
            city_scratch.shuffle(&mut g.rng);
            city_scratch.truncate(n_pops);
            // Ensure at least one hub PoP in-continent if the continent
            // has one: tier-2s interconnect at hubs.
            if let Some(&hub) = pool.iter().find(|c| b.cities().get(**c).is_hub) {
                if !city_scratch.contains(&hub) {
                    city_scratch.push(hub);
                }
            }
            let home = city_scratch[0];
            let cloud = g.rng.gen_bool(0.15);
            let asn = g.new_as(&mut b, AsType::Tier2, home, 0.0, cloud);
            for &c in &city_scratch {
                b.add_pop(asn, c);
            }
            let n_prov = g.rng.gen_range(1..=3.min(tier1s.len()));
            asn_scratch.clear();
            asn_scratch.extend_from_slice(&tier1s);
            asn_scratch.shuffle(&mut g.rng);
            for &p in asn_scratch.iter().take(n_prov) {
                b.add_transit(asn, p);
            }
            tier2_by_continent.entry(cont).or_default().push(asn);
            tier2s.push(asn);
        }

        // ---- Eyeball ISPs per country -------------------------------------
        let mut eyeballs: Vec<Asn> = Vec::new();
        for &country in &countries {
            let domestic: Vec<CityId> = b.cities().in_country(country).to_vec();
            if domestic.is_empty() {
                continue;
            }
            let continent = b.cities().get(domestic[0]).continent;
            let n = g
                .rng
                .gen_range(config.eyeballs_per_country.0..=config.eyeballs_per_country.1);
            // Broken-stick user shares: first eyeball is the incumbent.
            let mut remaining = 0.92; // some users are on enterprise/mobile noise
            for k in 0..n {
                let share = if k == n - 1 {
                    remaining * g.rng.gen_range(0.6..0.95)
                } else {
                    remaining * g.rng.gen_range(0.35..0.7)
                };
                remaining -= share;
                let home = *domestic.choose(&mut g.rng).expect("non-empty");
                let asn = g.new_as(&mut b, AsType::Eyeball, home, share, false);
                // Domestic footprint: all domestic cities (countries are
                // small in the DB; at most a handful of cities).
                for &c in &domestic {
                    b.add_pop(asn, c);
                }
                // Large eyeballs reach the nearest hub metro.
                if share > 0.2 && g.rng.gen_bool(config.eyeball_hub_presence) {
                    if let Some(hub) = nearest_hub(&mut hub_cache, &b, &hubs, home) {
                        b.add_pop(asn, hub);
                    }
                }
                // Providers: 1-2 tier-2s on the continent (fallback tier-1).
                let regional = tier2_by_continent.get(&continent);
                let n_prov = g.rng.gen_range(1..=2);
                let mut picked = 0;
                if let Some(regional) = regional {
                    asn_scratch.clear();
                    asn_scratch.extend_from_slice(regional);
                    asn_scratch.shuffle(&mut g.rng);
                    for &p in asn_scratch.iter().take(n_prov) {
                        b.add_transit(asn, p);
                        picked += 1;
                    }
                }
                if picked == 0 {
                    b.add_transit(asn, *tier1s.choose(&mut g.rng).expect("tier1s"));
                }
                // Big eyeballs sometimes buy direct tier-1 transit too.
                if share > 0.3 && g.rng.gen_bool(0.3) {
                    b.add_transit(asn, *tier1s.choose(&mut g.rng).expect("tier1s"));
                }
                eyeballs.push(asn);
            }
        }

        // ---- Content / cloud providers -------------------------------------
        let mut contents: Vec<Asn> = Vec::new();
        for _ in 0..config.n_content {
            let n_pops = g
                .rng
                .gen_range(config.content_pops.0..=config.content_pops.1)
                .min(hubs.len());
            let mut cities: Vec<CityId> = hubs.clone();
            cities.shuffle(&mut g.rng);
            cities.truncate(n_pops);
            // Some content providers also sit at a few non-hub cities.
            if g.rng.gen_bool(0.4) {
                if let Some(&extra) = all_cities.choose(&mut g.rng) {
                    if !cities.contains(&extra) {
                        cities.push(extra);
                    }
                }
            }
            let home = cities[0];
            let cloud = g.rng.gen_bool(0.6);
            let asn = g.new_as(&mut b, AsType::Content, home, 0.0, cloud);
            for &c in &cities {
                b.add_pop(asn, c);
            }
            let n_prov = g.rng.gen_range(1..=2);
            for _ in 0..n_prov {
                let p = if g.rng.gen_bool(0.5) {
                    *tier1s.choose(&mut g.rng).expect("tier1s")
                } else {
                    *tier2s.choose(&mut g.rng).expect("tier2s")
                };
                b.add_transit(asn, p);
            }
            contents.push(asn);
        }

        // ---- National hosting/cloud providers --------------------------------
        // One per country (with probability): domestic footprint plus the
        // nearest hub metro, multihomed to regional transit. These are
        // the well-connected in-country networks that make RAR_other
        // relays strong in the paper.
        for &country in &countries {
            if !g.rng.gen_bool(config.local_hosting_prob) {
                continue;
            }
            let domestic: Vec<CityId> = b.cities().in_country(country).to_vec();
            if domestic.is_empty() {
                continue;
            }
            let continent = b.cities().get(domestic[0]).continent;
            let home = *domestic.choose(&mut g.rng).expect("non-empty");
            let asn = g.new_as(&mut b, AsType::Content, home, 0.0, true);
            for &c in &domestic {
                b.add_pop(asn, c);
            }
            // Reach the nearest hub metro for interconnection.
            if let Some(hub) = nearest_hub(&mut hub_cache, &b, &hubs, home) {
                b.add_pop(asn, hub);
            }
            let n_prov = g.rng.gen_range(1..=2);
            let mut picked = 0;
            if let Some(regional) = tier2_by_continent.get(&continent) {
                asn_scratch.clear();
                asn_scratch.extend_from_slice(regional);
                asn_scratch.shuffle(&mut g.rng);
                for &p in asn_scratch.iter().take(n_prov) {
                    b.add_transit(asn, p);
                    picked += 1;
                }
            }
            if picked == 0 {
                b.add_transit(asn, *tier1s.choose(&mut g.rng).expect("tier1s"));
            }
            contents.push(asn);
        }

        // ---- Enterprise stubs ----------------------------------------------
        for _ in 0..config.n_enterprise {
            let home = b.cities().sample_weighted(&mut g.rng);
            // Tiny noise user share so the APNIC table has non-eyeball rows.
            let share = g.rng.gen_range(0.0..0.02);
            let asn = g.new_as(&mut b, AsType::Enterprise, home, share, false);
            b.add_pop(asn, home);
            let continent = b.cities().get(home).continent;
            let provider = tier2_by_continent
                .get(&continent)
                .and_then(|v| v.choose(&mut g.rng).copied())
                .unwrap_or_else(|| *tier1s.choose(&mut g.rng).expect("tier1s"));
            b.add_transit(asn, provider);
        }

        // ---- Research / NREN networks ----------------------------------------
        let mut researches: Vec<Asn> = Vec::new();
        for _ in 0..config.n_research {
            let home = b.cities().sample_weighted(&mut g.rng);
            let asn = g.new_as(&mut b, AsType::Research, home, 0.0, false);
            b.add_pop(asn, home);
            // The NREN backbone usually reaches the nearest exchange
            // metro, where research networks peer.
            if g.rng.gen_bool(0.7) {
                if let Some(hub) = nearest_hub(&mut hub_cache, &b, &hubs, home) {
                    b.add_pop(asn, hub);
                }
            }
            let continent = b.cities().get(home).continent;
            let provider = tier2_by_continent
                .get(&continent)
                .and_then(|v| v.choose(&mut g.rng).copied())
                .unwrap_or_else(|| *tier1s.choose(&mut g.rng).expect("tier1s"));
            b.add_transit(asn, provider);
            researches.push(asn);
        }
        // NREN backbone: research networks peer densely with each other
        // (GEANT/Internet2-style mesh). Scaled worlds divide the mesh
        // probability by the factor, so expected candidates stay O(n)
        // and the geometric-skip walk visits only the hits.
        if researches.len() >= SPARSE_PAIRS_MIN && config.research_mesh_prob < 1.0 {
            bernoulli_pairs_sparse(
                &mut g.rng,
                researches.len(),
                config.research_mesh_prob,
                |_, i, j| {
                    b.add_peering(researches[i], researches[j]);
                },
            );
        } else {
            for i in 0..researches.len() {
                for j in (i + 1)..researches.len() {
                    if g.rng.gen_bool(config.research_mesh_prob) {
                        b.add_peering(researches[i], researches[j]);
                    }
                }
            }
        }

        // ---- Facilities -------------------------------------------------------
        // Flagship + regular facilities at hub cities, small facilities at a
        // fraction of other cities that host at least a few PoPs.
        let mut facility_ids: Vec<FacilityId> = Vec::new();
        for &hub in &hubs {
            let n_fac = g
                .rng
                .gen_range(config.facilities_per_hub.0..=config.facilities_per_hub.1);
            for k in 0..n_fac {
                let name = format!("Colo-{}-{}", b.cities().get(hub).name, k);
                let id = b.add_facility(name, hub, g.rng.gen_bool(0.8));
                facility_ids.push(id);
            }
        }
        for &city in &all_cities {
            if b.cities().get(city).is_hub {
                continue;
            }
            if g.rng.gen_bool(config.small_facility_fraction) {
                let name = format!("Colo-{}-0", b.cities().get(city).name);
                let id = b.add_facility(name, city, g.rng.gen_bool(0.35));
                facility_ids.push(id);
            }
        }

        // ---- Facility membership ----------------------------------------------
        // An AS joins a facility if it has a PoP in the city, with a
        // type-dependent probability. Collect (facility, member) pairs
        // first to placate the borrow checker.
        let mut memberships: Vec<(FacilityId, Asn)> = Vec::new();
        {
            // Snapshot of AS list (asn, type, pop city set).
            let snapshot: Vec<(Asn, AsType, Vec<CityId>)> = b.ases_snapshot();
            // Invert once: city -> snapshot indices of ASes with a PoP
            // there. Deduped per AS (an AS listing a city twice still
            // joins at most once — same semantics as the `contains`
            // scan this replaces), and each city's list stays in
            // snapshot order, so the gen_bool stream is identical to
            // the old facilities × ASes walk while costing a lookup
            // per facility instead of a full scan.
            let mut by_city: HashMap<CityId, Vec<usize>> = HashMap::new();
            let mut seen: HashSet<CityId> = HashSet::new();
            for (idx, (_, _, cities)) in snapshot.iter().enumerate() {
                seen.clear();
                for &c in cities {
                    if seen.insert(c) {
                        by_city.entry(c).or_default().push(idx);
                    }
                }
            }
            for &fid in &facility_ids {
                let fcity = b.facility_city(fid);
                let Some(idxs) = by_city.get(&fcity) else {
                    continue;
                };
                for &idx in idxs {
                    let (asn, t, _) = &snapshot[idx];
                    let p = config.facility_join_prob[type_index(*t)];
                    if g.rng.gen_bool(p) {
                        memberships.push((fid, *asn));
                    }
                }
            }
        }
        for (fid, asn) in &memberships {
            b.add_facility_member(*fid, *asn);
        }

        // ---- IXPs ---------------------------------------------------------------
        // One IXP per facility city; hub cities with several facilities get
        // an IXP spanning all of them plus possibly a second one.
        let mut city_facilities: HashMap<CityId, Vec<FacilityId>> = HashMap::new();
        for &fid in &facility_ids {
            city_facilities
                .entry(b.facility_city(fid))
                .or_default()
                .push(fid);
        }
        let mut city_list: Vec<(CityId, Vec<FacilityId>)> = city_facilities.into_iter().collect();
        city_list.sort_by_key(|(c, _)| *c);
        let mut member_set: HashSet<Asn> = HashSet::new();
        let mut member_scratch: Vec<Asn> = Vec::new();
        for (city, fids) in &city_list {
            let n_ixps = if fids.len() >= 2 && g.rng.gen_bool(0.5) {
                2
            } else {
                1
            };
            for k in 0..n_ixps {
                let name = format!("IX-{}-{}", b.cities().get(*city).name, k);
                let ixp = b.add_ixp(name, *city, fids.clone());
                // Members: facility members join the local fabric w.p.
                // 0.7. The set mirrors the short-circuit `contains`
                // test it replaces — an AS already admitted draws no
                // further, one rejected at an earlier facility draws
                // again at the next — in O(1) instead of O(members).
                member_set.clear();
                member_scratch.clear();
                for &fid in fids {
                    for asn in b.facility_members(fid) {
                        if !member_set.contains(&asn) && g.rng.gen_bool(0.7) {
                            member_set.insert(asn);
                            member_scratch.push(asn);
                        }
                    }
                }
                for &m in &member_scratch {
                    b.add_ixp_member(ixp, m);
                }
            }
        }

        // ---- Peering at shared facilities/IXPs ------------------------------------
        // For each facility, co-members peer with type-dependent probability.
        let mut peerings: Vec<(Asn, Asn)> = Vec::new();
        {
            let type_of: HashMap<Asn, AsType> = b
                .ases_snapshot()
                .into_iter()
                .map(|(a, t, _)| (a, t))
                .collect();
            // Envelope for the sparse walk: the largest entry in the
            // peer_prob table, scaled. Every per-pair probability is
            // <= this, so thinning a Bernoulli(p_max) stream by
            // p / p_max reproduces Bernoulli(p) exactly.
            let p_max = AsType::ALL
                .iter()
                .flat_map(|&x| AsType::ALL.iter().map(move |&y| peer_prob(x, y)))
                .fold(0.0_f64, f64::max)
                * config.peering_scale;
            for &fid in &facility_ids {
                let members = b.facility_members(fid);
                if members.len() >= SPARSE_PAIRS_MIN && p_max < 1.0 {
                    bernoulli_pairs_sparse(&mut g.rng, members.len(), p_max, |rng, i, j| {
                        let (x, y) = (members[i], members[j]);
                        let p = peer_prob(type_of[&x], type_of[&y]) * config.peering_scale;
                        if p > 0.0 && rng.gen_bool(p / p_max) {
                            peerings.push((x, y));
                        }
                    });
                } else {
                    for i in 0..members.len() {
                        for j in (i + 1)..members.len() {
                            let (x, y) = (members[i], members[j]);
                            let p = peer_prob(type_of[&x], type_of[&y]) * config.peering_scale;
                            if p > 0.0 && g.rng.gen_bool(p.min(1.0)) {
                                peerings.push((x, y));
                            }
                        }
                    }
                }
            }
        }
        for (x, y) in peerings {
            b.add_peering(x, y);
        }

        b.build()
    }
}

// Small accessor shims used by the generator (the builder fields are
// private to keep invariants; these expose read-only snapshots).
impl TopologyBuilder {
    /// Snapshot of (asn, type, PoP city list) for all registered ASes.
    pub fn ases_snapshot(&self) -> Vec<(Asn, AsType, Vec<CityId>)> {
        self.snapshot_impl()
    }

    /// City of a facility registered on this builder.
    pub fn facility_city(&self, id: FacilityId) -> CityId {
        self.facility_city_impl(id)
    }

    /// Members of a facility registered on this builder.
    pub fn facility_members(&self, id: FacilityId) -> Vec<Asn> {
        self.facility_members_impl(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Router;

    #[test]
    fn sparse_pair_sampling_matches_bernoulli_statistics() {
        let n = 600;
        let p = 0.01;
        let total = (n * (n - 1) / 2) as f64;
        let mut hits = 0u64;
        let mut last = (0usize, 0usize);
        let mut rng = StdRng::seed_from_u64(5);
        bernoulli_pairs_sparse(&mut rng, n, p, |_, i, j| {
            assert!(i < j && j < n, "pair ({i},{j}) out of triangle");
            assert!((i, j) > last, "pairs must arrive in row-major order");
            last = (i, j);
            hits += 1;
        });
        let expect = total * p;
        let sd = (total * p * (1.0 - p)).sqrt();
        assert!(
            (hits as f64 - expect).abs() < 6.0 * sd,
            "sparse walk produced {hits} hits, expected ~{expect:.0} (sd {sd:.1})"
        );
    }

    #[test]
    fn sparse_pair_sampling_handles_degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        // n < 2 and p <= 0 both visit nothing.
        bernoulli_pairs_sparse(&mut rng, 1, 0.5, |_, _, _| panic!("no pairs for n=1"));
        bernoulli_pairs_sparse(&mut rng, 100, 0.0, |_, _, _| panic!("no pairs for p=0"));
        // Tiny n still covers the whole triangle eventually.
        let mut seen = Vec::new();
        bernoulli_pairs_sparse(&mut rng, 3, 0.999, |_, i, j| seen.push((i, j)));
        assert!(seen.iter().all(|&(i, j)| i < j && j < 3));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TopologyConfig::small();
        let t1 = Topology::generate(&cfg, 7);
        let t2 = Topology::generate(&cfg, 7);
        assert_eq!(t1.as_count(), t2.as_count());
        assert_eq!(t1.link_count(), t2.link_count());
        assert_eq!(t1.facilities().len(), t2.facilities().len());
        // Spot-check some AS records match.
        for (a, b) in t1.ases().iter().zip(t2.ases().iter()) {
            assert_eq!(a.asn, b.asn);
            assert_eq!(a.as_type, b.as_type);
            assert_eq!(a.pops.len(), b.pops.len());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = TopologyConfig::small();
        let t1 = Topology::generate(&cfg, 1);
        let t2 = Topology::generate(&cfg, 2);
        // Different wiring (AS counts may also differ slightly because
        // national hosting providers are per-country probabilistic).
        assert_ne!(t1.link_count(), t2.link_count());
    }

    #[test]
    fn population_counts_match_config() {
        let cfg = TopologyConfig::small();
        let t = Topology::generate(&cfg, 42);
        assert_eq!(t.asns_of_type(AsType::Tier1).len(), cfg.n_tier1);
        assert_eq!(t.asns_of_type(AsType::Tier2).len(), cfg.n_tier2);
        // Content = global providers + per-country national hosters.
        let n_content = t.asns_of_type(AsType::Content).len();
        let n_countries_all = t.cities.countries().len();
        assert!(n_content >= cfg.n_content, "got {n_content}");
        assert!(n_content <= cfg.n_content + n_countries_all);
        assert_eq!(t.asns_of_type(AsType::Enterprise).len(), cfg.n_enterprise);
        assert_eq!(t.asns_of_type(AsType::Research).len(), cfg.n_research);
        // One eyeball per country in the small config.
        let n_countries = t.cities.countries().len();
        assert_eq!(t.eyeball_asns().len(), n_countries);
    }

    #[test]
    fn tier1s_form_a_clique() {
        let t = Topology::generate(&TopologyConfig::small(), 3);
        let tier1s = t.asns_of_type(AsType::Tier1);
        for &a in tier1s {
            for &b in tier1s {
                if a != b {
                    assert!(t.adjacency(a).peers.contains(&b));
                }
            }
        }
    }

    #[test]
    fn every_non_tier1_has_a_provider() {
        let t = Topology::generate(&TopologyConfig::small(), 5);
        for info in t.ases() {
            if info.as_type != AsType::Tier1 {
                assert!(
                    !t.adjacency(info.asn).providers.is_empty(),
                    "{} ({}) has no provider",
                    info.asn,
                    info.as_type.label()
                );
            }
        }
    }

    #[test]
    fn eyeballs_have_domestic_pops_and_user_share() {
        let t = Topology::generate(&TopologyConfig::small(), 5);
        for &asn in t.eyeball_asns() {
            let info = t.expect_as(asn);
            assert!(info.user_share > 0.0);
            assert!(!info.pops.is_empty());
            // At least one PoP in the home country.
            let home_pops = info
                .pops
                .iter()
                .filter(|&&p| t.cities.get(t.pop(p).city).country == info.home_country)
                .count();
            assert!(home_pops > 0, "{asn} has no domestic PoP");
        }
    }

    #[test]
    fn facilities_exist_and_have_members() {
        let t = Topology::generate(&TopologyConfig::small(), 9);
        assert!(!t.facilities().is_empty());
        let with_members = t
            .facilities()
            .iter()
            .filter(|f| f.member_count() > 0)
            .count();
        assert!(
            with_members * 2 > t.facilities().len(),
            "most facilities populated"
        );
        // Hub facilities should exist at flagship metros.
        let hub_fac = t
            .facilities()
            .iter()
            .filter(|f| t.cities.get(f.city).is_hub)
            .count();
        assert!(hub_fac > 0);
    }

    #[test]
    fn facility_members_have_pops_in_city() {
        let t = Topology::generate(&TopologyConfig::small(), 11);
        for f in t.facilities() {
            for &m in &f.members {
                assert!(
                    t.pop_cities(m).contains(&f.city),
                    "{m} member of {} without PoP in city",
                    f.name
                );
            }
        }
    }

    #[test]
    fn full_reachability_between_eyeballs() {
        let t = std::sync::Arc::new(Topology::generate(&TopologyConfig::small(), 13));
        let router = Router::new(std::sync::Arc::clone(&t));
        let eyes = t.eyeball_asns();
        let mut unreachable = 0;
        // Sample pairs to keep the test fast.
        for (i, &a) in eyes.iter().enumerate().step_by(7) {
            for &b in eyes.iter().skip(i + 1).step_by(11) {
                if router.as_path(a, b).is_none() {
                    unreachable += 1;
                }
            }
        }
        assert_eq!(unreachable, 0, "all eyeball pairs must be reachable");
    }

    #[test]
    fn prefixes_are_disjoint_across_ases() {
        let t = Topology::generate(&TopologyConfig::small(), 17);
        let mut bases = std::collections::HashSet::new();
        for info in t.ases() {
            for p in &info.prefixes {
                assert!(bases.insert(p.base()), "duplicate prefix {p}");
            }
        }
    }

    #[test]
    fn paper_scale_generates_reasonable_sizes() {
        let t = Topology::generate(&TopologyConfig::paper_scale(), 1);
        assert!(t.as_count() > 800, "got {}", t.as_count());
        assert!(t.facilities().len() > 50, "got {}", t.facilities().len());
        assert!(!t.ixps().is_empty());
        // Eyeball count should resemble the paper's 494 verified eyeballs
        // in order of magnitude.
        let eyes = t.eyeball_asns().len();
        assert!((200..900).contains(&eyes), "got {eyes}");
    }
}
