//! Planning layer of the measurement engine (§2.5 steps 1 and 3 as
//! *data*).
//!
//! A round is planned before anything is measured: which endpoints the
//! round samples, which direct pairs get a window, which pairs also get
//! a reverse window (the symmetry check), and which relays are in play.
//! The plan is pure data — no I/O, no ping engine, no clock — so it can
//! be inspected, serialized, or handed to any
//! [`MeasurementBackend`](crate::backend::MeasurementBackend).
//!
//! Feasibility (§2.4) needs the measured direct medians, so it forms a
//! second planning stage: [`plan_overlay`] folds direct results into an
//! [`OverlayPlan`] — the feasibility matrix and the deduplicated set of
//! (endpoint, relay) links worth measuring. Both stages are pure
//! functions; all randomness enters through the round RNG they are
//! given, never through measurement ordering.

use crate::backend::{MeasureTask, TaskKind};
use crate::eyeball::EndpointPool;
use crate::relays::{Relay, RelayPools};
use crate::workflow::CampaignConfig;
use crate::world::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shortcuts_geo::light::propagation_delay_ms;
use shortcuts_geo::{CityId, Continent, CountryCode, GeoPoint};
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::fasthash::FastMap;
use shortcuts_netsim::HostId;
use shortcuts_topology::Asn;
use std::collections::BTreeSet;

/// One endpoint of the round, with the location facts later stages
/// need (so they never have to reach back into the world).
#[derive(Debug, Clone)]
pub struct PlannedEndpoint {
    /// The endpoint's host.
    pub host: HostId,
    /// Country of the endpoint (one endpoint per country per round).
    pub country: CountryCode,
    /// City of the endpoint's host.
    pub city: CityId,
    /// Continent of that city.
    pub continent: Continent,
    /// Geographic location, for the §2.4 feasibility filter.
    pub location: GeoPoint,
}

/// One direct RAE pair scheduled for measurement.
#[derive(Debug, Clone, Copy)]
pub struct PlannedPair {
    /// Index of the source endpoint in [`RoundPlan::endpoints`].
    pub src: usize,
    /// Index of the destination endpoint (always `> src`).
    pub dst: usize,
    /// Whether the pair is also measured in the reverse direction
    /// (the paper's ping-direction symmetry sample).
    pub reverse: bool,
}

/// Everything one round will measure, decided up front.
#[derive(Debug, Clone)]
pub struct RoundPlan {
    /// Round index.
    pub round: u32,
    /// Start of the round's measurement window.
    pub t0: SimTime,
    /// The round's sampled endpoints.
    pub endpoints: Vec<PlannedEndpoint>,
    /// Direct pairs in deterministic `(src, dst)` order.
    pub pairs: Vec<PlannedPair>,
    /// The round's sampled relays (all types mixed; see
    /// [`Relay::rtype`]).
    pub relays: Vec<Relay>,
}

impl RoundPlan {
    /// Measurement tasks for every direct pair, in pair order.
    pub fn direct_tasks(&self) -> Vec<MeasureTask> {
        self.pairs
            .iter()
            .map(|p| MeasureTask {
                round: self.round,
                src: self.endpoints[p.src].host,
                dst: self.endpoints[p.dst].host,
                start: self.t0,
                kind: TaskKind::Direct,
            })
            .collect()
    }

    /// Reverse-direction tasks for the symmetry check, in pair order:
    /// the flagged pairs whose forward window actually produced a
    /// median (`direct` aligns with [`RoundPlan::pairs`]) — a pair
    /// that was unresponsive forward contributes nothing to the
    /// symmetry analysis, so its reverse window is never sent.
    pub fn reverse_tasks(&self, direct: &[Option<f64>]) -> Vec<MeasureTask> {
        assert_eq!(direct.len(), self.pairs.len(), "one result per pair");
        self.pairs
            .iter()
            .zip(direct)
            .filter(|(p, d)| p.reverse && d.is_some())
            .map(|(p, _)| MeasureTask {
                round: self.round,
                src: self.endpoints[p.dst].host,
                dst: self.endpoints[p.src].host,
                start: self.t0,
                kind: TaskKind::Reverse,
            })
            .collect()
    }
}

/// Every destination AS the campaign's measurement tasks can route
/// toward, deduplicated and in **priority order**: the endpoint-pool
/// ASes first (each direct pair needs tables toward both ends —
/// forward and return routes — so every window of every round touches
/// them), then the relay ASes (each overlay link needs the relay's
/// table, and its return route needs the endpoint's, already covered).
/// Each group is ascending, so the order is fully deterministic.
///
/// The pools are round-invariant — every round samples from them — so
/// this is the complete destination set of the whole campaign, known
/// before round 0. Handing it to `Router::precompute` builds all
/// tables data-parallel up front instead of serializing construction
/// behind the first round's pair-cache misses. Under a byte budget
/// `precompute` warms front-to-back and stops when the budget fills,
/// which is exactly why the hottest (endpoint) destinations lead.
pub fn warmup_destinations(endpoints: &EndpointPool<'_>, relays: &RelayPools) -> Vec<Asn> {
    let hot: BTreeSet<Asn> = endpoints.asns().into_iter().collect();
    let warm: BTreeSet<Asn> = relays
        .asns()
        .into_iter()
        .filter(|a| !hot.contains(a))
        .collect();
    hot.into_iter().chain(warm).collect()
}

/// The planning RNG for a round: one deterministic stream derived from
/// `(campaign seed, round)` and nothing else. This is what makes a
/// round's plan a pure function of its index — any round can be
/// planned at any time, in any order, on any thread, and the plan
/// comes out identical.
pub fn round_rng(campaign_seed: u64, round: u32) -> StdRng {
    StdRng::seed_from_u64(
        campaign_seed
            .wrapping_add(0x5EED)
            .wrapping_add(u64::from(round)),
    )
}

/// Plans round `round` of the campaign as a standalone pure function
/// of `(cfg.seed, round)`: derives the round's planning RNG via
/// [`round_rng`] and runs [`plan_round`]. Because nothing else feeds
/// in, all round plans can be produced up front, lazily, or
/// concurrently from worker threads — the sharded scheduler relies on
/// exactly this.
pub fn plan_round_for(
    world: &World,
    endpoints: &EndpointPool<'_>,
    relays: &RelayPools,
    cfg: &CampaignConfig,
    round: u32,
) -> RoundPlan {
    let mut rng = round_rng(cfg.seed, round);
    plan_round(world, endpoints, relays, cfg, round, &mut rng)
}

/// Plans one round: samples endpoints and relays, enumerates direct
/// pairs, and pre-draws the symmetry coin flips. Pure apart from the
/// RNG it is handed.
pub fn plan_round<R: Rng + ?Sized>(
    world: &World,
    endpoints: &EndpointPool<'_>,
    relays: &RelayPools,
    cfg: &CampaignConfig,
    round: u32,
    rng: &mut R,
) -> RoundPlan {
    let t0 = SimTime(f64::from(round) * cfg.round_interval_hours * 3600.0);

    // Step 1: endpoints (one eyeball AS per country, one probe per AS).
    let raes = endpoints.sample_round(rng);
    let endpoints: Vec<PlannedEndpoint> = raes
        .iter()
        .map(|p| {
            let h = world.hosts.get(p.host);
            PlannedEndpoint {
                host: p.host,
                country: p.country,
                city: h.city,
                continent: world.topo.cities.get(h.city).continent,
                location: h.location,
            }
        })
        .collect();

    // Every unordered pair gets a direct window; a sampled fraction is
    // flagged for the reverse direction as well.
    let mut pairs = Vec::with_capacity(endpoints.len() * (endpoints.len().saturating_sub(1)) / 2);
    for src in 0..endpoints.len() {
        for dst in (src + 1)..endpoints.len() {
            pairs.push(PlannedPair {
                src,
                dst,
                reverse: rng.gen_bool(cfg.symmetry_sample_prob),
            });
        }
    }

    // Step 3 (sampling half): the round's relays per type.
    let round_relays = relays.sample_round(world, round, rng);

    RoundPlan {
        round,
        t0,
        endpoints,
        pairs,
        relays: round_relays.relays,
    }
}

/// The second planning stage: which relays are feasible for which
/// pair, and which overlay links that requires measuring.
#[derive(Debug, Clone)]
pub struct OverlayPlan {
    /// `u64` words per feasibility row: relay count / 64, rounded up.
    row_words: usize,
    /// One fixed-width bitset row per direct pair (same order as
    /// [`RoundPlan::pairs`]), flat: bit `ri` of a row is set iff relay
    /// `ri` of [`RoundPlan::relays`] passes the §2.4 light-cone filter.
    feasible: Vec<u64>,
    /// Deduplicated `(endpoint index, relay index)` links to measure,
    /// in ascending order.
    pub needed: Vec<(usize, u32)>,
}

impl OverlayPlan {
    /// Builds a plan from explicit per-pair relay index lists over
    /// `relays` relays — for tests and hand-made rounds;
    /// [`plan_overlay`] is the real producer.
    pub fn from_rows(relays: usize, rows: &[Vec<u32>], needed: Vec<(usize, u32)>) -> Self {
        let row_words = relays.div_ceil(64);
        let mut feasible = vec![0u64; rows.len() * row_words];
        for (pair_idx, row) in rows.iter().enumerate() {
            for &ri in row {
                assert!((ri as usize) < relays, "relay index out of range");
                feasible[pair_idx * row_words + ri as usize / 64] |= 1 << (ri % 64);
            }
        }
        OverlayPlan {
            row_words,
            feasible,
            needed,
        }
    }

    /// Relay indices feasible for pair `pair_idx`, ascending.
    pub fn feasible(&self, pair_idx: usize) -> impl Iterator<Item = u32> + '_ {
        ones(self.row(pair_idx))
    }

    /// Pair `pair_idx`'s feasibility row: bit `ri % 64` of word
    /// `ri / 64` is set iff relay `ri` is feasible.
    pub(crate) fn row(&self, pair_idx: usize) -> &[u64] {
        &self.feasible[pair_idx * self.row_words..][..self.row_words]
    }

    /// Measurement tasks for every needed overlay link, in
    /// [`OverlayPlan::needed`] order.
    pub fn link_tasks(&self, plan: &RoundPlan) -> Vec<MeasureTask> {
        self.needed
            .iter()
            .map(|&(ei, ri)| MeasureTask {
                round: plan.round,
                src: plan.endpoints[ei].host,
                dst: plan.relays[ri as usize].host,
                start: plan.t0,
                kind: TaskKind::Overlay,
            })
            .collect()
    }
}

/// Positions of the set bits of a bitset row, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = u32> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                w as u32 * 64 + bit
            })
        })
    })
}

/// Plans the overlay stage from the direct results (`direct[i]` is the
/// median of `plan.pairs[i]`, `None` if the pair was unresponsive).
/// Pure: geometry and arithmetic only.
///
/// All geometry lives on one dense endpoint × relay grid of one-way
/// propagation delays, filled once per round; the per-(pair, relay)
/// test is then two loads and the exact arithmetic of
/// [`is_feasible`](crate::feasibility::is_feasible). Both orientations
/// are stored (endpoint→relay for the source leg, relay→endpoint for
/// the destination leg) so the operands match `is_feasible` bit for
/// bit without assuming `distance_km` is symmetric in the last place.
///
/// The grid is computed per distinct *location*, not per host: a
/// round's ≈ 460 relays sit in ≈ 165 places, so each delay is computed
/// once per (endpoint location, relay location) and expanded to the
/// relays by lookup. Locations are keyed by the bits of their
/// coordinates, so equal keys mean bit-identical haversine operands.
/// Each feasibility word is built from its ≤ 64 relays in a register.
pub fn plan_overlay(plan: &RoundPlan, direct: &[Option<f64>]) -> OverlayPlan {
    assert_eq!(plan.pairs.len(), direct.len(), "one result per pair");
    let n_relays = plan.relays.len();
    let (e_places, e_place) = distinct_places(plan.endpoints.iter().map(|e| e.location));
    let (r_places, r_place) = distinct_places(plan.relays.iter().map(|r| r.location));

    // One row per endpoint place over every relay: the delays to and
    // from each relay place, then expanded to the relays by lookup.
    let mut to_relay = Vec::with_capacity(e_places.len() * n_relays);
    let mut from_relay = Vec::with_capacity(e_places.len() * n_relays);
    let (mut to, mut from) = (Vec::new(), Vec::new());
    for e in &e_places {
        to.clear();
        from.clear();
        for r in &r_places {
            to.push(propagation_delay_ms(e.distance_km(r)));
            from.push(propagation_delay_ms(r.distance_km(e)));
        }
        to_relay.extend(r_place.iter().map(|&rp| to[rp as usize]));
        from_relay.extend(r_place.iter().map(|&rp| from[rp as usize]));
    }

    let row_words = n_relays.div_ceil(64);
    let mut feasible = vec![0u64; plan.pairs.len() * row_words];
    // Which grid cells some feasible (pair, relay) touches: a bitmap
    // dedups for free, and its row-major scan is the ascending
    // `(endpoint, relay)` order the executor and stitcher rely on.
    let mut needed = vec![0u64; plan.endpoints.len() * row_words];
    for (pair_idx, (pair, d)) in plan.pairs.iter().zip(direct).enumerate() {
        let Some(d) = *d else { continue };
        let src_leg = &to_relay[e_place[pair.src] as usize * n_relays..][..n_relays];
        let dst_leg = &from_relay[e_place[pair.dst] as usize * n_relays..][..n_relays];
        let row = &mut feasible[pair_idx * row_words..][..row_words];
        for (w, (t1s, t2s)) in src_leg.chunks(64).zip(dst_leg.chunks(64)).enumerate() {
            let mut bits = 0u64;
            for (b, (t1, t2)) in t1s.iter().zip(t2s).enumerate() {
                bits |= u64::from(2.0 * (t1 + t2) <= d) << b;
            }
            row[w] = bits;
            needed[pair.src * row_words + w] |= bits;
            needed[pair.dst * row_words + w] |= bits;
        }
    }
    let needed = (0..plan.endpoints.len())
        .flat_map(|ei| ones(&needed[ei * row_words..][..row_words]).map(move |ri| (ei, ri)))
        .collect();
    OverlayPlan {
        row_words,
        feasible,
        needed,
    }
}

/// The distinct points of `points` in first-seen order, and each
/// point's index among them. Points are equal iff their coordinates
/// are equal bit for bit (so `-0.0` and `0.0` stay apart).
fn distinct_places(points: impl Iterator<Item = GeoPoint>) -> (Vec<GeoPoint>, Vec<u32>) {
    let mut index: FastMap<(u64, u64), u32> = FastMap::default();
    let mut places = Vec::new();
    let place_of = points
        .map(|p| {
            *index
                .entry((p.lat().to_bits(), p.lon().to_bits()))
                .or_insert_with(|| {
                    places.push(p);
                    places.len() as u32 - 1
                })
        })
        .collect();
    (places, place_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colo::{run_pipeline, ColoPipelineConfig};
    use crate::eyeball::select_eyeballs;
    use crate::world::WorldConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan_fixture() -> (World, RoundPlan) {
        let world = World::build(&WorldConfig::small(), 31);
        let handle = shortcuts_netsim::PingHandle::new(world.shared().engine(Default::default()));
        let vantage = world.looking_glasses.lgs()[0].host;
        let mut rng = StdRng::seed_from_u64(1);
        let colo = run_pipeline(
            &world,
            &handle,
            vantage,
            SimTime(0.0),
            &ColoPipelineConfig::default(),
            &mut rng,
        );
        let verified = select_eyeballs(&world, 10.0).verified;
        let pool = EndpointPool::build(&world, &verified);
        let relays = RelayPools::build(&world, &colo, &verified);
        let cfg = CampaignConfig::small();
        let mut round_rng = StdRng::seed_from_u64(9);
        let plan = plan_round(&world, &pool, &relays, &cfg, 2, &mut round_rng);
        drop(handle);
        (world, plan)
    }

    #[test]
    fn pairs_are_ordered_and_complete() {
        let (_, plan) = plan_fixture();
        let n = plan.endpoints.len();
        assert_eq!(plan.pairs.len(), n * (n - 1) / 2);
        for w in plan.pairs.windows(2) {
            assert!((w[0].src, w[0].dst) < (w[1].src, w[1].dst));
        }
        for p in &plan.pairs {
            assert!(p.src < p.dst && p.dst < n);
        }
        assert_eq!(plan.t0, SimTime(2.0 * 12.0 * 3600.0));
    }

    #[test]
    fn tasks_mirror_the_plan() {
        let (_, plan) = plan_fixture();
        let direct = plan.direct_tasks();
        assert_eq!(direct.len(), plan.pairs.len());
        for (t, p) in direct.iter().zip(&plan.pairs) {
            assert_eq!(t.src, plan.endpoints[p.src].host);
            assert_eq!(t.dst, plan.endpoints[p.dst].host);
            assert_eq!(t.kind, TaskKind::Direct);
        }
        let all_ok: Vec<Option<f64>> = plan.pairs.iter().map(|_| Some(50.0)).collect();
        let reverse = plan.reverse_tasks(&all_ok);
        assert_eq!(
            reverse.len(),
            plan.pairs.iter().filter(|p| p.reverse).count()
        );
        assert!(!reverse.is_empty(), "10% of hundreds of pairs");
        for t in &reverse {
            assert_eq!(t.kind, TaskKind::Reverse);
        }
        // Unresponsive forward pairs get no reverse window at all.
        let none: Vec<Option<f64>> = plan.pairs.iter().map(|_| None).collect();
        assert!(plan.reverse_tasks(&none).is_empty());
    }

    #[test]
    fn overlay_plan_is_deduplicated_and_sorted() {
        let (_, plan) = plan_fixture();
        // Synthetic direct medians: a generous RTT everywhere makes
        // many relays feasible and exercises the dedup.
        let direct: Vec<Option<f64>> = plan.pairs.iter().map(|_| Some(250.0)).collect();
        let oplan = plan_overlay(&plan, &direct);
        assert!(!oplan.needed.is_empty());
        for w in oplan.needed.windows(2) {
            assert!(w[0] < w[1], "needed links must be sorted and unique");
        }
        // Every feasible (pair, relay) contributed both of its links.
        let needed: BTreeSet<(usize, u32)> = oplan.needed.iter().copied().collect();
        for (pair_idx, p) in plan.pairs.iter().enumerate() {
            for ri in oplan.feasible(pair_idx) {
                assert!(needed.contains(&(p.src, ri)));
                assert!(needed.contains(&(p.dst, ri)));
            }
        }
    }

    #[test]
    fn unresponsive_pairs_need_no_links() {
        let (_, plan) = plan_fixture();
        let direct: Vec<Option<f64>> = plan.pairs.iter().map(|_| None).collect();
        let oplan = plan_overlay(&plan, &direct);
        assert!(oplan.needed.is_empty());
        assert!((0..plan.pairs.len()).all(|i| oplan.feasible(i).next().is_none()));
    }

    #[test]
    fn plan_round_for_is_pure_in_seed_and_round() {
        let (world, _) = plan_fixture();
        let verified = select_eyeballs(&world, 10.0).verified;
        let pool = EndpointPool::build(&world, &verified);
        let handle = shortcuts_netsim::PingHandle::new(world.shared().engine(Default::default()));
        let vantage = world.looking_glasses.lgs()[0].host;
        let mut rng = StdRng::seed_from_u64(1);
        let colo = run_pipeline(
            &world,
            &handle,
            vantage,
            SimTime(0.0),
            &ColoPipelineConfig::default(),
            &mut rng,
        );
        let relays = RelayPools::build(&world, &colo, &verified);
        let cfg = CampaignConfig::small();
        // Standalone planning must agree with explicit-RNG planning on
        // the derived stream, regardless of the order rounds are
        // planned in.
        for round in [2, 0, 1] {
            let standalone = plan_round_for(&world, &pool, &relays, &cfg, round);
            let mut rng = round_rng(cfg.seed, round);
            let explicit = plan_round(&world, &pool, &relays, &cfg, round, &mut rng);
            assert_eq!(standalone.round, explicit.round);
            assert_eq!(standalone.endpoints.len(), explicit.endpoints.len());
            for (a, b) in standalone.endpoints.iter().zip(&explicit.endpoints) {
                assert_eq!(a.host, b.host);
            }
            for (a, b) in standalone.pairs.iter().zip(&explicit.pairs) {
                assert_eq!((a.src, a.dst, a.reverse), (b.src, b.dst, b.reverse));
            }
            for (a, b) in standalone.relays.iter().zip(&explicit.relays) {
                assert_eq!(a.host, b.host);
            }
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let (world, _) = plan_fixture();
        let verified = select_eyeballs(&world, 10.0).verified;
        let pool = EndpointPool::build(&world, &verified);
        let handle = shortcuts_netsim::PingHandle::new(world.shared().engine(Default::default()));
        let vantage = world.looking_glasses.lgs()[0].host;
        let mut rng = StdRng::seed_from_u64(1);
        let colo = run_pipeline(
            &world,
            &handle,
            vantage,
            SimTime(0.0),
            &ColoPipelineConfig::default(),
            &mut rng,
        );
        let relays = RelayPools::build(&world, &colo, &verified);
        let cfg = CampaignConfig::small();
        let p1 = plan_round(
            &world,
            &pool,
            &relays,
            &cfg,
            0,
            &mut StdRng::seed_from_u64(5),
        );
        let p2 = plan_round(
            &world,
            &pool,
            &relays,
            &cfg,
            0,
            &mut StdRng::seed_from_u64(5),
        );
        assert_eq!(p1.endpoints.len(), p2.endpoints.len());
        for (a, b) in p1.endpoints.iter().zip(&p2.endpoints) {
            assert_eq!(a.host, b.host);
        }
        for (a, b) in p1.relays.iter().zip(&p2.relays) {
            assert_eq!(a.host, b.host);
        }
        for (a, b) in p1.pairs.iter().zip(&p2.pairs) {
            assert_eq!(a.reverse, b.reverse);
        }
    }
}
