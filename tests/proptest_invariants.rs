//! Property-based tests on core data structures and invariants,
//! spanning the whole workspace.

use colo_shortcuts::core::analysis::stats;
use colo_shortcuts::core::feasibility;
use colo_shortcuts::core::measure::{median, stitch};
use colo_shortcuts::core::stitch::stitch_legs;
use colo_shortcuts::geo::{light, GeoPoint};
use colo_shortcuts::topology::{IpAllocator, Prefix};
use proptest::prelude::*;

prop_compose! {
    fn arb_point()(lat in -90.0f64..=90.0, lon in -180.0f64..=180.0) -> GeoPoint {
        GeoPoint::new(lat, lon).expect("in range")
    }
}

/// A synthetic endpoint for hand-built rounds.
fn synthetic_endpoint(
    host: u32,
    location: GeoPoint,
) -> colo_shortcuts::core::plan::PlannedEndpoint {
    use colo_shortcuts::geo::{CityId, Continent, CountryCode};
    colo_shortcuts::core::plan::PlannedEndpoint {
        host: colo_shortcuts::netsim::HostId(host),
        country: CountryCode::new("US").expect("valid"),
        city: CityId(0),
        continent: Continent::NorthAmerica,
        location,
    }
}

/// A synthetic relay for hand-built rounds; `i` cycles the relay type.
fn synthetic_relay(host: u32, i: usize, location: GeoPoint) -> colo_shortcuts::core::relays::Relay {
    use colo_shortcuts::core::relays::RelayType;
    use colo_shortcuts::geo::{CityId, CountryCode};
    colo_shortcuts::core::relays::Relay {
        host: colo_shortcuts::netsim::HostId(host),
        asn: colo_shortcuts::topology::Asn(host),
        city: CityId(0),
        location,
        country: CountryCode::new("DE").expect("valid"),
        rtype: RelayType::ALL[i % 4],
        facility: None,
    }
}

prop_compose! {
    /// An arbitrary synthetic round: `n` endpoints spread over the
    /// globe, all pairs with random reverse flags, `m` relays of
    /// cycling types, and an arbitrary direct success/failure pattern.
    fn arb_alignment_case()(
        n in 3usize..7,
        m in 0usize..6,
        seed in 0u64..u64::MAX,
    ) -> (
        colo_shortcuts::core::plan::RoundPlan,
        Vec<Option<f64>>,
    ) {
        use colo_shortcuts::core::plan::{PlannedEndpoint, PlannedPair, RoundPlan};
        use colo_shortcuts::core::relays::Relay;
        use colo_shortcuts::netsim::clock::SimTime;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let point = |rng: &mut StdRng| {
            GeoPoint::new(rng.gen_range(-60.0..60.0), rng.gen_range(-170.0..170.0))
                .expect("in range")
        };
        let endpoints: Vec<PlannedEndpoint> = (0..n)
            .map(|i| synthetic_endpoint(1 + i as u32, point(&mut rng)))
            .collect();
        let mut pairs = Vec::new();
        for src in 0..n {
            for dst in (src + 1)..n {
                pairs.push(PlannedPair {
                    src,
                    dst,
                    reverse: rng.gen_bool(0.5),
                });
            }
        }
        let relays: Vec<Relay> = (0..m)
            .map(|i| synthetic_relay(100 + i as u32, i, point(&mut rng)))
            .collect();
        let direct: Vec<Option<f64>> = pairs
            .iter()
            .map(|_| rng.gen_bool(0.75).then(|| rng.gen_range(1.0..400.0)))
            .collect();
        let plan = RoundPlan {
            round: rng.gen_range(0..45),
            t0: SimTime(0.0),
            endpoints,
            pairs,
            relays,
        };
        (plan, direct)
    }
}

prop_compose! {
    /// A round for the grid-planner equivalence tests: up to 40
    /// endpoints and 70 relays (so feasibility rows cross the 64-bit
    /// word boundary), with the geometry's corner cases mixed in —
    /// points coincident with or antipodal to an earlier endpoint,
    /// relays sharing an earlier relay's place (as a real round's
    /// relays do, ≈ 460 in ≈ 165 places), and signed-zero twins: a
    /// point whose latitude or longitude is `-0.0` beside one where it
    /// is `+0.0` — and directs that are `None`, arbitrary, or set
    /// *exactly* to some relay's `min_relay_rtt` so the `<=` boundary
    /// is hit. The third element lists those `(pair index, relay
    /// index)` hits.
    fn arb_grid_case()(
        n in 1usize..=40,
        m in 0usize..=70,
        seed in 0u64..u64::MAX,
    ) -> (
        colo_shortcuts::core::plan::RoundPlan,
        Vec<Option<f64>>,
        Vec<(usize, u32)>,
    ) {
        use colo_shortcuts::core::plan::{PlannedPair, RoundPlan};
        use colo_shortcuts::netsim::clock::SimTime;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let antipode = |p: &GeoPoint| {
            let lon = if p.lon() > 0.0 { p.lon() - 180.0 } else { p.lon() + 180.0 };
            GeoPoint::new(-p.lat(), lon).expect("in range")
        };
        // `p` with one coordinate set to a zero: the other sign of it
        // if that coordinate already is one, else a random sign.
        let zero_twin = |rng: &mut StdRng, p: &GeoPoint| {
            let zero = |rng: &mut StdRng, v: f64| {
                if v == 0.0 { -v } else if rng.gen_bool(0.5) { 0.0 } else { -0.0 }
            };
            if rng.gen_bool(0.5) {
                GeoPoint::new(zero(rng, p.lat()), p.lon())
            } else {
                GeoPoint::new(p.lat(), zero(rng, p.lon()))
            }
            .expect("in range")
        };
        // A fresh point, or one coincident with / antipodal to / the
        // signed-zero twin of an earlier endpoint.
        let place = |rng: &mut StdRng, anchors: &[GeoPoint]| {
            let fresh = GeoPoint::new(rng.gen_range(-90.0..=90.0), rng.gen_range(-180.0..=180.0))
                .expect("in range");
            match (anchors.is_empty(), rng.gen_range(0..7)) {
                (false, 0) => anchors[rng.gen_range(0..anchors.len())],
                (false, 1) => antipode(&anchors[rng.gen_range(0..anchors.len())]),
                (false, 2) => {
                    let anchor = anchors[rng.gen_range(0..anchors.len())];
                    zero_twin(rng, &anchor)
                }
                _ => fresh,
            }
        };
        let mut locations: Vec<GeoPoint> = Vec::with_capacity(n);
        for _ in 0..n {
            let p = place(&mut rng, &locations);
            locations.push(p);
        }
        let endpoints = locations
            .iter()
            .enumerate()
            .map(|(i, &location)| synthetic_endpoint(1 + i as u32, location))
            .collect();
        // Relays share an earlier relay's place half the time, or its
        // signed-zero twin; otherwise they are placed like endpoints.
        let mut relay_places: Vec<GeoPoint> = Vec::with_capacity(m);
        for _ in 0..m {
            let p = match (relay_places.is_empty(), rng.gen_range(0..8)) {
                (false, 0..=3) => relay_places[rng.gen_range(0..relay_places.len())],
                (false, 4) => {
                    let anchor = relay_places[rng.gen_range(0..relay_places.len())];
                    zero_twin(&mut rng, &anchor)
                }
                _ => place(&mut rng, &locations),
            };
            relay_places.push(p);
        }
        let relays: Vec<_> = relay_places
            .iter()
            .enumerate()
            .map(|(i, &location)| synthetic_relay(1000 + i as u32, i, location))
            .collect();
        let mut pairs = Vec::new();
        let mut direct = Vec::new();
        let mut boundary = Vec::new();
        for src in 0..n {
            for dst in (src + 1)..n {
                direct.push(match rng.gen_range(0..4) {
                    0 => None,
                    1 if m > 0 => {
                        let ri = rng.gen_range(0..m);
                        boundary.push((pairs.len(), ri as u32));
                        Some(feasibility::min_relay_rtt(
                            &locations[src],
                            &locations[dst],
                            &relays[ri].location,
                        ))
                    }
                    _ => Some(rng.gen_range(0.0..400.0)),
                });
                pairs.push(PlannedPair { src, dst, reverse: rng.gen_bool(0.3) });
            }
        }
        let plan = RoundPlan {
            round: rng.gen_range(0..45),
            t0: SimTime(0.0),
            endpoints,
            pairs,
            relays,
        };
        (plan, direct, boundary)
    }
}

/// The overlay planner as it was before the endpoint × relay grid,
/// kept as the oracle: one scalar `is_feasible` (two haversines) per
/// (pair, relay), links deduplicated and ordered by a `BTreeSet`.
/// Returns the per-pair feasible relay lists and the needed links.
fn plan_overlay_oracle(
    plan: &colo_shortcuts::core::plan::RoundPlan,
    direct: &[Option<f64>],
) -> (Vec<Vec<u32>>, Vec<(usize, u32)>) {
    let mut feasible: Vec<Vec<u32>> = vec![Vec::new(); plan.pairs.len()];
    let mut needed = std::collections::BTreeSet::new();
    for (pair_idx, (pair, d)) in plan.pairs.iter().zip(direct).enumerate() {
        let Some(d) = *d else { continue };
        let si = &plan.endpoints[pair.src].location;
        let sj = &plan.endpoints[pair.dst].location;
        for (ri, relay) in plan.relays.iter().enumerate() {
            if feasibility::is_feasible(si, sj, &relay.location, d) {
                feasible[pair_idx].push(ri as u32);
                needed.insert((pair.src, ri as u32));
                needed.insert((pair.dst, ri as u32));
            }
        }
    }
    (feasible, needed.into_iter().collect())
}

/// `netsim::path::expand_path` as it stood when hand-offs were chosen
/// by haversines on `GeoPoint`s, kept verbatim as the oracle for the
/// `CityId` walk over the distance table (the common-city candidates
/// come from the sorted PoP slices: ascending, as the sorted `Vec`
/// was).
fn expand_path_oracle(
    topo: &colo_shortcuts::topology::Topology,
    as_path: &[colo_shortcuts::topology::Asn],
    src_loc: GeoPoint,
    dst_loc: GeoPoint,
    cfg: &colo_shortcuts::netsim::path::ExpandConfig,
) -> colo_shortcuts::netsim::RouterPath {
    use colo_shortcuts::geo::CityId;
    use colo_shortcuts::netsim::path::Segment;
    fn push_segment(segments: &mut Vec<Segment>, from: GeoPoint, to: GeoPoint) {
        let km = from.distance_km(&to);
        if km > 1e-9 {
            segments.push(Segment { from, to, km });
        }
    }
    assert!(!as_path.is_empty(), "empty AS path");
    let mut segments = Vec::new();
    let mut handoffs = Vec::with_capacity(as_path.len().saturating_sub(1));
    let mut current = src_loc;
    let mut router_hops = cfg.hops_per_as * as_path.len() as u32;

    for w in as_path.windows(2) {
        let (a, b) = (w[0], w[1]);
        let common: Vec<CityId> = topo
            .pop_cities(a)
            .iter()
            .filter(|c| topo.pop_cities(b).contains(c))
            .copied()
            .collect();
        if !common.is_empty() {
            // Handoff in the best common city.
            let best = common
                .iter()
                .map(|&c| topo.cities.get(c).location)
                .min_by(|x, y| {
                    let cx = current.distance_km(x) + cfg.dst_weight * x.distance_km(&dst_loc);
                    let cy = current.distance_km(y) + cfg.dst_weight * y.distance_km(&dst_loc);
                    cx.partial_cmp(&cy).expect("finite costs")
                })
                .expect("non-empty common cities");
            push_segment(&mut segments, current, best);
            current = best;
            handoffs.push(current);
        } else {
            // Long-haul interconnect: best (a_pop, b_pop) pair.
            let a_cities = topo.pop_cities(a);
            let b_cities = topo.pop_cities(b);
            if a_cities.is_empty() || b_cities.is_empty() {
                // Degenerate topology (AS without PoPs): charge direct.
                handoffs.push(current);
                continue;
            }
            let mut best: Option<(GeoPoint, GeoPoint, f64)> = None;
            for &ca in a_cities {
                let pa = topo.cities.get(ca).location;
                let leg1 = current.distance_km(&pa);
                for &cb in b_cities {
                    let pb = topo.cities.get(cb).location;
                    let cost =
                        leg1 + pa.distance_km(&pb) + cfg.dst_weight * pb.distance_km(&dst_loc);
                    if best.is_none_or(|(_, _, c)| cost < c) {
                        best = Some((pa, pb, cost));
                    }
                }
            }
            let (pa, pb, _) = best.expect("non-empty PoP sets");
            push_segment(&mut segments, current, pa);
            push_segment(&mut segments, pa, pb);
            current = pb;
            handoffs.push(current);
            router_hops += cfg.hops_per_longhaul;
        }
    }

    push_segment(&mut segments, current, dst_loc);
    colo_shortcuts::netsim::RouterPath {
        segments,
        router_hops,
        as_path: as_path.to_vec(),
        handoffs,
    }
}

/// One walk to check: an AS path and the cities of its two hosts.
type HandoffWalk = (
    Vec<colo_shortcuts::topology::Asn>,
    colo_shortcuts::geo::CityId,
    colo_shortcuts::geo::CityId,
);

prop_compose! {
    /// A hand-built eight-AS topology whose PoP lists cover the walk's
    /// branches — ASes 1 and 5 have no PoP at all (degenerate), 2 and 6
    /// exactly one city (so most of their links share none: long-haul),
    /// 3 and 7 two to five, 4 and 8 twenty to forty — plus the walks to
    /// check on it: every single-AS path, every ordered two-AS path,
    /// and a dozen random paths of three to six ASes; one walk in four
    /// has `src == dst`. The walk never consults adjacency, so the
    /// topology carries no links.
    fn arb_handoff_case()(
        seed in 0u64..u64::MAX,
        dst_weight in 0.0f64..2.0,
    ) -> (
        colo_shortcuts::topology::Topology,
        colo_shortcuts::netsim::path::ExpandConfig,
        Vec<HandoffWalk>,
    ) {
        use colo_shortcuts::geo::{CityId, CountryCode};
        use colo_shortcuts::netsim::path::ExpandConfig;
        use colo_shortcuts::topology::{AsInfo, AsType, Asn, Topology};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Topology::builder();
        let n_cities = b.cities().len() as u32;
        let asns: Vec<Asn> = (1..=8).map(Asn).collect();
        for (i, &asn) in asns.iter().enumerate() {
            b.add_as(AsInfo {
                asn,
                as_type: AsType::Tier2,
                home_country: CountryCode::new("US").expect("valid"),
                countries: vec![],
                pops: vec![],
                prefixes: vec![],
                user_share: 0.0,
                offers_cloud: false,
            });
            let pops = match i % 4 {
                0 => 0,
                1 => 1,
                2 => rng.gen_range(2..=5),
                _ => rng.gen_range(20..=40),
            };
            // Repeats are allowed: the PoP list dedupes them.
            for _ in 0..pops {
                b.add_pop(asn, CityId(rng.gen_range(0..n_cities)));
            }
        }
        let topo = b.build();

        let mut paths: Vec<Vec<Asn>> = asns.iter().map(|&a| vec![a]).collect();
        for &a in &asns {
            paths.extend(asns.iter().filter(|&&b| b != a).map(|&b| vec![a, b]));
        }
        for _ in 0..12 {
            let len = rng.gen_range(3..=6);
            paths.push((0..len).map(|_| asns[rng.gen_range(0..asns.len())]).collect());
        }
        let walks = paths
            .into_iter()
            .map(|path| {
                let src = CityId(rng.gen_range(0..n_cities));
                let dst = if rng.gen_range(0..4) == 0 {
                    src
                } else {
                    CityId(rng.gen_range(0..n_cities))
                };
                (path, src, dst)
            })
            .collect();
        let cfg = ExpandConfig { dst_weight, ..ExpandConfig::default() };
        (topo, cfg, walks)
    }
}

/// Host-pair resolution as `PingEngine::expand_same_as` /
/// `expand_cross_as` did it when the pair cache was keyed by host
/// pair, kept verbatim as the oracle for the site-keyed resolver: two
/// routes from the router, two `path_cost` walks,
/// `base + (s.access_ms + d.access_ms)`, `mid_longitude`. Returns the
/// forward AS path, base RTT and midpoint longitude; `None` =
/// unroutable.
fn host_pair_oracle(
    topo: &colo_shortcuts::topology::Topology,
    router: &colo_shortcuts::topology::routing::Router,
    model: &colo_shortcuts::netsim::LatencyModel,
    s: &colo_shortcuts::netsim::Host,
    d: &colo_shortcuts::netsim::Host,
) -> Option<(Vec<colo_shortcuts::topology::Asn>, f64, f64)> {
    use colo_shortcuts::netsim::path::path_cost;
    fn mid_longitude(a: f64, b: f64) -> f64 {
        let diff = (b - a + 540.0).rem_euclid(360.0) - 180.0;
        let mid = a + diff / 2.0;
        (mid + 540.0).rem_euclid(360.0) - 180.0
    }
    let access = s.access_ms + d.access_ms;
    let mid_lon = mid_longitude(s.location.lon(), d.location.lon());
    if s.asn == d.asn {
        let path = path_cost(topo, &[s.asn], s.city, d.city, &model.expand);
        return Some((vec![s.asn], model.base_rtt_ms(path) + access, mid_lon));
    }
    let fwd_as = router.as_path_between(s.node, d.node);
    let rev_as = router.as_path_between(d.node, s.node);
    match (fwd_as, rev_as) {
        (Some(fwd_as), Some(rev_as)) => {
            let fwd = path_cost(topo, &fwd_as, s.city, d.city, &model.expand);
            let rev = path_cost(topo, &rev_as, d.city, s.city, &model.expand);
            let base_ms = model.base_rtt_two_way(fwd, rev) + access;
            Some((fwd_as, base_ms, mid_lon))
        }
        _ => None,
    }
}

/// Ported from `netsim::ping`'s unit tests when the pair cache went
/// from host-pair to site-pair keys (the oracle lives here): on the
/// generated small topology, two hosts with distinct access delays in
/// each of eight ASes, every ordered host pair listed twice. Rows and
/// scalar lookups must equal the host-pair oracle bit for bit, and the
/// cache telemetry must count *site* pairs, exactly.
#[test]
fn resolve_pairs_matches_scalar_resolution() {
    use colo_shortcuts::netsim::{HostId, HostKind, HostRegistry, LatencyModel, PingEngine};
    use colo_shortcuts::topology::routing::Router;
    use colo_shortcuts::topology::{Topology, TopologyConfig};
    use std::sync::Arc;

    let topo = Arc::new(Topology::generate(&TopologyConfig::small(), 77));
    let mut reg = HostRegistry::new();
    let eyes = topo.eyeball_asns();
    let mut hosts: Vec<HostId> = Vec::new();
    for &asn in eyes.iter().step_by(eyes.len() / 8).take(8) {
        for _ in 0..2 {
            let access_ms = 1.0 + hosts.len() as f64 * 0.37;
            let host = reg.add_host_with_access(&topo, asn, None, HostKind::Probe, access_ms);
            hosts.push(host.expect("eyeball AS has a PoP"));
        }
    }
    let reg = Arc::new(reg);
    assert_eq!(reg.site_count(), 8, "two hosts per site");
    let model = LatencyModel::default();
    let engine = || {
        let router = Arc::new(Router::new(Arc::clone(&topo)));
        PingEngine::new(Arc::clone(&topo), router, Arc::clone(&reg), model.clone())
    };
    let (batched, scalar) = (engine(), engine());
    let oracle_router = Router::new(Arc::clone(&topo));

    // Every ordered pair, each listed twice: the resolver must dedupe
    // and still answer for both occurrences.
    let mut pairs = Vec::new();
    for &s in &hosts {
        for &d in &hosts {
            if s != d {
                pairs.push((s, d));
                pairs.push((s, d));
            }
        }
    }
    let unique = (pairs.len() / 2) as u64; // 16 · 15 host pairs …
    let site_pairs = 8 * 8; // … on 64 site pairs, `(X, X)` included
    let block = batched.resolve_pairs(&pairs);
    assert_eq!(block.len() as u64, unique);
    let mut routable = 0;
    for &(src, dst) in &pairs {
        let want = host_pair_oracle(&topo, &oracle_router, &model, reg.get(src), reg.get(dst));
        let slot = block.slot(src, dst).expect("batched pair must have a row");
        let row = block.resolved(slot);
        assert_eq!(row.is_some(), block.is_routable(slot));
        assert_eq!(
            row.map(|(path, base, mid)| (path.to_vec(), base.to_bits(), mid.to_bits())),
            want.as_ref()
                .map(|(path, base, mid)| (path.clone(), base.to_bits(), mid.to_bits())),
            "row of {src:?}->{dst:?} must match the oracle"
        );
        assert_eq!(
            scalar.base_rtt(src, dst).map(f64::to_bits),
            want.as_ref().map(|w| w.1.to_bits()),
            "scalar base RTT of {src:?}->{dst:?} must match the oracle"
        );
        assert_eq!(
            scalar.as_path(src, dst).map(|p| p.to_vec()),
            want.map(|w| w.0)
        );
        routable += u64::from(row.is_some());
    }
    assert!(routable > unique, "fixture should route most pairs");

    // One miss per distinct site pair, batch-counted; nothing hit.
    let stats = batched.engine_stats();
    assert_eq!(stats.pair_cache_misses, site_pairs, "{stats:?}");
    assert_eq!(stats.pair_cache_hits, 0, "{stats:?}");
    assert_eq!(stats.pair_cache_entries, site_pairs, "{stats:?}");
    assert_eq!(stats.pair_rows, unique, "{stats:?}");
    // A warm re-resolve is pure hits, again one per distinct site pair.
    let again = batched.resolve_pairs(&pairs);
    assert_eq!(again.len() as u64, unique);
    let stats = batched.engine_stats();
    assert_eq!(stats.pair_cache_hits, site_pairs, "{stats:?}");
    assert_eq!(stats.pair_cache_misses, site_pairs, "{stats:?}");
    assert_eq!(stats.pair_rows, 2 * unique, "{stats:?}");
    // The scalar engine saw two lookups per listed pair: the first on
    // each site pair missed, every other one — either host of a site,
    // either accessor — hit.
    let stats = scalar.engine_stats();
    assert_eq!(stats.pair_cache_misses, site_pairs, "{stats:?}");
    assert_eq!(stats.pair_cache_hits, 4 * unique - site_pairs, "{stats:?}");
    assert_eq!(stats.pair_rows, 4 * unique, "{stats:?}");
    assert_eq!(stats.pair_cache_entries, site_pairs, "{stats:?}");
}

/// A hand-built world for the site resolver: the topology, its hosts,
/// a batch of host pairs and one link to take down.
struct SiteCase {
    topo: std::sync::Arc<colo_shortcuts::topology::Topology>,
    hosts: std::sync::Arc<colo_shortcuts::netsim::HostRegistry>,
    pairs: Vec<(
        colo_shortcuts::netsim::HostId,
        colo_shortcuts::netsim::HostId,
    )>,
    down: colo_shortcuts::topology::TopologyDelta,
}

impl std::fmt::Debug for SiteCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SiteCase {{ {} hosts, pairs {:?}, {:?} }}",
            self.hosts.len(),
            self.pairs,
            self.down
        )
    }
}

prop_compose! {
    /// Ten ASes — two peered tier-1s, three tier-2s (one multihomed,
    /// two of them peering or not), four eyeballs (one multihomed) and
    /// one AS with no link at all, unroutable from everywhere — each
    /// with two to four PoP cities. One or two cities per AS are
    /// *sites* carrying one to six hosts, every host with its own
    /// `access_ms`. The batch mixes random pairs (duplicates included)
    /// with, for every site, its first host against its last and
    /// against the first host of the AS's other site, each with its
    /// mirror. The delta downs one existing link.
    fn arb_site_case()(seed in 0u64..u64::MAX) -> SiteCase {
        use colo_shortcuts::geo::{CityId, CountryCode};
        use colo_shortcuts::netsim::{HostId, HostKind, HostRegistry};
        use colo_shortcuts::topology::{AsInfo, AsType, Asn, Topology, TopologyDelta};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut alloc = IpAllocator::default();
        let mut b = Topology::builder();
        let n_cities = b.cities().len() as u32;
        let mut pop_cities: Vec<Vec<CityId>> = Vec::new();
        for asn in 1..=10u32 {
            b.add_as(AsInfo {
                asn: Asn(asn),
                as_type: match asn { 1 | 2 => AsType::Tier1, 3..=5 => AsType::Tier2, _ => AsType::Eyeball },
                home_country: CountryCode::new("US").expect("valid"),
                countries: vec![],
                pops: vec![],
                prefixes: vec![alloc.alloc_prefix()],
                user_share: 0.0,
                offers_cloud: false,
            });
            let mut cities = Vec::new();
            while cities.len() < rng.gen_range(2..=4) {
                let c = CityId(rng.gen_range(0..n_cities));
                if !cities.contains(&c) {
                    b.add_pop(Asn(asn), c);
                    cities.push(c);
                }
            }
            pop_cities.push(cities);
        }
        b.add_peering(Asn(1), Asn(2));
        let mut links = vec![(3, 1), (4, 1), (4, 2), (5, 2), (6, 3), (7, 4), (8, 5), (9, 3), (9, 5)];
        for &(customer, provider) in &links {
            b.add_transit(Asn(customer), Asn(provider));
        }
        if rng.gen_bool(0.5) {
            b.add_peering(Asn(3), Asn(4));
            links.push((3, 4));
        }
        let topo = b.build();

        let mut hosts = HostRegistry::new();
        let mut sites: Vec<Vec<HostId>> = Vec::new();
        for (i, cities) in pop_cities.iter().enumerate() {
            for &city in cities.iter().take(rng.gen_range(1..=2)) {
                let site = (0..rng.gen_range(1..=6)).map(|_| {
                    // Distinct by construction: the host index is in it.
                    let access_ms = hosts.len() as f64 * 0.37 + rng.gen_range(0.01..0.3);
                    hosts
                        .add_host_with_access(&topo, Asn(i as u32 + 1), Some(city), HostKind::Probe, access_ms)
                        .expect("host on a PoP city")
                });
                sites.push(site.collect());
            }
        }
        let n = hosts.len() as u32;
        let mut pairs: Vec<(HostId, HostId)> = (0..rng.gen_range(10..60))
            .map(|_| (HostId(rng.gen_range(0..n)), HostId(rng.gen_range(0..n))))
            .filter(|(a, b)| a != b)
            .collect();
        for (k, site) in sites.iter().enumerate() {
            let first = site[0];
            let mut others = vec![*site.last().expect("non-empty site")];
            others.extend(sites.get(k + 1).map(|next| next[0]));
            for other in others.into_iter().filter(|&o| o != first) {
                pairs.push((first, other));
                pairs.push((other, first));
            }
        }
        let (a, b) = links[rng.gen_range(0..links.len())];
        SiteCase {
            topo: std::sync::Arc::new(topo),
            hosts: std::sync::Arc::new(hosts),
            pairs,
            down: TopologyDelta::LinkDown { a: Asn(a), b: Asn(b) },
        }
    }
}

fn empty_pool() -> colo_shortcuts::core::colo::ColoPool {
    colo_shortcuts::core::colo::ColoPool {
        relays: Vec::new(),
        funnel: colo_shortcuts::core::colo::FilterFunnel {
            initial: 0,
            single_facility: 0,
            pingable: 0,
            ownership: 0,
            presence: 0,
            geolocated: 0,
        },
    }
}

/// `report::cases_csv` as it was before it wrote rows in place: one
/// `String` per field, every field through `field()`, joined per row.
/// Kept verbatim as the byte-for-byte reference.
fn cases_csv_oracle(results: &colo_shortcuts::core::workflow::CampaignResults) -> String {
    use colo_shortcuts::core::relays::RelayType;

    fn field(s: &str) -> String {
        if s.contains([',', '"', '\n']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }

    fn row<I: IntoIterator<Item = String>>(fields: I) -> String {
        fields
            .into_iter()
            .map(|f| field(&f))
            .collect::<Vec<_>>()
            .join(",")
    }

    let mut out = String::from(
        "round,src_host,dst_host,src_country,dst_country,intercontinental,direct_ms,\
         best_cor_ms,best_plr_ms,best_rar_other_ms,best_rar_eye_ms\n",
    );
    for c in &results.cases {
        let best = |t: RelayType| {
            c.outcome(t)
                .best()
                .map(|(_, rtt)| format!("{rtt:.3}"))
                .unwrap_or_default()
        };
        out.push_str(&row([
            c.round.to_string(),
            c.src.0.to_string(),
            c.dst.0.to_string(),
            c.src_country.to_string(),
            c.dst_country.to_string(),
            c.intercontinental.to_string(),
            format!("{:.3}", c.direct_ms),
            best(RelayType::Cor),
            best(RelayType::Plr),
            best(RelayType::RarOther),
            best(RelayType::RarEye),
        ]));
        out.push('\n');
    }
    out
}

/// An ordered host pair and one median, as the stitch layer records it.
type HistoryEntry = (
    (
        colo_shortcuts::netsim::HostId,
        colo_shortcuts::netsim::HostId,
    ),
    f64,
);

/// `ResultsBuilder::finish`'s history fold as it was before pair
/// histories were kept as measured: every buffered round's entries
/// re-keyed into one `HashMap`, rounds in ascending order. Kept
/// verbatim as the reference `PairHistory` must reproduce.
fn history_oracle(
    partials: &std::collections::BTreeMap<u32, Vec<HistoryEntry>>,
) -> std::collections::HashMap<
    (
        colo_shortcuts::netsim::HostId,
        colo_shortcuts::netsim::HostId,
    ),
    Vec<f64>,
> {
    use colo_shortcuts::netsim::HostId;
    use std::collections::HashMap;

    let total = |f: fn(&Vec<HistoryEntry>) -> usize| partials.values().map(f).sum::<usize>();
    let mut direct_history: HashMap<(HostId, HostId), Vec<f64>> =
        HashMap::with_capacity(total(|p| p.len()));
    for entries in partials.values() {
        for &(key, m) in entries {
            direct_history.entry(key).or_default().push(m);
        }
    }
    direct_history
}

/// `TopRelayAnalysis::compute` as it was before the fast map and the
/// case bitset: a SipHash `HashMap` of per-relay case lists and a
/// `HashSet` of covered cases. Kept verbatim as the reference.
fn top_relays_oracle(
    results: &colo_shortcuts::core::workflow::CampaignResults,
    rtype: colo_shortcuts::core::relays::RelayType,
    max_k: usize,
) -> colo_shortcuts::core::analysis::top_relays::TopRelayAnalysis {
    use colo_shortcuts::core::analysis::top_relays::TopRelayAnalysis;
    use colo_shortcuts::netsim::HostId;
    use std::collections::{HashMap, HashSet};

    let total = results.total_cases().max(1);

    // Per relay: the set of case indexes it improved.
    let mut improved_cases: HashMap<HostId, Vec<u32>> = HashMap::new();
    for (case_idx, c) in results.cases.iter().enumerate() {
        for &(host, _) in c.improving(rtype) {
            improved_cases
                .entry(host)
                .or_default()
                .push(case_idx as u32);
        }
    }

    let mut ranked: Vec<(HostId, usize)> =
        improved_cases.iter().map(|(&h, v)| (h, v.len())).collect();
    // Frequency desc, host id asc for determinism.
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut coverage = Vec::with_capacity(max_k.min(ranked.len()));
    let mut covered: HashSet<u32> = HashSet::new();
    for (host, _) in ranked.iter().take(max_k) {
        covered.extend(improved_cases[host].iter().copied());
        coverage.push(covered.len() as f64 / total as f64);
    }

    TopRelayAnalysis {
        rtype,
        ranked,
        coverage,
        total_cases: total,
    }
}

/// `ThresholdCurve::compute` as it was before the fast set: the
/// top-k hosts in a SipHash `HashSet`, ranked by
/// [`top_relays_oracle`]. Otherwise kept verbatim as the reference.
fn threshold_oracle(
    results: &colo_shortcuts::core::workflow::CampaignResults,
    rtype: colo_shortcuts::core::relays::RelayType,
    top_k: Option<usize>,
    xs: &[f64],
) -> colo_shortcuts::core::analysis::threshold::ThresholdCurve {
    use colo_shortcuts::core::analysis::threshold::ThresholdCurve;
    use colo_shortcuts::netsim::HostId;
    use std::collections::HashSet;

    let total = results.total_cases().max(1);
    let allowed: Option<HashSet<HostId>> = top_k.map(|k| {
        top_relays_oracle(results, rtype, k)
            .top_hosts(k)
            .into_iter()
            .collect()
    });

    // Best improvement per case within the allowed subset.
    let mut best_improvements = Vec::new();
    for c in &results.cases {
        let best = c
            .improving(rtype)
            .iter()
            .filter(|(h, _)| allowed.as_ref().is_none_or(|a| a.contains(h)))
            .map(|&(_, imp)| f64::from(imp))
            .fold(f64::NEG_INFINITY, f64::max);
        if best.is_finite() {
            best_improvements.push(best);
        }
    }

    let points = xs
        .iter()
        .map(|&x| {
            let n = best_improvements.iter().filter(|&&i| i > x).count();
            (x, n as f64 / total as f64)
        })
        .collect();

    ThresholdCurve {
        rtype,
        top_k,
        points,
    }
}

/// One hand-built round for the history proptest: its plan, overlay,
/// direct medians and link medians.
type HistoryRound = (
    colo_shortcuts::core::plan::RoundPlan,
    colo_shortcuts::core::plan::OverlayPlan,
    Vec<Option<f64>>,
    Vec<Option<f64>>,
);

prop_compose! {
    /// Rounds whose pairs and links revisit a handful of hosts — the
    /// same key several times inside a round, in both orientations, and
    /// across rounds — with arbitrary failures, plus a random order to
    /// absorb them in.
    fn arb_history_case()(
        rounds in 1u32..8,
        seed in 0u64..u64::MAX,
    ) -> (Vec<HistoryRound>, Vec<u32>) {
        use colo_shortcuts::core::plan::{OverlayPlan, PlannedPair, RoundPlan};
        use colo_shortcuts::netsim::clock::SimTime;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let at = GeoPoint::new(0.0, 0.0).expect("in range");
        let median = |rng: &mut StdRng| rng.gen_bool(0.8).then(|| rng.gen_range(1.0..300.0));
        let plans = (0..rounds)
            .map(|round| {
                let n = rng.gen_range(2usize..5);
                let m = rng.gen_range(0usize..3);
                let endpoints = (0..n)
                    .map(|_| synthetic_endpoint(rng.gen_range(1..4), at))
                    .collect();
                let pairs: Vec<PlannedPair> = (0..rng.gen_range(0usize..40))
                    .map(|_| PlannedPair {
                        src: rng.gen_range(0..n),
                        dst: rng.gen_range(0..n),
                        reverse: false,
                    })
                    .collect();
                let relays = (0..m)
                    .map(|i| synthetic_relay(rng.gen_range(2..6), i, at))
                    .collect();
                let needed: Vec<(usize, u32)> = if m == 0 {
                    Vec::new()
                } else {
                    (0..rng.gen_range(0usize..40))
                        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..m as u32)))
                        .collect()
                };
                let direct = pairs.iter().map(|_| median(&mut rng)).collect();
                let links = needed.iter().map(|_| median(&mut rng)).collect();
                let overlay = OverlayPlan::from_rows(m, &vec![Vec::new(); pairs.len()], needed);
                let plan = RoundPlan { round, t0: SimTime(0.0), endpoints, pairs, relays };
                (plan, overlay, direct, links)
            })
            .collect();
        let mut order: Vec<u32> = (0..rounds).collect();
        order.shuffle(&mut rng);
        (plans, order)
    }
}

prop_compose! {
    /// Random case records that lean on the formatter's edges: absent
    /// bests, signed zeros, subnormals, 1e12, RTTs that round up across
    /// a digit boundary at three decimals, and `u32::MAX` ids.
    fn arb_case_records()(
        n in 0usize..40,
        seed in 0u64..u64::MAX,
    ) -> Vec<colo_shortcuts::core::workflow::CaseRecord> {
        use colo_shortcuts::core::workflow::{CaseRecord, TypeOutcome};
        use colo_shortcuts::geo::CountryCode;
        use colo_shortcuts::netsim::HostId;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const EDGES: [f64; 14] = [
            0.0, -0.0, 5e-324, 1e-310, 1e12, 0.0004999, 0.0005, 0.9995, 9.9995, 99.9995,
            999.9994999, 999.9995, 123.4565, 2.5e-4,
        ];
        const COUNTRIES: [&str; 5] = ["DE", "fr", "US", "jp", "BR"];
        let mut rng = StdRng::seed_from_u64(seed);
        let rtt = |rng: &mut StdRng| match rng.gen_range(0..3) {
            0 => EDGES[rng.gen_range(0..EDGES.len())],
            1 => rng.gen_range(0.0..1000.0),
            // A value a hair either side of a rounding tie.
            _ => rng.gen_range(0u32..1_000_000) as f64 / 1e3 + 0.0005 + rng.gen_range(-1e-9..1e-9),
        };
        let id = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => u32::MAX,
            1 => 0,
            _ => rng.gen_range(0..u32::MAX),
        };
        (0..n)
            .map(|_| {
                let mut outcomes: [TypeOutcome; 4] = Default::default();
                for outcome in &mut outcomes {
                    if rng.gen_bool(0.6) {
                        let best = (HostId(id(&mut rng)), rtt(&mut rng));
                        *outcome = TypeOutcome::new(Some(best), 0, 0);
                    }
                }
                CaseRecord {
                    round: id(&mut rng),
                    src: HostId(id(&mut rng)),
                    dst: HostId(id(&mut rng)),
                    src_country: CountryCode::new(COUNTRIES[rng.gen_range(0..5)]).expect("valid"),
                    dst_country: CountryCode::new(COUNTRIES[rng.gen_range(0..5)]).expect("valid"),
                    intercontinental: rng.gen_bool(0.5),
                    direct_ms: rtt(&mut rng),
                    outcomes,
                    improving_start: 0,
                }
            })
            .collect()
    }
}

prop_compose! {
    /// Up to 200 cases (so case bitsets span several words) whose
    /// `improving` lists draw from a small host pool: relays tie on
    /// frequency, a list may name a host twice, some types are empty
    /// in every case, and improvements land on the Fig. 4 thresholds.
    /// The second element is the top-relay curve's cut.
    fn arb_improving_results()(
        n in 0usize..200,
        cut in 0usize..9,
        seed in 0u64..u64::MAX,
    ) -> (colo_shortcuts::core::workflow::CampaignResults, usize) {
        use colo_shortcuts::core::workflow::{CaseRecord, Cases, TypeOutcome};
        use colo_shortcuts::geo::CountryCode;
        use colo_shortcuts::netsim::HostId;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let pool = rng.gen_range(1u32..16);
        let live: [bool; 4] = std::array::from_fn(|_| rng.gen_bool(0.8));
        let cc = CountryCode::new("DE").expect("valid");
        // Twenty cases a round, each round with its own arena.
        let mut cases = Cases::default();
        let (mut round_cases, mut arena) = (Vec::new(), Vec::new());
        for i in 0..n {
            let improving_start = arena.len() as u32;
            let outcomes: [TypeOutcome; 4] = std::array::from_fn(|t| {
                let k = if live[t] { rng.gen_range(0usize..6) } else { 0 };
                for _ in 0..k {
                    let imp = if rng.gen_bool(0.2) {
                        5.0 * rng.gen_range(0u32..21) as f32
                    } else {
                        rng.gen_range(0.0f32..120.0)
                    };
                    arena.push((HostId(100 + rng.gen_range(0..pool)), imp));
                }
                TypeOutcome::new(None, 0, k as u32)
            });
            round_cases.push(CaseRecord {
                round: i as u32 / 20,
                src: HostId(1),
                dst: HostId(2),
                src_country: cc,
                dst_country: cc,
                intercontinental: false,
                direct_ms: 200.0,
                outcomes,
                improving_start,
            });
            if i % 20 == 19 || i + 1 == n {
                cases.push_round(std::mem::take(&mut round_cases), std::mem::take(&mut arena));
            }
        }
        let results = colo_shortcuts::core::workflow::CampaignResults {
            cases,
            direct_history: Default::default(),
            link_history: Default::default(),
            symmetry_samples: Vec::new(),
            relay_meta: Default::default(),
            colo_pool: empty_pool(),
            pings_sent: 0,
            unresponsive_pairs: 0,
            avg_endpoints: 0.0,
            avg_relays: [0.0; 4],
        };
        (results, [0, 1, 2, 3, 9, 10, 11, 16, 200][cut])
    }
}

proptest! {
    // ---- geometry ------------------------------------------------------

    #[test]
    fn distance_is_symmetric_nonnegative_bounded(a in arb_point(), b in arb_point()) {
        let d1 = a.distance_km(&b);
        let d2 = b.distance_km(&a);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() < 1e-6);
        // Half the circumference is the max great-circle distance.
        prop_assert!(d1 <= 20_038.0);
    }

    #[test]
    fn triangle_inequality_holds(a in arb_point(), b in arb_point(), c in arb_point()) {
        let direct = a.distance_km(&b);
        let detour = a.distance_km(&c) + c.distance_km(&b);
        prop_assert!(detour + 1e-6 >= direct);
    }

    #[test]
    fn detour_factor_at_least_one(a in arb_point(), b in arb_point(), via in arb_point()) {
        prop_assume!(a.distance_km(&b) > 1.0);
        prop_assert!(a.detour_factor(&b, &via) >= 1.0);
    }

    #[test]
    fn propagation_delay_is_linear(km in 0.0f64..30_000.0) {
        let one = light::propagation_delay_ms(km);
        let two = light::propagation_delay_ms(2.0 * km);
        prop_assert!((two - 2.0 * one).abs() < 1e-9);
        prop_assert!((light::min_rtt_ms(km) - 2.0 * one).abs() < 1e-9);
    }

    // ---- feasibility (§2.4) ---------------------------------------------

    #[test]
    fn feasibility_is_monotone_in_direct_rtt(
        a in arb_point(), b in arb_point(), r in arb_point(),
        rtt in 0.0f64..1000.0, extra in 0.0f64..500.0,
    ) {
        // If a relay is feasible at some direct RTT it stays feasible at
        // any larger direct RTT.
        if feasibility::is_feasible(&a, &b, &r, rtt) {
            prop_assert!(feasibility::is_feasible(&a, &b, &r, rtt + extra));
        }
    }

    #[test]
    fn relay_on_endpoint_is_feasible_when_direct_is_honest(
        a in arb_point(), b in arb_point(),
    ) {
        // A relay exactly at an endpoint has the same light floor as the
        // direct path, so any direct RTT at/above the floor admits it.
        let floor = light::min_rtt_ms(a.distance_km(&b));
        prop_assert!(feasibility::is_feasible(&a, &b, &a, floor + 1e-6));
    }

    // ---- medians and stats -----------------------------------------------

    #[test]
    fn median_is_bounded_by_extremes(mut v in prop::collection::vec(0.0f64..1e6, 1..40)) {
        let m = median(&v).expect("non-empty");
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        prop_assert!(m >= v[0] && m <= v[v.len() - 1]);
    }

    #[test]
    fn median_resists_single_outlier(base in 1.0f64..100.0, spike in 1000.0f64..1e6) {
        // Five well-behaved samples plus one spike: median stays close.
        let v = vec![base, base + 0.1, base + 0.2, base - 0.1, base - 0.2, spike];
        let m = median(&v).expect("non-empty");
        prop_assert!(m < base + 1.0);
    }

    #[test]
    fn median_matches_sorting_reference(v in prop::collection::vec(0.0f64..1e6, 1..40)) {
        // The O(n) selection median must agree bit-for-bit with the
        // straightforward sort-based definition, on both the stack-
        // buffer (n ≤ 16) and heap paths.
        let selected = median(&v).expect("non-empty");
        let mut sorted = v.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len();
        let reference = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        prop_assert_eq!(selected.to_bits(), reference.to_bits());
    }

    // ---- stitching (§2.5 step 4) ----------------------------------------

    #[test]
    fn stitched_rtt_equals_sum_of_leg_medians(
        leg1 in prop::collection::vec(0.1f64..500.0, 3..10),
        leg2 in prop::collection::vec(0.1f64..500.0, 3..10),
    ) {
        // A relayed path's RTT is exactly the sum of its two legs'
        // window medians — no averaging, no re-measurement.
        let m1 = median(&leg1).expect("non-empty");
        let m2 = median(&leg2).expect("non-empty");
        prop_assert_eq!(stitch(m1, m2).to_bits(), (m1 + m2).to_bits());
        prop_assert_eq!(
            stitch_legs(Some(m1), Some(m2)).expect("both legs").to_bits(),
            (m1 + m2).to_bits()
        );
        // A path with a missing leg has no RTT at all.
        prop_assert!(stitch_legs(Some(m1), None).is_none());
        prop_assert!(stitch_legs(None, Some(m2)).is_none());
    }

    #[test]
    fn stitch_layer_best_is_min_leg_sum(
        a in 1.0f64..300.0, b in 1.0f64..300.0,
        c in 1.0f64..300.0, e in 1.0f64..300.0,
        d in 1.0f64..600.0,
    ) {
        // Two relays of the same type, all four legs measured: the
        // stitched best must be exactly the smaller leg sum, and the
        // improving list exactly the sums below the direct median.
        use colo_shortcuts::core::plan::{OverlayPlan, PlannedEndpoint, PlannedPair, RoundPlan};
        use colo_shortcuts::core::relays::{Relay, RelayType};
        use colo_shortcuts::core::stitch::ResultsBuilder;
        use colo_shortcuts::core::colo::{ColoPool, FilterFunnel};
        use colo_shortcuts::geo::{CityId, Continent, CountryCode, GeoPoint};
        use colo_shortcuts::netsim::clock::SimTime;
        use colo_shortcuts::netsim::HostId;
        use colo_shortcuts::topology::Asn;

        let endpoint = |id: u32, cc: &str| PlannedEndpoint {
            host: HostId(id),
            country: CountryCode::new(cc).expect("valid"),
            city: CityId(0),
            continent: Continent::Europe,
            location: GeoPoint::new(0.0, f64::from(id)).expect("valid"),
        };
        let relay = |id: u32| Relay {
            host: HostId(id),
            asn: Asn(id),
            city: CityId(0),
            location: GeoPoint::new(1.0, f64::from(id)).expect("valid"),
            country: CountryCode::new("DE").expect("valid"),
            rtype: RelayType::Cor,
            facility: None,
        };
        let plan = RoundPlan {
            round: 0,
            t0: SimTime(0.0),
            endpoints: vec![endpoint(1, "US"), endpoint(2, "DE")],
            pairs: vec![PlannedPair { src: 0, dst: 1, reverse: false }],
            relays: vec![relay(10), relay(11)],
        };
        let overlay =
            OverlayPlan::from_rows(2, &[vec![0, 1]], vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mut builder = ResultsBuilder::new();
        builder.absorb_round(
            &plan,
            &overlay,
            &[Some(d)],
            &[],
            &[Some(a), Some(c), Some(b), Some(e)],
        );
        let results = builder.finish(
            ColoPool {
                relays: Vec::new(),
                funnel: FilterFunnel {
                    initial: 0,
                    single_facility: 0,
                    pingable: 0,
                    ownership: 0,
                    presence: 0,
                    geolocated: 0,
                },
            },
            0,
        );
        let case = results.cases.iter().next().expect("one case");
        let out = case.outcome(RelayType::Cor);
        let (sum0, sum1) = (a + b, c + e);
        let want_best = sum0.min(sum1);
        let (_, got_best) = out.best().expect("both relays measured");
        prop_assert_eq!(got_best.to_bits(), want_best.to_bits());
        prop_assert_eq!(out.feasible, 2);
        let want_improving =
            usize::from(sum0 < d) + usize::from(sum1 < d);
        prop_assert_eq!(out.n_improving as usize, want_improving);
        prop_assert_eq!(case.improving(RelayType::Cor).len(), want_improving);
        for &(_, imp) in case.improving(RelayType::Cor) {
            prop_assert!(imp > 0.0);
        }
    }

    // ---- plan/stitch alignment (§2.5 plumbing) ---------------------------

    #[test]
    fn reverse_tasks_are_the_successful_forward_subsequence(
        case in arb_alignment_case(),
    ) {
        // The reverse schedule must be exactly the reverse-flagged
        // pairs whose forward window produced a median, in pair order,
        // with the direction swapped — never more, never fewer, never
        // reordered.
        use colo_shortcuts::core::backend::TaskKind;
        let (plan, direct) = case;
        let tasks = plan.reverse_tasks(&direct);
        let expected: Vec<_> = plan
            .pairs
            .iter()
            .zip(&direct)
            .filter(|(p, d)| p.reverse && d.is_some())
            .map(|(p, _)| (plan.endpoints[p.dst].host, plan.endpoints[p.src].host))
            .collect();
        prop_assert_eq!(tasks.len(), expected.len());
        for (t, &(src, dst)) in tasks.iter().zip(&expected) {
            prop_assert_eq!(t.src, src);
            prop_assert_eq!(t.dst, dst);
            prop_assert!(t.kind == TaskKind::Reverse);
            prop_assert_eq!(t.round, plan.round);
        }
    }

    #[test]
    fn links_stay_position_aligned_with_needed(
        case in arb_alignment_case(),
        link_seed in 0u64..u64::MAX,
    ) {
        // Under an arbitrary pattern of direct and overlay-link
        // failures, every measured link must land in the stitched
        // output under the host pair its `needed` position names, and
        // a relay must count as feasible-and-measured iff both of its
        // legs produced medians.
        use colo_shortcuts::core::plan::plan_overlay;
        use colo_shortcuts::core::stitch::ResultsBuilder;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        let (plan, direct) = case;
        let overlay = plan_overlay(&plan, &direct);
        let tasks = overlay.link_tasks(&plan);
        prop_assert_eq!(tasks.len(), overlay.needed.len());
        for (t, &(ei, ri)) in tasks.iter().zip(&overlay.needed) {
            prop_assert_eq!(t.src, plan.endpoints[ei].host);
            prop_assert_eq!(t.dst, plan.relays[ri as usize].host);
        }

        // Arbitrary link failures, position-aligned with `needed`.
        let mut rng = StdRng::seed_from_u64(link_seed);
        let links: Vec<Option<f64>> = overlay
            .needed
            .iter()
            .map(|_| rng.gen_bool(0.7).then(|| rng.gen_range(1.0..300.0)))
            .collect();
        let reverse = vec![None; plan.reverse_tasks(&direct).len()];
        let mut builder = ResultsBuilder::new();
        builder.absorb_round(&plan, &overlay, &direct, &reverse, &links);
        let results = builder.finish(empty_pool(), 0);

        // Every measured link is in the history under its own key —
        // and nothing else is.
        let measured = links.iter().filter(|l| l.is_some()).count();
        let total: usize = results.link_history.values().map(<[f64]>::len).sum();
        prop_assert_eq!(total, measured);
        let mut link_val: HashMap<(usize, u32), f64> = HashMap::new();
        for (&(ei, ri), l) in overlay.needed.iter().zip(&links) {
            let Some(v) = *l else { continue };
            link_val.insert((ei, ri), v);
            let (a, b) = (plan.endpoints[ei].host, plan.relays[ri as usize].host);
            let key = if a <= b { (a, b) } else { (b, a) };
            let history = &results.link_history[&key];
            prop_assert!(history.iter().any(|x| x.to_bits() == v.to_bits()));
        }

        // Feasible-and-measured counts per case and type must match a
        // recomputation from the aligned link pattern.
        let mut cases = results.cases.iter();
        for (pair_idx, (pair, d)) in plan.pairs.iter().zip(&direct).enumerate() {
            if d.is_none() {
                continue;
            }
            let case = cases.next().expect("one case per responsive pair");
            let mut want = [0u32; 4];
            for ri in overlay.feasible(pair_idx) {
                if link_val.contains_key(&(pair.src, ri))
                    && link_val.contains_key(&(pair.dst, ri))
                {
                    want[plan.relays[ri as usize].rtype.index()] += 1;
                }
            }
            for (t, &w) in want.iter().enumerate() {
                prop_assert_eq!(case.outcomes[t].feasible, w);
            }
        }
        prop_assert!(cases.next().is_none());
    }

    // ---- grid planner == scalar double loop (§2.4 on the dense grid) -----

    #[test]
    fn grid_planner_matches_the_scalar_double_loop(case in arb_grid_case()) {
        // Feasible rows and the needed-link list must equal the old
        // per-(pair, relay) `is_feasible` loop exactly — same members,
        // same ascending order — including on the `<=` boundary.
        use colo_shortcuts::core::plan::{plan_overlay, OverlayPlan};
        let (plan, direct, boundary) = case;
        let overlay = plan_overlay(&plan, &direct);
        let (want_rows, want_needed) = plan_overlay_oracle(&plan, &direct);
        for (pair_idx, want) in want_rows.iter().enumerate() {
            let got: Vec<u32> = overlay.feasible(pair_idx).collect();
            prop_assert_eq!(&got, want, "pair {}", pair_idx);
        }
        prop_assert_eq!(&overlay.needed, &want_needed);
        for &(pair_idx, ri) in &boundary {
            prop_assert!(
                overlay.feasible(pair_idx).any(|r| r == ri),
                "direct == min_relay_rtt must admit the relay"
            );
        }
        // The explicit constructor stores the same rows.
        let rebuilt = OverlayPlan::from_rows(plan.relays.len(), &want_rows, want_needed);
        for (pair_idx, want) in want_rows.iter().enumerate() {
            let got: Vec<u32> = rebuilt.feasible(pair_idx).collect();
            prop_assert_eq!(&got, want);
        }
    }

    // ---- hand-off walk over CityIds == haversine oracle (netsim::path) ---

    #[test]
    fn handoff_walk_matches_the_haversine_oracle(case in arb_handoff_case()) {
        // Table loads for haversines, a merge for the sorted common-city
        // `Vec`, one cost per candidate for four per comparison: the
        // chosen hand-offs, every segment and the totals must not move
        // by a bit.
        use colo_shortcuts::netsim::path::{expand_path, path_cost};
        use colo_shortcuts::netsim::RouterPath;
        let (topo, cfg, walks) = case;
        let at = |c| topo.cities.get(c).location;
        let segments = |p: &RouterPath| -> Vec<_> {
            p.segments.iter().map(|s| (s.from, s.to, s.km.to_bits())).collect()
        };
        for (as_path, src, dst) in &walks {
            let want = expand_path_oracle(&topo, as_path, at(*src), at(*dst), &cfg);
            let cost = path_cost(&topo, as_path, *src, *dst, &cfg);
            prop_assert_eq!(cost.km.to_bits(), want.total_km().to_bits(), "{:?}", as_path);
            prop_assert_eq!(cost.router_hops, want.router_hops, "{:?}", as_path);
            let got = expand_path(&topo, as_path, *src, *dst, &cfg);
            prop_assert_eq!(segments(&got), segments(&want), "{:?}", as_path);
            prop_assert_eq!(&got.handoffs, &want.handoffs, "{:?}", as_path);
            prop_assert_eq!(got.router_hops, want.router_hops);
            prop_assert_eq!(&got.as_path, as_path);
        }
    }

    #[test]
    fn handoff_two_way_rtt_is_bitwise_symmetric(case in arb_handoff_case()) {
        // RTT(a, b) == RTT(b, a) exactly: the engine sums the forward
        // and the return expansion, whichever it is handed first.
        use colo_shortcuts::netsim::path::path_cost;
        use colo_shortcuts::netsim::LatencyModel;
        let (topo, cfg, walks) = case;
        let model = LatencyModel { expand: cfg, ..LatencyModel::default() };
        for (fwd_as, src, dst) in &walks {
            let rev_as: Vec<_> = fwd_as.iter().rev().copied().collect();
            let f = path_cost(&topo, fwd_as, *src, *dst, &cfg);
            let r = path_cost(&topo, &rev_as, *dst, *src, &cfg);
            prop_assert_eq!(
                model.base_rtt_two_way(f, r).to_bits(),
                model.base_rtt_two_way(r, f).to_bits()
            );
        }
    }

    // ---- site-keyed pair resolver == host-keyed oracle (netsim::ping) ----

    #[test]
    fn site_resolver_matches_the_host_pair_oracle(case in arb_site_case()) {
        // Routes per AS pair, facts per site pair, rows per host pair:
        // whatever is shared, every host pair must come out as if it
        // had been resolved alone — batch rows and scalar lookups
        // alike, cold, warm, and after churn made entries stale (each
        // re-expanded, whether or not its routes crossed the link).
        use colo_shortcuts::netsim::clock::SimTime;
        use colo_shortcuts::netsim::{FaultPlan, LatencyModel, PingEngine, PingHandle, SampleTally};
        use colo_shortcuts::topology::routing::Router;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::Arc;

        let model = LatencyModel::default();
        let engine = || {
            let router = Arc::new(Router::new(Arc::clone(&case.topo)));
            PingEngine::new(Arc::clone(&case.topo), router, Arc::clone(&case.hosts), model.clone())
        };
        // Private routers all round: each sees the delta exactly once.
        let (batched, scalar) = (engine(), PingHandle::new(Arc::new(engine())));
        let oracle_router = Router::new(Arc::clone(&case.topo));
        let window = |e: &PingEngine, facts: Option<(&[_], f64, f64)>| {
            let (mut out, mut tally) = (Vec::new(), SampleTally::default());
            let mut rng = StdRng::seed_from_u64(7);
            e.sample_window_resolved_tally(
                facts, SimTime(0.0), 6, 300.0, &FaultPlan::none(), &mut rng, &mut out, &mut tally,
            );
            out
        };
        for round in 0..3 {
            if round == 2 {
                batched.apply_delta(std::slice::from_ref(&case.down));
                scalar.engine().apply_delta(std::slice::from_ref(&case.down));
                oracle_router.apply_delta(std::slice::from_ref(&case.down));
            }
            let block = batched.resolve_pairs(&case.pairs);
            for &(src, dst) in &case.pairs {
                let (s, d) = (case.hosts.get(src), case.hosts.get(dst));
                let want = host_pair_oracle(&case.topo, &oracle_router, &model, s, d);
                let slot = block.slot(src, dst).expect("every batch pair has a row");
                let row = block.resolved(slot);
                prop_assert_eq!(row.is_some(), want.is_some(), "{:?}->{:?}", src, dst);
                prop_assert_eq!(scalar.base_rtt(src, dst).map(f64::to_bits), want.as_ref().map(|w| w.1.to_bits()));
                prop_assert_eq!(scalar.as_path(src, dst).map(|p| p.to_vec()), want.as_ref().map(|w| w.0.clone()));
                let Some((fwd, base_ms, mid_lon)) = want else { continue };
                let (path, row_base, row_mid) = row.expect("routable");
                prop_assert_eq!(path, &fwd[..]);
                prop_assert_eq!(row_base.to_bits(), base_ms.to_bits(), "{:?}->{:?}", src, dst);
                prop_assert_eq!(row_mid.to_bits(), mid_lon.to_bits());
                // The scalar path has no `mid_lon` accessor: a window
                // sampled through it must match one sampled from the
                // oracle's facts, draw for draw.
                let mut got = Vec::new();
                let mut rng = StdRng::seed_from_u64(7);
                scalar.sample_window(src, dst, SimTime(0.0), 6, 300.0, &mut rng, &mut got);
                prop_assert_eq!(got, window(scalar.engine(), Some((&fwd[..], base_ms, mid_lon))));
            }
        }
    }

    #[test]
    fn grid_stitch_matches_a_keyed_reference(
        case in arb_grid_case(),
        link_seed in 0u64..u64::MAX,
    ) {
        // `absorb_round` over the grid plan must emit, bit for bit, the
        // cases of a reference stitch that walks the oracle's feasible
        // lists and looks every leg up by `(endpoint, relay)` key —
        // with an arbitrary pattern of unmeasured (`None`) links.
        use colo_shortcuts::core::plan::plan_overlay;
        use colo_shortcuts::core::stitch::ResultsBuilder;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        let (plan, direct, _) = case;
        let overlay = plan_overlay(&plan, &direct);
        let (want_rows, _) = plan_overlay_oracle(&plan, &direct);
        let mut rng = StdRng::seed_from_u64(link_seed);
        let links: Vec<Option<f64>> = overlay
            .needed
            .iter()
            .map(|_| rng.gen_bool(0.7).then(|| rng.gen_range(0.5..300.0)))
            .collect();
        let reverse = vec![None; plan.reverse_tasks(&direct).len()];
        let mut builder = ResultsBuilder::new();
        builder.absorb_round(&plan, &overlay, &direct, &reverse, &links);
        let results = builder.finish(empty_pool(), 0);

        let by_key: HashMap<(usize, u32), f64> = overlay
            .needed
            .iter()
            .zip(&links)
            .filter_map(|(&key, l)| l.map(|v| (key, v)))
            .collect();
        let mut cases = results.cases.iter();
        for (pair_idx, (pair, d)) in plan.pairs.iter().zip(&direct).enumerate() {
            let Some(d) = *d else { continue };
            let case = cases.next().expect("one case per responsive pair");
            prop_assert_eq!(case.src, plan.endpoints[pair.src].host);
            prop_assert_eq!(case.dst, plan.endpoints[pair.dst].host);
            let mut feasible = [0u32; 4];
            let mut best: [Option<(colo_shortcuts::netsim::HostId, f64)>; 4] = [None; 4];
            let mut improving: [Vec<(colo_shortcuts::netsim::HostId, f32)>; 4] =
                Default::default();
            for &ri in &want_rows[pair_idx] {
                let (Some(&l1), Some(&l2)) =
                    (by_key.get(&(pair.src, ri)), by_key.get(&(pair.dst, ri)))
                else {
                    continue;
                };
                let relay = &plan.relays[ri as usize];
                let (t, stitched) = (relay.rtype.index(), stitch(l1, l2));
                feasible[t] += 1;
                if best[t].is_none_or(|(_, b)| stitched < b) {
                    best[t] = Some((relay.host, stitched));
                }
                if stitched < d {
                    improving[t].push((relay.host, (d - stitched) as f32));
                }
            }
            for t in 0..4 {
                let got = &case.outcomes[t];
                let got_improving = case.improving(colo_shortcuts::core::relays::RelayType::ALL[t]);
                prop_assert_eq!(got.feasible, feasible[t]);
                prop_assert_eq!(
                    got.best().map(|(h, v)| (h, v.to_bits())),
                    best[t].map(|(h, v)| (h, v.to_bits()))
                );
                prop_assert_eq!(got_improving.len(), improving[t].len());
                for (g, w) in got_improving.iter().zip(&improving[t]) {
                    prop_assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()));
                }
            }
        }
        prop_assert!(cases.next().is_none());
    }

    // ---- pair histories == the HashMap fold they replaced (stitch) -------

    #[test]
    fn history_matches_the_hashmap_fold_oracle(case in arb_history_case()) {
        // Rounds absorbed in any order must read back, through every
        // `PairHistory` accessor, exactly the map the old fold built:
        // same pairs, each pair's values in round order and then in
        // the order its round listed them.
        use colo_shortcuts::core::stitch::ResultsBuilder;
        use colo_shortcuts::netsim::HostId;
        use std::collections::BTreeMap;

        let (rounds, order) = case;
        let mut builder = ResultsBuilder::new();
        for &r in &order {
            let (plan, overlay, direct, links) = &rounds[r as usize];
            builder.absorb_round(plan, overlay, direct, &[], links);
        }
        prop_assert_eq!(builder.rounds_absorbed() as usize, rounds.len());
        let results = builder.finish(empty_pool(), 0);
        let case_rounds: Vec<u32> = results.cases.iter().map(|c| c.round).collect();
        prop_assert!(case_rounds.windows(2).all(|w| w[0] <= w[1]));

        let ordered = |a: HostId, b: HostId| if a <= b { (a, b) } else { (b, a) };
        let (mut direct, mut link) = (BTreeMap::new(), BTreeMap::new());
        for (plan, overlay, d, l) in &rounds {
            let host = |i: usize| plan.endpoints[i].host;
            direct.insert(
                plan.round,
                plan.pairs
                    .iter()
                    .zip(d)
                    .filter_map(|(p, d)| d.map(|m| (ordered(host(p.src), host(p.dst)), m)))
                    .collect(),
            );
            link.insert(
                plan.round,
                overlay
                    .needed
                    .iter()
                    .zip(l)
                    .filter_map(|(&(ei, ri), l)| {
                        l.map(|v| (ordered(host(ei), plan.relays[ri as usize].host), v))
                    })
                    .collect(),
            );
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (got, partials) in [(&results.direct_history, &direct), (&results.link_history, &link)] {
            let oracle = history_oracle(partials);
            let mut want: Vec<_> = oracle.iter().map(|(k, v)| (*k, bits(v))).collect();
            want.sort_unstable_by_key(|(k, _)| *k);
            prop_assert_eq!(got.len(), oracle.len());
            prop_assert_eq!(got.is_empty(), oracle.is_empty());
            let iterated: Vec<_> = got.iter().map(|(k, v)| (*k, bits(v))).collect();
            prop_assert_eq!(&iterated, &want);
            let values: Vec<_> = got.values().map(bits).collect();
            prop_assert_eq!(values, want.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>());
            for (key, v) in &oracle {
                prop_assert_eq!(got.get(key).map(bits), Some(bits(v)));
                prop_assert_eq!(bits(&got[key]), bits(v));
            }
            prop_assert!(got.get(&(HostId(0), HostId(0))).is_none());
        }
    }

    // ---- Fig. 3/4 analyses == the SipHash versions they replaced -------

    #[test]
    fn top_relays_matches_the_hashmap_oracle(case in arb_improving_results()) {
        // Same ranking, tie order included, and coverage equal to the
        // bit at every k, for every type.
        use colo_shortcuts::core::analysis::top_relays::TopRelayAnalysis;
        use colo_shortcuts::core::relays::RelayType;
        let (results, max_k) = case;
        for t in RelayType::ALL {
            let got = TopRelayAnalysis::compute(&results, t, max_k);
            let want = top_relays_oracle(&results, t, max_k);
            prop_assert_eq!(&got.ranked, &want.ranked);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.coverage), bits(&want.coverage));
            prop_assert_eq!(got.total_cases, want.total_cases);
        }
    }

    #[test]
    fn threshold_matches_the_hashset_oracle(case in arb_improving_results()) {
        use colo_shortcuts::core::analysis::threshold::ThresholdCurve;
        use colo_shortcuts::core::relays::RelayType;
        let (results, _) = case;
        let xs: Vec<f64> = (0..=20).map(|i| f64::from(i) * 5.0).collect();
        let bits = |v: &[(f64, f64)]| {
            v.iter().map(|(x, f)| (x.to_bits(), f.to_bits())).collect::<Vec<_>>()
        };
        for t in RelayType::ALL {
            for top_k in [Some(1), Some(10), None] {
                let got = ThresholdCurve::compute(&results, t, top_k, &xs);
                let want = threshold_oracle(&results, t, top_k, &xs);
                prop_assert_eq!(bits(&got.points), bits(&want.points), "{:?} {:?}", t, top_k);
                prop_assert_eq!(got.top_k, want.top_k);
            }
        }
    }

    #[test]
    fn cases_csv_matches_the_per_field_oracle(records in arb_case_records()) {
        use colo_shortcuts::core::workflow::{CampaignResults, Cases};
        let mut cases = Cases::default();
        cases.push_round(records, Vec::new());
        let results = CampaignResults {
            cases,
            direct_history: Default::default(),
            link_history: Default::default(),
            symmetry_samples: Vec::new(),
            relay_meta: Default::default(),
            colo_pool: empty_pool(),
            pings_sent: 0,
            unresponsive_pairs: 0,
            avg_endpoints: 0.0,
            avg_relays: [0.0; 4],
        };
        let csv = colo_shortcuts::core::report::cases_csv(&results);
        prop_assert_eq!(csv.lines().count(), 1 + results.cases.len());
        prop_assert_eq!(csv, cases_csv_oracle(&results));
    }

    #[test]
    fn percentile_monotone_in_p(v in prop::collection::vec(0.0f64..1e6, 1..40),
                                p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&v, lo).expect("non-empty");
        let b = stats::percentile(&v, hi).expect("non-empty");
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_bounded(v in prop::collection::vec(0.0f64..1000.0, 1..50)) {
        let xs: Vec<f64> = (0..=20).map(|i| f64::from(i) * 50.0).collect();
        let cdf = stats::cdf_at(&v, &xs);
        for w in cdf.windows(2) {
            prop_assert!(w[1].1 >= w[0].1);
        }
        prop_assert!(cdf.iter().all(|&(_, f)| (0.0..=1.0).contains(&f)));
        prop_assert_eq!(cdf.last().expect("non-empty").1, 1.0);
    }

    #[test]
    fn cv_is_zero_iff_constant(x in 1.0f64..1e6, n in 2usize..20) {
        let v = vec![x; n];
        let cv = stats::coefficient_of_variation(&v).expect("non-zero mean");
        prop_assert!(cv.abs() < 1e-12);
    }

    // ---- prefixes ---------------------------------------------------------

    #[test]
    fn prefix_contains_its_own_addresses(len in 8u8..=28, idx in 0u64..200) {
        let base = std::net::Ipv4Addr::new(10, 0, 0, 0);
        let p = Prefix::new(base, len).expect("aligned");
        prop_assume!(idx < p.size());
        let ip = p.nth(idx).expect("in range");
        prop_assert!(p.contains(ip));
    }

    #[test]
    fn allocator_blocks_never_overlap(n in 2usize..40) {
        let mut alloc = IpAllocator::default();
        let blocks: Vec<Prefix> = (0..n).map(|_| alloc.alloc_prefix()).collect();
        for (i, a) in blocks.iter().enumerate() {
            for b in blocks.iter().skip(i + 1) {
                prop_assert!(!a.contains(b.base()));
                prop_assert!(!b.contains(a.base()));
            }
        }
    }
}
