//! Router-level path expansion.
//!
//! The routing layer produces an **AS path**; RTT needs **kilometers**.
//! This module walks the AS path and decides, for every AS-to-AS handoff,
//! *where on the planet* the handoff happens:
//!
//! - If the two ASes share PoP cities, the handoff happens in one of
//!   them, chosen **hot-potato style**: mostly "get it off my network as
//!   close to where it entered as possible", with a mild pull toward the
//!   destination (`dst_weight`) so paths don't ping-pong pathologically.
//! - If they share no city (a long-haul private interconnect), the pair
//!   of PoPs minimizing the same objective is used and the inter-city
//!   span is charged to the path.
//!
//! This is where **path inflation becomes kilometers**: a valley-free
//! detour through a transit AS whose nearest PoP is far off the geodesic
//! shows up as real distance, and hence real milliseconds. The expansion
//! also counts router hops (two per AS plus one per long-haul segment)
//! for the per-hop processing term of the latency model.
//!
//! Hosts sit at city centres and hand-offs happen in PoP cities, so the
//! walk is over [`CityId`]s: candidates come from a merge of the two
//! ASes' ascending PoP-city lists and every distance is a load from the
//! city × city table behind `CityDb::km`, not a haversine. One walk
//! serves both callers — [`expand_path`] keeps the segments (the
//! test-only full traceroute), [`path_cost`] only sums them (the ping
//! engine's pair expansion).

use shortcuts_geo::{CityId, GeoPoint};
use shortcuts_topology::{Asn, Topology};
use std::cmp::Ordering;

/// A geographic segment of the expanded path.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Segment start.
    pub from: GeoPoint,
    /// Segment end.
    pub to: GeoPoint,
    /// Great-circle length in km.
    pub km: f64,
}

/// The expanded router-level path.
#[derive(Debug, Clone)]
pub struct RouterPath {
    /// Geographic segments in travel order.
    pub segments: Vec<Segment>,
    /// Approximate number of router hops (for processing delay).
    pub router_hops: u32,
    /// The AS path this expansion came from.
    pub as_path: Vec<Asn>,
    /// Location after each inter-AS handoff, in path order (one entry
    /// per AS-path window). Used by traceroute hop attribution.
    pub handoffs: Vec<GeoPoint>,
}

impl RouterPath {
    /// Total great-circle kilometers along the path.
    pub fn total_km(&self) -> f64 {
        self.segments.iter().map(|s| s.km).sum()
    }

    /// One location per AS of the path: where traffic sits when leaving
    /// each AS (the handoff point), with the final AS attributed to the
    /// destination itself.
    pub fn handoff_points(&self, dst: GeoPoint) -> Vec<GeoPoint> {
        let mut v = self.handoffs.clone();
        v.push(dst);
        v
    }

    /// Geographic inflation versus the direct great circle between the
    /// path's first and last points. `>= 1.0` whenever the endpoints are
    /// distinct; `1.0` for an empty or degenerate path.
    pub fn inflation(&self, src: &GeoPoint, dst: &GeoPoint) -> f64 {
        let direct = src.distance_km(dst);
        if direct < 1e-9 {
            return 1.0;
        }
        (self.total_km() / direct).max(1.0)
    }
}

/// Tuning knobs for the expansion.
#[derive(Debug, Clone, Copy)]
pub struct ExpandConfig {
    /// Weight of "pull toward destination" in handoff selection:
    /// `cost(city) = dist(current, city) + dst_weight * dist(city, dst)`.
    /// `0.0` is pure hot-potato; large values approximate cold-potato.
    pub dst_weight: f64,
    /// Router hops charged per AS traversed.
    pub hops_per_as: u32,
    /// Extra router hops charged per long-haul (no-common-city) handoff.
    pub hops_per_longhaul: u32,
}

impl Default for ExpandConfig {
    fn default() -> Self {
        ExpandConfig {
            dst_weight: 0.35,
            hops_per_as: 3,
            hops_per_longhaul: 2,
        }
    }
}

/// What the latency model reads off an expanded path: the sums
/// [`RouterPath::total_km`] and [`RouterPath::router_hops`] hold,
/// without the path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCost {
    /// Total great-circle kilometers along the path.
    pub km: f64,
    /// Approximate number of router hops (for processing delay).
    pub router_hops: u32,
}

/// The hand-off walk behind [`expand_path`] and [`path_cost`].
///
/// Every point it can touch is a city centre, so it works on
/// [`CityId`]s and reads distances from [`CityDb::km`]. Reports each
/// segment of non-zero length (`from`, `to`, km) to `on_segment` in
/// travel order and the city traffic sits in after each AS-path window
/// to `on_handoff`; returns the router hops.
///
/// [`CityDb::km`]: shortcuts_geo::CityDb::km
fn walk(
    topo: &Topology,
    as_path: &[Asn],
    src: CityId,
    dst: CityId,
    cfg: &ExpandConfig,
    mut on_segment: impl FnMut(CityId, CityId, f64),
    mut on_handoff: impl FnMut(CityId),
) -> u32 {
    assert!(!as_path.is_empty(), "empty AS path");
    let cities = &topo.cities;
    let mut segment = |from: CityId, to: CityId| {
        let km = cities.km(from, to);
        if km > 1e-9 {
            on_segment(from, to, km);
        }
    };
    let mut current = src;
    let mut router_hops = cfg.hops_per_as * as_path.len() as u32;
    let mut a_cities = topo.pop_cities(as_path[0]);

    for &b in &as_path[1..] {
        let b_cities = topo.pop_cities(b);
        // Hand off in the best common city: a merge of the two
        // ascending lists, the first strict minimum winning.
        let mut best: Option<(CityId, f64)> = None;
        let (mut i, mut j) = (0, 0);
        while i < a_cities.len() && j < b_cities.len() {
            let c = a_cities[i];
            match c.cmp(&b_cities[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    let cost = cities.km(current, c) + cfg.dst_weight * cities.km(c, dst);
                    if best.is_none_or(|(_, least)| cost < least) {
                        best = Some((c, cost));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        if let Some((city, _)) = best {
            segment(current, city);
            current = city;
        } else if !a_cities.is_empty() && !b_cities.is_empty() {
            // Long-haul interconnect: best (a_pop, b_pop) pair.
            let mut best: Option<(CityId, CityId, f64)> = None;
            for &pa in a_cities {
                let leg1 = cities.km(current, pa);
                for &pb in b_cities {
                    let cost = leg1 + cities.km(pa, pb) + cfg.dst_weight * cities.km(pb, dst);
                    if best.is_none_or(|(_, _, c)| cost < c) {
                        best = Some((pa, pb, cost));
                    }
                }
            }
            let (pa, pb, _) = best.expect("non-empty PoP lists");
            segment(current, pa);
            segment(pa, pb);
            current = pb;
            router_hops += cfg.hops_per_longhaul;
        }
        // Otherwise a degenerate topology (AS without PoPs): charge
        // direct, traffic stays where it is.
        on_handoff(current);
        a_cities = b_cities;
    }

    segment(current, dst);
    router_hops
}

/// Expands an AS path into a geographic router path.
///
/// `src`/`dst` are the cities of the physical endpoints (probe and
/// target host). The AS path must be non-empty; a single-AS path
/// produces the direct intra-AS segment.
pub fn expand_path(
    topo: &Topology,
    as_path: &[Asn],
    src: CityId,
    dst: CityId,
    cfg: &ExpandConfig,
) -> RouterPath {
    let at = |c: CityId| topo.cities.get(c).location;
    let mut segments = Vec::new();
    let mut handoffs = Vec::with_capacity(as_path.len().saturating_sub(1));
    let router_hops = walk(
        topo,
        as_path,
        src,
        dst,
        cfg,
        |from, to, km| {
            segments.push(Segment {
                from: at(from),
                to: at(to),
                km,
            })
        },
        |c| handoffs.push(at(c)),
    );
    RouterPath {
        segments,
        router_hops,
        as_path: as_path.to_vec(),
        handoffs,
    }
}

/// The totals of [`expand_path`]'s result without building it: same
/// walk, segments summed in travel order, no allocation.
pub fn path_cost(
    topo: &Topology,
    as_path: &[Asn],
    src: CityId,
    dst: CityId,
    cfg: &ExpandConfig,
) -> PathCost {
    // `-0.0` is what `Iterator::sum` starts from, so a path without
    // segments is bit-equal to `RouterPath::total_km` too.
    let mut km = -0.0;
    let router_hops = walk(topo, as_path, src, dst, cfg, |_, _, seg| km += seg, |_| {});
    PathCost { km, router_hops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shortcuts_geo::CountryCode;
    use shortcuts_topology::{AsInfo, AsType, Topology};

    /// Hand-built three-AS line: src AS (London+Paris), transit
    /// (Paris+NewYork), dst AS (NewYork).
    fn line_topology() -> Topology {
        let mut b = Topology::builder();
        let mk = |asn: u32, t: AsType| AsInfo {
            asn: Asn(asn),
            as_type: t,
            home_country: CountryCode::new("US").unwrap(),
            countries: vec![],
            pops: vec![],
            prefixes: vec![],
            user_share: 0.0,
            offers_cloud: false,
        };
        b.add_as(mk(1, AsType::Eyeball));
        b.add_as(mk(2, AsType::Tier1));
        b.add_as(mk(3, AsType::Eyeball));
        let lon = b.cities().by_name("London").unwrap().id;
        let par = b.cities().by_name("Paris").unwrap().id;
        let nyc = b.cities().by_name("NewYork").unwrap().id;
        b.add_pop(Asn(1), lon);
        b.add_pop(Asn(1), par);
        b.add_pop(Asn(2), par);
        b.add_pop(Asn(2), nyc);
        b.add_pop(Asn(3), nyc);
        b.add_transit(Asn(1), Asn(2));
        b.add_transit(Asn(3), Asn(2));
        b.build()
    }

    fn city(topo: &Topology, name: &str) -> CityId {
        topo.cities.by_name(name).unwrap().id
    }

    fn loc(topo: &Topology, name: &str) -> GeoPoint {
        topo.cities.by_name(name).unwrap().location
    }

    #[test]
    fn expands_through_common_cities() {
        let topo = line_topology();
        let src = loc(&topo, "London");
        let dst = loc(&topo, "NewYork");
        let path = expand_path(
            &topo,
            &[Asn(1), Asn(2), Asn(3)],
            city(&topo, "London"),
            city(&topo, "NewYork"),
            &ExpandConfig::default(),
        );
        // Expected: London -> Paris (handoff 1->2), Paris -> NYC
        // (handoff 2->3 in NYC), then zero-length to dst.
        let total = path.total_km();
        let direct = src.distance_km(&dst);
        assert!(total > direct, "detour through Paris inflates distance");
        // Inflation should be modest (Paris is near the London-NYC line
        // in AS-hop terms but east of it geographically).
        assert!(
            path.inflation(&src, &dst) < 1.5,
            "{}",
            path.inflation(&src, &dst)
        );
        assert_eq!(path.as_path, vec![Asn(1), Asn(2), Asn(3)]);
        assert_eq!(path.router_hops, 9);
    }

    #[test]
    fn single_as_path_is_direct() {
        let topo = line_topology();
        let src = loc(&topo, "London");
        let dst = loc(&topo, "Paris");
        let path = expand_path(
            &topo,
            &[Asn(1)],
            city(&topo, "London"),
            city(&topo, "Paris"),
            &ExpandConfig::default(),
        );
        assert_eq!(path.segments.len(), 1);
        assert!((path.total_km() - src.distance_km(&dst)).abs() < 1e-9);
    }

    #[test]
    fn same_location_yields_zero_km() {
        let topo = line_topology();
        let (c, p) = (city(&topo, "Paris"), loc(&topo, "Paris"));
        let cfg = ExpandConfig::default();
        let path = expand_path(&topo, &[Asn(1)], c, c, &cfg);
        assert_eq!(path.segments.len(), 0);
        assert_eq!(path.total_km(), 0.0);
        assert_eq!(path.inflation(&p, &p), 1.0);
        // The empty sum keeps its sign bit in the allocation-free form.
        let cost = path_cost(&topo, &[Asn(1)], c, c, &cfg);
        assert_eq!(cost.km.to_bits(), path.total_km().to_bits());
    }

    #[test]
    fn longhaul_handoff_when_no_common_city() {
        // Two ASes with no shared city: AS1 in London, AS2 in Tokyo.
        let mut b = Topology::builder();
        let mk = |asn: u32| AsInfo {
            asn: Asn(asn),
            as_type: AsType::Tier2,
            home_country: CountryCode::new("GB").unwrap(),
            countries: vec![],
            pops: vec![],
            prefixes: vec![],
            user_share: 0.0,
            offers_cloud: false,
        };
        b.add_as(mk(1));
        b.add_as(mk(2));
        let lon = b.cities().by_name("London").unwrap().id;
        let tok = b.cities().by_name("Tokyo").unwrap().id;
        b.add_pop(Asn(1), lon);
        b.add_pop(Asn(2), tok);
        b.add_transit(Asn(1), Asn(2));
        let topo = b.build();

        let src = loc(&topo, "London");
        let dst = loc(&topo, "Tokyo");
        let cfg = ExpandConfig::default();
        let path = expand_path(&topo, &[Asn(1), Asn(2)], lon, tok, &cfg);
        assert!((path.total_km() - src.distance_km(&dst)).abs() < 1.0);
        // Long-haul surcharge applied.
        assert_eq!(
            path.router_hops,
            cfg.hops_per_as * 2 + cfg.hops_per_longhaul
        );
    }

    #[test]
    fn hot_potato_prefers_near_handoff() {
        // AS1 (London + NYC PoPs), AS2 (London + NYC PoPs). Pinging from
        // London to a destination in London should hand off in London,
        // not NYC.
        let mut b = Topology::builder();
        let mk = |asn: u32| AsInfo {
            asn: Asn(asn),
            as_type: AsType::Tier2,
            home_country: CountryCode::new("GB").unwrap(),
            countries: vec![],
            pops: vec![],
            prefixes: vec![],
            user_share: 0.0,
            offers_cloud: false,
        };
        b.add_as(mk(1));
        b.add_as(mk(2));
        let lon = b.cities().by_name("London").unwrap().id;
        let nyc = b.cities().by_name("NewYork").unwrap().id;
        for asn in [1u32, 2] {
            b.add_pop(Asn(asn), lon);
            b.add_pop(Asn(asn), nyc);
        }
        b.add_peering(Asn(1), Asn(2));
        let topo = b.build();
        let path = expand_path(&topo, &[Asn(1), Asn(2)], lon, lon, &ExpandConfig::default());
        assert!(path.total_km() < 1.0, "handoff should stay in London");
    }

    #[test]
    fn inflation_at_least_one() {
        let topo = line_topology();
        let src = loc(&topo, "London");
        let dst = loc(&topo, "NewYork");
        let path = expand_path(
            &topo,
            &[Asn(1), Asn(2), Asn(3)],
            city(&topo, "London"),
            city(&topo, "NewYork"),
            &ExpandConfig::default(),
        );
        assert!(path.inflation(&src, &dst) >= 1.0);
    }

    #[test]
    #[should_panic(expected = "empty AS path")]
    fn empty_path_panics() {
        let topo = line_topology();
        let p = city(&topo, "Paris");
        expand_path(&topo, &[], p, p, &ExpandConfig::default());
    }
}
