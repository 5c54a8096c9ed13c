//! Looking Glasses and the Periscope facade.
//!
//! The paper geolocates candidate colo IPs with Periscope (Giotsas et
//! al.): for each IP, query Looking Glasses *in the facility's city* and
//! keep the minimum last-hop traceroute RTT; the IP passes if that
//! minimum is ≤ 1 ms (i.e., the IP really is where the facility is).
//!
//! Looking Glasses are operated by transit and content networks and
//! exposed per-city, which the simulation mirrors: LGs are placed at
//! PoP cities of transit/content ASes, and Periscope only offers
//! traceroute — the last-hop RTT of which is a ping from the LG's host.
//! Only that last hop is read, so each (LG, target) pair's
//! [`Periscope::ATTEMPTS`] last hops are sampled by
//! [`Pinger::min_last_hop_rtt`] from one pair lookup, with the draws
//! the intermediate hops would make, and no traceroute is built; the
//! full traceroute survives as `shortcuts_netsim`'s test oracle.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use shortcuts_geo::CityId;
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::{HostId, HostKind, HostRegistry, Pinger};
use shortcuts_topology::{AsType, Asn, Topology};
use std::collections::HashMap;

/// One Looking Glass vantage point.
#[derive(Debug, Clone)]
pub struct LookingGlass {
    /// LG index.
    pub id: u32,
    /// Netsim host the LG probes from.
    pub host: HostId,
    /// Operating AS.
    pub asn: Asn,
    /// City of the vantage point.
    pub city: CityId,
}

/// The global Looking Glass population, indexed by city.
#[derive(Debug)]
pub struct LookingGlassNet {
    lgs: Vec<LookingGlass>,
    by_city: HashMap<CityId, Vec<u32>>,
}

/// Generation knobs.
#[derive(Debug, Clone)]
pub struct LookingGlassConfig {
    /// Probability a transit AS exposes an LG at each of its PoPs.
    pub transit_lg_prob: f64,
    /// Probability a content AS exposes an LG at each of its PoPs.
    pub content_lg_prob: f64,
}

impl Default for LookingGlassConfig {
    fn default() -> Self {
        LookingGlassConfig {
            transit_lg_prob: 0.5,
            content_lg_prob: 0.25,
        }
    }
}

impl LookingGlassNet {
    /// Places LGs at transit/content PoP cities.
    pub fn generate(
        topo: &Topology,
        hosts: &mut HostRegistry,
        cfg: &LookingGlassConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lgs = Vec::new();
        let mut by_city: HashMap<CityId, Vec<u32>> = HashMap::new();
        for info in topo.ases() {
            let p = match info.as_type {
                AsType::Tier1 | AsType::Tier2 => cfg.transit_lg_prob,
                AsType::Content => cfg.content_lg_prob,
                _ => 0.0,
            };
            if p == 0.0 {
                continue;
            }
            let mut seen_cities = std::collections::HashSet::new();
            for &pop in &info.pops {
                let city = topo.pop(pop).city;
                if !seen_cities.insert(city) || !rng.gen_bool(p) {
                    continue;
                }
                let access_ms = rng.gen_range(0.05..0.4); // router-adjacent
                let Ok(host) = hosts.add_host_with_access(
                    topo,
                    info.asn,
                    Some(city),
                    HostKind::LookingGlass,
                    access_ms,
                ) else {
                    continue;
                };
                let id = lgs.len() as u32;
                by_city.entry(city).or_default().push(id);
                lgs.push(LookingGlass {
                    id,
                    host,
                    asn: info.asn,
                    city,
                });
            }
        }
        LookingGlassNet { lgs, by_city }
    }

    /// All LGs.
    pub fn lgs(&self) -> &[LookingGlass] {
        &self.lgs
    }

    /// LGs in a given city.
    pub fn in_city(&self, city: CityId) -> Vec<&LookingGlass> {
        self.by_city
            .get(&city)
            .map(|ids| ids.iter().map(|&i| &self.lgs[i as usize]).collect())
            .unwrap_or_default()
    }

    /// Number of distinct cities with at least one LG.
    pub fn city_count(&self) -> usize {
        self.by_city.len()
    }
}

/// Periscope-style measurement facade: traceroute-only access to LGs.
#[derive(Debug)]
pub struct Periscope<'n> {
    net: &'n LookingGlassNet,
}

impl<'n> Periscope<'n> {
    /// Traceroute attempts per (LG, target) pair, one second apart;
    /// the minimum last-hop RTT over them is kept.
    pub const ATTEMPTS: usize = 3;

    /// Wraps a Looking Glass population.
    pub fn new(net: &'n LookingGlassNet) -> Self {
        Periscope { net }
    }

    /// The `(LG, target)` host pairs [`Periscope::min_rtt_from_city`]
    /// probes for a city, in probing order — what a caller geolocating
    /// many targets hands [`Pinger::resolve_ahead`] first.
    pub fn probe_pairs(&self, city: CityId, target: HostId) -> Vec<(HostId, HostId)> {
        let lgs = self.net.in_city(city);
        lgs.into_iter().map(|lg| (lg.host, target)).collect()
    }

    /// Minimum last-hop RTT (ms) from any LG in `city` to `target`,
    /// or `None` if the city has no LGs or all probes were lost.
    ///
    /// This is the §2.2 "RTT-based geolocation" primitive: the paper
    /// keeps the minimum across LGs to sidestep RTT inflation at
    /// individual vantage points.
    pub fn min_rtt_from_city<P: Pinger, R: Rng + ?Sized>(
        &self,
        engine: &P,
        city: CityId,
        target: HostId,
        t: SimTime,
        rng: &mut R,
    ) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (lg, target) in self.probe_pairs(city, target) {
            // The metric is the RTT yielded on the last hop to the
            // target (§2.2), minimised over the pair's attempts.
            if let Some(rtt) = engine.min_last_hop_rtt(lg, target, t, Self::ATTEMPTS, rng) {
                best = Some(best.map_or(rtt, |b: f64| b.min(rtt)));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shortcuts_netsim::{LatencyModel, PingEngine, PingHandle};
    use shortcuts_topology::routing::Router;
    use shortcuts_topology::TopologyConfig;
    use std::sync::Arc;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::generate(&TopologyConfig::small(), 99))
    }

    #[test]
    fn lgs_cover_many_cities() {
        let t = topo();
        let mut hosts = HostRegistry::new();
        let net = LookingGlassNet::generate(&t, &mut hosts, &LookingGlassConfig::default(), 3);
        assert!(!net.lgs().is_empty());
        assert!(net.city_count() > 10, "got {}", net.city_count());
        // by-city index is consistent.
        for lg in net.lgs() {
            assert!(net.in_city(lg.city).iter().any(|l| l.id == lg.id));
        }
    }

    #[test]
    fn lgs_only_at_transit_or_content() {
        let t = topo();
        let mut hosts = HostRegistry::new();
        let net = LookingGlassNet::generate(&t, &mut hosts, &LookingGlassConfig::default(), 3);
        for lg in net.lgs() {
            let ty = t.expect_as(lg.asn).as_type;
            assert!(
                matches!(ty, AsType::Tier1 | AsType::Tier2 | AsType::Content),
                "LG at {:?}",
                ty
            );
        }
    }

    #[test]
    fn same_city_target_has_tiny_min_rtt() {
        let t = topo();
        let router = Arc::new(Router::new(Arc::clone(&t)));
        let mut hosts = HostRegistry::new();
        let net = LookingGlassNet::generate(&t, &mut hosts, &LookingGlassConfig::default(), 3);
        // Pick a city with an LG and plant a target host there, in the
        // same AS as the LG (same-city, best case).
        let lg = &net.lgs()[0];
        let target = hosts
            .add_host(&t, lg.asn, Some(lg.city), HostKind::ColoInterface)
            .unwrap();
        let engine = PingEngine::new(t, router, Arc::new(hosts), LatencyModel::default());
        let handle = PingHandle::new(Arc::new(engine));
        let peri = Periscope::new(&net);
        let mut rng = StdRng::seed_from_u64(8);
        let rtt = peri
            .min_rtt_from_city(&handle, lg.city, target, SimTime(0.0), &mut rng)
            .expect("LG in city");
        assert!(rtt < 5.0, "same-city min RTT should be small, got {rtt}");
    }

    #[test]
    fn city_without_lgs_returns_none() {
        let t = topo();
        let router = Arc::new(Router::new(Arc::clone(&t)));
        let mut hosts = HostRegistry::new();
        let net = LookingGlassNet::generate(&t, &mut hosts, &LookingGlassConfig::default(), 3);
        let lg_cities: std::collections::HashSet<_> = net.lgs().iter().map(|l| l.city).collect();
        let empty_city = t
            .cities
            .iter()
            .map(|c| c.id)
            .find(|c| !lg_cities.contains(c))
            .expect("some city without LGs");
        let target = net.lgs()[0].host;
        let engine = PingEngine::new(t, router, Arc::new(hosts), LatencyModel::default());
        let handle = PingHandle::new(Arc::new(engine));
        let peri = Periscope::new(&net);
        let mut rng = StdRng::seed_from_u64(8);
        assert!(peri
            .min_rtt_from_city(&handle, empty_city, target, SimTime(0.0), &mut rng)
            .is_none());
    }
}
