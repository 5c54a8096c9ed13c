//! Traceroute simulation: per-AS-hop RTT samples along the forward
//! path.
//!
//! The paper's geolocation step runs over Periscope, which "currently
//! supports only traceroute probes from LGs; we calculate the RTT as
//! the one yielded on the last hop to the IP" (§2.2). This module gives
//! the simulator an honest traceroute surface: one reply per AS hop at
//! the hop's handoff location, some hops silent (routers that don't
//! answer TTL-exceeded), the last hop being the target itself.
//!
//! The paper's future work (§5 (iii)) also proposes traceroute-based
//! regional analysis — the per-hop geography exposed here is what such
//! an analysis consumes.

use crate::clock::SimTime;
use crate::fault::FaultPlan;
use crate::host::HostId;
use crate::path::expand_path;
use crate::ping::PingEngine;
use rand::Rng;
use shortcuts_geo::GeoPoint;
use shortcuts_topology::Asn;

/// One hop of a traceroute.
#[derive(Debug, Clone)]
pub struct TracerouteHop {
    /// AS owning the responding router.
    pub asn: Asn,
    /// Location of the responding interface (the handoff point the
    /// router-level expansion chose).
    pub location: GeoPoint,
    /// Round-trip time to this hop, ms; `None` if the router stayed
    /// silent (no TTL-exceeded reply).
    pub rtt_ms: Option<f64>,
}

/// A complete traceroute result.
#[derive(Debug, Clone)]
pub struct Traceroute {
    /// Hops in path order; the last entry is the destination when
    /// `reached` is true.
    pub hops: Vec<TracerouteHop>,
    /// Whether the destination replied.
    pub reached: bool,
}

impl Traceroute {
    /// RTT of the last hop (the §2.2 Periscope metric), if the
    /// destination replied.
    pub fn last_hop_rtt(&self) -> Option<f64> {
        if !self.reached {
            return None;
        }
        self.hops.last().and_then(|h| h.rtt_ms)
    }

    /// Number of hops that replied.
    pub fn responsive_hops(&self) -> usize {
        self.hops.iter().filter(|h| h.rtt_ms.is_some()).count()
    }
}

/// Probability an intermediate router ignores TTL-exceeded probing.
const SILENT_HOP_PROB: f64 = 0.15;

impl PingEngine {
    /// Runs a traceroute from `src` to `dst` at time `t` under a
    /// caller-owned fault plan (the per-campaign plan a
    /// [`crate::ping::PingHandle`] carries; its [`crate::Pinger::traceroute`]
    /// is the public way in).
    ///
    /// Returns `None` when no route exists. Hop RTTs are built from the
    /// same deterministic geometry as pings (cumulative forward-path
    /// propagation, charged both ways, plus per-hop processing) with
    /// fresh jitter per hop; the final hop is a real ping under the
    /// faults, so `last_hop_rtt` agrees statistically with
    /// [`crate::Pinger::ping`].
    pub(crate) fn traceroute_faulted<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        faults: &FaultPlan,
        rng: &mut R,
    ) -> Option<Traceroute> {
        let s = self.hosts().get(src);
        let d = self.hosts().get(dst);
        let as_path = self.as_path(src, dst)?;
        let model = self.model();

        // Forward expansion with handoff points for hop attribution.
        let fwd = expand_path(self.topology(), &as_path, s.city, d.city, &model.expand);
        let handoffs = fwd.handoff_points(d.location);

        let mut hops = Vec::with_capacity(as_path.len());
        let mut cum_km = 0.0;
        let mut prev = s.location;
        for (i, (&asn, &loc)) in as_path.iter().zip(handoffs.iter()).enumerate() {
            cum_km += prev.distance_km(&loc);
            prev = loc;
            let is_last = i == as_path.len() - 1;
            let rtt_ms = if is_last {
                // The destination's reply is a real ping.
                self.ping_faulted(src, dst, t, faults, rng)
            } else if rng.gen_bool(SILENT_HOP_PROB) {
                None
            } else {
                // Cumulative propagation both ways + processing so far,
                // plus the same jitter family pings use.
                let base = 2.0 * cum_km * model.circuity / shortcuts_geo::FIBER_KM_PER_MS
                    + f64::from(model.expand.hops_per_as) * (i as f64 + 1.0) * model.per_hop_ms
                    + s.access_ms;
                model.sample_rtt(base, t, s.location.lon(), rng)
            };
            hops.push(TracerouteHop {
                asn,
                location: loc,
                rtt_ms,
            });
        }
        let reached = hops.last().is_some_and(|h| h.rtt_ms.is_some());
        Some(Traceroute { hops, reached })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostRegistry;
    use crate::latency::LatencyModel;
    use crate::ping::{PingHandle, Pinger};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shortcuts_topology::routing::Router;
    use shortcuts_topology::{Topology, TopologyConfig};

    fn setup() -> (PingHandle, HostId, HostId) {
        let topo = std::sync::Arc::new(Topology::generate(&TopologyConfig::small(), 88));
        let router = std::sync::Arc::new(Router::new(std::sync::Arc::clone(&topo)));
        let mut reg = HostRegistry::new();
        let eyes = topo.eyeball_asns();
        let a = reg.add_host_in_as(&topo, eyes[0], None).unwrap();
        let b = reg
            .add_host_in_as(&topo, eyes[eyes.len() / 2], None)
            .unwrap();
        let engine = PingEngine::new(
            topo,
            router,
            std::sync::Arc::new(reg),
            LatencyModel::default(),
        );
        (PingHandle::new(std::sync::Arc::new(engine)), a, b)
    }

    #[test]
    fn traceroute_follows_the_as_path() {
        let (handle, a, b) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let tr = handle.traceroute(a, b, SimTime(0.0), &mut rng).unwrap();
        let as_path = handle.as_path(a, b).unwrap();
        assert_eq!(tr.hops.len(), as_path.len());
        for (hop, asn) in tr.hops.iter().zip(as_path.iter()) {
            assert_eq!(hop.asn, *asn);
        }
    }

    #[test]
    fn hop_rtts_are_monotone_in_expectation() {
        let (handle, a, b) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        // Average over repetitions to wash out jitter.
        let n = 40;
        let len = handle.as_path(a, b).unwrap().len();
        let mut sums = vec![0.0f64; len];
        let mut counts = vec![0u32; len];
        for i in 0..n {
            let tr = handle
                .traceroute(a, b, SimTime(f64::from(i) * 60.0), &mut rng)
                .unwrap();
            for (k, hop) in tr.hops.iter().enumerate() {
                if let Some(r) = hop.rtt_ms {
                    sums[k] += r;
                    counts[k] += 1;
                }
            }
        }
        let means: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| s / f64::from(c.max(1)))
            .collect();
        // First hop well below last hop.
        assert!(means[0] < *means.last().unwrap());
    }

    #[test]
    fn last_hop_rtt_matches_ping_scale() {
        let (handle, a, b) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let base = handle.base_rtt(a, b).unwrap();
        for i in 0..10 {
            let tr = handle
                .traceroute(a, b, SimTime(f64::from(i)), &mut rng)
                .unwrap();
            if let Some(last) = tr.last_hop_rtt() {
                assert!(last >= base - 1e-9);
                assert!(last < base + 600.0);
            }
        }
    }

    #[test]
    fn some_hops_are_silent() {
        let (handle, a, b) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let mut silent = 0;
        let mut total = 0;
        for i in 0..50 {
            let tr = handle
                .traceroute(a, b, SimTime(f64::from(i)), &mut rng)
                .unwrap();
            total += tr.hops.len();
            silent += tr.hops.len() - tr.responsive_hops();
        }
        assert!(silent > 0, "expected silent hops in {total}");
        assert!(silent * 2 < total, "too many silent hops: {silent}/{total}");
    }

    #[test]
    fn unroutable_traceroute_is_none() {
        use shortcuts_geo::CountryCode;
        use shortcuts_topology::{AsInfo, AsType, IpAllocator};
        let mut alloc = IpAllocator::default();
        let mut b = Topology::builder();
        for asn in [1u32, 2] {
            b.add_as(AsInfo {
                asn: Asn(asn),
                as_type: AsType::Eyeball,
                home_country: CountryCode::new("US").unwrap(),
                countries: vec![],
                pops: vec![],
                prefixes: vec![alloc.alloc_prefix()],
                user_share: 0.1,
                offers_cloud: false,
            });
        }
        let nyc = b.cities().by_name("NewYork").unwrap().id;
        b.add_pop(Asn(1), nyc);
        b.add_pop(Asn(2), nyc);
        let topo = std::sync::Arc::new(b.build());
        let router = std::sync::Arc::new(Router::new(std::sync::Arc::clone(&topo)));
        let mut reg = HostRegistry::new();
        let a = reg.add_host_in_as(&topo, Asn(1), None).unwrap();
        let c = reg.add_host_in_as(&topo, Asn(2), None).unwrap();
        let engine = PingEngine::new(
            topo,
            router,
            std::sync::Arc::new(reg),
            LatencyModel::default(),
        );
        let handle = PingHandle::new(std::sync::Arc::new(engine));
        let mut rng = StdRng::seed_from_u64(5);
        assert!(handle.traceroute(a, c, SimTime(0.0), &mut rng).is_none());
    }
}
