//! Traceroute simulation: the last hop of a traceroute, sampled
//! without building one.
//!
//! The paper's geolocation step runs over Periscope, which "currently
//! supports only traceroute probes from LGs; we calculate the RTT as
//! the one yielded on the last hop to the IP" (§2.2). A simulated
//! traceroute answers once per AS hop of the forward path — some hops
//! silent (routers that don't answer TTL-exceeded), the others with
//! jittered cumulative propagation — and its last hop is a real ping
//! of the target under the campaign's faults.
//!
//! Geolocation reads only that last hop, so the sampler behind
//! [`Pinger::min_last_hop_rtt`](crate::Pinger::min_last_hop_rtt)
//! draws it from one pair lookup: the base RTT, midpoint longitude and
//! forward hop count (the path itself only under faults). The
//! intermediate hops still make their draws — a silent-hop coin each,
//! and one [`LatencyModel::sample_rtt`](crate::LatencyModel::sample_rtt)
//! per answering hop, whose draws do not depend on its base — so the
//! RNG stream is the one a full traceroute leaves, without expanding
//! the router-level path. The full traceroute, per-hop geography and all,
//! is kept as this module's test oracle: the sampler must match it
//! bit for bit, draw for draw and count for count.

use crate::clock::SimTime;
use crate::fault::FaultPlan;
use crate::host::HostId;
use crate::ping::PingEngine;
use rand::Rng;
use shortcuts_topology::Asn;

/// Probability an intermediate router ignores TTL-exceeded probing.
const SILENT_HOP_PROB: f64 = 0.15;

impl PingEngine {
    /// The minimum last-hop RTT over `attempts` traceroutes from `src`
    /// to `dst` under a caller-owned fault plan, attempt `k` at
    /// `t + k` s (a [`crate::ping::PingHandle`]'s
    /// [`crate::Pinger::min_last_hop_rtt`] is the public way in).
    ///
    /// `None` when no route exists: nothing is drawn or counted.
    /// Otherwise `Some` of the minimum destination reply, itself `None`
    /// if every attempt was lost; each attempt makes exactly the draws
    /// and counts exactly the destination ping a full traceroute would.
    pub(crate) fn min_last_hop_rtt_faulted<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        attempts: usize,
        faults: &FaultPlan,
        rng: &mut R,
    ) -> Option<Option<f64>> {
        let copy_path = !faults.is_empty();
        let (mut hops, mut path) = (0, Vec::<Asn>::new());
        let read = |p: &[Asn]| {
            hops = p.len();
            if copy_path {
                path.extend_from_slice(p);
            }
        };
        let (base_ms, mid_lon) = self.pair_info_with(src, dst, Some(read))?;
        let model = self.model();
        let mut best: Option<f64> = None;
        for k in 0..attempts {
            let t = t.plus_secs(k as f64);
            // The intermediate hops: only their draws reach the last
            // hop, and `sample_rtt` draws the same whatever its base.
            for _ in 1..hops {
                if !rng.gen_bool(SILENT_HOP_PROB) {
                    let _ = model.sample_rtt(0.0, t, mid_lon, rng);
                }
            }
            if let Some(rtt) = self.ping_resolved(base_ms, mid_lon, &path, t, faults, rng) {
                best = Some(best.map_or(rtt, |b| b.min(rtt)));
            }
        }
        Some(best)
    }
}

/// The full traceroute: every hop at the hand-off point the
/// router-level expansion chose. Test-only — it is the oracle
/// [`PingEngine::min_last_hop_rtt_faulted`] is pinned against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::SILENT_HOP_PROB;
    use crate::clock::SimTime;
    use crate::fault::FaultPlan;
    use crate::host::HostId;
    use crate::path::expand_path;
    use crate::ping::{PingEngine, PingHandle};
    use rand::Rng;
    use shortcuts_geo::GeoPoint;
    use shortcuts_topology::Asn;
    use std::sync::atomic::Ordering;

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

    impl PingEngine {
        /// Runs a traceroute from `src` to `dst` at time `t` under a
        /// caller-owned fault plan.
        ///
        /// Returns `None` when no route exists. Hop RTTs are built from
        /// the same deterministic geometry as pings (cumulative
        /// forward-path propagation, charged both ways, plus per-hop
        /// processing) with fresh jitter per hop; the final hop is a
        /// real ping under the faults.
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
                    // Cumulative propagation both ways + processing so
                    // far, plus the same jitter family pings use.
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

    impl PingHandle {
        /// Runs a traceroute under this handle's fault plan; a routed
        /// traceroute counts one ping (its last hop) to the handle.
        pub(crate) fn traceroute<R: Rng + ?Sized>(
            &self,
            src: HostId,
            dst: HostId,
            t: SimTime,
            rng: &mut R,
        ) -> Option<Traceroute> {
            let tr = self
                .engine()
                .traceroute_faulted(src, dst, t, self.faults(), rng);
            if tr.is_some() {
                self.attempts.fetch_add(1, Ordering::Relaxed);
            }
            tr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostRegistry;
    use crate::latency::LatencyModel;
    use crate::ping::PingHandle;
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
        // The last hop answers from the destination itself.
        let dst = handle.engine().hosts().get(b).location;
        assert!(tr.hops.last().unwrap().location.distance_km(&dst) < 1e-9);
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

    /// A hand-built world, every AS with one PoP in New York: ASes 1
    /// and 2 share no link (every pair across them is unroutable), and
    /// ASes 3–5 form a triangle whose routes differ in length by
    /// direction — 4 buys transit from 5, 5 from 3, and 3 peers with 4,
    /// so 3 reaches 4 over its customer chain `[3, 5, 4]` while 4
    /// answers over the peering, `[4, 3]`.
    pub(super) fn hand_built_topology() -> Topology {
        use shortcuts_geo::CountryCode;
        use shortcuts_topology::{AsInfo, AsType, IpAllocator};
        let mut alloc = IpAllocator::default();
        let mut b = Topology::builder();
        for asn in 1u32..=5 {
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
        for asn in 1u32..=5 {
            b.add_pop(Asn(asn), nyc);
        }
        b.add_transit(Asn(4), Asn(5));
        b.add_transit(Asn(5), Asn(3));
        b.add_peering(Asn(3), Asn(4));
        b.build()
    }

    #[test]
    fn unroutable_traceroute_is_none() {
        let topo = std::sync::Arc::new(hand_built_topology());
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

/// The last-hop sampler against the full traceroute it replaces.
#[cfg(test)]
mod oracle_equivalence {
    use crate::clock::SimTime;
    use crate::fault::FaultPlan;
    use crate::host::{HostId, HostKind, HostRegistry};
    use crate::latency::LatencyModel;
    use crate::ping::{PingEngine, PingHandle, PingStats, Pinger};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use shortcuts_topology::routing::Router;
    use shortcuts_topology::{AsType, Asn, Topology, TopologyConfig};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Traceroute attempts per pair, as the geolocation step runs them.
    const ATTEMPTS: usize = 3;

    /// A small world's (LG, target) probe pairs, placed the way the
    /// §2.2 funnel places them: Looking-Glass hosts at transit and
    /// content PoP cities (router-adjacent access delay), colo
    /// interfaces in every LG city — one in each LG's own AS (a
    /// same-AS pair) and up to three of other ASes present there —
    /// and each target probed from every LG of its city.
    fn funnel_world(topo: &Topology) -> (HostRegistry, Vec<(HostId, HostId)>) {
        let mut rng = StdRng::seed_from_u64(41);
        let mut hosts = HostRegistry::new();
        let mut lgs: BTreeMap<_, Vec<(HostId, Asn)>> = BTreeMap::new();
        for info in topo.ases() {
            if !matches!(
                info.as_type,
                AsType::Tier1 | AsType::Tier2 | AsType::Content
            ) {
                continue;
            }
            for &city in topo.pop_cities(info.asn) {
                if !rng.gen_bool(0.5) {
                    continue;
                }
                let access_ms = rng.gen_range(0.05..0.4);
                let kind = HostKind::LookingGlass;
                let host = hosts
                    .add_host_with_access(topo, info.asn, Some(city), kind, access_ms)
                    .expect("a PoP city");
                lgs.entry(city).or_default().push((host, info.asn));
            }
        }
        let mut pairs = Vec::new();
        for (&city, here) in &lgs {
            let others = topo
                .ases()
                .iter()
                .map(|a| a.asn)
                .filter(|asn| topo.pop_cities(*asn).contains(&city))
                .filter(|asn| here.iter().all(|(_, lg_asn)| lg_asn != asn))
                .take(3);
            let owners: Vec<Asn> = here.iter().map(|&(_, asn)| asn).chain(others).collect();
            for asn in owners {
                let target = hosts
                    .add_host(topo, asn, Some(city), HostKind::ColoInterface)
                    .expect("a PoP city");
                pairs.extend(here.iter().map(|&(lg, _)| (lg, target)));
            }
        }
        (hosts, pairs)
    }

    fn engine(topo: &Arc<Topology>, hosts: &Arc<HostRegistry>) -> Arc<PingEngine> {
        let router = Arc::new(Router::new(Arc::clone(topo)));
        let hosts = Arc::clone(hosts);
        Arc::new(PingEngine::new(
            Arc::clone(topo),
            router,
            hosts,
            LatencyModel::default(),
        ))
    }

    fn counts(s: PingStats) -> [u64; 4] {
        [s.attempts, s.replies, s.losses, s.unroutable]
    }

    /// One side of the comparison: a fresh engine on the world, and
    /// the RNG stream that runs across every pair it probes.
    struct Side {
        engine: Arc<PingEngine>,
        rng: StdRng,
    }

    /// Probes every pair from both sides under `plan` — the sampler on
    /// `fast`, `ATTEMPTS` full traceroutes on `oracle` — and asserts
    /// bit-identical minima, equal handle and engine counts, and the
    /// same next draw. Returns how many pairs were unroutable, and how
    /// many routed over more than one AS.
    fn check(
        fast: &mut Side,
        oracle: &mut Side,
        plan: &FaultPlan,
        pairs: &[(HostId, HostId)],
    ) -> (usize, usize) {
        let fast_handle = PingHandle::with_faults(Arc::clone(&fast.engine), plan.clone());
        let oracle_handle = PingHandle::with_faults(Arc::clone(&oracle.engine), plan.clone());
        let (mut unroutable, mut multi_hop) = (0, 0);
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let t = SimTime(i as f64 * 97.0);
            let got = fast_handle.min_last_hop_rtt(src, dst, t, ATTEMPTS, &mut fast.rng);
            let mut want: Option<f64> = None;
            for k in 0..ATTEMPTS {
                let Some(tr) =
                    oracle_handle.traceroute(src, dst, t.plus_secs(k as f64), &mut oracle.rng)
                else {
                    unroutable += usize::from(k == 0);
                    continue;
                };
                multi_hop += usize::from(k == 0 && tr.hops.len() > 1);
                if let Some(rtt) = tr.last_hop_rtt() {
                    want = Some(want.map_or(rtt, |b| b.min(rtt)));
                }
            }
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "pair {i} ({src:?} -> {dst:?}): {got:?} vs {want:?}"
            );
        }
        assert_eq!(
            fast_handle.pings_sent(),
            oracle_handle.pings_sent(),
            "handle pings"
        );
        assert_eq!(
            counts(fast.engine.stats()),
            counts(oracle.engine.stats()),
            "engine counts"
        );
        assert_eq!(
            fast.rng.clone().next_u64(),
            oracle.rng.clone().next_u64(),
            "next draw"
        );
        (unroutable, multi_hop)
    }

    #[test]
    fn last_hop_sampler_matches_the_full_traceroute() {
        let topo = Arc::new(Topology::generate(&TopologyConfig::small(), 88));
        let (hosts, pairs) = funnel_world(&topo);
        let hosts = Arc::new(hosts);
        let side = || Side {
            engine: engine(&topo, &hosts),
            rng: StdRng::seed_from_u64(2017),
        };
        let (mut fast, mut oracle) = (side(), side());
        let same_as = pairs
            .iter()
            .filter(|&&(a, b)| hosts.get(a).node == hosts.get(b).node)
            .count();
        assert!(
            same_as > 0 && same_as < pairs.len(),
            "{same_as} of {}",
            pairs.len()
        );

        let (unroutable, multi_hop) = check(&mut fast, &mut oracle, &FaultPlan::none(), &pairs);
        assert_eq!(unroutable, 0);
        assert!(
            multi_hop > pairs.len() / 2,
            "{multi_hop} of {}",
            pairs.len()
        );

        // A transit AS down for the whole sweep, and a lossy one.
        let transit: Vec<Asn> = topo
            .ases()
            .iter()
            .filter(|a| matches!(a.as_type, AsType::Tier1 | AsType::Tier2))
            .map(|a| a.asn)
            .collect();
        let plan = FaultPlan::none()
            .with_outage(transit[0], SimTime(0.0), SimTime(1e9))
            .with_lossy_as(transit[1], 0.4);
        let before = fast.engine.stats();
        check(&mut fast, &mut oracle, &plan, &pairs);
        let after = fast.engine.stats();
        assert!(
            after.losses - before.losses > ATTEMPTS as u64,
            "the plan must bite"
        );

        // Same-AS, unroutable and direction-asymmetric pairs on a
        // hand-built world, the RNG streams carried over.
        let world = Arc::new(super::tests::hand_built_topology());
        let mut reg = HostRegistry::new();
        let mut host = |asn| reg.add_host_in_as(&world, Asn(asn), None).unwrap();
        let (a, b, c, d, e) = (host(1), host(1), host(2), host(3), host(4));
        let reg = Arc::new(reg);
        let (mut fast, mut oracle) = (
            Side {
                engine: engine(&world, &reg),
                rng: fast.rng,
            },
            Side {
                engine: engine(&world, &reg),
                rng: oracle.rng,
            },
        );
        let hops = |s, d| fast.engine.as_path(s, d).map(|p| p.len());
        assert_eq!((hops(d, e), hops(e, d)), (Some(3), Some(2)));
        let pairs = [(a, b), (a, c), (b, a), (c, b), (a, a), (d, e), (e, d)];
        let plan = FaultPlan::none().with_lossy_as(Asn(1), 0.5);
        for plan in [FaultPlan::none(), plan] {
            let (unroutable, multi_hop) = check(&mut fast, &mut oracle, &plan, &pairs);
            assert_eq!((unroutable, multi_hop), (2, 2));
        }
        assert_eq!(
            fast.engine.stats().unroutable,
            0,
            "unroutable pairs count nothing"
        );
    }
}
