//! §2.2 — relay selection at colocation facilities: the five-filter
//! funnel over the stale 2015 facility dataset.
//!
//! In order:
//!
//! 1. **Single-facility & active PeeringDB presence** — keep records
//!    whose candidate set has exactly one facility that is still listed
//!    in PeeringDB (the facility-search algorithm may fail to converge;
//!    facilities close).
//! 2. **Pingability** — keep records whose IP still answers pings
//!    (checked with a short ping burst from a vantage host).
//! 3. **Same IP-ownership** — keep records whose IP still maps to the
//!    recorded ASN in the prefix→AS table, and is not MOAS.
//! 4. **Active facility presence** — keep records whose ASN is still a
//!    member of the candidate facility per PeeringDB.
//! 5. **RTT-based geolocation** — keep records whose minimum RTT from
//!    same-city Looking Glasses (via Periscope) is below the threshold,
//!    confirming the interface really is in the facility's city.
//!
//! Paper funnel: 2675 → 1008 → 764 → 725 → 725 → 356 IPs at 58
//! facilities in 36 cities.

use crate::world::World;
use rand::Rng;
use shortcuts_atlas::looking_glass::Periscope;
use shortcuts_datasets::FacilityIpRecord;
use shortcuts_geo::CityId;
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::{HostId, Pinger};
use shortcuts_topology::{Asn, FacilityId};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Per-stage record counts of the funnel (cf. §2.2's in-text numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterFunnel {
    /// Records in the raw dataset.
    pub initial: usize,
    /// After filter 1 (single facility & active PeeringDB presence).
    pub single_facility: usize,
    /// After filter 2 (pingability).
    pub pingable: usize,
    /// After filter 3 (same IP-ownership, incl. MOAS check).
    pub ownership: usize,
    /// After filter 4 (active facility presence of the ASN).
    pub presence: usize,
    /// After filter 5 (RTT-based geolocation).
    pub geolocated: usize,
}

impl FilterFunnel {
    /// Pass rates per stage, for comparing the funnel's *shape* with the
    /// paper's.
    pub fn pass_rates(&self) -> [f64; 5] {
        let r = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        [
            r(self.single_facility, self.initial),
            r(self.pingable, self.single_facility),
            r(self.ownership, self.pingable),
            r(self.presence, self.ownership),
            r(self.geolocated, self.presence),
        ]
    }
}

/// A verified colo relay: a pingable interface confirmed at a facility.
#[derive(Debug, Clone, PartialEq)]
pub struct ColoRelay {
    /// The relay's address.
    pub ip: Ipv4Addr,
    /// The live host behind the address.
    pub host: HostId,
    /// Owning AS (verified).
    pub asn: Asn,
    /// The (single) verified facility.
    pub facility: FacilityId,
    /// The facility's city.
    pub city: CityId,
}

/// The verified COR pool plus funnel accounting.
#[derive(Debug, PartialEq)]
pub struct ColoPool {
    /// Verified relays.
    pub relays: Vec<ColoRelay>,
    /// Stage counts.
    pub funnel: FilterFunnel,
}

impl ColoPool {
    /// Distinct facilities represented in the pool.
    pub fn facility_count(&self) -> usize {
        self.relays
            .iter()
            .map(|r| r.facility)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Distinct cities represented in the pool.
    pub fn city_count(&self) -> usize {
        self.relays
            .iter()
            .map(|r| r.city)
            .collect::<HashSet<_>>()
            .len()
    }
}

/// Configuration of the pipeline's measurement steps.
#[derive(Debug, Clone)]
pub struct ColoPipelineConfig {
    /// Ping attempts for the pingability check.
    pub ping_attempts: usize,
    /// Geolocation threshold in ms (paper: 1 ms; the default matches it
    /// because the simulator's same-city RTTs are sub-millisecond).
    pub geo_threshold_ms: f64,
}

impl Default for ColoPipelineConfig {
    fn default() -> Self {
        ColoPipelineConfig {
            ping_attempts: 3,
            geo_threshold_ms: 1.0,
        }
    }
}

/// Runs the five-filter pipeline. `vantage` is the host pingability is
/// checked from (the paper pinged from their own machines; any
/// well-connected host works). Measurements happen at `t`.
///
/// Generic over [`Pinger`]: a campaign runs this through its own
/// [`shortcuts_netsim::PingHandle`] so the funnel's pings count toward
/// that campaign (and see its fault plan), even when many campaigns of
/// a sweep share one engine.
pub fn run_pipeline<P: Pinger, R: Rng + ?Sized>(
    world: &World,
    engine: &P,
    vantage: HostId,
    t: SimTime,
    cfg: &ColoPipelineConfig,
    rng: &mut R,
) -> ColoPool {
    let records = world.facility_dataset.records();
    let initial = records.len();

    // Filter 1: single facility, still in PeeringDB.
    let stage1: Vec<_> = records
        .iter()
        .filter(|r| {
            r.single_candidate()
                .is_some_and(|f| world.peeringdb.has_facility(f))
        })
        .collect();

    // Filter 2: pingability (a short burst; any reply counts). The
    // probes go out one by one, in record order, over hundreds of
    // destination ASes; resolving the pairs as one batch first pins
    // each routing table once instead of once per record.
    let probes: Vec<_> = stage1
        .iter()
        .filter_map(|r| Some((vantage, world.hosts.by_ip(r.ip)?.id)))
        .collect();
    engine.resolve_ahead(&probes);
    let stage2: Vec<_> = stage1
        .iter()
        .copied()
        .filter(|r| match world.hosts.by_ip(r.ip) {
            None => false, // address doesn't resolve: dead interface
            Some(h) => (0..cfg.ping_attempts).any(|k| {
                engine
                    .ping(vantage, h.id, t.plus_secs(k as f64), rng)
                    .is_some()
            }),
        })
        .collect();

    // Filter 3: same IP-ownership, not MOAS.
    let stage3: Vec<_> = stage2
        .iter()
        .copied()
        .filter(|r| world.prefix2as.owned_solely_by(r.ip, r.recorded_asn))
        .collect();

    // Filter 4: ASN still present at the facility.
    let stage4: Vec<_> = stage3
        .iter()
        .copied()
        .filter(|r| {
            let f = r.single_candidate().expect("stage1 guarantees single");
            world.peeringdb.is_member(&world.topo, f, r.recorded_asn)
        })
        .collect();

    // Filter 5: RTT-based geolocation via Periscope — again resolved
    // as one batch, before each (LG, target) pair's last hops are
    // sampled one pair at a time (no traceroute is built).
    let located = |r: &FacilityIpRecord| {
        let f = r.single_candidate().expect("single");
        let host = world
            .hosts
            .by_ip(r.ip)
            .expect("stage2 guarantees a live host")
            .id;
        (f, world.topo.facility(f).city, host)
    };
    let periscope = Periscope::new(&world.looking_glasses);
    let probes: Vec<_> = stage4
        .iter()
        .flat_map(|r| {
            let (_, city, host) = located(r);
            periscope.probe_pairs(city, host)
        })
        .collect();
    engine.resolve_ahead(&probes);
    let mut relays = Vec::new();
    for r in &stage4 {
        let (f, city, host) = located(r);
        let Some(min_rtt) = periscope.min_rtt_from_city(engine, city, host, t, rng) else {
            continue; // no Periscope coverage for this city
        };
        if min_rtt <= cfg.geo_threshold_ms {
            relays.push(ColoRelay {
                ip: r.ip,
                host,
                asn: r.recorded_asn,
                facility: f,
                city,
            });
        }
    }

    let funnel = FilterFunnel {
        initial,
        single_facility: stage1.len(),
        pingable: stage2.len(),
        ownership: stage3.len(),
        presence: stage4.len(),
        geolocated: relays.len(),
    };
    ColoPool { relays, funnel }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shortcuts_datasets::GroundTruth;

    fn run(world: &World) -> ColoPool {
        let handle = shortcuts_netsim::PingHandle::new(world.shared().engine(Default::default()));
        let vantage = world.looking_glasses.lgs()[0].host;
        let mut rng = StdRng::seed_from_u64(77);
        run_pipeline(
            world,
            &handle,
            vantage,
            SimTime(0.0),
            &ColoPipelineConfig::default(),
            &mut rng,
        )
    }

    #[test]
    fn funnel_is_monotone_and_nonempty() {
        let world = World::build(&WorldConfig::small(), 12);
        let pool = run(&world);
        let f = pool.funnel;
        assert!(f.initial >= f.single_facility);
        assert!(f.single_facility >= f.pingable);
        assert!(f.pingable >= f.ownership);
        assert!(f.ownership >= f.presence);
        assert!(f.presence >= f.geolocated);
        assert!(f.geolocated > 0, "pipeline should keep something: {f:?}");
        assert_eq!(pool.relays.len(), f.geolocated);
    }

    #[test]
    fn funnel_shape_resembles_paper() {
        let world = World::build(&WorldConfig::small(), 12);
        let pool = run(&world);
        let rates = pool.funnel.pass_rates();
        // Paper: [0.38, 0.76, 0.95, 1.0, 0.49]. Allow generous bands —
        // this is a small world.
        assert!((0.2..0.65).contains(&rates[0]), "stage1 rate {}", rates[0]);
        assert!((0.55..0.95).contains(&rates[1]), "stage2 rate {}", rates[1]);
        assert!((0.65..1.0).contains(&rates[2]), "stage3 rate {}", rates[2]);
        assert!(rates[3] > 0.95, "stage4 rate {}", rates[3]);
        assert!((0.25..0.85).contains(&rates[4]), "stage5 rate {}", rates[4]);
    }

    #[test]
    fn survivors_are_really_at_their_facility() {
        let world = World::build(&WorldConfig::small(), 12);
        let pool = run(&world);
        for relay in &pool.relays {
            let h = world.hosts.get(relay.host);
            assert_eq!(
                h.city, relay.city,
                "geolocation filter let through a mislocated relay"
            );
            // Ownership verified.
            assert!(world.prefix2as.owned_solely_by(relay.ip, relay.asn));
        }
    }

    #[test]
    fn moved_interfaces_are_filtered_out() {
        let world = World::build(&WorldConfig::small(), 12);
        let pool = run(&world);
        let kept_ips: HashSet<_> = pool.relays.iter().map(|r| r.ip).collect();
        for rec in world.facility_dataset.records() {
            if matches!(rec.truth, GroundTruth::AliveElsewhere { .. }) {
                assert!(
                    !kept_ips.contains(&rec.ip),
                    "moved interface {} survived geolocation",
                    rec.ip
                );
            }
            if rec.truth == GroundTruth::Dead {
                assert!(!kept_ips.contains(&rec.ip), "dead IP survived");
            }
        }
    }

    #[test]
    fn pool_spans_facilities_and_cities() {
        let world = World::build(&WorldConfig::small(), 12);
        let pool = run(&world);
        assert!(pool.facility_count() >= 2);
        assert!(pool.city_count() >= 2);
        assert!(pool.facility_count() >= pool.city_count() / 2);
    }
}
