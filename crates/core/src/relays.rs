//! §2.3 — relay populations and per-round sampling.
//!
//! Four relay types are compared:
//!
//! - [`RelayType::Cor`] — colo interfaces surviving the §2.2 funnel;
//!   1–3 sampled per facility per round (~129 on average in the paper).
//! - [`RelayType::Plr`] — PlanetLab nodes; 1–2 consistently-accessible
//!   nodes per site (~59 on average — PlanetLab is flaky).
//! - [`RelayType::RarEye`] — RIPE Atlas probes at *verified eyeball*
//!   (AS, country) tuples; one per country (~82).
//! - [`RelayType::RarOther`] — RIPE Atlas probes at all remaining ASes
//!   (possibly core networks); one per country (~102).

use crate::colo::ColoPool;
use crate::eyeball::VerifiedEyeball;
use crate::world::World;
use rand::prelude::*;
use shortcuts_atlas::ripe::ProbeFilter;
use shortcuts_geo::{CityId, CountryCode, GeoPoint};
use shortcuts_netsim::HostId;
use shortcuts_topology::{Asn, FacilityId};
use std::collections::BTreeMap;

/// The four relay types of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RelayType {
    /// Colo-hosted relay (COR).
    Cor,
    /// PlanetLab relay (PLR).
    Plr,
    /// RIPE Atlas relay at a non-eyeball network (RAR_other).
    RarOther,
    /// RIPE Atlas relay at an eyeball network (RAR_eye).
    RarEye,
}

impl RelayType {
    /// All types, in the order used across results arrays.
    pub const ALL: [RelayType; 4] = [
        RelayType::Cor,
        RelayType::Plr,
        RelayType::RarOther,
        RelayType::RarEye,
    ];

    /// Index into per-type arrays (must match the order of
    /// [`RelayType::ALL`]; `type_index_round_trips` pins that down).
    pub fn index(&self) -> usize {
        match self {
            RelayType::Cor => 0,
            RelayType::Plr => 1,
            RelayType::RarOther => 2,
            RelayType::RarEye => 3,
        }
    }

    /// Display label as used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            RelayType::Cor => "COR",
            RelayType::Plr => "PLR",
            RelayType::RarOther => "RAR_other",
            RelayType::RarEye => "RAR_eye",
        }
    }
}

impl std::fmt::Display for RelayType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One relay candidate.
#[derive(Debug, Clone)]
pub struct Relay {
    /// The relay's host (stable identity across rounds).
    pub host: HostId,
    /// Owning AS.
    pub asn: Asn,
    /// Relay city.
    pub city: CityId,
    /// Relay location.
    pub location: GeoPoint,
    /// Country of the relay.
    pub country: CountryCode,
    /// Type of the relay.
    pub rtype: RelayType,
    /// Facility, for COR relays.
    pub facility: Option<FacilityId>,
}

/// The full candidate pools per type (before per-round sampling).
#[derive(Debug)]
pub struct RelayPools {
    /// COR candidates grouped by facility.
    pub cor_by_facility: BTreeMap<FacilityId, Vec<Relay>>,
    /// PLR candidates grouped by site id.
    pub plr_by_site: BTreeMap<u32, Vec<Relay>>,
    /// RAR_eye candidates grouped by country.
    pub rar_eye_by_country: BTreeMap<CountryCode, Vec<Relay>>,
    /// RAR_other candidates grouped by country.
    pub rar_other_by_country: BTreeMap<CountryCode, Vec<Relay>>,
}

/// The relays actually used in one round, flat per type.
#[derive(Debug, Clone, Default)]
pub struct RoundRelays {
    /// Sampled relays, all types mixed; filter by `rtype`.
    pub relays: Vec<Relay>,
}

impl RoundRelays {
    /// Relays of one type.
    pub fn of_type(&self, t: RelayType) -> impl Iterator<Item = &Relay> {
        self.relays.iter().filter(move |r| r.rtype == t)
    }

    /// Count per type.
    pub fn count(&self, t: RelayType) -> usize {
        self.of_type(t).count()
    }
}

impl RelayPools {
    /// Builds all four candidate pools.
    ///
    /// `colo` is the verified §2.2 pool; `verified` the §2.1 eyeball
    /// tuples (used both to accept RAR_eye probes and to *exclude* them
    /// from RAR_other).
    pub fn build(world: &World, colo: &ColoPool, verified: &[VerifiedEyeball]) -> Self {
        let mk_relay = |host: HostId, rtype: RelayType, facility: Option<FacilityId>| {
            let h = world.hosts.get(host);
            Relay {
                host,
                asn: h.asn,
                city: h.city,
                location: h.location,
                country: world.topo.cities.get(h.city).country,
                rtype,
                facility,
            }
        };

        // COR: group the verified pool by facility.
        let mut cor_by_facility: BTreeMap<FacilityId, Vec<Relay>> = BTreeMap::new();
        for cr in &colo.relays {
            cor_by_facility
                .entry(cr.facility)
                .or_default()
                .push(mk_relay(cr.host, RelayType::Cor, Some(cr.facility)));
        }

        // PLR: group nodes by site (availability is applied per round).
        let mut plr_by_site: BTreeMap<u32, Vec<Relay>> = BTreeMap::new();
        for node in world.planetlab.nodes() {
            plr_by_site.entry(node.site).or_default().push(mk_relay(
                node.host,
                RelayType::Plr,
                None,
            ));
        }

        // RAR: split the probe population by verified-eyeball membership.
        let filter = ProbeFilter::paper();
        let mut rar_eye_by_country: BTreeMap<CountryCode, Vec<Relay>> = BTreeMap::new();
        let mut rar_other_by_country: BTreeMap<CountryCode, Vec<Relay>> = BTreeMap::new();
        for p in world.ripe.probes() {
            if !filter.accepts(p) {
                continue;
            }
            let is_eye = verified
                .iter()
                .any(|v| v.asn == p.asn && v.country == p.country);
            let bucket = if is_eye {
                &mut rar_eye_by_country
            } else {
                &mut rar_other_by_country
            };
            let rtype = if is_eye {
                RelayType::RarEye
            } else {
                RelayType::RarOther
            };
            bucket
                .entry(p.country)
                .or_default()
                .push(mk_relay(p.host, rtype, None));
        }

        RelayPools {
            cor_by_facility,
            plr_by_site,
            rar_eye_by_country,
            rar_other_by_country,
        }
    }

    /// Distinct ASes hosting any relay candidate, ascending. Every
    /// overlay link routes toward (or back from) one of these, so this
    /// is the relay half of the router's warmup destination set.
    pub fn asns(&self) -> Vec<Asn> {
        let set: std::collections::BTreeSet<Asn> = self
            .cor_by_facility
            .values()
            .chain(self.plr_by_site.values())
            .chain(self.rar_eye_by_country.values())
            .chain(self.rar_other_by_country.values())
            .flatten()
            .map(|r| r.asn)
            .collect();
        set.into_iter().collect()
    }

    /// Samples the relays for one round per the paper's strategy.
    ///
    /// `round` drives PlanetLab availability; the RNG drives all random
    /// choices.
    pub fn sample_round<R: Rng + ?Sized>(
        &self,
        world: &World,
        round: u32,
        rng: &mut R,
    ) -> RoundRelays {
        let mut relays = Vec::new();

        // COR: 1-3 IPs per facility.
        for members in self.cor_by_facility.values() {
            let k = rng.gen_range(1..=3).min(members.len());
            relays.extend(members.choose_multiple(rng, k).cloned().collect::<Vec<_>>());
        }

        // PLR: 1-2 consistently-up nodes per site.
        let up: std::collections::HashSet<HostId> = world
            .planetlab
            .consistently_up(round)
            .iter()
            .map(|n| n.host)
            .collect();
        for members in self.plr_by_site.values() {
            let avail: Vec<&Relay> = members.iter().filter(|r| up.contains(&r.host)).collect();
            if avail.is_empty() {
                continue;
            }
            let k = rng.gen_range(1..=2).min(avail.len());
            relays.extend(avail.choose_multiple(rng, k).map(|r| (*r).clone()));
        }

        // RAR_eye / RAR_other: one per country each.
        for members in self.rar_eye_by_country.values() {
            relays.push(members.choose(rng).expect("non-empty").clone());
        }
        for members in self.rar_other_by_country.values() {
            relays.push(members.choose(rng).expect("non-empty").clone());
        }

        RoundRelays { relays }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colo::{run_pipeline, ColoPipelineConfig};
    use crate::eyeball::select_eyeballs;
    use crate::world::WorldConfig;
    use rand::rngs::StdRng;
    use shortcuts_netsim::clock::SimTime;

    fn setup() -> (World, ColoPool, Vec<VerifiedEyeball>) {
        let world = World::build(&WorldConfig::small(), 14);
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
        (world, colo, verified)
    }

    #[test]
    fn pools_are_populated() {
        let (world, colo, verified) = setup();
        let pools = RelayPools::build(&world, &colo, &verified);
        assert!(!pools.cor_by_facility.is_empty());
        assert!(!pools.plr_by_site.is_empty());
        assert!(!pools.rar_eye_by_country.is_empty());
        assert!(!pools.rar_other_by_country.is_empty());
    }

    #[test]
    fn type_index_round_trips() {
        for t in RelayType::ALL {
            assert_eq!(RelayType::ALL[t.index()], t);
        }
        assert_eq!(RelayType::Cor.label(), "COR");
    }

    #[test]
    fn round_sampling_respects_per_group_limits() {
        let (world, colo, verified) = setup();
        let pools = RelayPools::build(&world, &colo, &verified);
        let mut rng = StdRng::seed_from_u64(9);
        let round = pools.sample_round(&world, 1, &mut rng);

        // Per facility at most 3 COR.
        let mut per_fac: BTreeMap<FacilityId, usize> = BTreeMap::new();
        for r in round.of_type(RelayType::Cor) {
            *per_fac
                .entry(r.facility.expect("COR has facility"))
                .or_default() += 1;
        }
        assert!(per_fac.values().all(|&n| n <= 3));

        // Per country exactly 1 RAR_eye / RAR_other.
        let mut eye_countries = std::collections::HashSet::new();
        for r in round.of_type(RelayType::RarEye) {
            assert!(eye_countries.insert(r.country), "duplicate RAR_eye country");
        }
        let mut other_countries = std::collections::HashSet::new();
        for r in round.of_type(RelayType::RarOther) {
            assert!(
                other_countries.insert(r.country),
                "duplicate RAR_other country"
            );
        }
    }

    #[test]
    fn rar_sets_are_disjoint_by_as() {
        let (world, colo, verified) = setup();
        let pools = RelayPools::build(&world, &colo, &verified);
        let eye_asns: std::collections::HashSet<Asn> = pools
            .rar_eye_by_country
            .values()
            .flatten()
            .map(|r| r.asn)
            .collect();
        for r in pools.rar_other_by_country.values().flatten() {
            // An AS can be eyeball in one country and "other" elsewhere,
            // but within the same country the sets must not overlap.
            let clash = verified
                .iter()
                .any(|v| v.asn == r.asn && v.country == r.country);
            assert!(
                !clash,
                "RAR_other contains verified tuple {:?}",
                (r.asn, r.country)
            );
        }
        // Sanity: some eyeball ASes exist.
        assert!(!eye_asns.is_empty());
    }

    #[test]
    fn planetlab_flakiness_varies_sample() {
        let (world, colo, verified) = setup();
        let pools = RelayPools::build(&world, &colo, &verified);
        let mut rng = StdRng::seed_from_u64(10);
        let counts: Vec<usize> = (0..6)
            .map(|round| {
                pools
                    .sample_round(&world, round, &mut rng)
                    .count(RelayType::Plr)
            })
            .collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(
            max > min,
            "availability churn should vary PLR counts: {counts:?}"
        );
    }

    #[test]
    fn cor_relays_point_at_facility_cities() {
        let (world, colo, verified) = setup();
        let pools = RelayPools::build(&world, &colo, &verified);
        for (fid, members) in &pools.cor_by_facility {
            let fcity = world.topo.facility(*fid).city;
            for r in members {
                assert_eq!(r.city, fcity);
                assert_eq!(r.rtype, RelayType::Cor);
            }
        }
    }
}
