//! RIPE Atlas platform simulation.
//!
//! Generates a globally distributed probe population with the metadata
//! the paper's endpoint filter (§2.1) keys on:
//!
//! 1. firmware version (only the latest avoids measurement interference,
//!    citing Holterbach et al.),
//! 2. public availability,
//! 3. connected / pingable state,
//! 4. geolocation tags,
//! 5. 30-day connectivity stability.
//!
//! Probe density is deliberately **biased toward large eyeballs** (as on
//! the real platform), which is exactly why the paper samples one probe
//! per AS per round instead of using all probes. Anchors are placed at
//! well-connected ASes. A credit-based [`MeasurementBudget`] models the
//! RIPE Atlas user-defined-measurement limit as a standalone type; no
//! campaign, sweep or service path consults it, so nothing here caps
//! how many pings a campaign sends.

use rand::prelude::*;
use rand::rngs::StdRng;
use shortcuts_geo::{CityId, CountryCode};
use shortcuts_netsim::{HostId, HostKind, HostRegistry};
use shortcuts_topology::{AsType, Asn, Topology};

/// The "current" firmware version; probes on older firmware are filtered
/// out by the paper's criterion (i).
pub const LATEST_FIRMWARE: u32 = 4790;

/// One RIPE Atlas probe (or anchor).
#[derive(Debug, Clone)]
pub struct Probe {
    /// Platform probe id.
    pub id: u32,
    /// Netsim host carrying the probe's address.
    pub host: HostId,
    /// AS hosting the probe.
    pub asn: Asn,
    /// Country of the hosting AS (the probe's physical country).
    pub country: CountryCode,
    /// City the probe is in.
    pub city: CityId,
    /// Firmware version.
    pub firmware: u32,
    /// Whether the probe is publicly usable.
    pub public: bool,
    /// Whether the probe is currently connected (and hence pingable).
    pub connected: bool,
    /// Whether the probe carries geolocation coordinates/tags.
    pub has_geo: bool,
    /// Days of uninterrupted connectivity out of the last 30.
    pub stable_days: u32,
    /// Whether this is an anchor (server-class, well-connected).
    pub is_anchor: bool,
}

/// Declarative probe filter — the paper's §2.1 criteria as data.
#[derive(Debug, Clone)]
pub struct ProbeFilter {
    /// Minimum firmware version (criterion i).
    pub min_firmware: u32,
    /// Require public probes (criterion ii).
    pub require_public: bool,
    /// Require connected/pingable probes (criterion iii).
    pub require_connected: bool,
    /// Require geolocation tags (criterion iv).
    pub require_geo: bool,
    /// Minimum days of stability over the last 30 (criterion v).
    pub min_stable_days: u32,
}

impl ProbeFilter {
    /// The exact filter of §2.1: latest firmware, public, connected,
    /// geo-tagged, stable for the whole 30-day window.
    pub fn paper() -> Self {
        ProbeFilter {
            min_firmware: LATEST_FIRMWARE,
            require_public: true,
            require_connected: true,
            require_geo: true,
            min_stable_days: 30,
        }
    }

    /// Whether `p` passes the filter.
    pub fn accepts(&self, p: &Probe) -> bool {
        p.firmware >= self.min_firmware
            && (!self.require_public || p.public)
            && (!self.require_connected || p.connected)
            && (!self.require_geo || p.has_geo)
            && p.stable_days >= self.min_stable_days
    }
}

/// Generation knobs for the probe population.
#[derive(Debug, Clone)]
pub struct RipeAtlasConfig {
    /// Expected probes at a large eyeball (scaled by user share).
    pub probes_per_big_eyeball: usize,
    /// Probability a core (content/tier-2/research) AS hosts probes.
    /// RIPE Atlas has a significant deployment in commercial core
    /// networks — the paper's explanation for RAR_other's strength.
    pub core_as_probe_prob: f64,
    /// Probability an enterprise stub AS hosts probes.
    pub enterprise_probe_prob: f64,
    /// Probability that a *small* eyeball (below ~10 % user share)
    /// hosts any probe at all — RIPE Atlas coverage at small access
    /// ISPs is sparse.
    pub small_eyeball_probe_prob: f64,
    /// Max probes at a non-eyeball AS.
    pub other_as_max_probes: usize,
    /// Fraction of probes that are anchors.
    pub anchor_fraction: f64,
    /// Probability a probe runs the latest firmware.
    pub latest_firmware_prob: f64,
    /// Probability a probe is public.
    pub public_prob: f64,
    /// Probability a probe is currently connected.
    pub connected_prob: f64,
    /// Probability a probe has geolocation tags.
    pub geo_prob: f64,
}

impl Default for RipeAtlasConfig {
    fn default() -> Self {
        RipeAtlasConfig {
            probes_per_big_eyeball: 14,
            core_as_probe_prob: 0.7,
            enterprise_probe_prob: 0.12,
            small_eyeball_probe_prob: 0.3,
            other_as_max_probes: 3,
            anchor_fraction: 0.05,
            latest_firmware_prob: 0.8,
            public_prob: 0.92,
            connected_prob: 0.9,
            geo_prob: 0.85,
        }
    }
}

/// The simulated RIPE Atlas platform.
#[derive(Debug)]
pub struct RipeAtlas {
    probes: Vec<Probe>,
}

impl RipeAtlas {
    /// Generates the probe population over `topo`, registering one host
    /// per probe in `hosts`.
    pub fn generate(
        topo: &Topology,
        hosts: &mut HostRegistry,
        cfg: &RipeAtlasConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut probes = Vec::new();
        let mut next_id = 10_000u32;

        let mut add_probe = |rng: &mut StdRng,
                             probes: &mut Vec<Probe>,
                             hosts: &mut HostRegistry,
                             asn: Asn,
                             city: CityId| {
            // Last-mile access delay: probes at eyeballs sit on home
            // DSL/cable/fiber lines; probes at other networks are
            // usually racked near the network core.
            let access_ms = match topo.expect_as(asn).as_type {
                AsType::Eyeball => rng.gen_range(4.0..22.0),
                AsType::Enterprise => rng.gen_range(2.0..10.0),
                _ => rng.gen_range(0.2..1.5),
            };
            let Ok(host) =
                hosts.add_host_with_access(topo, asn, Some(city), HostKind::Probe, access_ms)
            else {
                return;
            };
            let is_anchor = rng.gen_bool(cfg.anchor_fraction);
            let firmware = if rng.gen_bool(cfg.latest_firmware_prob) {
                LATEST_FIRMWARE
            } else {
                LATEST_FIRMWARE - rng.gen_range(1..=400)
            };
            let connected = rng.gen_bool(cfg.connected_prob);
            // Stability correlates with connectedness: a disconnected
            // probe can't have a full stable window.
            let stable_days = if connected {
                if rng.gen_bool(0.75) {
                    30
                } else {
                    rng.gen_range(0..30)
                }
            } else {
                rng.gen_range(0..25)
            };
            probes.push(Probe {
                id: next_id,
                host,
                asn,
                country: topo.cities.get(city).country,
                city,
                firmware,
                public: rng.gen_bool(cfg.public_prob),
                connected,
                has_geo: rng.gen_bool(cfg.geo_prob),
                stable_days,
                is_anchor,
            });
            next_id += 1;
        };

        for info in topo.ases() {
            let domestic_cities: Vec<CityId> = info
                .pops
                .iter()
                .map(|&p| topo.pop(p).city)
                .filter(|&c| topo.cities.get(c).country == info.home_country)
                .collect();
            if domestic_cities.is_empty() {
                continue;
            }
            match info.as_type {
                AsType::Eyeball => {
                    // Probe count scales with user share; small eyeballs
                    // often host none at all.
                    let n = if info.user_share >= 0.10 {
                        1 + (info.user_share * cfg.probes_per_big_eyeball as f64 * 2.0).round()
                            as usize
                    } else if rng.gen_bool(cfg.small_eyeball_probe_prob) {
                        1
                    } else {
                        0
                    };
                    for _ in 0..n {
                        let city = *domestic_cities.choose(&mut rng).expect("non-empty");
                        add_probe(&mut rng, &mut probes, hosts, info.asn, city);
                    }
                }
                AsType::Content | AsType::Tier2 | AsType::Research | AsType::Enterprise => {
                    let p = if info.as_type == AsType::Enterprise {
                        cfg.enterprise_probe_prob
                    } else {
                        cfg.core_as_probe_prob
                    };
                    if rng.gen_bool(p) {
                        let n = rng.gen_range(1..=cfg.other_as_max_probes);
                        // Core-network probes are usually racked in the
                        // AS's best-connected metro.
                        let hub_city = domestic_cities
                            .iter()
                            .copied()
                            .find(|&c| topo.cities.get(c).is_hub);
                        for _ in 0..n {
                            let city = match hub_city {
                                Some(h) if rng.gen_bool(0.7) => h,
                                _ => *domestic_cities.choose(&mut rng).expect("non-empty"),
                            };
                            add_probe(&mut rng, &mut probes, hosts, info.asn, city);
                        }
                    }
                }
                AsType::Tier1 => {} // no probes inside backbones
            }
        }

        RipeAtlas { probes }
    }

    /// All probes.
    pub fn probes(&self) -> &[Probe] {
        &self.probes
    }

    /// Probes passing `filter`.
    pub fn filtered(&self, filter: &ProbeFilter) -> Vec<&Probe> {
        self.probes.iter().filter(|p| filter.accepts(p)).collect()
    }

    /// Probes of a given AS.
    pub fn probes_in_as(&self, asn: Asn) -> Vec<&Probe> {
        self.probes.iter().filter(|p| p.asn == asn).collect()
    }
}

/// Credit-based measurement budget, mirroring RIPE Atlas UDM limits.
///
/// Every ping costs credits. The paper's campaign sent ~8.7 M pings
/// under such a limit; this type models the arithmetic of one, and only
/// its own unit tests exercise it — the campaign workflow neither checks
/// affordability nor charges it.
#[derive(Debug, Clone)]
pub struct MeasurementBudget {
    credits: u64,
    spent: u64,
    /// Credits per single ping measurement.
    pub ping_cost: u64,
}

impl MeasurementBudget {
    /// Creates a budget with the given credits (1 credit = 1 ping by
    /// default).
    pub fn new(credits: u64) -> Self {
        MeasurementBudget {
            credits,
            spent: 0,
            ping_cost: 1,
        }
    }

    /// Whether `n` pings are affordable.
    pub fn can_afford(&self, n: u64) -> bool {
        self.spent + n * self.ping_cost <= self.credits
    }

    /// Spends credits for `n` pings. Returns `false` (spending nothing)
    /// if unaffordable.
    pub fn spend(&mut self, n: u64) -> bool {
        if !self.can_afford(n) {
            return false;
        }
        self.spent += n * self.ping_cost;
        true
    }

    /// Credits remaining.
    pub fn remaining(&self) -> u64 {
        self.credits - self.spent
    }

    /// Total pings spent so far.
    pub fn spent_pings(&self) -> u64 {
        self.spent / self.ping_cost.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shortcuts_topology::TopologyConfig;

    fn platform() -> (Topology, RipeAtlas, HostRegistry) {
        let topo = Topology::generate(&TopologyConfig::small(), 33);
        let mut hosts = HostRegistry::new();
        let ra = RipeAtlas::generate(&topo, &mut hosts, &RipeAtlasConfig::default(), 1);
        (topo, ra, hosts)
    }

    #[test]
    fn population_is_nonempty_and_diverse() {
        let (topo, ra, hosts) = platform();
        assert!(ra.probes().len() > 100, "got {}", ra.probes().len());
        assert_eq!(hosts.len(), ra.probes().len());
        // Probes exist in many countries.
        let countries: std::collections::HashSet<_> =
            ra.probes().iter().map(|p| p.country).collect();
        assert!(countries.len() > 30, "got {}", countries.len());
        // Every *large* eyeball AS hosts at least one probe.
        for &asn in topo.eyeball_asns() {
            if topo.expect_as(asn).user_share >= 0.10 {
                assert!(!ra.probes_in_as(asn).is_empty(), "{asn} without probes");
            }
        }
    }

    #[test]
    fn paper_filter_reduces_population() {
        let (_, ra, _) = platform();
        let all = ra.probes().len();
        let kept = ra.filtered(&ProbeFilter::paper()).len();
        assert!(kept > 0);
        assert!(kept < all, "filter must drop something: {kept}/{all}");
        // Every kept probe satisfies all criteria.
        for p in ra.filtered(&ProbeFilter::paper()) {
            assert_eq!(p.firmware, LATEST_FIRMWARE);
            assert!(p.public && p.connected && p.has_geo);
            assert_eq!(p.stable_days, 30);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let topo = Topology::generate(&TopologyConfig::small(), 33);
        let mut h1 = HostRegistry::new();
        let mut h2 = HostRegistry::new();
        let a = RipeAtlas::generate(&topo, &mut h1, &RipeAtlasConfig::default(), 9);
        let b = RipeAtlas::generate(&topo, &mut h2, &RipeAtlasConfig::default(), 9);
        assert_eq!(a.probes().len(), b.probes().len());
        for (x, y) in a.probes().iter().zip(b.probes().iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.firmware, y.firmware);
            assert_eq!(x.stable_days, y.stable_days);
        }
    }

    #[test]
    fn probes_are_in_home_country() {
        let (topo, ra, _) = platform();
        for p in ra.probes() {
            let info = topo.expect_as(p.asn);
            assert_eq!(p.country, info.home_country);
            assert_eq!(topo.cities.get(p.city).country, info.home_country);
        }
    }

    #[test]
    fn filter_criteria_are_independent() {
        let (_, ra, _) = platform();
        let base = ProbeFilter {
            min_firmware: 0,
            require_public: false,
            require_connected: false,
            require_geo: false,
            min_stable_days: 0,
        };
        let all = ra.filtered(&base).len();
        assert_eq!(all, ra.probes().len());
        let fw_only = ra.filtered(&ProbeFilter {
            min_firmware: LATEST_FIRMWARE,
            ..base.clone()
        });
        assert!(fw_only.len() < all);
        assert!(fw_only.iter().all(|p| p.firmware >= LATEST_FIRMWARE));
    }

    #[test]
    fn budget_accounting() {
        let mut b = MeasurementBudget::new(10);
        assert!(b.can_afford(10));
        assert!(b.spend(6));
        assert_eq!(b.remaining(), 4);
        assert!(!b.spend(5), "cannot overspend");
        assert_eq!(b.remaining(), 4, "failed spend must not deduct");
        assert!(b.spend(4));
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.spent_pings(), 10);
    }

    #[test]
    fn anchors_are_a_minority() {
        let (_, ra, _) = platform();
        let anchors = ra.probes().iter().filter(|p| p.is_anchor).count();
        assert!(anchors > 0);
        assert!(anchors * 5 < ra.probes().len());
    }
}
