//! The assembled simulation world.
//!
//! A [`World`] owns everything a campaign measures against: the
//! topology, the host registry, the three measurement platforms and the
//! four datasets — all generated deterministically from one seed. It
//! deliberately does **not** own a router or ping engine (those are
//! created per campaign or per sweep), so the world itself stays
//! freely shareable across campaigns, ablations and benchmarks.
//!
//! The pieces every measurement stack needs — topology, host registry,
//! latency model — live behind `Arc`s, surfaced as a [`SharedWorld`]
//! by [`World::shared`]. A campaign's router and ping engine co-own
//! them, so engines outlive no-one and can be handed to worker
//! threads, other campaigns of a sweep, or a future service front end
//! without borrowing the `World`.

use shortcuts_atlas::looking_glass::{LookingGlassConfig, LookingGlassNet};
use shortcuts_atlas::planetlab::{PlanetLab, PlanetLabConfig};
use shortcuts_atlas::ripe::{RipeAtlas, RipeAtlasConfig};
use shortcuts_datasets::facility_dataset::{FacilityDataset, FacilityDatasetConfig};
use shortcuts_datasets::{ApnicDataset, PeeringDb, Prefix2As};
use shortcuts_netsim::{HostRegistry, LatencyModel, PingEngine};
use shortcuts_topology::routing::{Router, RoutingPolicy};
use shortcuts_topology::{MemoryBudget, Topology, TopologyConfig};
use std::sync::Arc;

/// Configuration of the full world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Topology generator configuration.
    pub topology: TopologyConfig,
    /// RIPE Atlas population configuration.
    pub ripe: RipeAtlasConfig,
    /// PlanetLab deployment configuration.
    pub planetlab: PlanetLabConfig,
    /// Looking Glass placement configuration.
    pub looking_glass: LookingGlassConfig,
    /// Facility (Giotsas) dataset configuration.
    pub facility_dataset: FacilityDatasetConfig,
    /// Fraction of prefixes with MOAS noise in the prefix2as table.
    pub moas_fraction: f64,
    /// Latency model used by campaigns over this world.
    pub latency: LatencyModel,
}

impl WorldConfig {
    /// Paper-scale world (default).
    pub fn paper_scale() -> Self {
        WorldConfig {
            topology: TopologyConfig::paper_scale(),
            ripe: RipeAtlasConfig::default(),
            planetlab: PlanetLabConfig::default(),
            looking_glass: LookingGlassConfig::default(),
            facility_dataset: FacilityDatasetConfig::default(),
            moas_fraction: 0.01,
            latency: LatencyModel::default(),
        }
    }

    /// Paper world grown `factor`× — the topology scales per
    /// [`TopologyConfig::scaled`] (linear AS population, bounded
    /// per-AS degree) while the measurement overlays (Atlas probes,
    /// PlanetLab, looking glasses) keep their paper-scale footprints.
    /// This is the "internet-scale world under a fixed budget" knob
    /// the perf ledger's `campaign_churn_budget` workload turns.
    pub fn scaled(factor: f64) -> Self {
        WorldConfig {
            topology: TopologyConfig::scaled(factor),
            ..Self::paper_scale()
        }
    }

    /// Small, fast world for tests.
    pub fn small() -> Self {
        WorldConfig {
            topology: TopologyConfig::small(),
            facility_dataset: FacilityDatasetConfig::small(),
            ..Self::paper_scale()
        }
    }
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

/// The fully assembled simulation world.
#[derive(Debug)]
pub struct World {
    /// The AS-level topology, co-ownable by routers and engines.
    pub topo: Arc<Topology>,
    /// All registered hosts (probes, nodes, colo interfaces, LGs),
    /// co-ownable by engines.
    pub hosts: Arc<HostRegistry>,
    /// RIPE Atlas platform.
    pub ripe: RipeAtlas,
    /// PlanetLab deployment.
    pub planetlab: PlanetLab,
    /// Looking Glass population.
    pub looking_glasses: LookingGlassNet,
    /// APNIC user-coverage table.
    pub apnic: ApnicDataset,
    /// Current PeeringDB snapshot.
    pub peeringdb: PeeringDb,
    /// CAIDA-style prefix→AS table.
    pub prefix2as: Prefix2As,
    /// The stale 2015 facility dataset.
    pub facility_dataset: FacilityDataset,
    /// Latency model campaigns should use.
    pub latency: LatencyModel,
    /// The seed the world was built from.
    pub seed: u64,
}

impl World {
    /// Builds the world from a config and master seed. Sub-seeds are
    /// derived per component so the world is fully reproducible.
    pub fn build(cfg: &WorldConfig, seed: u64) -> Self {
        let sub = |k: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
        let topo = Arc::new(Topology::generate(&cfg.topology, sub(1)));
        let mut hosts = HostRegistry::new();
        let ripe = RipeAtlas::generate(&topo, &mut hosts, &cfg.ripe, sub(2));
        let planetlab = PlanetLab::generate(&topo, &mut hosts, &cfg.planetlab, sub(3));
        let looking_glasses =
            LookingGlassNet::generate(&topo, &mut hosts, &cfg.looking_glass, sub(4));
        let facility_dataset =
            FacilityDataset::generate(&topo, &mut hosts, &cfg.facility_dataset, sub(5));
        let apnic = ApnicDataset::from_topology(&topo, sub(6));
        let peeringdb = PeeringDb::snapshot(&topo);
        let prefix2as = Prefix2As::from_topology(&topo, cfg.moas_fraction, sub(7));
        World {
            topo,
            hosts: Arc::new(hosts),
            ripe,
            planetlab,
            looking_glasses,
            apnic,
            peeringdb,
            prefix2as,
            facility_dataset,
            latency: cfg.latency.clone(),
            seed,
        }
    }

    /// The world's shared measurement substrate: cheap-clone handles
    /// on the pieces a router/engine stack co-owns.
    pub fn shared(&self) -> SharedWorld {
        SharedWorld {
            topo: Arc::clone(&self.topo),
            hosts: Arc::clone(&self.hosts),
            latency: self.latency.clone(),
        }
    }
}

/// The co-ownable core of a [`World`]: exactly the pieces campaigns,
/// sweep schedulers and worker threads share — the topology, the host
/// registry and the latency model. Cloning is a couple of refcount
/// bumps.
///
/// This is what breaks the old `Campaign<'w> → &'w World` ownership
/// chain for the measurement stack: a [`PingEngine`] built from a
/// `SharedWorld` owns everything it routes over, so one engine (and
/// its caches) can serve many concurrent campaigns.
#[derive(Debug, Clone)]
pub struct SharedWorld {
    /// The AS-level topology.
    pub topo: Arc<Topology>,
    /// All registered hosts.
    pub hosts: Arc<HostRegistry>,
    /// Latency model campaigns should use.
    pub latency: LatencyModel,
}

impl SharedWorld {
    /// A router over the shared topology under `policy`.
    pub fn router(&self, policy: RoutingPolicy) -> Arc<Router> {
        Arc::new(Router::with_policy(Arc::clone(&self.topo), policy))
    }

    /// A ping engine over the shared substrate, routing under
    /// `policy`. The engine co-owns its inputs; share it across as
    /// many campaigns as the sweep runs.
    pub fn engine(&self, policy: RoutingPolicy) -> Arc<PingEngine> {
        self.engine_budgeted(policy, MemoryBudget::unbounded())
    }

    /// As [`SharedWorld::engine`], but carves `budget` into the
    /// router's and pair cache's byte shares so the stack's residency
    /// stays bounded — evicted tables and pairs are recomputed
    /// bit-identically on miss, so a budgeted engine produces the
    /// exact measurements an unbounded one does.
    pub fn engine_budgeted(&self, policy: RoutingPolicy, budget: MemoryBudget) -> Arc<PingEngine> {
        let router = Arc::new(Router::with_budget(
            Arc::clone(&self.topo),
            policy,
            budget.router_bytes(),
        ));
        Arc::new(PingEngine::with_budget(
            Arc::clone(&self.topo),
            router,
            Arc::clone(&self.hosts),
            self.latency.clone(),
            budget.pair_bytes(),
        ))
    }

    /// Approximate resident bytes of the shared substrate itself (the
    /// topology and host registry a pooled world keeps warm even when
    /// its caches are empty). Coarse by design — the pool budget uses
    /// it to rank whole stacks, not to account exact allocations.
    pub fn approx_bytes(&self) -> u64 {
        (self.topo.as_count() * 400 + self.topo.link_count() * 120 + self.hosts.len() * 200) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_builds_consistently() {
        let w1 = World::build(&WorldConfig::small(), 5);
        let w2 = World::build(&WorldConfig::small(), 5);
        assert_eq!(w1.hosts.len(), w2.hosts.len());
        assert_eq!(w1.ripe.probes().len(), w2.ripe.probes().len());
        assert_eq!(w1.facility_dataset.len(), w2.facility_dataset.len());
        assert!(!w1.hosts.is_empty());
    }

    #[test]
    fn world_components_share_the_topology() {
        let w = World::build(&WorldConfig::small(), 6);
        // Every probe host resolves and belongs to a real AS.
        for p in w.ripe.probes().iter().take(50) {
            let h = w.hosts.get(p.host);
            assert!(w.topo.as_info(h.asn).is_some());
        }
        // PeeringDB facility count matches the topology.
        assert_eq!(w.peeringdb.facilities().len(), w.topo.facilities().len());
    }

    #[test]
    fn shared_world_co_owns_the_substrate() {
        let w = World::build(&WorldConfig::small(), 7);
        let shared = w.shared();
        assert!(Arc::ptr_eq(&shared.topo, &w.topo));
        assert!(Arc::ptr_eq(&shared.hosts, &w.hosts));
        // An engine built from the shared substrate is self-contained:
        // it keeps working when the handle is gone.
        let engine = shared.engine(RoutingPolicy::default());
        drop(shared);
        assert_eq!(engine.hosts().len(), w.hosts.len());
        // Same topology instance, not a copy.
        assert!(std::ptr::eq(engine.topology(), &*w.topo));
    }

    #[test]
    fn different_seeds_give_different_worlds() {
        let w1 = World::build(&WorldConfig::small(), 1);
        let w2 = World::build(&WorldConfig::small(), 2);
        assert_ne!(w1.hosts.len(), w2.hosts.len());
    }
}
