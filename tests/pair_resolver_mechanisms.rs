//! The pair resolver's three mechanisms, pinned with counters rather
//! than timings:
//!
//! - a batch touches each routing table **once** — the reverse route of
//!   a pair is a forward route of the mirrored AS pair, swept with its
//!   own destination, never looked up pair by pair;
//! - successive sweeps that overflow the router's budget run in
//!   **alternating direction**, so the tables one leaves resident are
//!   the first the next one asks for (and, under churn, brings
//!   current);
//! - the §2.2 funnel **resolves ahead** in bulk — a pure hint: pool,
//!   funnel, ping accounting and the RNG stream do not depend on it —
//!   which is what keeps `CampaignSetup::prepare` from thrashing a
//!   budgeted router.

use colo_shortcuts::core::colo::{run_pipeline, ColoPipelineConfig};
use colo_shortcuts::core::workflow::{CampaignConfig, CampaignSetup};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::netsim::clock::SimTime;
use colo_shortcuts::netsim::{
    HostId, HostRegistry, LatencyModel, PingEngine, PingHandle, Pinger, Traceroute,
};
use colo_shortcuts::topology::routing::{table_approx_bytes, Router, RoutingPolicy};
use colo_shortcuts::topology::{Asn, MemoryBudget, Topology, TopologyConfig, TopologyDelta};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// One host in each of `n` eyeball ASes, on an engine whose router can
/// hold `tables` routing tables — far fewer than the batch needs.
fn budgeted_stack(n: usize, tables: u64) -> (PingEngine, Vec<HostId>) {
    let topo = Arc::new(Topology::generate(&TopologyConfig::small(), 31));
    let budget = tables * table_approx_bytes(topo.node_index().len());
    let router = Arc::new(Router::with_budget(
        Arc::clone(&topo),
        RoutingPolicy::ValleyFree,
        Some(budget),
    ));
    let mut hosts = HostRegistry::new();
    let ids: Vec<HostId> = topo
        .eyeball_asns()
        .iter()
        .take(n)
        .map(|&asn| hosts.add_host_in_as(&topo, asn, None).expect("host"))
        .collect();
    assert_eq!(ids.len(), n, "small topology has {n} eyeball ASes");
    let engine = PingEngine::new(topo, router, Arc::new(hosts), LatencyModel::default());
    (engine, ids)
}

fn all_ordered_pairs(hosts: &[HostId]) -> Vec<(HostId, HostId)> {
    let mut pairs = Vec::new();
    for &s in hosts {
        for &d in hosts {
            if s != d {
                pairs.push((s, d));
            }
        }
    }
    pairs
}

#[test]
fn a_batch_touches_each_routing_table_once() {
    // 24 source and destination ASes, a router that holds 4 tables.
    let (engine, hosts) = budgeted_stack(24, 4);
    let pairs = all_ordered_pairs(&hosts);
    let block = engine.resolve_pairs(&pairs);
    assert_eq!(block.len(), pairs.len());
    let router = engine.router().stats();
    assert!(router.evictions > 0, "the budget must bite: {router:?}");
    // One table per distinct AS, however many of the 552 pairs ask for
    // it in either direction. (A per-pair reverse lookup rebuilds an
    // evicted table for nearly every pair.)
    assert!(router.misses <= hosts.len() as u64, "{router:?}");
    let stats = engine.engine_stats();
    assert_eq!(stats.routes_walked, pairs.len() as u64, "{stats:?}");
}

#[test]
fn overflowing_sweeps_alternate_direction_and_meet_resident_tables() {
    // 24 ASes against six tables. Destination runs execute on the
    // worker pool, so the order tables are touched in is exact only up
    // to the worker count: six tables leave room for the last few runs
    // of a sweep to finish in any order and stay resident, and one
    // worker (the other tests here assert counters too, so they do not
    // mind) makes the order exact on any machine.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (engine, hosts) = budgeted_stack(24, 6);
    let pairs = all_ordered_pairs(&hosts);
    let _ = engine.resolve_pairs(&pairs);
    assert_eq!(engine.engine_stats().full_rebuilds, 0);

    // The sweep ran ascending, so the tables toward the highest nodes
    // were touched last and are resident. Down the first provider
    // link of the highest one: every pair to or from it goes stale
    // *and* crosses the dirty link, so the batch re-expands them and
    // asks for all 24 tables again.
    let hosts_of = engine.hosts();
    let top = hosts
        .iter()
        .map(|&h| hosts_of.get(h))
        .max_by_key(|h| h.node)
        .expect("hosts");
    let provider = *engine
        .topology()
        .adjacency(top.asn)
        .providers
        .first()
        .expect("an eyeball AS has a provider");
    engine.apply_delta(&[TopologyDelta::LinkDown {
        a: top.asn,
        b: provider,
    }]);
    let _ = engine.resolve_pairs(&pairs);

    // Descending, the second sweep asks for those resident, now stale
    // tables first and brings them current. Ascending again it would
    // get to them last, long after the rebuilt tables before them had
    // pushed them out, and find nothing stale to rebuild.
    let stats = engine.engine_stats();
    assert!(stats.full_rebuilds >= 1, "{stats:?}");
}

/// A [`Pinger`] that forwards probes and drops the bulk-resolution
/// hint — what every pinger did before the hint existed.
struct NoResolveAhead<'a>(&'a PingHandle);

impl Pinger for NoResolveAhead<'_> {
    fn ping<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        rng: &mut R,
    ) -> Option<f64> {
        self.0.ping(src, dst, t, rng)
    }

    fn traceroute<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        rng: &mut R,
    ) -> Option<Traceroute> {
        self.0.traceroute(src, dst, t, rng)
    }
}

#[test]
fn funnel_does_not_depend_on_resolving_ahead() {
    let world = World::build(&WorldConfig::small(), 12);
    let vantage = world.looking_glasses.lgs()[0].host;
    let cfg = ColoPipelineConfig::default();
    // A private engine each: neither run may warm the other's cache.
    let handle = || PingHandle::new(world.shared().engine(Default::default()));

    let hinted = handle();
    let mut rng_hinted = StdRng::seed_from_u64(77);
    let with = run_pipeline(
        &world,
        &hinted,
        vantage,
        SimTime(0.0),
        &cfg,
        &mut rng_hinted,
    );

    let plain = handle();
    let mut rng_plain = StdRng::seed_from_u64(77);
    let without = run_pipeline(
        &world,
        &NoResolveAhead(&plain),
        vantage,
        SimTime(0.0),
        &cfg,
        &mut rng_plain,
    );

    assert!(with.funnel.geolocated > 0, "{:?}", with.funnel);
    assert_eq!(with, without, "pool and funnel");
    assert_eq!(hinted.pings_sent(), plain.pings_sent());
    assert_eq!(rng_hinted.next_u64(), rng_plain.next_u64(), "next draw");
    // The hint did its job: the probes went out against a warm cache.
    let (warm, cold) = (
        hinted.engine().engine_stats(),
        plain.engine().engine_stats(),
    );
    assert!(warm.pair_cache_hits > cold.pair_cache_hits, "{warm:?}");
}

#[test]
fn prepare_on_the_4x_world_rebuilds_no_table_twice() {
    // The ledger's `campaign_churn_budget` set-up: 4× world, 48M.
    let world = World::build(&WorldConfig::scaled(4.0), 2017);
    let mut cfg = CampaignConfig::paper();
    cfg.memory = MemoryBudget::parse("48M").expect("valid budget");
    let engine = world.shared().engine_budgeted(cfg.routing, cfg.memory);
    let handle = PingHandle::new(Arc::clone(&engine));
    let setup = CampaignSetup::prepare(&world, &handle, &cfg);
    assert!(setup.colo.funnel.geolocated > 0);

    // Every AS the funnel can route toward or from: the vantage and
    // the other Looking Glasses, and the candidate interfaces.
    let mut ases: HashSet<Asn> = world
        .looking_glasses
        .lgs()
        .iter()
        .map(|lg| lg.asn)
        .collect();
    ases.extend(
        world
            .facility_dataset
            .records()
            .iter()
            .filter_map(|r| world.hosts.by_ip(r.ip))
            .map(|h| h.asn),
    );
    let stats = engine.engine_stats();
    assert!(
        stats.router_evictions > 0,
        "the budget must bite: {stats:?}"
    );
    // Two bulk resolutions, each touching a table at most once, plus
    // the odd scalar lookup of an entry the pair budget already
    // dropped. Pair by pair in record order this was 23,166.
    assert!(stats.router_recomputes <= ases.len() as u64, "{stats:?}");
}
