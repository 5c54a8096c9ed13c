//! The pair resolver's mechanisms, pinned with counters rather than
//! timings:
//!
//! - a batch touches each routing table **once** — the reverse route of
//!   a pair is a forward route of the mirrored AS pair, swept with its
//!   own destination, never looked up pair by pair;
//! - successive sweeps that overflow the router's budget run in
//!   **alternating direction** (pinned in
//!   `pair_resolver_sweep_direction`, alone in its binary because it
//!   sets `RAYON_NUM_THREADS`);
//! - the §2.2 funnel **resolves ahead** in bulk — a pure hint: pool,
//!   funnel, ping accounting and the RNG stream do not depend on it —
//!   which is what keeps `CampaignSetup::prepare` from thrashing a
//!   budgeted router.

use colo_shortcuts::core::colo::{run_pipeline, ColoPipelineConfig};
use colo_shortcuts::core::workflow::{CampaignConfig, CampaignSetup};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::netsim::clock::SimTime;
use colo_shortcuts::netsim::{HostId, PingHandle, Pinger};
use colo_shortcuts::topology::{Asn, MemoryBudget};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

mod resolver_stack;

use resolver_stack::{all_ordered_pairs, budgeted_stack};

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

    fn min_last_hop_rtt<R: Rng + ?Sized>(
        &self,
        src: HostId,
        dst: HostId,
        t: SimTime,
        attempts: usize,
        rng: &mut R,
    ) -> Option<f64> {
        self.0.min_last_hop_rtt(src, dst, t, attempts, rng)
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
