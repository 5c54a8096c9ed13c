//! The batched measurement kernel's equivalence contract:
//!
//! - [`PingHandle::resolve_pairs`] + sampling a block row
//!   (`sample_window_block_tally`) is **bit-identical** to the scalar
//!   per-pair path (`PingHandle::sample_window`, which resolves through
//!   the cache once per window) over arbitrary pair sets — including
//!   duplicate pairs, unroutable pairs, budget-evicted cache shards and
//!   stale entries crossing churn epochs;
//! - a full campaign run on the batched default backend produces CSVs
//!   and ping counts **byte-identical** to the scalar oracle (the
//!   test-only [`ScalarOracle`], one ping at a time) in every execution
//!   mode, and so does a sweep's schedule: two campaigns on one shared
//!   engine, interleaved by `core::shard::run_interleaved`. CI re-runs
//!   this suite under `RAYON_NUM_THREADS=1` and `=2`, so the oracle
//!   also faces the constrained pools' schedules.

mod scalar_oracle;

use colo_shortcuts::core::backend::{ExecMode, MeasurementBackend, NetsimBackend};
use colo_shortcuts::core::plan::plan_round_for;
use colo_shortcuts::core::report::cases_csv;
use colo_shortcuts::core::shard::run_interleaved;
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig, CampaignResults, CampaignSetup};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::netsim::clock::SimTime;
use colo_shortcuts::netsim::{
    FaultPlan, HostId, HostRegistry, LatencyModel, PingEngine, PingHandle, SampleTally,
};
use colo_shortcuts::topology::routing::Router;
use colo_shortcuts::topology::{Topology, TopologyConfig, TopologyDelta};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scalar_oracle::ScalarOracle;
use std::sync::{Arc, OnceLock};

/// The suite's world: small, seed 77, built once. Every test only
/// reads it; each campaign still builds its own engine stack.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::build(&WorldConfig::small(), 77))
}

/// One private engine stack (topology, router, hosts, engine) with two
/// hosts per eyeball AS — so same-AS pairs exist — under an optional
/// pair-cache byte budget. Two stacks built from the same seed share
/// every world fact but no mutable state, which is what lets the
/// batched and scalar paths run side by side under churn (a shared
/// router would see each delta twice).
fn engine_stack(seed: u64, pair_budget: Option<u64>) -> (Arc<PingEngine>, Vec<HostId>) {
    let topo = Arc::new(Topology::generate(&TopologyConfig::small(), seed));
    let router = Arc::new(Router::new(Arc::clone(&topo)));
    let mut hosts = HostRegistry::new();
    let mut ids = Vec::new();
    for &asn in topo.eyeball_asns().iter().take(6) {
        for _ in 0..2 {
            ids.push(hosts.add_host_in_as(&topo, asn, None).expect("host"));
        }
    }
    let engine = Arc::new(PingEngine::with_budget(
        topo,
        router,
        Arc::new(hosts),
        LatencyModel::default(),
        pair_budget,
    ));
    (engine, ids)
}

/// A transit link of the stack's topology, for valid churn deltas.
fn transit_link(engine: &PingEngine) -> TopologyDelta {
    let topo = engine.topology();
    topo.ases()
        .iter()
        .find_map(|info| {
            topo.adjacency(info.asn)
                .customers
                .first()
                .map(|&c| TopologyDelta::LinkDown { a: info.asn, b: c })
        })
        .expect("small topology has a transit link")
}

/// Asserts one batch resolved by the batched kernel samples
/// bit-identically to the scalar path on a twin stack, window by
/// window, and that routability agrees with the scalar resolver.
fn assert_batch_matches_scalar(
    batched: &PingHandle,
    scalar: &PingHandle,
    pairs: &[(HostId, HostId)],
    rng_salt: u64,
) {
    let block = batched.resolve_pairs(pairs);
    let mut distinct = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &p in pairs {
        if seen.insert(p) {
            distinct.push(p);
        }
    }
    assert_eq!(block.len(), distinct.len(), "one row per distinct pair");
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (k, &(src, dst)) in distinct.iter().enumerate() {
        let slot = block.slot(src, dst).expect("batch pair has a slot");
        assert_eq!(
            block.is_routable(slot),
            scalar.as_path(src, dst).is_some(),
            "routability of {src:?}->{dst:?} disagrees with the scalar resolver"
        );
        let seed = rng_salt ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let start = SimTime((k as f64) * 1800.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tally = SampleTally::default();
        batched.sample_window_block_tally(
            &block, slot, start, 6, 300.0, &mut rng, &mut got, &mut tally,
        );
        batched.flush_tally(&tally);
        let mut rng = StdRng::seed_from_u64(seed);
        scalar.sample_window(src, dst, start, 6, 300.0, &mut rng, &mut want);
        assert_eq!(got.len(), want.len(), "reply count for {src:?}->{dst:?}");
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits(), "RTT bits for {src:?}->{dst:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random pair sets (with duplicates and self-pairs), random cache
    /// budgets tight enough to evict, a churn epoch mid-sequence, and
    /// both paths on one engine: the batched kernel must stay
    /// bit-identical to the scalar path through all of it.
    #[test]
    fn resolve_pairs_is_bit_identical_to_scalar_resolution(
        world_seed in 0u64..4,
        pair_picks in prop::collection::vec((0usize..12, 0usize..12), 1..40),
        tight_budget in prop::bool::ANY,
        churn in prop::bool::ANY,
        shared in prop::bool::ANY,
        rng_salt in 0u64..u64::MAX,
    ) {
        // A tight budget forces clock-hand eviction between batches;
        // `None` keeps every entry cached. Both must be unobservable.
        let budget = if tight_budget { Some(2_048) } else { None };
        let (batched, hosts) = engine_stack(world_seed, budget);
        let (twin, hosts_b) = engine_stack(world_seed, budget);
        prop_assert_eq!(&hosts, &hosts_b, "twin stacks must mint identical host IDs");
        // One engine for both paths makes the scalar path read the pair
        // facts the batched kernel cached; churn needs the twin, since a
        // shared router would see each delta twice.
        let scalar = if shared && !churn { Arc::clone(&batched) } else { twin };
        let (batched, scalar) = (PingHandle::new(batched), PingHandle::new(scalar));

        let pairs: Vec<(HostId, HostId)> = pair_picks
            .iter()
            .map(|&(a, b)| (hosts[a % hosts.len()], hosts[b % hosts.len()]))
            .filter(|(a, b)| a != b)
            .collect();
        prop_assume!(!pairs.is_empty());

        assert_batch_matches_scalar(&batched, &scalar, &pairs, rng_salt);

        if churn {
            // The same delta on both (private) stacks: every entry is now
            // stamped before the current epoch, so the next batch
            // re-expands it — still bit-identically.
            let delta = transit_link(batched.engine());
            batched.engine().apply_delta(std::slice::from_ref(&delta));
            scalar.engine().apply_delta(std::slice::from_ref(&delta));
        }
        // Second round over the same pairs: warm hits (or evicted /
        // churned re-expansions) must agree just like cold misses.
        assert_batch_matches_scalar(&batched, &scalar, &pairs, rng_salt ^ 0xABCD);
        prop_assert_eq!(batched.pings_sent(), scalar.pings_sent());
    }
}

/// Runs a campaign through the *scalar oracle* backend — the exact
/// setup path of `Campaign::run`, with only the backend's measurement
/// strategy flipped.
fn scalar_oracle_run(world: &World, cfg: CampaignConfig) -> CampaignResults {
    let engine = world.shared().engine_budgeted(cfg.routing, cfg.memory);
    let handle = PingHandle::with_faults(Arc::clone(&engine), cfg.faults.clone());
    let setup = CampaignSetup::prepare(world, &handle, &cfg);
    engine.router().precompute(&setup.warmup());
    let backend = ScalarOracle {
        handle,
        window: cfg.window,
        campaign_seed: cfg.seed,
    };
    Campaign::new(world, cfg).run_rounds(
        &backend,
        &setup.endpoints,
        &setup.relays,
        setup.colo,
        |_| {},
    )
}

#[test]
fn campaign_csvs_are_byte_identical_to_the_scalar_oracle() {
    let world = world();
    for exec in [
        ExecMode::Serial,
        ExecMode::Parallel,
        ExecMode::Sharded {
            rounds_in_flight: 2,
        },
    ] {
        let mut cfg = CampaignConfig::small();
        cfg.rounds = 2;
        cfg.exec = exec;
        let batched = Campaign::new(world, cfg.clone()).run();
        let scalar = scalar_oracle_run(world, cfg);
        assert!(!batched.cases.is_empty());
        assert_eq!(
            cases_csv(&batched),
            cases_csv(&scalar),
            "batched vs scalar CSV under {exec:?}"
        );
        assert_eq!(batched.pings_sent, scalar.pings_sent, "{exec:?}");
        assert_eq!(
            batched.unresponsive_pairs, scalar.unresponsive_pairs,
            "{exec:?}"
        );
    }
}

#[test]
fn faulted_campaign_matches_the_scalar_oracle() {
    // Fault plans change the sampling loop's RNG skip pattern — the
    // subtlest place for the batched kernel to drift. Down an AS
    // mid-campaign wall-clock and add loss; bytes must still match.
    let world = world();
    let eye = world.topo.eyeball_asns()[0];
    let faults =
        FaultPlan::none()
            .with_lossy_as(eye, 0.3)
            .with_outage(eye, SimTime(0.0), SimTime(3600.0));
    let mut cfg = CampaignConfig::small();
    cfg.rounds = 2;
    cfg.faults = faults;
    let batched = Campaign::new(world, cfg.clone()).run();
    let scalar = scalar_oracle_run(world, cfg);
    assert!(!batched.cases.is_empty());
    assert_eq!(cases_csv(&batched), cases_csv(&scalar));
    assert_eq!(batched.pings_sent, scalar.pings_sent);
}

/// Every window result of `CompletedRound` stages, as bits.
type RoundBits = [Vec<Option<u64>>; 3];

/// Runs every campaign of `cfgs` through `run_interleaved` on one
/// shared engine — a sweep's schedule, without its union warmup — with
/// `backend` building each campaign's backend over its own handle.
/// Returns each campaign's rounds in round order, as bits, and its
/// pings sent.
fn interleaved_rounds<B: MeasurementBackend>(
    world: &World,
    cfgs: &[CampaignConfig],
    backend: impl Fn(PingHandle, &CampaignConfig) -> B,
) -> Vec<(Vec<RoundBits>, u64)> {
    let engine = world
        .shared()
        .engine_budgeted(cfgs[0].routing, cfgs[0].memory);
    let (setups, backends): (Vec<CampaignSetup>, Vec<B>) = cfgs
        .iter()
        .map(|cfg| {
            let handle = PingHandle::with_faults(Arc::clone(&engine), cfg.faults.clone());
            let setup = CampaignSetup::prepare(world, &handle, cfg);
            (setup, backend(handle, cfg))
        })
        .unzip();
    let refs: Vec<&B> = backends.iter().collect();
    let rounds: Vec<u32> = cfgs.iter().map(|cfg| cfg.rounds).collect();
    let mut done: Vec<Vec<(u32, RoundBits)>> = cfgs.iter().map(|_| Vec::new()).collect();
    let bits = |v: &[Option<f64>]| v.iter().map(|m| m.map(f64::to_bits)).collect();
    run_interleaved(
        &refs,
        &rounds,
        3,
        |c, round| {
            let (setup, cfg) = (&setups[c as usize], &cfgs[c as usize]);
            plan_round_for(world, &setup.endpoints, &setup.relays, cfg, round)
        },
        |c, r| {
            let stages = [bits(&r.direct), bits(&r.reverse), bits(&r.links)];
            done[c as usize].push((r.plan.round, stages));
        },
    );
    done.into_iter()
        .zip(&backends)
        .map(|(mut rounds, b)| {
            rounds.sort_by_key(|&(round, _)| round);
            (rounds.into_iter().map(|(_, r)| r).collect(), b.pings_sent())
        })
        .collect()
}

#[test]
fn interleaved_campaigns_match_the_scalar_oracle() {
    let world = world();
    // Two campaigns on one engine, the second under its own fault plan:
    // the pair cache is shared, faults and ping counts are not.
    let mut first = CampaignConfig::small();
    first.rounds = 2;
    let mut second = first.clone();
    second.seed += 1;
    second.faults = FaultPlan::none().with_lossy_as(world.topo.eyeball_asns()[0], 0.3);
    let cfgs = [first, second];
    let batched = interleaved_rounds(world, &cfgs, |handle, cfg| {
        NetsimBackend::new(handle, cfg.window, cfg.seed)
    });
    let scalar = interleaved_rounds(world, &cfgs, |handle, cfg| ScalarOracle {
        handle,
        window: cfg.window,
        campaign_seed: cfg.seed,
    });
    for (c, (b, s)) in batched.iter().zip(&scalar).enumerate() {
        assert!(b
            .0
            .iter()
            .all(|[direct, _, links]| !direct.is_empty() && !links.is_empty()));
        assert_eq!(b, s, "campaign {c}: batched vs scalar oracle");
    }
}
