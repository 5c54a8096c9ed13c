//! The sweep determinism contract: every scenario of a concurrent
//! cross-campaign sweep is **bit-identical** to a solo
//! `Campaign::run_streaming` of the same `(seed, config)` — down to
//! the CSV bytes — at any `jobs_in_flight` and any worker-pool size
//! (CI re-runs this suite under `RAYON_NUM_THREADS=1` and `=2`).
//!
//! Sharing the engine's pair cache and the router's destination tables
//! across campaigns is purely a scheduling choice: both caches hold
//! deterministic world facts, so a cache warmed by scenario A must be
//! unobservable to scenario B. These tests are the proof.

use colo_shortcuts::core::report::cases_csv;
use colo_shortcuts::core::sweep::{Sweep, SweepConfig, SweepScenario};
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig, RoundSummary};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::topology::MemoryBudget;
use proptest::prelude::*;
use std::sync::Arc;

fn base_cfg(rounds: u32) -> CampaignConfig {
    let mut cfg = CampaignConfig::small();
    cfg.rounds = rounds;
    cfg
}

/// The acceptance-criteria shape: a 4-scenario sweep whose per-scenario
/// CSVs are byte-identical to four solo runs.
#[test]
fn four_scenario_sweep_matches_four_solo_runs_bytewise() {
    let world = Arc::new(World::build(&WorldConfig::small(), 90));
    let cfg = SweepConfig::from_seeds(&base_cfg(2), [2017, 2018, 2019, 2020]);
    let sweep = Sweep::new(Arc::clone(&world), cfg.clone()).run();
    assert_eq!(sweep.scenarios.len(), 4);
    for (sc, swept) in cfg.scenarios.iter().zip(&sweep.scenarios) {
        assert_eq!(swept.label, sc.label);
        let solo = Campaign::new(&world, sc.config.clone()).run();
        assert_eq!(
            cases_csv(&swept.results),
            cases_csv(&solo),
            "{} diverged from its solo run",
            sc.label
        );
        assert_eq!(swept.results.pings_sent, solo.pings_sent, "{}", sc.label);
    }
}

/// Streamed summaries of a swept scenario equal the solo run's
/// streamed summaries, in the same (round) order.
#[test]
fn swept_streaming_summaries_match_solo_streams() {
    let world = Arc::new(World::build(&WorldConfig::small(), 91));
    let cfg = SweepConfig::from_seeds(&base_cfg(2), [7, 8]);
    let mut streamed: Vec<Vec<RoundSummary>> = vec![Vec::new(); 2];
    Sweep::new(Arc::clone(&world), cfg.clone())
        .run_streaming(|scenario, s| streamed[scenario].push(s.clone()));
    for (i, sc) in cfg.scenarios.iter().enumerate() {
        let mut solo = Vec::new();
        Campaign::new(&world, sc.config.clone()).run_streaming(|s| solo.push(s.clone()));
        assert_eq!(streamed[i], solo, "{}", sc.label);
    }
}

proptest! {
    // Each case runs several small campaigns twice (swept + solo), so
    // keep the case count modest — variety comes from the generators.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random scenario batches — mixed seeds, heterogeneous round
    /// counts, varying window shapes and sharding depths — each
    /// scenario byte-identical to its solo run.
    #[test]
    fn any_sweep_scenario_matches_its_solo_run(
        seeds in proptest::collection::vec(0u64..1_000_000, 2..4),
        extra_rounds in proptest::collection::vec(0u32..2, 2..4),
        jobs_in_flight in 1usize..12,
        pings in 4usize..7,
    ) {
        let world = Arc::new(World::build(&WorldConfig::small(), 92));
        let mut base = base_cfg(1);
        base.window.pings = pings;
        let mut cfg = SweepConfig::from_seeds(&base, seeds);
        cfg.jobs_in_flight = jobs_in_flight;
        // Heterogeneous round counts across scenarios.
        for (sc, extra) in cfg.scenarios.iter_mut().zip(&extra_rounds) {
            sc.config.rounds = 1 + extra;
        }
        let sweep = Sweep::new(Arc::clone(&world), cfg.clone()).run();
        for (sc, swept) in cfg.scenarios.iter().zip(&sweep.scenarios) {
            let solo = Campaign::new(&world, sc.config.clone()).run();
            prop_assert_eq!(
                cases_csv(&swept.results),
                cases_csv(&solo),
                "{} diverged (jobs_in_flight={})",
                &sc.label,
                jobs_in_flight
            );
            prop_assert_eq!(swept.results.pings_sent, solo.pings_sent);
            prop_assert_eq!(
                swept.results.unresponsive_pairs,
                solo.unresponsive_pairs
            );
        }
    }
}

/// The tentpole's determinism contract: a sweep squeezed into a byte
/// budget whose router share holds only ~4 destination tables (and
/// whose pair share is a handful of entries per shard) evicts and
/// recomputes constantly — and still streams CSVs **byte-identical**
/// to fully unbudgeted solo runs. Budgets bound residency, never
/// results: the engine's resident table and pair bytes end within the
/// budget, which the CLI's `ensure_fits` check accepts for this world.
#[test]
fn tiny_budget_sweep_matches_unbudgeted_solo_runs_bytewise() {
    use colo_shortcuts::netsim::ping::{pair_entry_min_bytes, CACHE_SHARDS};
    use colo_shortcuts::topology::routing::table_approx_bytes;

    let world = Arc::new(World::build(&WorldConfig::small(), 94));
    let mut base = CampaignConfig::small();
    base.rounds = 2;
    let table = table_approx_bytes(world.topo.node_index().len());
    // Total sized so the 45% router share is ~4 tables.
    let budget = 9 * table;
    base.memory = MemoryBudget::bytes(budget);
    base.memory
        .ensure_fits(table, 2, pair_entry_min_bytes(), CACHE_SHARDS as u64)
        .expect("the CLI accepts this budget for the small world");
    let cfg = SweepConfig::from_seeds(&base, [2017, 2018, 2019, 2020]);
    let engine = world.shared().engine_budgeted(base.routing, base.memory);
    let sweep = Sweep::with_engine(Arc::clone(&world), Arc::clone(&engine), cfg.clone()).run();
    let stats = engine.engine_stats();
    assert!(
        stats.router_resident_bytes + stats.pair_resident_bytes <= budget,
        "resident bytes (tables {} + pairs {}) exceed the {budget} B budget",
        stats.router_resident_bytes,
        stats.pair_resident_bytes
    );
    for (sc, swept) in cfg.scenarios.iter().zip(&sweep.scenarios) {
        let mut solo_cfg = sc.config.clone();
        solo_cfg.memory = MemoryBudget::unbounded();
        let solo = Campaign::new(&world, solo_cfg).run();
        assert_eq!(
            cases_csv(&swept.results),
            cases_csv(&solo),
            "{} diverged under a ~4-table budget",
            sc.label
        );
        assert_eq!(swept.results.pings_sent, solo.pings_sent, "{}", sc.label);
    }
}

/// Scenario-level fault plans stay scenario-level even though the
/// engine is shared: the clean twin matches a solo clean run exactly.
#[test]
fn faulty_scenario_never_contaminates_its_clean_twin() {
    use colo_shortcuts::netsim::clock::SimTime;
    use colo_shortcuts::netsim::FaultPlan;
    use colo_shortcuts::topology::AsType;

    let world = Arc::new(World::build(&WorldConfig::small(), 93));
    let clean = base_cfg(1);
    let mut faulty = clean.clone();
    let tier1 = world.topo.asns_of_type(AsType::Tier1)[0];
    faulty.faults = FaultPlan::none().with_outage(tier1, SimTime(0.0), SimTime(1e12));
    let cfg = SweepConfig {
        scenarios: vec![
            SweepScenario {
                label: "faulty".into(),
                config: faulty,
            },
            SweepScenario {
                label: "clean".into(),
                config: clean.clone(),
            },
        ],
        jobs_in_flight: 4,
        memory: clean.memory,
        churn: colo_shortcuts::topology::ChurnSchedule::none(),
    };
    let sweep = Sweep::new(Arc::clone(&world), cfg).run();
    let solo_clean = Campaign::new(&world, clean).run();
    assert_eq!(
        cases_csv(&sweep.scenarios[1].results),
        cases_csv(&solo_clean),
        "clean scenario contaminated by its faulty neighbor"
    );
    assert!(
        sweep.scenarios[0].results.unresponsive_pairs > solo_clean.unresponsive_pairs,
        "faults must actually bite in the faulty scenario"
    );
}
