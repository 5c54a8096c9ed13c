//! The churn campaign contract:
//!
//! - a churn-free schedule — empty, or whose only batches fall past
//!   the last round — is **byte-identical** at the CSV level to no
//!   schedule at all;
//! - a churning campaign is bit-identical across serial, parallel and
//!   round-sharded execution: segment barriers keep every in-flight
//!   window on one topology epoch, and within a segment the usual
//!   per-task RNG derivation makes scheduling unobservable;
//! - a sweep carrying a sweep-level schedule matches solo campaigns
//!   running the same schedule on the same world;
//! - churn actually bites: downing a Tier1 at mid-campaign changes
//!   the measurements.

use colo_shortcuts::core::backend::ExecMode;
use colo_shortcuts::core::report::cases_csv;
use colo_shortcuts::core::sweep::{Sweep, SweepConfig};
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::topology::{AsType, ChurnSchedule, MemoryBudget, TopologyDelta};
use std::sync::Arc;

fn base_cfg(rounds: u32) -> CampaignConfig {
    let mut cfg = CampaignConfig::small();
    cfg.rounds = rounds;
    // CI re-runs this suite with COLO_MEMORY_BUDGET small enough to
    // force cache eviction mid-churn: stale tables are then evicted
    // and rebuilt fresh under the current view, and the bit-identity
    // assertions prove staleness and eviction compose transparently.
    if let Ok(s) = std::env::var("COLO_MEMORY_BUDGET") {
        cfg.memory = MemoryBudget::parse(&s).expect("bad COLO_MEMORY_BUDGET");
    }
    cfg
}

/// A base transit link of `world`'s topology, for valid link deltas.
fn transit_link(world: &World) -> (colo_shortcuts::topology::Asn, colo_shortcuts::topology::Asn) {
    world
        .topo
        .ases()
        .iter()
        .find_map(|info| {
            world
                .topo
                .adjacency(info.asn)
                .customers
                .first()
                .map(|&c| (info.asn, c))
        })
        .expect("small world has at least one transit link")
}

#[test]
fn churn_free_schedule_is_byte_identical_to_no_schedule() {
    let world = World::build(&WorldConfig::small(), 77);
    let clean = Campaign::new(&world, base_cfg(2)).run();
    assert!(!clean.cases.is_empty());

    // A schedule whose only batch falls past the last round never
    // fires: segments() degenerates to one full-range epoch.
    let (a, b) = transit_link(&world);
    let mut cfg = base_cfg(2);
    cfg.churn.add(99, TopologyDelta::LinkDown { a, b });
    let late = Campaign::new(&world, cfg).run();
    assert_eq!(cases_csv(&clean), cases_csv(&late));
    assert_eq!(clean.pings_sent, late.pings_sent);

    // And the explicit empty schedule is the default.
    let mut cfg = base_cfg(2);
    cfg.churn = ChurnSchedule::none();
    let empty = Campaign::new(&world, cfg).run();
    assert_eq!(cases_csv(&clean), cases_csv(&empty));
}

#[test]
fn churny_campaign_is_identical_across_exec_modes() {
    let world = World::build(&WorldConfig::small(), 77);
    let (a, b) = transit_link(&world);
    let tier1 = world.topo.asns_of_type(AsType::Tier1)[0];
    let mut schedule = ChurnSchedule::none();
    schedule.add(1, TopologyDelta::LinkDown { a, b });
    schedule.add(2, TopologyDelta::AsDown { asn: tier1 });
    schedule.add(2, TopologyDelta::LinkUp { a, b });

    let run = |exec: ExecMode| {
        let mut cfg = base_cfg(3);
        cfg.exec = exec;
        cfg.churn = schedule.clone();
        Campaign::new(&world, cfg).run()
    };
    let serial = run(ExecMode::Serial);
    assert!(!serial.cases.is_empty());
    for exec in [
        ExecMode::Parallel,
        ExecMode::Sharded {
            rounds_in_flight: 1,
        },
        ExecMode::Sharded {
            rounds_in_flight: 2,
        },
        ExecMode::Sharded {
            rounds_in_flight: 16,
        },
    ] {
        let other = run(exec);
        assert_eq!(cases_csv(&serial), cases_csv(&other), "{exec:?}");
        assert_eq!(serial.pings_sent, other.pings_sent, "{exec:?}");
    }
}

#[test]
fn sweep_with_churn_matches_solo_campaigns_with_same_schedule() {
    let world = Arc::new(World::build(&WorldConfig::small(), 90));
    let (a, b) = transit_link(&world);
    let mut base = base_cfg(2);
    base.churn.add(1, TopologyDelta::LinkDown { a, b });
    // from_seeds lifts the base schedule to sweep level: the world is
    // shared, so churn hits every scenario at the same absolute round.
    let cfg = SweepConfig::from_seeds(&base, [2017, 2018]);
    assert!(!cfg.churn.is_empty() && cfg.scenarios[0].config.churn.is_empty());
    let sweep = Sweep::new(Arc::clone(&world), cfg.clone()).run();
    for (sc, swept) in cfg.scenarios.iter().zip(&sweep.scenarios) {
        let mut solo_cfg = sc.config.clone();
        solo_cfg.churn = base.churn.clone();
        let solo = Campaign::new(&world, solo_cfg).run();
        assert_eq!(
            cases_csv(&swept.results),
            cases_csv(&solo),
            "{} diverged from its churning solo run",
            sc.label
        );
        assert_eq!(swept.results.pings_sent, solo.pings_sent, "{}", sc.label);
    }
}

#[test]
#[should_panic(expected = "per-scenario churn")]
fn per_scenario_churn_is_rejected() {
    let world = Arc::new(World::build(&WorldConfig::small(), 90));
    let (a, b) = transit_link(&world);
    let mut cfg = SweepConfig::from_seeds(&base_cfg(1), [2017, 2018]);
    cfg.scenarios[0]
        .config
        .churn
        .add(0, TopologyDelta::LinkDown { a, b });
    let _ = Sweep::new(world, cfg).run();
}

#[test]
fn churn_changes_the_measurements() {
    let world = World::build(&WorldConfig::small(), 77);
    let clean = Campaign::new(&world, base_cfg(2)).run();
    let tier1 = world.topo.asns_of_type(AsType::Tier1)[0];
    let mut cfg = base_cfg(2);
    cfg.churn.add(1, TopologyDelta::AsDown { asn: tier1 });
    let churned = Campaign::new(&world, cfg).run();
    // Round 0 is untouched; from round 1 on, paths through the downed
    // Tier1 reroute or black-hole, so the CSVs must diverge.
    assert_ne!(
        cases_csv(&clean),
        cases_csv(&churned),
        "downing {tier1:?} was unobservable"
    );
}
