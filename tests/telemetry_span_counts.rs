//! Telemetry records a span per stage, never per window or ping: over
//! a campaign, each stage histogram gains exactly the count its round
//! plans imply, and under churn the repair stage gains exactly one
//! span per stale routing table rebuilt. Core spans go to the process-wide
//! `shortcuts_telemetry::global()`, so this suite is its own test
//! binary with a single test.

mod scalar_oracle;

use colo_shortcuts::core::backend::{ExecMode, MeasurementBackend, NetsimBackend};
use colo_shortcuts::core::plan::{plan_overlay, plan_round_for};
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig, CampaignSetup};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::netsim::PingHandle;
use colo_shortcuts::topology::TopologyDelta;
use scalar_oracle::ScalarOracle;
use shortcuts_telemetry::Stage;
use std::sync::Arc;

#[test]
fn every_stage_records_its_exact_span_count() {
    let world = World::build(&WorldConfig::small(), 77);
    let mut cfg = CampaignConfig::small();
    cfg.rounds = 2;
    // One engine throughout: a warm pair cache changes no span count.
    let engine = world.shared().engine(cfg.routing);
    let (window, seed) = (cfg.window, cfg.seed);
    let handle = || PingHandle::new(Arc::clone(&engine));
    let backend = || NetsimBackend::new(handle(), window, seed);
    let tele = shortcuts_telemetry::global();
    let counts = || Stage::ALL.map(|stage| tele.stage_snapshot(stage).count());

    // Windows in each round's direct, reverse and overlay-link stage,
    // planned as the campaign plans them and measured by the scalar
    // oracle rather than the kernel whose spans are counted below.
    // Telemetry starts disabled, so this records nothing.
    let probe = ScalarOracle {
        handle: handle(),
        window,
        campaign_seed: seed,
    };
    let setup = CampaignSetup::prepare(&world, &probe.handle, &cfg);
    let sizes: Vec<[usize; 3]> = (0..cfg.rounds)
        .map(|round| {
            let plan = plan_round_for(&world, &setup.endpoints, &setup.relays, &cfg, round);
            let direct = probe.measure_batch(&plan.direct_tasks(), false);
            let links = plan_overlay(&plan, &direct).link_tasks(&plan).len();
            [direct.len(), plan.reverse_tasks(&direct).len(), links]
        })
        .collect();
    assert!(sizes.iter().flatten().all(|&n| n >= 2), "{sizes:?}");
    let stages = || sizes.iter().flatten();
    let rounds = u64::from(cfg.rounds);

    tele.set_enabled(true);
    for exec in [
        ExecMode::Parallel,
        ExecMode::Sharded {
            rounds_in_flight: 2,
        },
    ] {
        cfg.exec = exec;
        let backend = backend();
        let setup = CampaignSetup::prepare(&world, backend.handle(), &cfg);
        let before = counts();
        Campaign::new(&world, cfg.clone()).run_rounds(
            &backend,
            &setup.endpoints,
            &setup.relays,
            setup.colo,
            |_| {},
        );
        let after = counts();
        let got: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        // `Parallel` samples each non-empty stage under its own span;
        // `Sharded` times a round's direct stage and its reverse +
        // overlay tail as one span each. A stage of two or more windows
        // is resolved once. A round is planned twice (pairs, overlay)
        // and stitched once, and `finish` stitches once more.
        let sampled = match exec {
            ExecMode::Sharded { .. } => sizes
                .iter()
                .map(|&[direct, reverse, links]| {
                    u64::from(direct > 0) + u64::from(reverse + links > 0)
                })
                .sum(),
            _ => stages().filter(|&&n| n > 0).count() as u64,
        };
        let want = Stage::ALL.map(|stage| match stage {
            Stage::Plan => 2 * rounds,
            Stage::ResolvePairs => stages().filter(|&&n| n >= 2).count() as u64,
            Stage::Sample => sampled,
            Stage::Stitch => rounds + 1,
            Stage::Repair => 0,
        });
        assert_eq!(
            got,
            want,
            "{exec:?}: spans per {:?}, stage sizes {sizes:?}",
            Stage::ALL
        );
    }

    // Churn: a transit link goes down before round 1, so every table
    // warmed before round 0 and read after the batch is stale and
    // rebuilt once, under its own repair span.
    let (a, b) = world
        .topo
        .ases()
        .iter()
        .find_map(|info| {
            let customers = &world.topo.adjacency(info.asn).customers;
            customers.first().map(|&c| (info.asn, c))
        })
        .expect("small world has a transit link");
    for exec in [
        ExecMode::Parallel,
        ExecMode::Sharded {
            rounds_in_flight: 2,
        },
    ] {
        let mut churned = cfg.clone();
        churned.exec = exec;
        churned.churn.add(1, TopologyDelta::LinkDown { a, b });
        let engine = world.shared().engine(churned.routing);
        let before = tele.stage_snapshot(Stage::Repair).count();
        Campaign::new(&world, churned).run_streaming_on(&engine, |_| {});
        let spans = tele.stage_snapshot(Stage::Repair).count() - before;
        let rebuilds = engine.router().stats().full_rebuilds;
        assert!(rebuilds > 0, "{exec:?}: churn rebuilt no table");
        assert_eq!(spans, rebuilds, "{exec:?}: repair spans vs full_rebuilds");
    }
    tele.set_enabled(false);
}
