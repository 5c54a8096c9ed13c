//! Telemetry is result-neutral: with spans and the trace buffer on, a
//! campaign (the `Parallel` round loop's span layout) and a churned
//! sweep (the interleaved scheduler's) write the same CSV bytes as with
//! telemetry off. Telemetry is process-wide
//! (`shortcuts_telemetry::global()`), so this suite is its own test
//! binary with a single test.

use colo_shortcuts::core::backend::ExecMode;
use colo_shortcuts::core::report::cases_csv;
use colo_shortcuts::core::sweep::{Sweep, SweepConfig};
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::topology::TopologyDelta;
use shortcuts_telemetry::Stage;
use std::sync::Arc;

/// Every CSV a small `Parallel` campaign and a two-scenario sweep with
/// a link flap write, in a fixed order.
fn csvs(world: &Arc<World>) -> Vec<String> {
    let mut base = CampaignConfig::small();
    base.rounds = 2;
    base.exec = ExecMode::Parallel;
    let mut out = vec![cases_csv(&Campaign::new(world, base.clone()).run())];
    let (a, b) = world
        .topo
        .ases()
        .iter()
        .find_map(|info| {
            let customers = &world.topo.adjacency(info.asn).customers;
            customers.first().map(|&c| (info.asn, c))
        })
        .expect("small world has a transit link");
    base.churn.add(1, TopologyDelta::LinkDown { a, b });
    base.churn.add(2, TopologyDelta::LinkUp { a, b });
    let sweep = Sweep::new(
        Arc::clone(world),
        SweepConfig::from_seeds(&base, [2017, 2018]),
    )
    .run();
    out.extend(sweep.scenarios.iter().map(|sc| cases_csv(&sc.results)));
    out.push(sweep.comparison_csv());
    out
}

#[test]
fn csvs_are_byte_identical_with_telemetry_on() {
    let world = Arc::new(World::build(&WorldConfig::small(), 77));
    let tele = shortcuts_telemetry::global();
    assert!(!tele.enabled(), "telemetry starts disabled");
    let off = csvs(&world);

    tele.start_trace();
    let stitched = tele.stage_snapshot(Stage::Stitch).count();
    let on = csvs(&world);
    assert!(
        tele.stage_snapshot(Stage::Stitch).count() > stitched,
        "spans recorded"
    );
    assert!(tele.finish_trace_json().contains("\"name\":\"sample\""));
    tele.set_enabled(false);

    assert_eq!(off.len(), on.len());
    for (i, (a, b)) in off.iter().zip(&on).enumerate() {
        assert!(!a.is_empty(), "csv {i} is empty");
        assert_eq!(a, b, "csv {i} moved with telemetry on");
    }
}
