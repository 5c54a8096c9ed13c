//! Trading-overlay scenario: shave milliseconds off a fixed set of
//! financial routes.
//!
//! ```sh
//! cargo run --release --example trading_overlay
//! ```
//!
//! The paper opens with the cost of a millisecond to electronic-trading
//! platforms. This example takes the classic financial city pairs,
//! places one endpoint host in an eyeball AS of each metro, and asks —
//! for each route — which single colo relay minimizes RTT and how many
//! milliseconds it saves over the direct BGP path. It exercises the
//! lower-level API: hand-picked hosts, explicit ping windows, manual
//! stitching.

use colo_shortcuts::core::colo::{run_pipeline, ColoPipelineConfig};
use colo_shortcuts::core::feasibility::is_feasible;
use colo_shortcuts::core::measure::{measure_pair, stitch, WindowConfig};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::netsim::clock::SimTime;
use colo_shortcuts::netsim::{HostId, PingHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUTES: &[(&str, &str)] = &[
    ("NewYork", "London"),
    ("Chicago", "Frankfurt"),
    ("London", "Tokyo"),
    ("NewYork", "SaoPaulo"),
    ("Frankfurt", "Singapore"),
    ("Chicago", "Tokyo"),
];

fn main() {
    let world = World::build(&WorldConfig::paper_scale(), 1234);
    let handle = PingHandle::new(world.shared().engine(Default::default()));
    let mut rng = StdRng::seed_from_u64(42);

    // Verified colo relays (the §2.2 pipeline).
    let vantage = world.looking_glasses.lgs()[0].host;
    let colo = run_pipeline(
        &world,
        &handle,
        vantage,
        SimTime(0.0),
        &ColoPipelineConfig::default(),
        &mut rng,
    );
    println!(
        "relay pool: {} verified colo interfaces in {} facilities\n",
        colo.relays.len(),
        colo.facility_count()
    );

    // One probe host per metro: the first RIPE Atlas probe in the city.
    let probe_in = |city_name: &str| -> Option<HostId> {
        let city = world.topo.cities.by_name(city_name)?;
        world
            .ripe
            .probes()
            .iter()
            .find(|p| p.city == city.id)
            .map(|p| p.host)
    };

    let window = WindowConfig::default();
    println!(
        "{:<24} {:>10} {:>10} {:>8}  via",
        "route", "direct", "relayed", "saved"
    );
    for &(a_name, b_name) in ROUTES {
        let (Some(a), Some(b)) = (probe_in(a_name), probe_in(b_name)) else {
            println!("{a_name:<12} -> {b_name:<12}  no probe available");
            continue;
        };
        let Some(direct) = measure_pair(&handle, a, b, SimTime(0.0), &window, &mut rng) else {
            println!("{a_name:<12} -> {b_name:<12}  unresponsive");
            continue;
        };
        let (sa, sb) = (world.hosts.get(a).location, world.hosts.get(b).location);

        // Feasible colo relays only, then measure both legs and stitch.
        let mut best: Option<(f64, String)> = None;
        for relay in &colo.relays {
            let loc = world.hosts.get(relay.host).location;
            if !is_feasible(&sa, &sb, &loc, direct) {
                continue;
            }
            let (Some(l1), Some(l2)) = (
                measure_pair(&handle, a, relay.host, SimTime(0.0), &window, &mut rng),
                measure_pair(&handle, b, relay.host, SimTime(0.0), &window, &mut rng),
            ) else {
                continue;
            };
            let rtt = stitch(l1, l2);
            if best.as_ref().is_none_or(|(b_rtt, _)| rtt < *b_rtt) {
                let fac = world.topo.facility(relay.facility);
                let city = world.topo.cities.get(fac.city);
                best = Some((rtt, format!("{} ({})", fac.name, city.name)));
            }
        }

        match best {
            Some((rtt, via)) if rtt < direct => println!(
                "{:<24} {:>8.1}ms {:>8.1}ms {:>+7.1}  {via}",
                format!("{a_name} -> {b_name}"),
                direct,
                rtt,
                direct - rtt
            ),
            _ => println!(
                "{:<24} {:>8.1}ms {:>10} {:>8}  direct path already optimal",
                format!("{a_name} -> {b_name}"),
                direct,
                "-",
                "-"
            ),
        }
    }
}
