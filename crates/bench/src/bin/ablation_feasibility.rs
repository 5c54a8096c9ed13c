//! Ablation — the §2.4 speed-of-light feasibility pre-filter.
//!
//! Two questions: (a) how much measurement does the filter save, and
//! (b) is it safe — could an excluded relay ever have beaten the direct
//! path? Safety holds by construction when the RTT model never goes
//! below the propagation floor; this binary verifies it empirically on
//! top of quantifying the savings.

use rand::rngs::StdRng;
use rand::SeedableRng;
use shortcuts_bench::{build_world, print_header, seed_from_env};
use shortcuts_core::colo::{run_pipeline, ColoPipelineConfig};
use shortcuts_core::eyeball::{select_eyeballs, EndpointPool};
use shortcuts_core::feasibility::{is_feasible, min_relay_rtt};
use shortcuts_core::measure::{measure_pair, WindowConfig};
use shortcuts_core::relays::RelayPools;
use shortcuts_netsim::clock::SimTime;
use shortcuts_netsim::PingHandle;

fn main() {
    let world = build_world();
    print_header("Ablation: feasibility pre-filter (§2.4)", &world, 1);

    let handle = PingHandle::new(world.shared().engine(Default::default()));
    let mut rng = StdRng::seed_from_u64(seed_from_env());
    let vantage = world.looking_glasses.lgs()[0].host;
    let colo = run_pipeline(
        &world,
        &handle,
        vantage,
        SimTime(0.0),
        &ColoPipelineConfig::default(),
        &mut rng,
    );
    let verified = select_eyeballs(&world, 10.0).verified;
    let endpoint_pool = EndpointPool::build(&world, &verified);
    let relay_pools = RelayPools::build(&world, &colo, &verified);

    let raes = endpoint_pool.sample_round(&mut rng);
    let relays = relay_pools.sample_round(&world, 0, &mut rng);
    let window = WindowConfig::default();

    // Direct medians for one round.
    let mut feasible_links = 0u64;
    let mut total_links = 0u64;
    let mut violations = 0u64;
    let mut checked = 0u64;
    let mut pairs = 0u64;
    for i in 0..raes.len() {
        for j in (i + 1)..raes.len() {
            let Some(direct) = measure_pair(
                &handle,
                raes[i].host,
                raes[j].host,
                SimTime(0.0),
                &window,
                &mut rng,
            ) else {
                continue;
            };
            pairs += 1;
            let si = world.hosts.get(raes[i].host).location;
            let sj = world.hosts.get(raes[j].host).location;
            for r in &relays.relays {
                total_links += 2;
                if is_feasible(&si, &sj, &r.location, direct) {
                    feasible_links += 2;
                } else if checked < 20_000 {
                    // Safety check: the stitched *base* RTT of an
                    // infeasible relay must never beat the measured
                    // direct RTT (up to the noise floor of `direct`).
                    checked += 1;
                    if let (Some(l1), Some(l2)) = (
                        handle.base_rtt(raes[i].host, r.host),
                        handle.base_rtt(raes[j].host, r.host),
                    ) {
                        // Infeasibility certificate from geometry alone.
                        debug_assert!(min_relay_rtt(&si, &sj, &r.location) > direct);
                        if l1 + l2 < direct {
                            violations += 1;
                        }
                    }
                }
            }
        }
    }

    println!("pairs measured: {pairs}");
    println!(
        "overlay links needed: {feasible_links} of {total_links} ({:.1}% saved by the filter)",
        100.0 * (1.0 - feasible_links as f64 / total_links.max(1) as f64)
    );
    println!(
        "infeasible relays that would have beaten the direct path: {violations} of {checked} checked"
    );
    println!("\nExpected: a large saving and (near-)zero violations — the filter");
    println!("discards only relays that cannot win even in a speed-of-light Internet.");
}
