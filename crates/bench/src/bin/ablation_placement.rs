//! Ablation — COR relays at flagship hub-metro facilities vs. small
//! regional facilities.
//!
//! Table 1 suggests the paper's heavy hitters are all in large hub
//! colos. This ablation splits the COR relay pool by facility location
//! (hub metro or not) and recomputes the improvement coverage of each
//! half, isolating "being in a colo" from "being in a *large, hub*
//! colo".

use shortcuts_bench::{build_world, print_header, rounds_from_env, run_campaign};
use shortcuts_core::{CampaignResults, RelayType};
use shortcuts_netsim::HostId;
use std::collections::HashSet;

fn main() {
    let world = build_world();
    let rounds = rounds_from_env();
    print_header(
        "Ablation: hub-colo vs regional-colo COR relays",
        &world,
        rounds,
    );
    let results = run_campaign(&world);

    // Split COR relays by whether their facility city is a hub metro.
    let mut hub_relays: HashSet<HostId> = HashSet::new();
    let mut regional_relays: HashSet<HostId> = HashSet::new();
    for (&host, meta) in &results.relay_meta {
        if meta.rtype != RelayType::Cor {
            continue;
        }
        if world.topo.cities.get(meta.city).is_hub {
            hub_relays.insert(host);
        } else {
            regional_relays.insert(host);
        }
    }

    let coverage = |allowed: &HashSet<HostId>| -> f64 {
        let improved = results
            .cases
            .iter()
            .filter(|c| {
                c.improving(RelayType::Cor)
                    .iter()
                    .any(|(h, _)| allowed.contains(h))
            })
            .count();
        improved as f64 / results.total_cases().max(1) as f64
    };

    let all: HashSet<HostId> = hub_relays.union(&regional_relays).copied().collect();
    println!(
        "COR relays at hub facilities:      {:>4}  improve {:>5.1}% of total cases",
        hub_relays.len(),
        100.0 * coverage(&hub_relays)
    );
    println!(
        "COR relays at regional facilities: {:>4}  improve {:>5.1}% of total cases",
        regional_relays.len(),
        100.0 * coverage(&regional_relays)
    );
    println!(
        "all COR relays:                    {:>4}  improve {:>5.1}% of total cases",
        all.len(),
        100.0 * coverage(&all)
    );

    // Per-relay efficiency.
    let efficiency = |set: &HashSet<HostId>| {
        if set.is_empty() {
            return 0.0;
        }
        let total: usize = results
            .cases
            .iter()
            .map(|c| {
                c.improving(RelayType::Cor)
                    .iter()
                    .filter(|(h, _)| set.contains(h))
                    .count()
            })
            .sum();
        total as f64 / set.len() as f64
    };
    println!();
    println!(
        "improvements contributed per relay: hub {:.0}, regional {:.0}",
        efficiency(&hub_relays),
        efficiency(&regional_relays)
    );
    println!("\nExpected: hub-colo relays carry most of the coverage with far fewer");
    println!("relays — the paper's 'few large Colos suffice' effect (Fig. 3, Table 1).");

    let _ = mk(&results);
}

// Keeps the binary honest if CampaignResults changes shape.
fn mk(r: &CampaignResults) -> usize {
    r.total_cases()
}
