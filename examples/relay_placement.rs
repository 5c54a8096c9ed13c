//! Relay-placement study: where should the next relay go?
//!
//! ```sh
//! cargo run --release --example relay_placement
//! ```
//!
//! The paper's second research question is *where to place relays*.
//! This example runs a short campaign and then greedily builds a relay
//! deployment one facility at a time (maximum marginal coverage),
//! printing the coverage curve — the practical "how many colos do I
//! need?" answer, and a direct application of the Fig.-3 analysis.

use colo_shortcuts::core::workflow::{Campaign, CampaignConfig};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::core::RelayType;
use colo_shortcuts::netsim::HostId;
use colo_shortcuts::topology::FacilityId;
use std::collections::{HashMap, HashSet};

fn main() {
    let world = World::build(&WorldConfig::paper_scale(), 31);
    let mut cfg = CampaignConfig::paper();
    cfg.rounds = 4;
    println!("running {}-round campaign ...", cfg.rounds);
    let results = Campaign::new(&world, cfg).run();
    let total = results.total_cases() as f64;

    // For each facility: the set of cases improved by any of its relays.
    let mut by_facility: HashMap<FacilityId, HashSet<u32>> = HashMap::new();
    for (idx, case) in results.cases.iter().enumerate() {
        for &(host, _) in case.improving(RelayType::Cor) {
            let Some(meta) = results.relay_meta.get(&host) else {
                continue;
            };
            let Some(f) = meta.facility else { continue };
            by_facility.entry(f).or_default().insert(idx as u32);
        }
    }
    println!(
        "{} facilities contributed at least one improvement\n",
        by_facility.len()
    );

    // Greedy max-coverage: repeatedly take the facility adding the most
    // not-yet-covered cases.
    let mut covered: HashSet<u32> = HashSet::new();
    let mut remaining: HashMap<FacilityId, HashSet<u32>> = by_facility.clone();
    println!(
        "{:>4} {:<28} {:<14} {:>10} {:>12}",
        "k", "facility", "city", "marginal", "cumulative"
    );
    for k in 1..=12 {
        let Some((&best_f, _)) = remaining
            .iter()
            .max_by_key(|(f, cases)| {
                let marginal = cases.difference(&covered).count();
                (marginal, std::cmp::Reverse(f.0)) // deterministic ties
            })
            .filter(|(_, cases)| !cases.is_disjoint(&covered) || !cases.is_empty())
        else {
            break;
        };
        let marginal = remaining[&best_f].difference(&covered).count();
        if marginal == 0 {
            break;
        }
        covered.extend(remaining[&best_f].iter().copied());
        remaining.remove(&best_f);
        let fac = world.topo.facility(best_f);
        let city = world.topo.cities.get(fac.city);
        println!(
            "{:>4} {:<28} {:<14} {:>9.1}% {:>11.1}%",
            k,
            fac.name,
            city.name,
            100.0 * marginal as f64 / total,
            100.0 * covered.len() as f64 / total
        );
    }

    // How many relays is that, really?
    let relays_in_covered: usize = results
        .relay_meta
        .iter()
        .filter(|(_, m)| {
            m.rtype == RelayType::Cor && m.facility.is_some_and(|f| !remaining.contains_key(&f))
        })
        .count();
    let _type_check: Vec<HostId> = Vec::new();
    println!(
        "\nthe greedy deployment uses {} relay interfaces; the paper found 10 relays in 6 large Colos capture ~58% of all cases",
        relays_in_covered
    );
}
