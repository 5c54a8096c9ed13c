//! VoIP provider scenario: pick relay sites for a Skype-like service.
//!
//! ```sh
//! cargo run --release --example voip_provider
//! ```
//!
//! The paper's intro motivates overlays with real-time applications;
//! ITU G.114 treats RTTs above ~320 ms as bad for calls. This example
//! plays the role of a VoIP provider that can afford to rent VMs in a
//! handful of colocation facilities and asks:
//!
//! 1. How many of my user-pair calls are over the 320 ms cliff on the
//!    direct Internet path?
//! 2. If I deploy relays in the best k facilities, how far does that
//!    fraction drop, and which facilities should I rent in?

use colo_shortcuts::core::analysis::top_relays::TopRelayAnalysis;
use colo_shortcuts::core::analysis::voip::VOIP_THRESHOLD_MS;
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::core::RelayType;
use std::collections::{HashMap, HashSet};

fn main() {
    let world = World::build(&WorldConfig::paper_scale(), 99);
    let mut cfg = CampaignConfig::paper();
    cfg.rounds = 4;
    println!("measuring call paths ({} rounds) ...", cfg.rounds);
    let results = Campaign::new(&world, cfg).run();

    let total = results.total_cases() as f64;
    let bad_direct = results
        .cases
        .iter()
        .filter(|c| c.direct_ms > VOIP_THRESHOLD_MS)
        .count() as f64;
    println!(
        "\ndirect paths over {VOIP_THRESHOLD_MS} ms: {:.1}% of {} call pairs",
        100.0 * bad_direct / total,
        results.total_cases()
    );

    // Rank COR relays, group the best ones by facility, and evaluate
    // deployments of growing size.
    let ranking = TopRelayAnalysis::compute(&results, RelayType::Cor, 200);
    println!(
        "\n{:>12} {:>16} {:>22}",
        "#facilities", "bad calls left", "relative reduction"
    );
    for k_fac in [1usize, 2, 4, 6, 10] {
        // Greedily take top relays until k facilities are covered.
        let mut facilities: HashSet<_> = HashSet::new();
        let mut allowed: HashSet<_> = HashSet::new();
        for &(host, _) in &ranking.ranked {
            let Some(meta) = results.relay_meta.get(&host) else {
                continue;
            };
            let Some(f) = meta.facility else { continue };
            if facilities.len() >= k_fac && !facilities.contains(&f) {
                continue;
            }
            facilities.insert(f);
            allowed.insert(host);
        }
        let bad_with = results
            .cases
            .iter()
            .filter(|c| {
                let best = c
                    .improving(RelayType::Cor)
                    .iter()
                    .filter(|(h, _)| allowed.contains(h))
                    .map(|&(_, imp)| f64::from(imp))
                    .fold(0.0_f64, f64::max);
                c.direct_ms - best > VOIP_THRESHOLD_MS
            })
            .count() as f64;
        println!(
            "{:>12} {:>15.1}% {:>21.1}%",
            k_fac,
            100.0 * bad_with / total,
            100.0 * (1.0 - bad_with / bad_direct.max(1.0))
        );
    }

    // Name the facilities a 6-site deployment would rent in.
    let mut chosen: Vec<(String, usize)> = {
        let mut per_fac: HashMap<_, usize> = HashMap::new();
        for &(host, count) in &ranking.ranked {
            if let Some(f) = results.relay_meta.get(&host).and_then(|m| m.facility) {
                *per_fac.entry(f).or_default() += count;
            }
        }
        let mut v: Vec<_> = per_fac.into_iter().collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v.into_iter()
            .take(6)
            .map(|(f, n)| {
                let fac = world.topo.facility(f);
                let city = world.topo.cities.get(fac.city);
                (format!("{} in {}", fac.name, city.name), n)
            })
            .collect()
    };
    println!("\nrecommended 6-facility deployment:");
    for (name, improvements) in chosen.drain(..) {
        println!("  {name:<40} ({improvements} call improvements observed)");
    }
}
