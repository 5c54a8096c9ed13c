//! # shortcuts-bench
//!
//! Reproduction harness: one binary per figure/table of the paper plus
//! ablations, the `loadgen` load harness, and the `ledger` perf ledger
//! that `BENCHMARK.json` runs.
//!
//! Every binary runs a deterministic paper-scale campaign and prints the
//! same rows/series the paper reports, next to the paper's reference
//! values. Two environment variables control scale:
//!
//! - `SHORTCUTS_ROUNDS` — measurement rounds (default 8 for a fast run;
//!   set 45 for the paper's full campaign).
//! - `SHORTCUTS_SEED` — world/campaign seed (default 2017).

use shortcuts_core::workflow::{Campaign, CampaignConfig, CampaignResults};
use shortcuts_core::world::{World, WorldConfig};

/// Number of rounds from `SHORTCUTS_ROUNDS` (default 8).
pub fn rounds_from_env() -> u32 {
    std::env::var("SHORTCUTS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// Seed from `SHORTCUTS_SEED` (default 2017).
pub fn seed_from_env() -> u64 {
    std::env::var("SHORTCUTS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2017)
}

/// Builds the paper-scale world used by all experiment binaries.
pub fn build_world() -> World {
    World::build(&WorldConfig::paper_scale(), seed_from_env())
}

/// Runs the standard campaign over `world` with the env-selected number
/// of rounds.
pub fn run_campaign(world: &World) -> CampaignResults {
    let mut cfg = CampaignConfig::paper();
    cfg.rounds = rounds_from_env();
    cfg.seed = seed_from_env();
    Campaign::new(world, cfg).run()
}

/// Prints the standard experiment header.
pub fn print_header(title: &str, world: &World, rounds: u32) {
    println!("== {title} ==");
    println!(
        "world: {} ASes, {} facilities, {} hosts | rounds: {rounds} (SHORTCUTS_ROUNDS to change; paper used 45) | seed: {}",
        world.topo.as_count(),
        world.topo.facilities().len(),
        world.hosts.len(),
        world.seed,
    );
    println!();
}

/// Renders a unit-interval value as a short ASCII bar.
pub fn bar(fraction: f64, width: usize) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Not set in the test environment.
        std::env::remove_var("SHORTCUTS_ROUNDS");
        std::env::remove_var("SHORTCUTS_SEED");
        assert_eq!(rounds_from_env(), 8);
        assert_eq!(seed_from_env(), 2017);
    }

    #[test]
    fn bar_renders() {
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(1.5, 4), "####");
    }
}
