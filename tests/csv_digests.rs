//! Golden CSV digests: the output bytes themselves, pinned.
//!
//! Every equivalence suite compares one execution mode with another,
//! so a change that moves *every* mode the same way — a reordered
//! field, a different rounding, a stitch that drops a relay — passes
//! them all. These tests pin an FNV-1a digest of each CSV a small
//! campaign and a small sweep render: the five files of
//! `colo-shortcuts campaign` (and `report`), rendered by the function
//! both commands call, and the sweep's comparison table. The
//! digests were captured before case records became plain values with
//! per-round `improving` arenas, and that change reproduces them
//! byte for byte. A mismatch means the rendered output moved.

use colo_shortcuts::core::report;
use colo_shortcuts::core::sweep::{Sweep, SweepConfig};
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig};
use colo_shortcuts::core::world::{World, WorldConfig};
use std::sync::{Arc, LazyLock};

/// One small world, built once for both tests.
static WORLD: LazyLock<Arc<World>> =
    LazyLock::new(|| Arc::new(World::build(&WorldConfig::small(), 2017)));

/// FNV-1a over the bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

fn config(rounds: u32) -> CampaignConfig {
    let mut cfg = CampaignConfig::small();
    cfg.rounds = rounds;
    cfg.seed = 2017;
    cfg
}

fn assert_digests(got: &[(&str, String)], want: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = got
        .iter()
        .map(|(name, csv)| (*name, fnv1a(csv.as_bytes())))
        .collect();
    assert_eq!(
        got,
        want,
        "rendered CSV bytes moved: {}",
        got.iter()
            .map(|(name, d)| format!("{name} {d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

#[test]
fn campaign_csvs_are_pinned() {
    let results = Campaign::new(&WORLD, config(3)).run();
    assert!(results.total_cases() > 0);
    assert_digests(
        &report::campaign_csvs(&results),
        &[
            ("cases.csv", 0x0527f1ed65ddc959),
            ("improvement.csv", 0x01eb746c4badf6a5),
            ("top_relays.csv", 0x079f48f9c7e9821b),
            ("threshold.csv", 0x2173a814767c5aac),
            ("funnel.csv", 0x9834747b8e9d8690),
        ],
    );
}

#[test]
fn sweep_comparison_csv_is_pinned() {
    let sweep = Sweep::new(
        Arc::clone(&WORLD),
        SweepConfig::from_seeds(&config(2), [2017, 2018]),
    )
    .run();
    assert_eq!(sweep.scenarios.len(), 2);
    let mut got: Vec<(&str, String)> = sweep
        .scenarios
        .iter()
        .zip(["cases_seed-2017.csv", "cases_seed-2018.csv"])
        .map(|(sc, name)| (name, report::cases_csv(&sc.results)))
        .collect();
    got.push(("sweep.csv", sweep.comparison_csv()));
    assert_digests(
        &got,
        &[
            ("cases_seed-2017.csv", 0xf7f7c6e5e34fdf5a),
            ("cases_seed-2018.csv", 0x75030a9b48769d47),
            ("sweep.csv", 0x57559c4daad1c2f8),
        ],
    );
}
