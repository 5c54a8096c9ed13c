//! End-to-end integration: world → campaign → analyses, checking
//! cross-crate invariants on the way.

use colo_shortcuts::core::analysis::improvement::ImprovementAnalysis;
use colo_shortcuts::core::analysis::stability::StabilityAnalysis;
use colo_shortcuts::core::analysis::symmetry::SymmetryAnalysis;
use colo_shortcuts::core::analysis::top_relays::TopRelayAnalysis;
use colo_shortcuts::core::analysis::voip::VoipAnalysis;
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig, CampaignResults};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::core::RelayType;

fn run(seed: u64, rounds: u32) -> (World, CampaignResults) {
    let world = World::build(&WorldConfig::small(), seed);
    let mut cfg = CampaignConfig::small();
    cfg.rounds = rounds;
    let results = Campaign::new(&world, cfg).run();
    (world, results)
}

#[test]
fn campaign_and_all_analyses_run() {
    let (world, results) = run(100, 3);
    assert!(results.total_cases() > 500);

    let imp = ImprovementAnalysis::compute(&results);
    assert_eq!(imp.per_type.len(), 4);
    // COR is the best type — the paper's headline — even in a small
    // world.
    let cor = imp.for_type(RelayType::Cor).improved_fraction;
    for t in [RelayType::Plr, RelayType::RarEye] {
        assert!(
            cor > imp.for_type(t).improved_fraction,
            "COR ({cor}) should beat {t}"
        );
    }

    let top = TopRelayAnalysis::compute(&results, RelayType::Cor, 100);
    assert!(!top.ranked.is_empty());
    // Coverage is monotone and bounded by the type's improved fraction.
    let final_cov = top.coverage.last().copied().unwrap();
    assert!(final_cov <= cor + 1e-9);

    let voip = VoipAnalysis::compute(&results);
    assert!(voip.with_cor_over <= voip.direct_over);

    let stab = StabilityAnalysis::compute(&results, 2);
    assert!(!stab.direct_cvs.is_empty());

    let sym = SymmetryAnalysis::compute(&results);
    assert!(sym.samples > 0);

    // Table 1 wiring: every COR improving relay has facility metadata
    // resolvable against the world.
    for c in &results.cases {
        for &(host, _) in c.improving(RelayType::Cor) {
            let meta = results.relay_meta.get(&host).expect("meta");
            let f = meta.facility.expect("COR has facility");
            assert!(world.topo.facilities().len() > f.0 as usize);
        }
    }
}

#[test]
fn campaign_is_fully_deterministic() {
    let (_, r1) = run(200, 2);
    let (_, r2) = run(200, 2);
    assert_eq!(r1.total_cases(), r2.total_cases());
    assert_eq!(r1.pings_sent, r2.pings_sent);
    for (a, b) in r1.cases.iter().zip(r2.cases.iter()) {
        assert_eq!(a.src, b.src);
        assert_eq!(a.dst, b.dst);
        assert_eq!(a.direct_ms, b.direct_ms);
        for t in RelayType::ALL {
            assert_eq!(a.outcome(t).best(), b.outcome(t).best());
        }
    }
}

#[test]
fn different_seeds_produce_different_campaigns() {
    let (_, r1) = run(300, 1);
    let (_, r2) = run(301, 1);
    // Different world seeds: different populations, different results.
    assert_ne!(r1.pings_sent, r2.pings_sent);
}

#[test]
fn improvements_never_exceed_direct_rtt() {
    let (_, results) = run(400, 2);
    for c in &results.cases {
        for t in RelayType::ALL {
            let out = c.outcome(t);
            if let Some((_, rtt)) = out.best() {
                assert!(rtt > 0.0, "stitched RTT must be positive");
            }
            for &(_, imp) in c.improving(t) {
                assert!(imp > 0.0);
                assert!(
                    f64::from(imp) < c.direct_ms,
                    "improvement {imp} >= direct {}",
                    c.direct_ms
                );
            }
            // The best relay's improvement bounds every listed one.
            if let Some(best_delta) = out.best_improvement(c.direct_ms) {
                for &(_, imp) in c.improving(t) {
                    assert!(f64::from(imp) <= best_delta + 1e-3); // f32 storage rounding
                }
            }
        }
    }
}

#[test]
fn feasible_counts_bound_improving_counts() {
    let (_, results) = run(500, 2);
    for c in &results.cases {
        for t in RelayType::ALL {
            let out = c.outcome(t);
            assert!(c.improving(t).len() <= out.feasible as usize);
            if out.best().is_some() {
                assert!(out.feasible > 0);
            }
        }
    }
}

#[test]
fn more_rounds_accumulate_more_cases() {
    let (_, r1) = run(600, 1);
    let (_, r3) = run(600, 3);
    assert!(r3.total_cases() > r1.total_cases() * 2);
    // Histories deepen with rounds.
    let max_hist_1 = r1.direct_history.values().map(<[f64]>::len).max().unwrap();
    let max_hist_3 = r3.direct_history.values().map(<[f64]>::len).max().unwrap();
    assert!(max_hist_3 > max_hist_1);
}
