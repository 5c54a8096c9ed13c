//! The measurement engine's determinism contract:
//!
//! - same seed ⇒ bit-identical [`CampaignResults`] across repeated
//!   runs;
//! - serial, parallel and round-sharded execution are
//!   indistinguishable — per-task RNG derivation makes window
//!   scheduling unobservable, per-round plan derivation and the
//!   order-independent results builder make *round* scheduling
//!   unobservable;
//! - streaming summaries are deterministic and consistent with the
//!   final results in every mode;
//! - a starved memory budget is unobservable: a sharded run that
//!   evicts and recomputes under its own schedule changes no bit;
//! - different seeds actually change the measurements.

use colo_shortcuts::core::backend::ExecMode;
use colo_shortcuts::core::workflow::{Campaign, CampaignConfig, CampaignResults, RoundSummary};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::core::RelayType;
use colo_shortcuts::topology::MemoryBudget;
use std::sync::OnceLock;

/// The suite's world: small, seed 77, built once. Every test only
/// reads it; each campaign still builds its own engine stack.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::build(&WorldConfig::small(), 77))
}

fn config(exec: ExecMode) -> CampaignConfig {
    let mut cfg = CampaignConfig::small();
    cfg.rounds = 2;
    cfg.exec = exec;
    cfg
}

fn run(world: &World, exec: ExecMode) -> CampaignResults {
    Campaign::new(world, config(exec)).run()
}

/// Exhaustive bit-level comparison of two campaign results.
fn assert_identical(a: &CampaignResults, b: &CampaignResults) {
    assert_eq!(a.total_cases(), b.total_cases());
    for (ca, cb) in a.cases.iter().zip(&b.cases) {
        assert_eq!(ca.round, cb.round);
        assert_eq!(ca.src, cb.src);
        assert_eq!(ca.dst, cb.dst);
        assert_eq!(ca.src_country, cb.src_country);
        assert_eq!(ca.dst_country, cb.dst_country);
        assert_eq!(ca.intercontinental, cb.intercontinental);
        assert_eq!(ca.direct_ms.to_bits(), cb.direct_ms.to_bits());
        for t in RelayType::ALL {
            let (oa, ob) = (ca.outcome(t), cb.outcome(t));
            assert_eq!(oa.feasible, ob.feasible);
            match (oa.best(), ob.best()) {
                (Some((ha, ra)), Some((hb, rb))) => {
                    assert_eq!(ha, hb);
                    assert_eq!(ra.to_bits(), rb.to_bits());
                }
                (None, None) => {}
                other => panic!("best outcome mismatch: {other:?}"),
            }
            let (ia, ib) = (ca.improving(t), cb.improving(t));
            assert_eq!(ia.len(), ib.len());
            for (&(ha, ia), &(hb, ib)) in ia.iter().zip(ib) {
                assert_eq!(ha, hb);
                assert_eq!(ia.to_bits(), ib.to_bits());
            }
        }
    }
    // Histories: same keys, same values in the same order.
    assert_eq!(a.direct_history.len(), b.direct_history.len());
    for (key, va) in a.direct_history.iter() {
        let vb = b.direct_history.get(key).expect("history key present");
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    assert_eq!(a.link_history.len(), b.link_history.len());
    for (key, va) in a.link_history.iter() {
        let vb = b.link_history.get(key).expect("link key present");
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    // Symmetry samples (order matters: pair order within rounds).
    assert_eq!(a.symmetry_samples.len(), b.symmetry_samples.len());
    for (&(fa, ra), &(fb, rb)) in a.symmetry_samples.iter().zip(&b.symmetry_samples) {
        assert_eq!(fa.to_bits(), fb.to_bits());
        assert_eq!(ra.to_bits(), rb.to_bits());
    }
    // Relay metadata and scalar accounting.
    assert_eq!(a.relay_meta.len(), b.relay_meta.len());
    assert_eq!(a.pings_sent, b.pings_sent);
    assert_eq!(a.unresponsive_pairs, b.unresponsive_pairs);
    assert_eq!(a.avg_endpoints.to_bits(), b.avg_endpoints.to_bits());
    for i in 0..4 {
        assert_eq!(a.avg_relays[i].to_bits(), b.avg_relays[i].to_bits());
    }
    assert_eq!(a.colo_pool.relays.len(), b.colo_pool.relays.len());
    assert_eq!(a.colo_pool.funnel, b.colo_pool.funnel);
}

#[test]
fn same_seed_same_results_bitwise() {
    let world = world();
    let r1 = run(world, ExecMode::Parallel);
    let r2 = run(world, ExecMode::Parallel);
    assert!(!r1.cases.is_empty());
    assert_identical(&r1, &r2);
}

#[test]
fn serial_and_parallel_backends_are_equivalent() {
    let world = world();
    let serial = run(world, ExecMode::Serial);
    let parallel = run(world, ExecMode::Parallel);
    assert!(!serial.cases.is_empty());
    assert_identical(&serial, &parallel);
}

#[test]
fn sharded_is_bit_identical_to_serial() {
    // The acceptance check for round sharding: with rounds completing
    // out of order across a worker pool, every case, history, symmetry
    // sample and the ping count must still match a serial run bit for
    // bit — at every sharding depth, including depths past the round
    // count.
    let world = world();
    let serial = run(world, ExecMode::Serial);
    assert!(!serial.cases.is_empty());
    for rounds_in_flight in [1, 2, 3, 16] {
        let sharded = run(world, ExecMode::Sharded { rounds_in_flight });
        assert_identical(&serial, &sharded);
    }
}

#[test]
fn starved_budget_sharded_is_bit_identical_to_unbudgeted_parallel() {
    // 256K holds a few routing tables and pair entries at most, so the
    // sharded run evicts and recomputes on its hot paths, racing
    // eviction against rounds in flight. None of it may show in the
    // results.
    let world = world();
    let unbudgeted = run(world, ExecMode::Parallel);
    assert!(!unbudgeted.cases.is_empty());
    let mut cfg = config(ExecMode::Sharded {
        rounds_in_flight: 2,
    });
    cfg.memory = MemoryBudget::bytes(256 << 10);
    let engine = world.shared().engine_budgeted(cfg.routing, cfg.memory);
    let starved = Campaign::new(world, cfg).run_streaming_on(&engine, |_| {});
    let stats = engine.engine_stats();
    assert!(
        stats.pair_evictions > 0 && stats.router_evictions > 0,
        "{stats:?}"
    );
    assert_identical(&unbudgeted, &starved);
}

#[test]
fn sharded_repeats_are_bit_identical() {
    let world = world();
    let mode = ExecMode::Sharded {
        rounds_in_flight: 2,
    };
    let r1 = run(world, mode);
    let r2 = run(world, mode);
    assert!(!r1.cases.is_empty());
    assert_identical(&r1, &r2);
}

#[test]
fn streaming_summaries_agree_across_modes() {
    // The streaming observer must see the same per-round summaries, in
    // the same (round) order, whichever scheduler ran the campaign.
    let world = world();
    let collect = |exec: ExecMode| -> Vec<RoundSummary> {
        let mut cfg = CampaignConfig::small();
        cfg.rounds = 2;
        cfg.exec = exec;
        let mut summaries = Vec::new();
        Campaign::new(world, cfg).run_streaming(|s| summaries.push(s.clone()));
        summaries
    };
    let serial = collect(ExecMode::Serial);
    assert_eq!(serial.len(), 2);
    assert!(serial.iter().enumerate().all(|(i, s)| s.round == i as u32));
    for exec in [
        ExecMode::Parallel,
        ExecMode::Sharded {
            rounds_in_flight: 2,
        },
    ] {
        assert_eq!(serial, collect(exec), "{exec:?}");
    }
}

#[test]
fn different_seed_changes_measurements() {
    let world = world();
    let mut cfg = CampaignConfig::small();
    cfg.rounds = 1;
    let r1 = Campaign::new(world, cfg.clone()).run();
    cfg.seed += 1;
    let r2 = Campaign::new(world, cfg).run();
    // Same world, different campaign seed: endpoint samples and window
    // noise both move.
    let same_medians = r1
        .cases
        .iter()
        .zip(&r2.cases)
        .filter(|(a, b)| a.direct_ms.to_bits() == b.direct_ms.to_bits())
        .count();
    assert!(
        same_medians < r1.total_cases().min(r2.total_cases()) / 2,
        "seed change left {same_medians} medians identical"
    );
}
