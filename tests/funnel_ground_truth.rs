//! The §2.2 filter funnel against dataset ground truth: the pipeline
//! must keep exactly the records that deserve to survive.

use colo_shortcuts::core::colo::{run_pipeline, ColoPipelineConfig};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::datasets::GroundTruth;
use colo_shortcuts::netsim::clock::SimTime;
use colo_shortcuts::netsim::PingHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn run_funnel(seed: u64) -> (World, colo_shortcuts::core::colo::ColoPool) {
    let world = World::build(&WorldConfig::small(), seed);
    let pool = {
        let handle = PingHandle::new(world.shared().engine(Default::default()));
        let vantage = world.looking_glasses.lgs()[0].host;
        let mut rng = StdRng::seed_from_u64(seed);
        run_pipeline(
            &world,
            &handle,
            vantage,
            SimTime(0.0),
            &ColoPipelineConfig::default(),
            &mut rng,
        )
    };
    (world, pool)
}

#[test]
fn no_dead_or_moved_ip_survives() {
    let (world, pool) = run_funnel(11);
    let kept: HashSet<_> = pool.relays.iter().map(|r| r.ip).collect();
    for rec in world.facility_dataset.records() {
        match rec.truth {
            GroundTruth::Dead => {
                assert!(!kept.contains(&rec.ip), "dead {} survived", rec.ip)
            }
            GroundTruth::AliveElsewhere { .. } => {
                assert!(!kept.contains(&rec.ip), "moved {} survived", rec.ip)
            }
            GroundTruth::AliveAtFacility { .. } => {}
        }
    }
}

#[test]
fn survivors_have_consistent_ownership_and_location() {
    let (world, pool) = run_funnel(12);
    for relay in &pool.relays {
        // Ownership: prefix2as agrees, single origin.
        assert!(world.prefix2as.owned_solely_by(relay.ip, relay.asn));
        // Membership: AS still in the facility.
        assert!(world
            .peeringdb
            .is_member(&world.topo, relay.facility, relay.asn));
        // Location: host city equals facility city.
        let host = world.hosts.get(relay.host);
        assert_eq!(host.city, relay.city);
        assert_eq!(world.topo.facility(relay.facility).city, relay.city);
    }
}

#[test]
fn funnel_recall_is_reasonable() {
    // Of the records that SHOULD survive (alive at a single real
    // facility, ownership intact), a decent share must make it through
    // — the filters are meant to remove staleness, not decimate truth.
    let (world, pool) = run_funnel(13);
    let kept: HashSet<_> = pool.relays.iter().map(|r| r.ip).collect();
    let mut eligible = 0usize;
    let mut recovered = 0usize;
    for rec in world.facility_dataset.records() {
        let GroundTruth::AliveAtFacility { .. } = rec.truth else {
            continue;
        };
        let Some(f) = rec.single_candidate() else {
            continue;
        };
        if !world.peeringdb.has_facility(f) {
            continue;
        }
        if !world.prefix2as.owned_solely_by(rec.ip, rec.recorded_asn) {
            continue;
        }
        if !world.peeringdb.is_member(&world.topo, f, rec.recorded_asn) {
            continue;
        }
        eligible += 1;
        if kept.contains(&rec.ip) {
            recovered += 1;
        }
    }
    assert!(eligible > 10, "test needs eligible records, got {eligible}");
    let recall = recovered as f64 / eligible as f64;
    // Losses here come only from Periscope coverage gaps and borderline
    // geolocation RTTs (the paper's harshest filter too).
    assert!(recall > 0.4, "recall {recall} ({recovered}/{eligible})");
}

#[test]
fn funnel_shape_is_stable_across_seeds() {
    for seed in [21u64, 22, 23] {
        let (_, pool) = run_funnel(seed);
        let rates = pool.funnel.pass_rates();
        // Stage order never inverts and nothing goes to zero.
        assert!(rates.iter().all(|&r| r > 0.0 && r <= 1.0), "{rates:?}");
        assert!(pool.funnel.geolocated > 0);
    }
}
