//! Property-based tests over randomly seeded simulations: whatever the
//! seed, the structural invariants of the generated world and its
//! measurements must hold.

use colo_shortcuts::core::eyeball::{select_eyeballs, EndpointPool};
use colo_shortcuts::core::world::{World, WorldConfig};
use colo_shortcuts::netsim::clock::SimTime;
use colo_shortcuts::netsim::{LatencyModel, PingEngine, PingHandle, Pinger};
use colo_shortcuts::topology::routing::Router;
use colo_shortcuts::topology::{AsType, Topology, TopologyConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // Topology generation is expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn any_seed_yields_a_sound_topology(seed in 0u64..10_000) {
        let topo = Topology::generate(&TopologyConfig::small(), seed);
        // Every non-tier-1 has a provider; every PoP belongs to its AS.
        for info in topo.ases() {
            if info.as_type != AsType::Tier1 {
                prop_assert!(!topo.adjacency(info.asn).providers.is_empty());
            }
            for &p in &info.pops {
                prop_assert_eq!(topo.pop(p).asn, info.asn);
            }
            prop_assert!(!info.prefixes.is_empty());
        }
        // Facility members have PoPs in the facility's city.
        for f in topo.facilities() {
            for &m in &f.members {
                prop_assert!(topo.pop_cities(m).contains(&f.city));
            }
        }
        // Adjacency is symmetric.
        for info in topo.ases() {
            let adj = topo.adjacency(info.asn);
            for &p in &adj.providers {
                prop_assert!(topo.adjacency(p).customers.contains(&info.asn));
            }
            for &q in &adj.peers {
                prop_assert!(topo.adjacency(q).peers.contains(&info.asn));
            }
        }
    }

    #[test]
    fn any_seed_pings_are_physical(seed in 0u64..10_000) {
        let topo = std::sync::Arc::new(Topology::generate(&TopologyConfig::small(), seed));
        let router = std::sync::Arc::new(Router::new(std::sync::Arc::clone(&topo)));
        let mut hosts = colo_shortcuts::netsim::HostRegistry::new();
        let eyes = topo.eyeball_asns();
        let a = hosts.add_host_in_as(&topo, eyes[0], None).expect("host");
        let b = hosts
            .add_host_in_as(&topo, eyes[eyes.len() / 2], None)
            .expect("host");
        let engine = PingEngine::new(
            std::sync::Arc::clone(&topo),
            router,
            std::sync::Arc::new(hosts),
            LatencyModel::default(),
        );
        let handle = PingHandle::new(std::sync::Arc::new(engine));
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(base) = handle.base_rtt(a, b) {
            // Base is the floor of every observed sample.
            for i in 0..10 {
                if let Some(rtt) = handle.ping(a, b, SimTime(f64::from(i) * 60.0), &mut rng) {
                    prop_assert!(rtt >= base - 1e-9, "sample {rtt} under base {base}");
                    prop_assert!(rtt < base + 1000.0, "sample {rtt} absurdly high");
                }
            }
            // Symmetric base.
            prop_assert!((handle.base_rtt(b, a).expect("routable") - base).abs() < 1e-9);
        }
    }

    #[test]
    fn any_seed_endpoint_sampling_is_lawful(seed in 0u64..10_000) {
        let world = World::build(&WorldConfig::small(), seed);
        let sel = select_eyeballs(&world, 10.0);
        // Verified tuples really are eyeballs.
        for v in &sel.verified {
            prop_assert_eq!(world.topo.expect_as(v.asn).as_type, AsType::Eyeball);
        }
        let pool = EndpointPool::build(&world, &sel.verified);
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = pool.sample_round(&mut rng);
        // One endpoint per country, all from verified tuples.
        let mut seen = std::collections::HashSet::new();
        for p in &sample {
            prop_assert!(seen.insert(p.country));
            prop_assert!(sel
                .verified
                .iter()
                .any(|v| v.asn == p.asn && v.country == p.country));
        }
    }
}
